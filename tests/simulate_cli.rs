//! Argv-level checks of the `simulate` binary's error reporting.

use std::process::Command;

/// A configuration error is reported once, with one `invalid
/// configuration:` prefix, on every path that builds a system: a single
/// run, a replicated run and a traced run.
#[test]
fn config_errors_carry_the_prefix_exactly_once() {
    let trace = std::env::temp_dir().join(format!("simulate-cli-{}.jsonl", std::process::id()));
    let trace = trace.to_str().expect("utf-8 temp path").to_string();
    let base = ["--lockspace", "5", "--sim-time", "10", "--policy", "queue"];
    for extra in [&[][..], &["--reps", "2"], &["--trace-out", &trace]] {
        let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(base)
            .args(extra)
            .output()
            .expect("simulate runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert_eq!(
            stderr.matches("invalid configuration:").count(),
            1,
            "{extra:?}: {stderr}"
        );
        assert!(stderr.contains("lockspace"), "{extra:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&trace);
}
