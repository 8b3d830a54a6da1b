//! Tests of the benchmark's own output checks. Run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml` (the
//! held-out-seed test simulates every workload and is slow unoptimised).

use hls_core::{RouterSpec, SystemConfig};
use perfbench::checks::{self, Guard};
use perfbench::measure::{self, Tally};
use perfbench::workloads::{self, Policy, Run, Workload};

fn saturated() -> Workload {
    // No load sharing at 20 tps: the local sites saturate and deliver
    // about half the offered load.
    let cfg = SystemConfig::paper_default()
        .with_total_rate(20.0)
        .with_horizon(300.0, 30.0)
        .with_seed(11);
    Workload {
        name: "saturated",
        runs: vec![Run {
            label: "no_sharing_20tps",
            cfg,
            policy: Policy::Fixed(RouterSpec::NoSharing),
        }],
        ..workloads::paper_policies(11)
    }
}

#[test]
fn saturated_config_is_counted_as_failed() {
    let wl = saturated();
    let mut guard = Guard::new();
    let mut tally = Tally::default();
    let mut reference = None;
    let pass = measure::pass(
        &wl,
        &mut guard,
        &mut reference,
        &mut tally,
        None,
        &mut Vec::new(),
    );
    assert!(pass.is_some(), "a saturated run finishes; it is not stuck");
    assert_eq!(tally.attempted, 1);
    assert_eq!(tally.failed, 1, "errors: {:?}", tally.errors);
    assert!(tally.errors[0].contains("throughput"), "{:?}", tally.errors);
}

#[test]
fn run_past_its_host_time_cap_is_counted_as_failed() {
    let mut wl = workloads::contended_drift(3);
    wl.limits.host_cap_s = 0.001;
    let mut guard = Guard::new();
    let mut tally = Tally::default();
    let passes = measure::passes(&wl, &mut guard, 0.0, 3, &mut tally);
    assert!(
        passes.is_empty(),
        "no pass completes once the worker is stuck"
    );
    assert!(guard.is_stuck());
    assert_eq!((tally.attempted, tally.failed), (1, 1));
    assert!(
        tally.errors[0].contains("host-time cap"),
        "{:?}",
        tally.errors
    );
}

#[test]
fn held_out_seed_passes_every_output_check() {
    // 424242 was never used while choosing the workloads.
    for name in workloads::NAMES {
        let wl = workloads::build(name, 424_242).expect("known workload");
        let mut guard = Guard::new();
        let mut tally = Tally::default();
        let passes = measure::passes(&wl, &mut guard, 0.0, 2, &mut tally);
        assert_eq!(passes.len(), 2, "{name}");
        assert_eq!(tally.attempted, 2 * wl.runs.len() as u64, "{name}");
        assert_eq!(tally.failed, 0, "{name}: {:?}", tally.errors);
        assert!(
            passes.iter().all(|p| p.events > 0 && p.wall_s() > 0.0),
            "{name}"
        );
    }
}

#[test]
fn seeds_change_the_inputs_and_repeat_exactly() {
    let a = workloads::contended_drift(1);
    let b = workloads::contended_drift(2);
    assert_ne!(a.runs[0].cfg.seed, b.runs[0].cfg.seed);
    let short = |wl: &Workload| {
        let run = wl.runs[0].shortened(200.0, 20.0);
        let (sys, _) = run.set_up().expect("valid");
        checks::digest(&sys.run())
    };
    assert_eq!(short(&a), short(&workloads::contended_drift(1)));
    assert_ne!(short(&a), short(&b));
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<String> {
        let start = text.find(&format!("\"{key}\"")).expect(key);
        let end = text[start..].find(']').expect("array end") + start;
        text[start..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    assert_eq!(section("workloads"), workloads::NAMES.to_vec());
    assert_eq!(
        section("end_to_end"),
        ["wall_s", "events_per_s", "setup_s", "peak_rss_mb"]
    );
    let per_layer: Vec<String> = perfbench::trace::metric_names()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(section("per_layer"), per_layer);
}
