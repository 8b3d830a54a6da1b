//! Command-line entry point; see the crate docs and `perfbench/README.md`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::calib::{self, CALIB_REF_S};
use perfbench::checks::Guard;
use perfbench::measure::{self, Pass, Tally};
use perfbench::stats::Summary;
use perfbench::{spans, trace, workloads};

/// Fewest timed passes a measurement reports, however short `--seconds`.
const MIN_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1988;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut spans = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        spans,
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_line(correct: bool, tally: &Tally, metrics: &[(String, f64, &str)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted.max(1),
        tally.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    s.push_str("}}");
    s
}

fn summary_line(name: &str, unit: &str, xs: &[f64]) -> String {
    if xs.is_empty() {
        return format!("{name:<14} no samples");
    }
    let s = Summary::of(xs);
    format!(
        "{name:<14} median {:>12.6} {unit:<8} q1 {:>12.6}  q3 {:>12.6}  n {}",
        s.median, s.q1, s.q3, s.n
    )
}

fn end_to_end(passes: &[Pass]) -> (Vec<(String, f64, &'static str)>, Vec<String>) {
    let raw: Vec<f64> = passes.iter().map(Pass::wall_s).collect();
    let wall: Vec<f64> = passes.iter().map(|p| p.wall_s() * p.factor()).collect();
    let eps: Vec<f64> = passes
        .iter()
        .map(|p| p.events as f64 / (p.run_total_s() * p.factor()).max(f64::MIN_POSITIVE))
        .collect();
    let setup: Vec<f64> = passes.iter().map(|p| p.setup_s * p.factor()).collect();
    let calib: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.calib_s.iter().copied())
        .collect();
    let rss = peak_rss_mb();
    let med = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            Summary::of(xs).median
        }
    };
    let lines = vec![
        format!(
            "timings in reference seconds: each pass's host seconds x \
             {CALIB_REF_S} s / median of the pass's calibration readings"
        ),
        summary_line("wall_s", "s", &wall),
        summary_line("events_per_s", "events/s", &eps),
        summary_line("setup_s", "s", &setup),
        format!("{:<14} {rss:.3} MB", "peak_rss_mb"),
        summary_line("raw wall_s", "host-s", &raw),
        summary_line("calibration", "host-s", &calib),
    ];
    let metrics = vec![
        ("wall_s".to_string(), med(&wall), "s"),
        ("events_per_s".to_string(), med(&eps), "events/s"),
        ("setup_s".to_string(), med(&setup), "s"),
        ("peak_rss_mb".to_string(), rss, "MB"),
    ];
    (metrics, lines)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--spans PATH]",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(wl) = workloads::build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (expected one of {})",
            args.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} runs/pass={} available_parallelism={parallelism}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wl.runs.len()
    );
    // Warm the calibration kernel's code and data once.
    let _ = calib::measure();
    let mut guard = Guard::new();
    let mut tally = Tally::default();
    let metrics = if args.trace {
        let t = trace::traced(&wl, &mut guard, args.seconds, &mut tally);
        for l in &t.lines {
            println!("{l}");
        }
        for (name, v, unit) in &t.metrics {
            println!("{name:<32} {v:>16.6} {unit}");
        }
        if let Some(path) = &args.spans {
            let written = path
                .parent()
                .map_or(Ok(()), std::fs::create_dir_all)
                .and_then(|()| std::fs::write(path, spans::to_jsonl(&t.spans)));
            match written {
                Ok(()) => println!("spans: {} written to {}", t.spans.len(), path.display()),
                Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
            }
        }
        t.metrics
    } else {
        let passes = measure::passes(&wl, &mut guard, args.seconds, MIN_PASSES, &mut tally);
        let (m, lines) = end_to_end(&passes);
        for l in lines {
            println!("{l}");
        }
        m
    };
    for e in &tally.errors {
        println!("FAILED {e}");
    }
    println!("runs attempted {} failed {}", tally.attempted, tally.failed);
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!("{}", result_line(correct, &tally, &metrics));
    // A run stuck past its host-time cap keeps the worker busy; leaving
    // main ends it with the process.
    ExitCode::SUCCESS
}
