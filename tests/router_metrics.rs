//! Whole-run pin for the analytic routers the golden grid skips.
//!
//! `golden_metrics.rs` runs only `min-average(n)` among the estimator-driven
//! policies. This suite pins the full [`RunMetrics`] `Debug` rendering of
//! the others — min-incoming with both estimators, min-average on queue
//! lengths, the smoothed (probabilistic) variant, and island-aware routing
//! on a genuinely asymmetric two-island topology — so any change to the
//! estimator's arithmetic, or to how a router caches it, shows up as a
//! byte diff.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --release --test router_metrics
//! ```

use hls_core::{run_simulation, IslandSpec, RouterSpec, SystemConfig, UtilizationEstimator};

const GOLDEN_PATH: &str = "tests/golden/router_metrics.txt";

fn base() -> SystemConfig {
    SystemConfig::paper_default()
        .with_total_rate(18.0)
        .with_horizon(40.0, 8.0)
        .with_seed(42)
}

/// Two islands: the central complex shares island 0's cheap 0.05 s links,
/// island 1 sits behind a 0.8 s hop on CPUs twice the nominal speed.
fn two_islands() -> SystemConfig {
    let cfg = base();
    let n = cfg.params.n_sites;
    let islands = IslandSpec::contiguous(n, 2, 0, 0.05, 0.8);
    let mips = (0..n)
        .map(|i| {
            if islands.island_of(i) == 0 {
                cfg.params.local_mips
            } else {
                2.0 * cfg.params.local_mips
            }
        })
        .collect();
    cfg.with_islands(islands).with_site_mips(mips)
}

fn grid() -> Vec<(&'static str, SystemConfig, RouterSpec)> {
    let q = UtilizationEstimator::QueueLength;
    let n = UtilizationEstimator::NumInSystem;
    vec![
        (
            "min-incoming-q",
            base(),
            RouterSpec::MinIncoming { estimator: q },
        ),
        (
            "min-incoming-n",
            base(),
            RouterSpec::MinIncoming { estimator: n },
        ),
        (
            "min-average-q",
            base(),
            RouterSpec::MinAverage { estimator: q },
        ),
        (
            "smoothed-n-0.5",
            base(),
            RouterSpec::SmoothedMinAverage {
                estimator: n,
                scale: 0.5,
            },
        ),
        (
            "two-islands/island-aware-n",
            two_islands(),
            RouterSpec::IslandAware { estimator: n },
        ),
    ]
}

#[test]
fn analytic_router_runs_are_bit_identical_to_recorded() {
    let mut actual = String::new();
    for (label, cfg, spec) in grid() {
        let m = run_simulation(cfg, spec).expect("pinned config must be valid");
        actual.push_str(&format!("=== {label}\n{m:#?}\n"));
    }
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing; regenerate with GOLDEN_REGEN=1");
    for (exp, act) in expected.split("=== ").zip(actual.split("=== ")) {
        assert_eq!(exp.lines().next(), act.lines().next(), "labels drifted");
        assert_eq!(exp, act, "RunMetrics diverged from the recorded run");
    }
    assert_eq!(expected.len(), actual.len(), "run count changed");
}
