//! The benchmark's workloads: fixed sets of simulator runs generated from
//! a seed. The simulator only ever receives the generated
//! [`SystemConfig`]s and router choices.
//!
//! Why each workload exists, and which layers it is meant to stress, is
//! recorded in `perfbench/README.md`.

use hls_core::{
    derive_seed, optimal_static_spec, ConfigError, DriftSpec, HybridSystem, PlacementConfig,
    RouterSpec, SystemConfig, UtilizationEstimator,
};

use crate::spans::now_ns;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper_policies", "contended_drift", "sharded_1000"];

/// How a run's router is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    /// The analytic model's optimal static shipping probability, solved
    /// during set-up (`optimal_static_spec`).
    StaticOptimal,
    /// A fixed routing policy.
    Fixed(RouterSpec),
}

/// One simulator run of a workload.
#[derive(Debug, Clone)]
pub struct Run {
    /// Short name used in reports and span names.
    pub label: &'static str,
    /// The generated configuration.
    pub cfg: SystemConfig,
    /// The routing policy.
    pub policy: Policy,
}

/// Timestamps of one set-up (ns since the span epoch): router choice
/// from `start_ns` to `mid_ns`, `HybridSystem::new` from `mid_ns` to
/// `end_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetupStamps {
    /// Set-up began.
    pub start_ns: u64,
    /// Router chosen (the analytic static solve for
    /// [`Policy::StaticOptimal`]); `HybridSystem::new` began.
    pub mid_ns: u64,
    /// `HybridSystem::new` returned.
    pub end_ns: u64,
}

impl SetupStamps {
    /// Whole set-up, host seconds.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// `HybridSystem::new` alone (validation, router, drift model, state).
    #[must_use]
    pub fn new_s(&self) -> f64 {
        (self.end_ns - self.mid_ns) as f64 * 1e-9
    }
}

impl Run {
    /// Everything before the run's first event: router choice and
    /// `HybridSystem::new`.
    ///
    /// # Errors
    ///
    /// Returns the simulator's configuration error.
    pub fn set_up(&self) -> Result<(HybridSystem, SetupStamps), ConfigError> {
        let start_ns = now_ns();
        let spec = self.router_spec();
        let mid_ns = now_ns();
        let sys = HybridSystem::new(self.cfg.clone(), spec)?;
        let end_ns = now_ns();
        Ok((
            sys,
            SetupStamps {
                start_ns,
                mid_ns,
                end_ns,
            },
        ))
    }

    /// The concrete router (solving the static optimum if needed).
    #[must_use]
    pub fn router_spec(&self) -> RouterSpec {
        match self.policy {
            Policy::StaticOptimal => optimal_static_spec(&self.cfg),
            Policy::Fixed(spec) => spec,
        }
    }

    /// Offered load, transactions per second over all sites.
    #[must_use]
    pub fn offered_tps(&self) -> f64 {
        self.cfg.mean_site_rate() * self.cfg.params.n_sites as f64
    }

    /// The same run with a shorter horizon, for the drained companion.
    #[must_use]
    pub fn shortened(&self, sim_time: f64, warmup: f64) -> Run {
        Run {
            cfg: self.cfg.clone().with_horizon(sim_time, warmup),
            ..self.clone()
        }
    }
}

/// Output-check limits for a workload's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    /// Allowed relative deviation of throughput from offered load.
    pub throughput_tol: f64,
    /// Allowed `(arrivals - completions) / arrivals` in the window: a
    /// larger gap means the in-flight population grew.
    pub backlog_frac: f64,
    /// More simulated events per transaction than this is a livelock.
    pub max_events_per_txn: f64,
    /// Host seconds one guarded call may take before it is failed.
    pub host_cap_s: f64,
}

/// A workload: its runs plus how to measure and check them.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as passed on the command line.
    pub name: &'static str,
    /// The fixed set of runs one pass executes, in order.
    pub runs: Vec<Run>,
    /// Set-ups per run per pass; the median is reported, so microsecond
    /// set-ups are measured many times.
    pub setup_reps: usize,
    /// Horizon `(sim_time, warmup)` of the drained companion runs.
    pub companion: (f64, f64),
    /// Output-check limits.
    pub limits: Limits,
    /// State-sampling interval (simulated seconds) of the traced run.
    pub sample_interval: f64,
}

const LIMITS: Limits = Limits {
    throughput_tol: 0.05,
    backlog_frac: 0.03,
    max_events_per_txn: 200.0,
    host_cap_s: 45.0,
};

/// Builds the named workload from `seed`, or `None` for an unknown name.
#[must_use]
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    match name {
        "paper_policies" => Some(paper_policies(seed)),
        "contended_drift" => Some(contended_drift(seed)),
        "sharded_1000" => Some(sharded_1000(seed)),
        _ => None,
    }
}

fn seeded(cfg: &SystemConfig, seed: u64, index: u64) -> SystemConfig {
    cfg.clone().with_seed(derive_seed(seed, 0, index, 0))
}

/// The paper's default system at 20 tps under every load-sharing
/// strategy except no sharing (which saturates above ~15 tps).
#[must_use]
pub fn paper_policies(seed: u64) -> Workload {
    let base = SystemConfig::paper_default()
        .with_total_rate(20.0)
        .with_horizon(400.0, 50.0);
    let q = UtilizationEstimator::QueueLength;
    let n = UtilizationEstimator::NumInSystem;
    let policies: [(&'static str, Policy); 8] = [
        ("static_opt", Policy::StaticOptimal),
        ("measured_rt", Policy::Fixed(RouterSpec::MeasuredResponse)),
        ("queue_length", Policy::Fixed(RouterSpec::QueueLength)),
        (
            "threshold",
            Policy::Fixed(RouterSpec::UtilizationThreshold { threshold: -0.2 }),
        ),
        (
            "min_incoming_q",
            Policy::Fixed(RouterSpec::MinIncoming { estimator: q }),
        ),
        (
            "min_incoming_n",
            Policy::Fixed(RouterSpec::MinIncoming { estimator: n }),
        ),
        (
            "min_average_q",
            Policy::Fixed(RouterSpec::MinAverage { estimator: q }),
        ),
        (
            "min_average_n",
            Policy::Fixed(RouterSpec::MinAverage { estimator: n }),
        ),
    ];
    let runs = policies
        .iter()
        .enumerate()
        .map(|(i, &(label, policy))| Run {
            label,
            cfg: seeded(&base, seed, i as u64),
            policy,
        })
        .collect();
    Workload {
        name: "paper_policies",
        runs,
        setup_reps: 3,
        companion: (30.0, 5.0),
        limits: LIMITS,
        sample_interval: 1.0,
    }
}

/// Paper default with a 4,096-lock space at 18 tps, a rotating hot set
/// and threshold placement: lock waits, reruns and migrations.
#[must_use]
pub fn contended_drift(seed: u64) -> Workload {
    let mut base = SystemConfig::paper_default()
        .with_total_rate(16.0)
        .with_horizon(3000.0, 100.0)
        .with_placement(PlacementConfig::threshold_default())
        .with_drift(DriftSpec::HotMigration {
            dwell: 30.0,
            hot_frac: 0.9,
        });
    base.params.lockspace = 4096.0;
    Workload {
        name: "contended_drift",
        runs: vec![Run {
            label: "queue_length_drift",
            cfg: seeded(&base, seed, 0),
            policy: Policy::Fixed(RouterSpec::QueueLength),
        }],
        setup_reps: 1024,
        companion: (200.0, 20.0),
        limits: LIMITS,
        sample_interval: 2.0,
    }
}

/// 1,000 sites over 8 central shards at 1.5 tps per site, with lock
/// space and central capacity scaled with the site count.
#[must_use]
pub fn sharded_1000(seed: u64) -> Workload {
    const SITES: usize = 1000;
    const SHARDS: usize = 8;
    let mut base = SystemConfig::paper_default()
        .with_horizon(30.0, 5.0)
        .with_shards(SHARDS);
    base.params.n_sites = SITES;
    base.params.lockspace = 32.0 * 1024.0 * (SITES as f64 / 10.0);
    base.params.central_mips = 15.0e6 * (SITES as f64 / 10.0) / SHARDS as f64;
    base.scale_metrics = true;
    let base = base.with_total_rate(1.5 * SITES as f64);
    Workload {
        name: "sharded_1000",
        runs: vec![Run {
            label: "static_p0.3_k8",
            cfg: seeded(&base, seed, 0),
            policy: Policy::Fixed(RouterSpec::Static { p_ship: 0.3 }),
        }],
        setup_reps: 16,
        companion: (2.5, 0.5),
        limits: Limits {
            backlog_frac: 0.1,
            ..LIMITS
        },
        sample_interval: 0.05,
    }
}
