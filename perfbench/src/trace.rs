//! The traced run: per-layer metrics for one workload and seed.
//!
//! It runs, in order: a sampled pass (`run_sampled`, feeding the router
//! replays real states), a profile pass (the simulator's own
//! `ObsConfig::profile`, for the decision count and the profiler's
//! overhead), the per-layer replays, and then untraced and traced passes
//! alternately until the time budget is spent, so the spans' own overhead
//! is measured against identical untraced passes.

use std::time::Instant;

use hls_analytic::{optimal_static_ship, solve_static};
use hls_core::{RouterSpec, RunMetrics, SamplePoint, UtilizationEstimator};

use crate::calib;
use crate::checks::{self, Guard};
use crate::layers::{self, CallStats};
use crate::measure::{self, Pass, Tally};
use crate::spans::{Open, Span};
use crate::stats::median;
use crate::workloads::{Policy, Run, Workload};

/// Router policies replayed on every workload, by metric key.
pub const POLICIES: [&str; 8] = [
    "static",
    "measured_rt",
    "queue_length",
    "threshold",
    "min_incoming_q",
    "min_incoming_n",
    "min_average_q",
    "min_average_n",
];

/// Every per-layer metric, with its unit, in output order.
#[must_use]
pub fn metric_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for p in POLICIES {
        v.push((format!("router.decide_us.{p}"), "us"));
        v.push((format!("router.decide_us.{p}.p99"), "us"));
    }
    for (name, unit) in [
        ("router.decisions", "count"),
        ("router.share", "ratio"),
        ("router.profile_share", "ratio"),
        ("analytic.estimate_us", "us"),
        ("analytic.estimate_us.p99", "us"),
        ("analytic.static_solve_s", "s"),
        ("analytic.static_gap", "ratio"),
        ("core.events", "count"),
        ("core.events_per_txn", "count"),
        ("core.run_s", "s"),
        ("core.new_s", "s"),
        ("core.commit_ratio", "ratio"),
        ("sim.queue_ns", "ns"),
        ("sim.queue_ns.p99", "ns"),
        ("sim.server_ns", "ns"),
        ("sim.server_ns.p99", "ns"),
        ("lockmgr.request_ns", "ns"),
        ("lockmgr.request_ns.p99", "ns"),
        ("lockmgr.release_all_ns", "ns"),
        ("lockmgr.release_all_ns.p99", "ns"),
        ("lockmgr.wait_frac", "ratio"),
        ("lockmgr.reruns_per_txn", "count"),
        ("lockmgr.lock_wait_s", "s"),
        ("net.send_ns", "ns"),
        ("net.send_ns.p99", "ns"),
        ("net.msgs_per_txn", "count"),
        ("shard.home_of_lock_ns", "ns"),
        ("shard.home_of_lock_ns.p99", "ns"),
        ("shard.cross_msgs_per_txn", "count"),
        ("shard.denials", "count"),
        ("shard.state_bytes", "bytes"),
        ("shard.peak_in_flight", "count"),
        ("placement.master_of_ns", "ns"),
        ("placement.master_of_ns.p99", "ns"),
        ("placement.migrations", "count"),
        ("placement.parked", "count"),
        ("placement.bytes_moved", "bytes"),
        ("workload.generate_ns", "ns"),
        ("workload.generate_ns.p99", "ns"),
        ("obs.profile_overhead", "ratio"),
        ("trace.overhead", "ratio"),
    ] {
        v.push((name.to_string(), unit));
    }
    v
}

/// The replay spec and metric key of a run's router.
fn policy_key(spec: &RouterSpec) -> &'static str {
    match spec {
        RouterSpec::Static { .. } => "static",
        RouterSpec::MeasuredResponse => "measured_rt",
        RouterSpec::QueueLength => "queue_length",
        RouterSpec::UtilizationThreshold { .. } => "threshold",
        RouterSpec::MinIncoming {
            estimator: UtilizationEstimator::QueueLength,
        } => "min_incoming_q",
        RouterSpec::MinIncoming { .. } => "min_incoming_n",
        RouterSpec::MinAverage {
            estimator: UtilizationEstimator::QueueLength,
        } => "min_average_q",
        RouterSpec::MinAverage { .. } => "min_average_n",
        _ => "other",
    }
}

fn replay_spec(key: &str) -> RouterSpec {
    let q = UtilizationEstimator::QueueLength;
    let n = UtilizationEstimator::NumInSystem;
    match key {
        "static" => RouterSpec::Static { p_ship: 0.5 },
        "measured_rt" => RouterSpec::MeasuredResponse,
        "queue_length" => RouterSpec::QueueLength,
        "threshold" => RouterSpec::UtilizationThreshold { threshold: -0.2 },
        "min_incoming_q" => RouterSpec::MinIncoming { estimator: q },
        "min_incoming_n" => RouterSpec::MinIncoming { estimator: n },
        "min_average_q" => RouterSpec::MinAverage { estimator: q },
        _ => RouterSpec::MinAverage { estimator: n },
    }
}

fn run_key(run: &Run) -> &'static str {
    match run.policy {
        Policy::StaticOptimal => "static",
        Policy::Fixed(spec) => policy_key(&spec),
    }
}

/// Output of the traced run.
#[derive(Debug, Default)]
pub struct Traced {
    /// `(name, value, unit)` in [`metric_names`] order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines (replay sizes, quartiles, span self times).
    pub lines: Vec<String>,
    /// Every span recorded.
    pub spans: Vec<Span>,
}

/// Runs `f` under a span, followed by a calibration slot.
fn replay<T>(
    name: &str,
    parent: u64,
    spans: &mut Vec<Span>,
    readings: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> T {
    let open = Open::start(name, parent);
    let v = f();
    spans.push(open.end());
    readings.extend(calib::slot());
    v
}

fn sum_metrics<'a>(
    ms: impl Iterator<Item = &'a RunMetrics>,
    f: impl Fn(&RunMetrics) -> f64,
) -> f64 {
    ms.map(f).sum()
}

/// Runs the traced measurement of `wl` within about `budget_s` host
/// seconds.
#[allow(clippy::too_many_lines)]
pub fn traced(wl: &Workload, guard: &mut Guard, budget_s: f64, tally: &mut Tally) -> Traced {
    let start = Instant::now();
    let mut out = Traced::default();
    let root = Open::start(format!("traced_run:{}", wl.name), 0);
    let root_id = root.id();
    let cap = wl.limits.host_cap_s;
    let base = wl.runs[0].cfg.clone();

    // 1. Sampled pass: states for the router replays, and every layer's
    //    counters (scale metrics switched on for all workloads).
    let sampled_span = Open::start("sampled_pass", root_id);
    let mut samples: Vec<SamplePoint> = Vec::new();
    let mut sampled: Vec<RunMetrics> = Vec::new();
    for run in &wl.runs {
        let mut job = run.clone();
        job.cfg.scale_metrics = true;
        let interval = wl.sample_interval;
        let open = Open::start(format!("run_sampled:{}", run.label), sampled_span.id());
        let res = guard
            .call(cap, move || {
                let (sys, _) = job.set_up().map_err(|e| e.to_string())?;
                Ok::<_, String>(sys.run_sampled(interval))
            })
            .and_then(|r| r);
        out.spans.push(open.end());
        tally.attempted += 1;
        match res.and_then(|(m, s)| {
            checks::check_load(run, &m, 0, &wl.limits)?;
            Ok((m, s))
        }) {
            Ok((m, s)) => {
                samples.extend(s);
                sampled.push(m);
            }
            Err(e) => {
                tally.failed += 1;
                tally.errors.push(e);
            }
        }
    }
    out.spans.push(sampled_span.end());
    if samples.is_empty() {
        samples.push(SamplePoint {
            at: 0.0,
            q_central: 0,
            n_central: 0,
            q_local_mean: 0.0,
            n_local_total: 0,
        });
    }
    let states = layers::observed_states(&base, &samples);
    let in_flight = median(
        &samples
            .iter()
            .map(|s| (s.n_central + s.n_local_total) as f64)
            .collect::<Vec<_>>(),
    );
    let q_central = median(
        &samples
            .iter()
            .map(|s| s.q_central as f64)
            .collect::<Vec<_>>(),
    );

    // 2. Profile pass: the simulator's own profiler.
    let mut readings = measure::calibrate(guard, cap);
    let profile_span = Open::start("profile_pass", root_id);
    let mut decisions: Vec<f64> = Vec::new();
    let mut profile_run_s: Vec<f64> = Vec::new();
    let (mut decide_secs, mut sim_secs) = (0.0, 0.0);
    for run in &wl.runs {
        let mut job = run.clone();
        job.cfg.obs.profile = true;
        let open = Open::start(
            format!("run_counted+profile:{}", run.label),
            profile_span.id(),
        );
        let res = guard
            .call(cap, move || {
                let (sys, _) = job.set_up().map_err(|e| e.to_string())?;
                let t = Instant::now();
                let (m, ev) = sys.run_counted();
                Ok::<_, String>((m, ev, t.elapsed().as_secs_f64()))
            })
            .and_then(|r| r);
        out.spans.push(open.end());
        readings.extend(measure::calibrate(guard, cap));
        tally.attempted += 1;
        match res.and_then(|(m, ev, secs)| {
            checks::check_load(run, &m, ev, &wl.limits)?;
            Ok((m, secs))
        }) {
            Ok((m, secs)) => {
                let prof = m.obs.as_ref().map(|o| &o.profile);
                let get = |k: &str| prof.and_then(|p| p.get(k));
                decisions.push(get("router.decide_a").map_or(0.0, |e| e.calls as f64));
                decide_secs += get("router.decide_a").map_or(0.0, |e| e.secs);
                sim_secs += get("sim.run").map_or(0.0, |e| e.secs);
                profile_run_s.push(secs);
            }
            Err(e) => {
                tally.failed += 1;
                tally.errors.push(e);
                decisions.push(0.0);
                profile_run_s.push(0.0);
            }
        }
    }
    out.spans.push(profile_span.end());
    if guard.is_stuck() {
        out.spans.push(root.end());
        return out;
    }

    // 3. Replays of each layer's public functions (host seconds here;
    //    scaled to reference seconds at the end).
    let replay_span = Open::start("replays", root_id);
    let rid = replay_span.id();
    let spans = &mut out.spans;
    let rd = &mut readings;
    let decide: Vec<CallStats> = POLICIES
        .iter()
        .map(|key| {
            replay(
                &format!("replay:Router::decide:{key}"),
                rid,
                spans,
                rd,
                || layers::router_decide(&base, replay_spec(key), &states, 4096),
            )
        })
        .collect();
    let estimate = replay("replay:estimate_route_cases", rid, spans, rd, || {
        layers::analytic_estimate(&base, &states, 2048)
    });
    let solve = replay("replay:optimal_static_ship", rid, spans, rd, || {
        layers::static_solve(&base, 5)
    });
    let pending = base.params.n_sites + 3 * in_flight.round() as usize;
    let queue = replay("replay:EventQueue", rid, spans, rd, || {
        layers::event_queue(pending, 200_000, base.seed)
    });
    let queued = q_central.round().max(1.0) as usize;
    let server = replay("replay:MultiServer", rid, spans, rd, || {
        layers::multi_server(
            base.params.central_servers,
            base.central_mips_of(0),
            queued,
            100_000,
        )
    });
    let resident = in_flight.round().max(1.0) as usize;
    let locks = replay("replay:LockTable", rid, spans, rd, || {
        layers::lock_table(&base, resident, 20_000)
    });
    let refs = layers::lock_refs(&base, 2048);
    let send = replay("replay:StarNetwork::send", rid, spans, rd, || {
        layers::net_send(&base, 200_000)
    });
    let home = replay("replay:ShardMap::home_of_lock", rid, spans, rd, || {
        layers::shard_home_of_lock(&base, &refs, 400_000)
    });
    let master = replay("replay:PlacementMap::master_of", rid, spans, rd, || {
        layers::placement_master_of(&base, &refs, 400_000)
    });
    let generate = replay("replay:TxnGenerator::generate", rid, spans, rd, || {
        layers::workload_generate(&base, 50_000)
    });
    out.spans.push(replay_span.end());

    // 4. The analytic model's static prediction against the simulated
    //    static run (model vs model: no external reference exists).
    let static_idx = wl.runs.iter().position(|r| run_key(r) == "static");
    let static_run = match static_idx {
        Some(i) => wl.runs[i].clone(),
        None => Run {
            label: "static_opt_companion",
            policy: Policy::StaticOptimal,
            ..wl.runs[0].clone()
        },
    };
    let gap_span = Open::start(format!("run_counted:{}", static_run.label), root_id);
    let job = static_run.clone();
    let static_res = guard
        .call(cap, move || {
            let (sys, _) = job.set_up().map_err(|e| e.to_string())?;
            Ok::<_, String>((job.router_spec(), sys.run()))
        })
        .and_then(|r| r);
    out.spans.push(gap_span.end());
    tally.attempted += 1;
    let static_gap = match static_res {
        Ok((RouterSpec::Static { p_ship }, m)) => {
            let rate = static_run.cfg.mean_site_rate();
            // The model has one central complex: a sharded one enters it
            // with the shards' summed capacity.
            let mut params = static_run.cfg.params;
            params.central_mips *= static_run.cfg.shards.n_shards() as f64;
            let predicted = match static_run.policy {
                Policy::StaticOptimal => {
                    optimal_static_ship(&params, rate, 50)
                        .solution
                        .mean_response
                }
                Policy::Fixed(_) => solve_static(&params, rate, p_ship).mean_response,
            };
            out.lines.push(format!(
                "analytic static model: predicted {predicted:.4} s, simulated {:.4} s at p_ship {p_ship:.2} (model vs model)",
                m.mean_response
            ));
            if predicted.is_finite() {
                ((predicted - m.mean_response) / m.mean_response).abs()
            } else {
                out.lines.push(
                    "analytic static model predicts saturation: gap undefined, reported as 0"
                        .to_string(),
                );
                0.0
            }
        }
        Ok(_) => 0.0,
        Err(e) => {
            tally.failed += 1;
            tally.errors.push(e);
            0.0
        }
    };

    // 5. Untraced and traced passes, alternately, for the rest of the
    //    budget.
    let mut reference = None;
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    let mut no_spans = Vec::new();
    let passes_start = Instant::now();
    loop {
        let elapsed = passes_start.elapsed().as_secs_f64();
        let mean = elapsed / untraced.len().max(1) as f64;
        if untraced.len() >= 2 && start.elapsed().as_secs_f64() + mean > budget_s {
            break;
        }
        let Some(p) = measure::pass(wl, guard, &mut reference, tally, None, &mut no_spans) else {
            break;
        };
        untraced.push(p);
        let pass_span = Open::start("pass", root_id);
        let pid = pass_span.id();
        let mut pass_spans = Vec::new();
        let res = measure::pass(wl, guard, &mut reference, tally, Some(pid), &mut pass_spans);
        out.spans.extend(pass_spans);
        out.spans.push(pass_span.end());
        match res {
            Some(p) => traced_passes.push(p),
            None => break,
        }
    }
    out.spans.push(root.end());

    // 6. Assemble, in reference seconds: passes scaled by their own
    //    readings, the rest by the readings taken around it.
    let f = calib::factor(&readings);
    let first: Vec<RunMetrics> = untraced
        .first()
        .map(|p| p.metrics.iter().flatten().cloned().collect())
        .unwrap_or_default();
    let med = |ps: &[Pass], f: &dyn Fn(&Pass) -> f64| {
        if ps.is_empty() {
            0.0
        } else {
            median(&ps.iter().map(f).collect::<Vec<_>>())
        }
    };
    let run_s_per_run: Vec<f64> = (0..wl.runs.len())
        .map(|i| med(&untraced, &|p: &Pass| p.run_s[i] * p.factor()))
        .collect();
    let plain_run_s: f64 = run_s_per_run.iter().sum();
    let decide_of = |key: &str| {
        POLICIES
            .iter()
            .position(|p| *p == key)
            .map_or(0.0, |i| decide[i].median)
    };
    let router_busy: f64 = wl
        .runs
        .iter()
        .zip(&decisions)
        .map(|(r, d)| d * decide_of(run_key(r)))
        .sum();
    let txns = sum_metrics(first.iter(), |m| {
        checks::txns_in_run(m, wl.runs[0].cfg.sim_time)
    });
    let completions = sum_metrics(first.iter(), |m| m.completions as f64);
    let aborts = sum_metrics(first.iter(), |m| m.aborts.total() as f64);
    let weighted = |f: &dyn Fn(&RunMetrics) -> f64| {
        sum_metrics(first.iter(), |m| f(m) * m.completions as f64) / completions.max(1.0)
    };
    let scale = |f: &dyn Fn(&hls_core::ScaleReport) -> f64| {
        sum_metrics(sampled.iter(), |m| m.scale.as_ref().map_or(0.0, f))
    };
    let scale_max = |f: &dyn Fn(&hls_core::ScaleReport) -> f64| {
        sampled
            .iter()
            .filter_map(|m| m.scale.as_ref().map(f))
            .fold(0.0, f64::max)
    };
    let placement = |f: &dyn Fn(&hls_core::PlacementReport) -> f64| {
        sum_metrics(first.iter(), |m| m.placement.as_ref().map_or(0.0, f))
    };
    let sampled_txns = sum_metrics(sampled.iter(), |m| {
        checks::txns_in_run(m, wl.runs[0].cfg.sim_time)
    });

    let mut values: Vec<f64> = Vec::new();
    for s in &decide {
        values.push(s.median * f * 1e6);
        values.push(s.p99 * f * 1e6);
    }
    let norm_wall = |p: &Pass| p.wall_s() * p.factor();
    let untraced_wall = med(&untraced, &norm_wall);
    values.extend([
        decisions.iter().sum(),
        router_busy * f / plain_run_s.max(f64::MIN_POSITIVE),
        decide_secs / sim_secs.max(f64::MIN_POSITIVE),
        estimate.median * f * 1e6,
        estimate.p99 * f * 1e6,
        solve * f,
        static_gap,
        untraced.first().map_or(0.0, |p| p.events as f64),
        untraced.first().map_or(0.0, |p| p.events as f64) / txns.max(1.0),
        med(&untraced, &|p: &Pass| p.run_total_s() * p.factor()),
        med(&untraced, &|p: &Pass| p.new_s * p.factor()),
        completions / (completions + aborts).max(1.0),
        queue.median * f * 1e9,
        queue.p99 * f * 1e9,
        server.median * f * 1e9,
        server.p99 * f * 1e9,
        locks.request.median * f * 1e9,
        locks.request.p99 * f * 1e9,
        locks.release_all.median * f * 1e9,
        locks.release_all.p99 * f * 1e9,
        locks.wait_frac,
        weighted(&|m| m.mean_reruns),
        weighted(&|m| m.mean_lock_wait),
        send.median * f * 1e9,
        send.p99 * f * 1e9,
        sum_metrics(first.iter(), |m| m.messages as f64) / txns.max(1.0),
        home.median * f * 1e9,
        home.p99 * f * 1e9,
        scale(&|s| s.cross_shard_messages as f64) / sampled_txns.max(1.0),
        scale(&|s| s.cross_shard_denials as f64),
        scale_max(&|s| s.state_bytes as f64),
        scale_max(&|s| s.peak_in_flight as f64),
        master.median * f * 1e9,
        master.p99 * f * 1e9,
        placement(&|p| p.migrations_completed as f64),
        placement(&|p| p.parked_admissions as f64),
        placement(&|p| p.bytes_moved as f64),
        generate.median * f * 1e9,
        generate.p99 * f * 1e9,
        profile_run_s.iter().sum::<f64>() * f / plain_run_s.max(f64::MIN_POSITIVE),
        med(&traced_passes, &norm_wall) / untraced_wall.max(f64::MIN_POSITIVE),
    ]);
    out.metrics = metric_names()
        .into_iter()
        .zip(values)
        .map(|((name, unit), v)| (name, v, unit))
        .collect();

    out.lines.push(format!(
        "replay inputs: {} observed states, {in_flight:.0} transactions in flight, \
         {pending} pending events, central queue {queued}",
        states.len()
    ));
    out.lines.push(format!(
        "replay calls: decide {} per policy, estimate {}, queue {}, server {}, lock request {} / release_all {}, \
         send {}, home_of_lock {}, master_of {}, generate {}",
        decide[0].n, estimate.n, queue.n, server.n, locks.request.n, locks.release_all.n, send.n, home.n,
        master.n, generate.n
    ));
    out.lines.push(format!(
        "passes: {} untraced, {} traced; router decisions per run {:?}",
        untraced.len(),
        traced_passes.len(),
        decisions
    ));
    out.lines.push("span self time (s):".to_string());
    for (name, secs) in crate::spans::self_times(&out.spans) {
        out.lines.push(format!("  {name:<48} {secs:.6}"));
    }
    out
}
