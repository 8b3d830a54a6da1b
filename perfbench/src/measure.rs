//! One timed pass of a workload, bracketed by calibration readings.
//!
//! A pass runs the workload's runs in order. Each run's set-up and
//! `run_counted` execute on the guarded worker and are timed there; a
//! calibration slot precedes the pass and follows every run, on the same
//! worker thread, so the readings sample the host over the same stretch of
//! time, and on the same CPU, as the runs.
//! The drained companions run after the pass's last reading and are not
//! timed. Times are kept in host seconds; the report scales each pass by
//! its own calibration readings (see [`crate::calib`]).

use std::time::Instant;

use hls_core::RunMetrics;

use crate::calib;
use crate::checks::{self, Guard};
use crate::spans::{next_id, Open, Span};
use crate::stats::median;
use crate::workloads::{Run, SetupStamps, Workload};

/// What the worker reports for one timed run.
#[derive(Debug)]
struct Timed {
    metrics: RunMetrics,
    events: u64,
    /// Median whole set-up over the repetitions, host seconds.
    setup_s: f64,
    /// Median `HybridSystem::new` over the repetitions, host seconds.
    new_s: f64,
    /// `run_counted`, host seconds.
    run_s: f64,
    spans: Vec<Span>,
}

fn timed_run(run: &Run, reps: usize, parent: Option<u64>) -> Result<Timed, String> {
    let mut stamps: Vec<SetupStamps> = Vec::with_capacity(reps);
    let mut spans = Vec::new();
    let mut sys = None;
    for _ in 0..reps.max(1) {
        // Drop the previous system first so only one is ever alive.
        drop(sys.take());
        let (s, st) = run
            .set_up()
            .map_err(|e| format!("{}: set-up: {e}", run.label))?;
        sys = Some(s);
        stamps.push(st);
    }
    let sys = sys.expect("at least one set-up");
    let open = parent.map(|p| Open::start(format!("run_counted:{}", run.label), p));
    let t = Instant::now();
    let (metrics, events) = sys.run_counted();
    let run_s = t.elapsed().as_secs_f64();
    if let Some(p) = parent {
        for st in &stamps {
            spans.push(Span {
                id: next_id(),
                parent: p,
                name: format!("router_spec:{}", run.label),
                start_ns: st.start_ns,
                end_ns: st.mid_ns,
            });
            spans.push(Span {
                id: next_id(),
                parent: p,
                name: format!("HybridSystem::new:{}", run.label),
                start_ns: st.mid_ns,
                end_ns: st.end_ns,
            });
        }
    }
    if let Some(o) = open {
        spans.push(o.end());
    }
    let totals: Vec<f64> = stamps.iter().map(SetupStamps::total_s).collect();
    let news: Vec<f64> = stamps.iter().map(SetupStamps::new_s).collect();
    Ok(Timed {
        metrics,
        events,
        setup_s: median(&totals),
        new_s: median(&news),
        run_s,
        spans,
    })
}

/// Host-second timings of one pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Set-up summed over the pass's runs.
    pub setup_s: f64,
    /// `HybridSystem::new` summed over the runs.
    pub new_s: f64,
    /// `run_counted` per run.
    pub run_s: Vec<f64>,
    /// Simulated events over the pass.
    pub events: u64,
    /// Calibration readings taken during the pass, host seconds.
    pub calib_s: Vec<f64>,
    /// Metrics of each run, in run order (`None` for a run that did not
    /// finish).
    pub metrics: Vec<Option<RunMetrics>>,
}

impl Pass {
    /// Total `run_counted` time.
    #[must_use]
    pub fn run_total_s(&self) -> f64 {
        self.run_s.iter().sum()
    }

    /// Set-up plus runs.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.run_total_s()
    }

    /// Host-to-reference scale factor from this pass's readings.
    #[must_use]
    pub fn factor(&self) -> f64 {
        calib::factor(&self.calib_s)
    }
}

/// Runs attempted and failed, with the reasons.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed a check, panicked or hit the cap.
    pub failed: u64,
    /// One line per failure.
    pub errors: Vec<String>,
}

/// Runs one pass of `wl`. `reference` holds the first pass's digests and
/// is filled on the first call. With `parent` set, spans are recorded
/// under it into `spans`. Returns `None` if the worker got stuck (a run
/// exceeded the host-time cap), after which no further pass can run.
pub fn pass(
    wl: &Workload,
    guard: &mut Guard,
    reference: &mut Option<Vec<u64>>,
    tally: &mut Tally,
    parent: Option<u64>,
    spans: &mut Vec<Span>,
) -> Option<Pass> {
    let cap = wl.limits.host_cap_s;
    let mut failed: Vec<Option<String>> = vec![None; wl.runs.len()];
    let mut out = Pass::default();
    let mut digests = Vec::with_capacity(wl.runs.len());
    out.calib_s.extend(calibrate(guard, cap));
    for (i, run) in wl.runs.iter().enumerate() {
        let job = run.clone();
        let reps = wl.setup_reps;
        let res = guard
            .call(cap, move || timed_run(&job, reps, parent))
            .and_then(|r| r);
        out.calib_s.extend(calibrate(guard, cap));
        match res {
            Ok(t) => {
                out.setup_s += t.setup_s;
                out.new_s += t.new_s;
                out.run_s.push(t.run_s);
                out.events += t.events;
                spans.extend(t.spans);
                if let Err(e) = checks::check_load(run, &t.metrics, t.events, &wl.limits) {
                    failed[i] = Some(e);
                }
                digests.push(checks::digest(&t.metrics));
                out.metrics.push(Some(t.metrics));
            }
            Err(e) => {
                failed[i] = Some(format!("{}: {e}", run.label));
                digests.push(0);
                out.run_s.push(0.0);
                out.metrics.push(None);
                if guard.is_stuck() {
                    record(tally, &failed[..=i]);
                    return None;
                }
            }
        }
    }
    match reference {
        None => *reference = Some(digests),
        Some(first) => {
            for (i, (a, b)) in first.iter().zip(&digests).enumerate() {
                if a != b && failed[i].is_none() {
                    failed[i] = Some(format!(
                        "{}: metrics differ from the first pass (digest {b:016x} vs {a:016x})",
                        wl.runs[i].label
                    ));
                }
            }
        }
    }
    let (sim_time, warmup) = wl.companion;
    for (i, run) in wl.runs.iter().enumerate() {
        let job = run.clone();
        let open = parent.map(|p| Open::start(format!("run_drained:{}", run.label), p));
        let res = guard
            .call(cap, move || checks::check_companion(&job, sim_time, warmup))
            .and_then(|r| r);
        if let Some(o) = open {
            spans.push(o.end());
        }
        if let Err(e) = res {
            failed[i].get_or_insert(e);
            if guard.is_stuck() {
                record(tally, &failed);
                return None;
            }
        }
    }
    record(tally, &failed);
    Some(out)
}

/// One calibration slot on the worker thread (none once it is stuck).
pub fn calibrate(guard: &mut Guard, cap: f64) -> Vec<f64> {
    guard.call(cap, calib::slot).unwrap_or_default()
}

fn record(tally: &mut Tally, failed: &[Option<String>]) {
    tally.attempted += failed.len() as u64;
    for e in failed.iter().flatten() {
        tally.failed += 1;
        tally.errors.push(e.clone());
    }
}

/// Runs passes while the next one, taking as long as the passes so far
/// did on average, is expected to end within `budget_s` host seconds (at
/// least `min_passes`), stopping early if the worker gets stuck.
pub fn passes(
    wl: &Workload,
    guard: &mut Guard,
    budget_s: f64,
    min_passes: usize,
    tally: &mut Tally,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut reference = None;
    let mut out = Vec::new();
    let mut spans = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let mean = elapsed / out.len().max(1) as f64;
        if out.len() >= min_passes && elapsed + mean > budget_s {
            break;
        }
        match pass(wl, guard, &mut reference, tally, None, &mut spans) {
            Some(p) => out.push(p),
            None => break,
        }
    }
    out
}
