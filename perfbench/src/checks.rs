//! Output checks and the guarded runner that caps a run's host time.
//!
//! Every timed run is checked three ways:
//!
//! 1. **Determinism** — the digest of its `RunMetrics` equals the digest
//!    the same run produced in the first pass.
//! 2. **Delivered load** — throughput lies within a stated fraction of
//!    the offered load, and completions keep up with arrivals (a growing
//!    in-flight population shows up as a backlog), and the event count
//!    per transaction is bounded (a livelock shows up as an event storm).
//! 3. **Convergence** — a shortened `run_drained` companion of the same
//!    run ends with every transaction finished and every replica equal to
//!    its master copy.
//!
//! Runs execute on a worker thread; a run that exceeds the host-time cap
//! is failed instead of hanging the benchmark.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use hls_core::RunMetrics;

use crate::workloads::{Limits, Run};

/// FNV-1a digest of the metrics' full debug text.
#[must_use]
pub fn digest(m: &RunMetrics) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in format!("{m:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Transactions that passed through the whole run (arrival rate scaled
/// from the measurement window to the full horizon).
#[must_use]
pub fn txns_in_run(m: &RunMetrics, sim_time: f64) -> f64 {
    (m.throughput * sim_time).max(1.0)
}

/// Checks delivered load, backlog growth and the event budget of one run.
///
/// # Errors
///
/// Returns a message naming the first failed check.
pub fn check_load(run: &Run, m: &RunMetrics, events: u64, lim: &Limits) -> Result<(), String> {
    let offered = run.offered_tps();
    let dev = (m.throughput / offered - 1.0).abs();
    if dev.is_nan() || dev > lim.throughput_tol {
        return Err(format!(
            "{}: throughput {:.3} tps is {:.1}% from offered {offered:.3} tps (limit {:.0}%)",
            run.label,
            m.throughput,
            dev * 100.0,
            lim.throughput_tol * 100.0
        ));
    }
    let backlog = m.arrivals.saturating_sub(m.completions) as f64 / m.arrivals.max(1) as f64;
    if backlog > lim.backlog_frac {
        return Err(format!(
            "{}: {} of {} window arrivals did not complete ({:.1}%, limit {:.1}%)",
            run.label,
            m.arrivals - m.completions,
            m.arrivals,
            backlog * 100.0,
            lim.backlog_frac * 100.0
        ));
    }
    let per_txn = events as f64 / txns_in_run(m, run.cfg.sim_time);
    if per_txn > lim.max_events_per_txn {
        return Err(format!(
            "{}: {per_txn:.0} events per transaction (limit {:.0})",
            run.label, lim.max_events_per_txn
        ));
    }
    Ok(())
}

/// Runs the drained companion of `run` at horizon `(sim_time, warmup)`
/// and checks that it converged.
///
/// # Errors
///
/// Returns a message if set-up failed or the drain left work behind.
pub fn check_companion(run: &Run, sim_time: f64, warmup: f64) -> Result<(), String> {
    let short = run.shortened(sim_time, warmup);
    let (sys, _) = short
        .set_up()
        .map_err(|e| format!("{}: companion set-up: {e}", run.label))?;
    let (_, report) = sys.run_drained();
    if report.converged() {
        Ok(())
    } else {
        Err(format!(
            "{}: drained companion did not converge ({} in flight, {} divergent items)",
            run.label,
            report.in_flight_txns,
            report.divergent.len()
        ))
    }
}

type Job = Box<dyn FnOnce() + Send>;

/// A worker thread that runs closures under a host-time cap.
///
/// After a call times out the worker is still busy with it, so every
/// later call fails at once. Dropping the guard joins the worker unless it
/// is stuck; a stuck worker cannot be stopped from outside and ends with
/// the process. Panics inside a call are caught and reported by
/// [`Guard::call`].
#[derive(Debug)]
pub struct Guard {
    tx: Option<mpsc::Sender<Job>>,
    worker: Option<thread::JoinHandle<()>>,
    stuck: bool,
}

impl Drop for Guard {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(worker) = self.worker.take() {
            if !self.stuck {
                // The worker catches every job's panic, so join cannot fail.
                let _ = worker.join();
            }
        }
    }
}

impl Default for Guard {
    fn default() -> Self {
        Guard::new()
    }
}

impl Guard {
    /// Starts the worker.
    #[must_use]
    pub fn new() -> Guard {
        let (tx, rx) = mpsc::channel::<Job>();
        let worker = thread::Builder::new()
            .name("perfbench-worker".into())
            .spawn(move || {
                for job in rx {
                    job();
                }
            })
            .expect("spawn worker thread");
        Guard {
            tx: Some(tx),
            worker: Some(worker),
            stuck: false,
        }
    }

    /// Whether an earlier call exceeded its cap.
    #[must_use]
    pub fn is_stuck(&self) -> bool {
        self.stuck
    }

    /// Runs `f` on the worker and waits at most `cap_s` host seconds.
    ///
    /// # Errors
    ///
    /// Returns a message if `f` panicked, the cap was exceeded, or an
    /// earlier call is still running past its cap.
    pub fn call<T, F>(&mut self, cap_s: f64, f: F) -> Result<T, String>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        if self.stuck {
            return Err("worker still busy with a run that exceeded its host-time cap".into());
        }
        let (rtx, rrx) = mpsc::channel();
        let job: Job = Box::new(move || {
            let _ = rtx.send(catch_unwind(AssertUnwindSafe(f)));
        });
        self.tx
            .as_ref()
            .expect("sender lives until drop")
            .send(job)
            .map_err(|_| "worker thread is gone".to_string())?;
        match rrx.recv_timeout(Duration::from_secs_f64(cap_s)) {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(_)) => Err("run panicked".into()),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.stuck = true;
                Err(format!("run exceeded the host-time cap of {cap_s} s"))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err("worker thread is gone".into()),
        }
    }
}
