//! Per-layer replays: each layer's public functions called in a loop on
//! inputs derived from the workload's own configuration and sampled
//! state, timed from outside the crates.
//!
//! Calls that take well under a microsecond are timed in groups; a
//! group's per-call time is its elapsed time divided by its call count,
//! and the reported median and p99 are over groups. `n` is the number of
//! calls.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use hls_analytic::{estimate_route_cases, optimal_static_ship, Observed, UtilizationEstimator};
use hls_core::{RouteCtx, RouterSpec, SamplePoint, SystemConfig};
use hls_lockmgr::{LockId, LockTable, OwnerId, RequestOutcome};
use hls_net::{NodeId, StarNetwork};
use hls_placement::{PartitionGeometry, PlacementMap};
use hls_sim::{sample_exponential, EventQueue, Job, MultiServer, SimDuration, SimRng, SimTime};
use hls_workload::{TxnGenerator, TxnSpec};

use crate::stats::{median, quantile};

/// Per-call timing of one replay, host seconds per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallStats {
    /// Median per-call time over groups.
    pub median: f64,
    /// 99th percentile per-call time over groups.
    pub p99: f64,
    /// Calls made.
    pub n: u64,
}

impl CallStats {
    fn of(per_call: &[f64], n: u64) -> CallStats {
        CallStats {
            median: median(per_call),
            p99: quantile(per_call, 0.99),
            n,
        }
    }
}

/// Times `total` calls of `op(i)` in groups of `group`.
fn grouped(total: usize, group: usize, mut op: impl FnMut(usize)) -> CallStats {
    let mut per_call = Vec::with_capacity(total / group + 1);
    let mut i = 0;
    while i < total {
        let k = group.min(total - i);
        let t = Instant::now();
        for j in i..i + k {
            op(j);
        }
        per_call.push(t.elapsed().as_secs_f64() / k as f64);
        i += k;
    }
    CallStats::of(&per_call, total as u64)
}

/// Router-visible states built from sampled system state. Local
/// quantities are per-site means; lock counts assume a transaction holds
/// half its locks on average.
#[must_use]
pub fn observed_states(cfg: &SystemConfig, samples: &[SamplePoint]) -> Vec<Observed> {
    let n = cfg.params.n_sites as f64;
    let held = cfg.params.locks_per_txn / 2.0;
    samples
        .iter()
        .map(|s| {
            let n_local = s.n_local_total as f64 / n;
            Observed {
                q_local: s.q_local_mean,
                q_central: s.q_central as f64,
                n_local,
                n_central: s.n_central as f64,
                locks_local: n_local * held,
                locks_central: s.n_central as f64 * held,
                ..Observed::default()
            }
        })
        .collect()
}

/// `Router::decide` over `states`, cycled to `calls` decisions, arriving
/// sites taken round-robin.
#[must_use]
pub fn router_decide(
    cfg: &SystemConfig,
    spec: RouterSpec,
    states: &[Observed],
    calls: usize,
) -> CallStats {
    let n = cfg.params.n_sites;
    let mut router = spec.build(n);
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    grouped(calls, 64, |i| {
        let mut ctx = RouteCtx {
            now: SimTime::from_secs(i as f64 * 1e-3),
            site: i % n,
            obs: states[i % states.len()],
            params: &cfg.params,
            rng: &mut rng,
        };
        black_box(router.decide(&mut ctx));
    })
}

/// `estimate_route_cases` (the analytic model behind the min-incoming and
/// min-average routers) over `states`.
#[must_use]
pub fn analytic_estimate(cfg: &SystemConfig, states: &[Observed], calls: usize) -> CallStats {
    grouped(calls, 64, |i| {
        black_box(estimate_route_cases(
            &cfg.params,
            &states[i % states.len()],
            UtilizationEstimator::NumInSystem,
        ));
    })
}

/// Median host seconds of `optimal_static_ship` at the workload's rate.
#[must_use]
pub fn static_solve(cfg: &SystemConfig, reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(optimal_static_ship(&cfg.params, cfg.mean_site_rate(), 50));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// `EventQueue` hold model: `pending` events queued, then each step pops
/// the earliest and schedules one exponentially later.
#[must_use]
pub fn event_queue(pending: usize, calls: usize, seed: u64) -> CallStats {
    let mut rng = SimRng::seed_from_u64(seed);
    let gaps: Vec<f64> = (0..4096)
        .map(|_| sample_exponential(&mut rng, 1.0))
        .collect();
    let mut q: EventQueue<u32> = EventQueue::new();
    for (i, g) in gaps.iter().cycle().take(pending.max(1)).enumerate() {
        q.schedule(SimTime::from_secs(*g), i as u32);
    }
    grouped(calls, 64, |i| {
        let (at, ev) = q.pop().expect("hold model keeps the queue full");
        q.schedule(at + SimDuration::from_secs(gaps[i % gaps.len()]), ev);
    })
}

/// `MultiServer` hold model at a queue length of `queued` jobs: each
/// step completes the job that has been in service longest and submits a
/// new one. Jobs are equal-sized, so start order is completion order.
#[must_use]
pub fn multi_server(servers: usize, speed: f64, queued: usize, calls: usize) -> CallStats {
    let mut cpu = MultiServer::new(servers, speed);
    let work = speed * 0.01;
    let mut in_service: VecDeque<u64> = VecDeque::new();
    let mut next_id = 0u64;
    let mut now = SimTime::ZERO;
    for _ in 0..queued.max(servers) {
        if let Some(s) = cpu.submit(now, Job::new(next_id, work)) {
            in_service.push_back(s.job_id);
        }
        next_id += 1;
    }
    grouped(calls, 64, |_| {
        now += SimDuration::from_secs(0.01 / servers as f64);
        let done = in_service.pop_front().expect("a job is in service");
        let (_, next) = cpu.complete(now, done);
        if let Some(s) = next {
            in_service.push_back(s.job_id);
        }
        if let Some(s) = cpu.submit(now, Job::new(next_id, work)) {
            in_service.push_back(s.job_id);
        }
        next_id += 1;
    })
}

/// Result of the lock-table replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockReplay {
    /// `LockTable::request`, per call.
    pub request: CallStats,
    /// `LockTable::release_all`, per call.
    pub release_all: CallStats,
    /// Share of transactions whose lock set had to wait.
    pub wait_frac: f64,
}

/// `LockTable` replay of generated lock sets with `in_flight`
/// transactions resident: each transaction requests its locks in order
/// until one is queued; the oldest resident releases everything. Batches
/// of 32 transactions are timed together.
#[must_use]
pub fn lock_table(cfg: &SystemConfig, in_flight: usize, txns: usize) -> LockReplay {
    const BATCH: usize = 32;
    let gen = TxnGenerator::new(cfg.workload_spec()).expect("validated workload");
    let n = cfg.params.n_sites;
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x10c5);
    let mut table = LockTable::new();
    let mut resident: VecDeque<OwnerId> = VecDeque::new();
    let (mut req, mut rel) = (Vec::new(), Vec::new());
    let (mut n_req, mut n_rel, mut waited) = (0u64, 0u64, 0u64);
    let mut next = 0u64;
    let mut batch: Vec<TxnSpec> = Vec::with_capacity(BATCH);
    let warm = in_flight.div_ceil(BATCH);
    for b in 0..(txns.div_ceil(BATCH) + warm) {
        batch.clear();
        batch.extend((0..BATCH).map(|k| gen.generate(&mut rng, (next as usize + k) % n)));
        let mut calls = 0u64;
        let t = Instant::now();
        for spec in &batch {
            let owner = OwnerId(next);
            next += 1;
            for &(lock, mode) in &spec.locks {
                calls += 1;
                if table.request(owner, lock, mode) == RequestOutcome::Queued {
                    if b >= warm {
                        waited += 1;
                    }
                    break;
                }
            }
            resident.push_back(owner);
        }
        let dt = t.elapsed().as_secs_f64();
        if b >= warm {
            req.push(dt / calls.max(1) as f64);
            n_req += calls;
        }
        let excess = resident.len().saturating_sub(in_flight.max(1));
        if excess > 0 {
            let t = Instant::now();
            for _ in 0..excess {
                let owner = resident.pop_front().expect("excess residents");
                black_box(table.release_all(owner));
            }
            let dt = t.elapsed().as_secs_f64();
            if b >= warm {
                rel.push(dt / excess as f64);
                n_rel += excess as u64;
            }
        }
    }
    LockReplay {
        request: CallStats::of(&req, n_req),
        release_all: CallStats::of(&rel, n_rel),
        wait_frac: waited as f64 / (next as f64 - (warm * BATCH) as f64).max(1.0),
    }
}

/// `StarNetwork::send` alternating site → home shard and back.
#[must_use]
pub fn net_send(cfg: &SystemConfig, calls: usize) -> CallStats {
    let n = cfg.params.n_sites;
    let map = cfg.shards.resolve(n).expect("validated shard spec");
    let mut net = StarNetwork::new_sharded(
        n,
        map.n_shards(),
        SimDuration::from_secs(cfg.params.comm_delay),
    );
    if map.n_shards() > 1 {
        net.set_home_shards((0..n).map(|i| map.home_of(i)).collect());
    }
    grouped(calls, 64, |i| {
        let site = (i / 2) % n;
        let local = NodeId::local(site as u32);
        let central = NodeId::shard(map.home_of(site));
        let now = SimTime::from_secs(i as f64 * 1e-4);
        let env = if i % 2 == 0 {
            net.send(now, local, central, i)
        } else {
            net.send(now, central, local, i)
        };
        black_box(env);
    })
}

/// Lock ids referenced by `txns` generated transactions.
#[must_use]
pub fn lock_refs(cfg: &SystemConfig, txns: usize) -> Vec<LockId> {
    let gen = TxnGenerator::new(cfg.workload_spec()).expect("validated workload");
    let n = cfg.params.n_sites;
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x5eed);
    (0..txns)
        .flat_map(|i| gen.generate(&mut rng, i % n).locks)
        .map(|(lock, _)| lock)
        .collect()
}

/// `ShardMap::home_of_lock` over generated lock references.
#[must_use]
pub fn shard_home_of_lock(cfg: &SystemConfig, refs: &[LockId], calls: usize) -> CallStats {
    let map = cfg
        .shards
        .resolve(cfg.params.n_sites)
        .expect("validated shard spec");
    let spec = cfg.workload_spec();
    grouped(calls, 256, |i| {
        black_box(map.home_of_lock(&spec, refs[i % refs.len()]));
    })
}

/// `PlacementMap::master_of` over generated lock references.
#[must_use]
pub fn placement_master_of(cfg: &SystemConfig, refs: &[LockId], calls: usize) -> CallStats {
    let geo = PartitionGeometry::new(
        cfg.params.n_sites,
        cfg.params.lockspace as u32,
        cfg.placement.parts_per_site,
    )
    .expect("validated geometry");
    let map = PlacementMap::new_static(geo);
    grouped(calls, 256, |i| {
        black_box(map.master_of(refs[i % refs.len()]));
    })
}

/// `TxnGenerator::generate` with origins round-robin.
#[must_use]
pub fn workload_generate(cfg: &SystemConfig, calls: usize) -> CallStats {
    let gen = TxnGenerator::new(cfg.workload_spec()).expect("validated workload");
    let n = cfg.params.n_sites;
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x6e);
    grouped(calls, 16, |i| {
        black_box(gen.generate(&mut rng, i % n));
    })
}
