//! Oracle test for the routing estimator's precomputed model.
//!
//! [`RouteModel`] computes the abort-order integrals and the other
//! run-constant terms once and reuses them for every decision. The module
//! `oracle` below is a verbatim copy of the estimator as it was before
//! that split — validation, nominal spans and all ten midpoint integrals
//! evaluated on every call — and every test here asserts the split
//! reproduces it bit for bit (`f64::to_bits` on every field), over seeded
//! random parameters and observed states, both utilization estimators,
//! and zero or degenerate lock spans.

use hls_analytic::{
    estimate_route_cases, response_times, response_times_with, AbortOrders, CaseEstimate,
    ContentionInputs, HoldTimes, Observed, ResponseEstimate, RouteEstimates, RouteModel,
    SystemParams, UtilizationEstimator,
};
use hls_sim::{sample_uniform, SimRng};

/// The estimator before the run-constant model was split out, copied
/// verbatim (only the imports differ).
mod oracle {
    use hls_analytic::{
        p_local_loses_as_holder, p_local_loses_as_requester, CaseEstimate, ContentionInputs,
        HoldTimes, Observed, ResponseEstimate, RouteEstimates, SystemParams, UtilizationEstimator,
        ABORT_CAP, RHO_CAP,
    };

    /// Evaluates the Section 3.1 response-time equations once.
    ///
    /// `rho_local` / `rho_central` are CPU utilizations (capped at [`RHO_CAP`]
    /// for the queueing expansion); `c` carries the contention probabilities
    /// and `holds` the current lock-span estimates. The returned estimate
    /// contains updated spans for fixed-point iteration.
    #[must_use]
    pub fn response_times(
        params: &SystemParams,
        rho_local: f64,
        rho_central: f64,
        c: &ContentionInputs,
        holds: &HoldTimes,
    ) -> ResponseEstimate {
        let nl = params.locks_per_txn;
        let d = params.comm_delay;
        let s = params.slice();
        let el = 1.0 / (1.0 - rho_local.clamp(0.0, RHO_CAP));
        let ec = 1.0 / (1.0 - rho_central.clamp(0.0, RHO_CAP));

        // Mean residual hold of a (b − x)-distributed holder is b/3; an
        // authentication hold of 2d has mean residual d.
        let w_ll = holds.beta_l / 3.0;
        let w_cc = holds.beta_c / 3.0;
        let w_auth = d;

        // --- Local class A transaction ---
        let cpu_init_l = params.init_instr / params.local_mips * el;
        let cpu_exec_l = (params.exec_instr() - params.init_instr) / params.local_mips * el;
        let lock_wait_l = nl * (c.p_ll * w_ll + c.p_lauth * w_auth);
        let lock_phase_l = cpu_exec_l + nl * params.io_per_call + lock_wait_l;
        let r_local_first = params.setup_io + cpu_init_l + lock_phase_l;
        let r_local_rerun = params.rerun_instr() / params.local_mips * el + lock_wait_l;

        // --- Central (shipped class A / class B) transaction ---
        // Terminal message handling happens at the ORIGIN site (user terminals
        // connect to the distributed systems), subject to the local CPU queue;
        // the rest of the transaction runs at the central complex.
        let cpu_init_origin = params.ship_origin_instr / params.local_mips * el;
        let cpu_exec_c = params.central_exec_instr() / params.central_mips * ec;
        let lock_wait_c = nl * c.p_cc * w_cc;
        let exec_phase_c = cpu_exec_c + nl * params.io_per_call + lock_wait_c;
        let auth_round = 2.0 * d + params.auth_instr / params.local_mips;
        // origin processing + ship in + setup + execute + authenticate +
        // commit/reply out.
        let r_central_first = cpu_init_origin + d + params.setup_io + exec_phase_c + auth_round + d;
        let r_central_rerun =
            params.rerun_instr() / params.central_mips * ec + lock_wait_c + auth_round;

        // --- Abort probabilities from collision × who-finishes-first ---
        let pw_req_new = p_local_loses_as_requester(holds.beta_l, holds.beta_c, d);
        let pw_req_rr = p_local_loses_as_requester(holds.beta_l, holds.gamma_c, d);
        let pw_hold_new = p_local_loses_as_holder(holds.beta_l, holds.beta_c, d);
        let pw_req_new_rr = p_local_loses_as_requester(holds.gamma_l, holds.beta_c, d);
        let pw_req_rr_rr = p_local_loses_as_requester(holds.gamma_l, holds.gamma_c, d);
        let pw_hold_rr = p_local_loses_as_holder(holds.gamma_l, holds.beta_c, d);

        // Local first run: collisions from its own requests plus central
        // requests landing on its held locks.
        let own_l1 = nl * (c.p_lc_new * pw_req_new + c.p_lc_rerun * pw_req_rr);
        let as_holder_l1 = c.central_req_rate_db * (nl * holds.beta_l / 2.0) / s * pw_hold_new;
        let p_abort_local_first = (own_l1 + as_holder_l1).clamp(0.0, ABORT_CAP);

        let own_l2 = nl * (c.p_lc_new * pw_req_new_rr + c.p_lc_rerun * pw_req_rr_rr);
        let as_holder_l2 = c.central_req_rate_db * (nl * holds.gamma_l) / s * pw_hold_rr;
        let p_abort_local_rerun = (own_l2 + as_holder_l2).clamp(0.0, ABORT_CAP);

        // Central first run: its own requests colliding with local holders
        // (central loses when the local holder outlives its authentication),
        // local requests landing on its locks (central loses when the local
        // requester finishes first), plus coherence-count negative acks.
        let own_c1 = nl
            * (c.p_cl_new * (1.0 - p_local_loses_as_holder(holds.beta_l, holds.beta_c, d))
                + c.p_cl_rerun * (1.0 - p_local_loses_as_holder(holds.gamma_l, holds.beta_c, d)));
        let as_holder_c1 =
            c.local_req_rate_site * (nl * holds.beta_c / 2.0) / s * (1.0 - pw_req_new);
        let p_coh_txn = 1.0 - (1.0 - c.p_coh).powf(nl);
        let p_abort_central_first = (own_c1 + as_holder_c1 + p_coh_txn).clamp(0.0, ABORT_CAP);

        let own_c2 = nl
            * (c.p_cl_new * (1.0 - p_local_loses_as_holder(holds.beta_l, holds.gamma_c, d))
                + c.p_cl_rerun * (1.0 - p_local_loses_as_holder(holds.gamma_l, holds.gamma_c, d)));
        let as_holder_c2 = c.local_req_rate_site * (nl * holds.gamma_c) / s * (1.0 - pw_req_new);
        let p_abort_central_rerun = (own_c2 + as_holder_c2 + p_coh_txn).clamp(0.0, ABORT_CAP);

        // Geometric rerun expansion (the paper's fourth response-time term).
        let e_rr_l = p_abort_local_first / (1.0 - p_abort_local_rerun);
        let e_rr_c = p_abort_central_first / (1.0 - p_abort_central_rerun);
        let r_local = r_local_first + e_rr_l * r_local_rerun;
        let r_central = r_central_first + e_rr_c * r_central_rerun;

        let new_holds = HoldTimes {
            beta_l: lock_phase_l,
            gamma_l: r_local_rerun,
            beta_c: exec_phase_c + auth_round,
            gamma_c: r_central_rerun,
        };

        ResponseEstimate {
            r_local_first,
            r_local_rerun,
            r_local,
            r_central_first,
            r_central_rerun,
            r_central,
            p_abort_local_first,
            p_abort_local_rerun,
            p_abort_central_first,
            p_abort_central_rerun,
            holds: new_holds,
        }
    }

    /// `ρ = q / (q + 1)` — the utilization implied by a queue of length `q`
    /// in an M/M/1 system.
    fn rho_from_queue(q: f64) -> f64 {
        if q <= 0.0 {
            0.0
        } else {
            q / (q + 1.0)
        }
    }

    /// Normalizes a queue-implied utilization by the observing node's CPU
    /// speed: a server `s`× faster drains the same queue `s`× sooner, so
    /// the pressure it signals is `ρ / s`.
    ///
    /// `speed == 1.0` is an exact pass-through (`x / 1.0 == x` in IEEE 754),
    /// preserving bit-identity on homogeneous topologies; heterogeneous
    /// speeds clamp into `[0, 0.999)` so a slow node cannot push the
    /// response-time equations past saturation.
    fn normalize_rho(rho: f64, speed: f64) -> f64 {
        if speed == 1.0 {
            rho
        } else {
            (rho / speed).clamp(0.0, 0.999)
        }
    }

    /// Inverts `n = ρ · R(ρ) / S` with `R(ρ) = A + S / (1 − ρ)` (non-CPU time
    /// `A`, CPU demand `S`) for `ρ`, so that a population count that includes
    /// transactions in I/O and lock wait maps to a CPU utilization.
    ///
    /// The quadratic `−Aρ² + (A + S + nS)ρ − nS = 0` has exactly one root in
    /// `[0, 1)` for `n ≥ 0`.
    fn rho_from_population(n: f64, cpu: f64, non_cpu: f64) -> f64 {
        if n <= 0.0 {
            return 0.0;
        }
        if non_cpu <= 1e-12 {
            // Pure CPU residence: n = ρ/(1−ρ).
            return n / (n + 1.0);
        }
        let b = non_cpu + cpu + n * cpu;
        let disc = (b * b - 4.0 * non_cpu * n * cpu).max(0.0);
        ((b - disc.sqrt()) / (2.0 * non_cpu)).clamp(0.0, 0.999)
    }

    /// Time a shipped transaction resides at the central complex (its response
    /// minus the two in-transit legs).
    fn central_residence(params: &SystemParams) -> f64 {
        params.nominal_central_response() - 2.0 * params.comm_delay
    }

    /// Utilization pair (local, central) for the observed state, optionally
    /// with the incoming transaction added at one site.
    fn utilizations(
        params: &SystemParams,
        obs: &Observed,
        estimator: UtilizationEstimator,
        extra_local: f64,
        extra_central: f64,
    ) -> (f64, f64) {
        match estimator {
            UtilizationEstimator::QueueLength => (
                normalize_rho(rho_from_queue(obs.q_local + extra_local), obs.local_speed),
                normalize_rho(
                    rho_from_queue(obs.q_central + extra_central),
                    obs.central_speed,
                ),
            ),
            UtilizationEstimator::NumInSystem => {
                // The observing node's true service rate: nominal MIPS
                // scaled by its relative speed (exact at speed 1.0, since
                // `x * 1.0 == x`).
                let cpu_l = params.exec_instr() / (params.local_mips * obs.local_speed);
                let cpu_c = params.central_exec_instr() / (params.central_mips * obs.central_speed);
                let non_cpu_l = params.total_io();
                let non_cpu_c = central_residence(params) - cpu_c;
                (
                    rho_from_population(obs.n_local + extra_local, cpu_l, non_cpu_l),
                    rho_from_population(obs.n_central + extra_central, cpu_c, non_cpu_c),
                )
            }
        }
    }

    /// Contention inputs from observed lock counts, following Section 3.2.1:
    /// "the probabilities of contention are estimated from the number of locks
    /// held", e.g. `P = n_lock / lockspace`.
    fn contention_from_observation(params: &SystemParams, obs: &Observed) -> ContentionInputs {
        let s = params.slice();
        let l = params.lockspace;
        let d = params.comm_delay;
        let nl = params.locks_per_txn;
        let holds = HoldTimes::nominal(params);

        let p_ll = (obs.locks_local / s).min(1.0);
        // Central locks are uniform over the whole space; the share in any one
        // slice is locks_central / lockspace of the slice.
        let p_central = (obs.locks_central / l).min(1.0);
        // Authentication holds last ~2d out of a beta_c lock span.
        let p_lauth = (p_central * (2.0 * d / holds.beta_c).min(1.0)).min(1.0);
        // Little's-law request-rate estimates for the as-holder abort terms.
        let local_commit_rate = obs.n_local / params.nominal_local_response();
        let central_req_rate_db =
            obs.n_central * nl / central_residence(params) / params.n_sites as f64;
        let local_req_rate_site = obs.n_local * nl / params.nominal_local_response();
        let p_coh = (local_commit_rate * nl * 2.0 * d / s).min(1.0);

        ContentionInputs {
            p_ll,
            p_lc_new: p_central,
            p_lc_rerun: 0.0,
            p_lauth,
            p_cc: p_central,
            p_cl_new: p_ll,
            p_cl_rerun: 0.0,
            p_coh,
            central_req_rate_db,
            local_req_rate_site,
        }
    }

    /// Produces the case-(1)/case-(2) estimates a dynamic router compares.
    ///
    /// # Panics
    ///
    /// Panics if `params` fail validation.
    #[must_use]
    pub fn estimate_route_cases(
        params: &SystemParams,
        obs: &Observed,
        estimator: UtilizationEstimator,
    ) -> RouteEstimates {
        params.validate().expect("invalid system parameters");
        let c = contention_from_observation(params, obs);
        let holds = HoldTimes::nominal(params);

        // Utilizations seen by the newcomer (state as observed, self excluded).
        let (rho_l_base, rho_c_base) = utilizations(params, obs, estimator, 0.0, 0.0);
        let base: ResponseEstimate = response_times(params, rho_l_base, rho_c_base, &c, &holds);

        // Case 1: newcomer routed locally — others see a busier local site.
        let (rho_l_plus, _) = utilizations(params, obs, estimator, 1.0, 0.0);
        let case1 = response_times(params, rho_l_plus, rho_c_base, &c, &holds);

        // Case 2: newcomer shipped — others see a busier central complex.
        let (_, rho_c_plus) = utilizations(params, obs, estimator, 0.0, 1.0);
        let case2 = response_times(params, rho_l_base, rho_c_plus, &c, &holds);

        RouteEstimates {
            run_local: CaseEstimate {
                r_incoming: base.r_local,
                r_local: case1.r_local,
                // Routing the newcomer locally leaves the central complex (and
                // the other sites' origin processing) unchanged for the
                // transactions already in the system.
                r_central: base.r_central,
                rho_local: rho_l_plus,
                rho_central: rho_c_base,
            },
            ship: CaseEstimate {
                r_incoming: base.r_central,
                r_local: case2.r_local,
                r_central: case2.r_central,
                rho_local: rho_l_base,
                rho_central: rho_c_plus,
            },
        }
    }
}

const ESTIMATORS: [UtilizationEstimator; 2] = [
    UtilizationEstimator::QueueLength,
    UtilizationEstimator::NumInSystem,
];

/// Zero with probability 1/4, otherwise uniform on `[lo, hi)`.
fn maybe_zero(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    if rng.random_range(0..4) == 0 {
        0.0
    } else {
        sample_uniform(rng, lo, hi)
    }
}

/// Valid parameters spread well beyond the paper's point, including zero
/// pathlengths, zero I/O and a zero link delay, which drive the nominal
/// lock spans to zero (the integrals' degenerate branch).
fn random_params(rng: &mut SimRng) -> SystemParams {
    let init_instr = maybe_zero(rng, 1e3, 4e5);
    let p = SystemParams {
        n_sites: rng.random_range(1..40) as usize,
        lockspace: sample_uniform(rng, 100.0, 1e5),
        locks_per_txn: f64::from(rng.random_range(1..30)),
        p_local: rng.random::<f64>(),
        local_mips: 1e6 * sample_uniform(rng, 0.25, 8.0),
        central_mips: 1e6 * sample_uniform(rng, 1.0, 60.0),
        central_servers: rng.random_range(1..5) as usize,
        comm_delay: maybe_zero(rng, 0.0, 2.0),
        init_instr,
        db_call_instr: maybe_zero(rng, 1e3, 6e4),
        io_overhead_instr: maybe_zero(rng, 1e3, 4e4),
        async_update_instr: maybe_zero(rng, 1e3, 2e4),
        auth_instr: maybe_zero(rng, 1e3, 2e4),
        shard_op_instr: maybe_zero(rng, 1e3, 2e4),
        ship_msg_instr: maybe_zero(rng, 1e3, 4e4),
        ship_origin_instr: init_instr * rng.random::<f64>(),
        setup_io: maybe_zero(rng, 0.0, 0.2),
        io_per_call: maybe_zero(rng, 0.0, 0.1),
    };
    p.validate().expect("generator must produce valid params");
    p
}

fn random_obs(rng: &mut SimRng) -> Observed {
    let speed = |rng: &mut SimRng| {
        if rng.random_range(0..2) == 0 {
            1.0
        } else {
            sample_uniform(rng, 0.25, 4.0)
        }
    };
    Observed {
        q_local: maybe_zero(rng, 0.0, 40.0).floor(),
        q_central: maybe_zero(rng, 0.0, 60.0).floor(),
        n_local: maybe_zero(rng, 0.0, 50.0).floor(),
        n_central: maybe_zero(rng, 0.0, 200.0).floor(),
        locks_local: maybe_zero(rng, 0.0, 600.0).floor(),
        locks_central: maybe_zero(rng, 0.0, 5000.0).floor(),
        local_speed: speed(rng),
        central_speed: speed(rng),
    }
}

fn case_bits(c: &CaseEstimate) -> [u64; 5] {
    [
        c.r_incoming.to_bits(),
        c.r_local.to_bits(),
        c.r_central.to_bits(),
        c.rho_local.to_bits(),
        c.rho_central.to_bits(),
    ]
}

fn route_bits(e: &RouteEstimates) -> [[u64; 5]; 2] {
    [case_bits(&e.run_local), case_bits(&e.ship)]
}

fn response_bits(e: &ResponseEstimate) -> Vec<u64> {
    [
        e.r_local_first,
        e.r_local_rerun,
        e.r_local,
        e.r_central_first,
        e.r_central_rerun,
        e.r_central,
        e.p_abort_local_first,
        e.p_abort_local_rerun,
        e.p_abort_central_first,
        e.p_abort_central_rerun,
        e.holds.beta_l,
        e.holds.gamma_l,
        e.holds.beta_c,
        e.holds.gamma_c,
    ]
    .iter()
    .map(|x| x.to_bits())
    .collect()
}

/// One model, built once per parameter set and reused across many
/// observed states, reproduces the per-call estimator exactly; so does the
/// public per-call wrapper.
#[test]
fn route_model_matches_the_per_call_estimator_bit_for_bit() {
    let mut rng = SimRng::seed_from_u64(0x000B_AC1E);
    let mut degenerate = 0;
    for _ in 0..300 {
        let params = random_params(&mut rng);
        let model = RouteModel::new(&params);
        assert_eq!(model.params(), &params);
        if HoldTimes::nominal(&params).beta_l == 0.0 {
            degenerate += 1;
        }
        for _ in 0..8 {
            let obs = random_obs(&mut rng);
            for est in ESTIMATORS {
                let want = route_bits(&oracle::estimate_route_cases(&params, &obs, est));
                assert_eq!(
                    route_bits(&model.estimate(&obs, est)),
                    want,
                    "{est:?} diverged at {params:?} / {obs:?}"
                );
                assert_eq!(route_bits(&estimate_route_cases(&params, &obs, est)), want);
            }
        }
    }
    assert!(degenerate > 0, "no zero-span parameter set was generated");
}

/// The paper's own operating region, swept densely: the decisions the
/// simulator actually makes come out of the same bits.
#[test]
fn route_model_matches_on_the_paper_grid() {
    for comm_delay in [0.0, 0.05, 0.2, 0.5, 1.0] {
        let params = SystemParams {
            comm_delay,
            ..SystemParams::paper_default()
        };
        let model = RouteModel::new(&params);
        for q in 0..25 {
            for n_central in [0.0, 3.0, 12.0, 40.0] {
                let obs = Observed {
                    q_local: f64::from(q),
                    n_local: f64::from(q) + 1.0,
                    q_central: n_central / 4.0,
                    n_central,
                    locks_local: f64::from(q) * 10.0,
                    locks_central: n_central * 10.0,
                    ..Observed::default()
                };
                for est in ESTIMATORS {
                    assert_eq!(
                        route_bits(&model.estimate(&obs, est)),
                        route_bits(&oracle::estimate_route_cases(&params, &obs, est))
                    );
                }
            }
        }
    }
}

/// The response-time equations with precomputed abort orders match the
/// all-integrals-inline original for arbitrary spans — including zero
/// spans and a zero delay — and arbitrary contention inputs.
#[test]
fn response_times_with_orders_matches_inline_integrals() {
    let mut rng = SimRng::seed_from_u64(0x000B_AC1F);
    for i in 0..2000 {
        let params = random_params(&mut rng);
        // The first case is fully degenerate: every span zero.
        let span = |rng: &mut SimRng| {
            if i == 0 {
                0.0
            } else {
                maybe_zero(rng, 0.0, 5.0)
            }
        };
        let holds = HoldTimes {
            beta_l: span(&mut rng),
            gamma_l: span(&mut rng),
            beta_c: span(&mut rng),
            gamma_c: span(&mut rng),
        };
        let c = ContentionInputs {
            p_ll: maybe_zero(&mut rng, 0.0, 1.0),
            p_lc_new: maybe_zero(&mut rng, 0.0, 1.0),
            p_lc_rerun: maybe_zero(&mut rng, 0.0, 1.0),
            p_lauth: maybe_zero(&mut rng, 0.0, 1.0),
            p_cc: maybe_zero(&mut rng, 0.0, 1.0),
            p_cl_new: maybe_zero(&mut rng, 0.0, 1.0),
            p_cl_rerun: maybe_zero(&mut rng, 0.0, 1.0),
            p_coh: maybe_zero(&mut rng, 0.0, 0.1),
            central_req_rate_db: maybe_zero(&mut rng, 0.0, 100.0),
            local_req_rate_site: maybe_zero(&mut rng, 0.0, 100.0),
        };
        let rho_l = sample_uniform(&mut rng, -0.1, 1.2);
        let rho_c = sample_uniform(&mut rng, -0.1, 1.2);
        let want = response_bits(&oracle::response_times(&params, rho_l, rho_c, &c, &holds));
        let orders = AbortOrders::new(&holds, params.comm_delay);
        assert_eq!(
            response_bits(&response_times_with(&params, rho_l, rho_c, &c, &orders)),
            want,
            "diverged at {holds:?}, d = {}",
            params.comm_delay
        );
        assert_eq!(
            response_bits(&response_times(&params, rho_l, rho_c, &c, &holds)),
            want
        );
    }
}

/// A model is rejected exactly where the per-call estimator was.
#[test]
#[should_panic(expected = "invalid system parameters")]
fn route_model_rejects_invalid_params() {
    let _ = RouteModel::new(&SystemParams {
        comm_delay: -1.0,
        ..SystemParams::paper_default()
    });
}
