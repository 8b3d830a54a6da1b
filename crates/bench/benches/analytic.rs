//! Microbenchmarks of the analytic model — these matter because the
//! dynamic routers evaluate the model on every class A arrival.

use hls_analytic::{
    estimate_route_cases, optimal_static_ship, solve_static, Observed, RouteModel, SystemParams,
    UtilizationEstimator,
};
use hls_bench::microbench::bench;
use std::hint::black_box;

fn bench_solve_static() {
    let params = SystemParams::paper_default();
    bench("analytic/solve_static", || {
        solve_static(&params, black_box(2.0), black_box(0.4))
    });
}

fn bench_optimizer() {
    let params = SystemParams::paper_default();
    bench("analytic/optimal_static_ship_grid50", || {
        optimal_static_ship(&params, black_box(2.0), 50)
    });
}

fn bench_route_estimate() {
    let params = SystemParams::paper_default();
    let obs = Observed {
        q_local: 4.0,
        q_central: 6.0,
        n_local: 5.0,
        n_central: 20.0,
        locks_local: 40.0,
        locks_central: 180.0,
        local_speed: 1.0,
        central_speed: 1.0,
    };
    for (name, est) in [
        ("queue", UtilizationEstimator::QueueLength),
        ("num", UtilizationEstimator::NumInSystem),
    ] {
        bench(&format!("analytic/route_estimate_{name}"), || {
            estimate_route_cases(&params, black_box(&obs), est)
        });
    }
    // What the analytic routers run per decision: the model is built once
    // per run, so only the observation-dependent algebra is timed.
    let model = RouteModel::new(&params);
    for (name, est) in [
        ("queue", UtilizationEstimator::QueueLength),
        ("num", UtilizationEstimator::NumInSystem),
    ] {
        bench(&format!("analytic/route_model_estimate_{name}"), || {
            model.estimate(black_box(&obs), est)
        });
    }
}

fn main() {
    bench_solve_static();
    bench_optimizer();
    bench_route_estimate();
}
