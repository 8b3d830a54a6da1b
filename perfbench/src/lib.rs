//! Benchmark harness for the hybrid load-sharing simulator.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1` runs one
//! workload (see [`workloads`]) for about `S` host seconds and prints, as
//! its last line, one JSON object with the run counts and the metrics:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `perfbench/README.md` explains the choices.

#![forbid(unsafe_code)]

pub mod calib;
pub mod checks;
pub mod layers;
pub mod measure;
pub mod spans;
pub mod stats;
pub mod trace;
pub mod workloads;
