//! The fixed calibration kernel and host-speed normalisation.
//!
//! The host this benchmark runs on is shared: back-to-back identical runs
//! differ by tens of percent because other tenants take CPU time and
//! cache, not because the program changed. A fixed kernel that never
//! changes with the simulator is therefore run in slots of
//! [`READINGS_PER_SLOT`] readings before every pass and after every run,
//! and a pass's host times are scaled by `CALIB_REF_S / median(readings
//! of that pass)`: the figure a host running the kernel in exactly
//! `CALIB_REF_S` would have shown. Host slowdowns that last through a
//! pass hit the kernel and the workload alike and cancel out; shorter
//! bursts are left to the median over passes.
//!
//! Two other scalings were tried on `paper_policies` and spread wider
//! across processes: each run by only its two adjacent readings (one
//! 6 ms reading is itself about ±10% noisy), and every pass by the median
//! of the whole measurement's readings.
//!
//! The kernel mixes the three kinds of work the simulator does: a binary
//! heap hold model (the event queue), an open-addressing hash table
//! larger than L1 (lock tables and transaction maps) and floating-point
//! transcendentals (the analytic model and the random variates).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in seconds, on the reference host (2-core Intel Xeon
/// virtual machine, quiet). Normalised times are in reference seconds.
pub const CALIB_REF_S: f64 = 0.006;

const HEAP_SIZE: usize = 2048;
const HEAP_OPS: usize = 40_000;
const TABLE_SLOTS: usize = 1 << 15;
const TABLE_OPS: usize = 60_000;
const FLOAT_OPS: usize = 40_000;

fn splitmix(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runs the kernel once and returns a checksum (so no part of it can be
/// optimised away). The work is identical on every call.
#[must_use]
pub fn kernel() -> u64 {
    let mut z = 0x1988_u64;
    // Event-queue-like hold model.
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(HEAP_SIZE + 1);
    for i in 0..HEAP_SIZE {
        heap.push(Reverse((splitmix(&mut z) >> 40, i as u32)));
    }
    let mut acc = 0u64;
    for _ in 0..HEAP_OPS {
        let Reverse((t, id)) = heap.pop().expect("hold model keeps the heap full");
        acc = acc.wrapping_add(u64::from(id));
        heap.push(Reverse((t + (splitmix(&mut z) >> 44), id)));
    }
    // Lock-table-like open addressing with linear probing.
    let mut table = vec![0u64; TABLE_SLOTS];
    let mask = TABLE_SLOTS - 1;
    for _ in 0..TABLE_OPS {
        let key = (splitmix(&mut z) % (TABLE_SLOTS as u64 * 3 / 4)) | 1;
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 49) as usize & mask;
        loop {
            let v = table[slot];
            if v == key {
                table[slot] = 0;
                break;
            }
            if v == 0 {
                table[slot] = key;
                break;
            }
            slot = (slot + 1) & mask;
        }
        acc = acc.wrapping_add(slot as u64);
    }
    // Random-variate and model arithmetic.
    let mut f = 0.0f64;
    for _ in 0..FLOAT_OPS {
        let u = (splitmix(&mut z) >> 11) as f64 / (1u64 << 53) as f64;
        f += -(1.0 - u).ln() * (u * 0.5).exp();
    }
    acc.wrapping_add(f.to_bits())
}

/// Kernel runs per calibration reading slot.
pub const READINGS_PER_SLOT: usize = 3;

/// Times one kernel run, in host seconds.
#[must_use]
pub fn measure() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// One calibration slot: [`READINGS_PER_SLOT`] kernel runs, host seconds
/// each.
#[must_use]
pub fn slot() -> Vec<f64> {
    (0..READINGS_PER_SLOT).map(|_| measure()).collect()
}

/// Scale factor turning host seconds measured alongside `readings` into
/// reference seconds (1 without readings).
#[must_use]
pub fn factor(readings: &[f64]) -> f64 {
    if readings.is_empty() {
        1.0
    } else {
        CALIB_REF_S / crate::stats::median(readings)
    }
}
