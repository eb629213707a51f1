//! A fixed reference kernel: the yardstick for the host's speed.
//!
//! The benchmark times this kernel between the program's operations and
//! reports operation costs as multiples of it. The shared host's speed
//! drifts by tens of percent from one minute to the next; the kernel
//! runs on the same core at the same moments, so the ratio cancels most
//! of that drift while a change to the program moves it in full. The
//! kernel is the benchmark's own code and never changes with the
//! program.

use std::hint::black_box;
use std::time::Instant;

/// Side of the dense matrix the kernel factors.
const DIM: usize = 48;
/// Keys the kernel sorts.
const KEYS: usize = 8192;

/// Run the kernel once and return its wall seconds.
///
/// The work mixes what the program spends its time on: a dense
/// Cholesky factorization (GP fitting), a sort of pseudo-random keys
/// (grouping and ranking) and an ordered-map build (bookkeeping with
/// allocation).
pub fn time_once() -> f64 {
    let t0 = Instant::now();
    black_box(cholesky_trace(black_box(DIM)));
    black_box(sort_checksum(black_box(KEYS)));
    black_box(map_checksum(black_box(KEYS / 4)));
    t0.elapsed().as_secs_f64()
}

/// Factor the SPD matrix `I + A Aᵀ / n` (A filled by a fixed recurrence)
/// and return the trace of its factor.
fn cholesky_trace(n: usize) -> f64 {
    let mut a = vec![0.0f64; n * n];
    let mut x = 0.5f64;
    for v in a.iter_mut() {
        x = (x * 3.7 * (1.0 - x)).clamp(1e-3, 1.0 - 1e-3);
        *v = x - 0.5;
    }
    let mut m = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let dot: f64 = (0..n).map(|k| a[i * n + k] * a[j * n + k]).sum();
            let v = dot / n as f64 + if i == j { 1.0 } else { 0.0 };
            m[i * n + j] = v;
            m[j * n + i] = v;
        }
    }
    for j in 0..n {
        let d = (m[j * n + j] - (0..j).map(|k| m[j * n + k].powi(2)).sum::<f64>()).sqrt();
        m[j * n + j] = d;
        for i in j + 1..n {
            let s: f64 = (0..j).map(|k| m[i * n + k] * m[j * n + k]).sum();
            m[i * n + j] = (m[i * n + j] - s) / d;
        }
    }
    (0..n).map(|i| m[i * n + i]).sum()
}

/// Sort `n` xorshift keys and return a checksum of the sorted order.
fn sort_checksum(n: usize) -> u64 {
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    let mut keys: Vec<u64> = (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        })
        .collect();
    keys.sort_unstable();
    keys.iter()
        .enumerate()
        .fold(0u64, |acc, (i, k)| acc.wrapping_add(k >> 8 ^ i as u64))
}

/// Build an ordered map of `n` keys, look each up once, return a
/// checksum.
fn map_checksum(n: usize) -> u64 {
    let map: std::collections::BTreeMap<u64, u64> = (0..n as u64)
        .map(|i| (i.wrapping_mul(0x2545_f491), i))
        .collect();
    (0..n as u64)
        .filter_map(|i| map.get(&i.wrapping_mul(0x2545_f491)))
        .sum()
}
