//! Host calibration: a fixed ALU spin on one and two threads and a fixed
//! memory-bound pointer chase, so a slow or shared host reads as such
//! rather than as a regression; and the process's peak resident set.

use std::hint::black_box;

use crate::metrics::Metrics;
use crate::replay::timed;

/// Iterations of the xorshift spin.
const SPIN_ITERS: u64 = 60_000_000;
/// Entries of the pointer-chase ring (u32 each: 64 MiB).
const CHASE_ENTRIES: usize = 16 << 20;
/// Dependent loads of the chase.
const CHASE_STEPS: u64 = 3_000_000;

fn spin(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..SPIN_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// A single cycle through every entry, visited in a scrambled order so
/// each load misses the caches: position `w` of the cycle is entry
/// `w · K mod n`, a permutation for odd `K` and `n` a power of two.
fn chase_ring() -> Vec<u32> {
    let n = CHASE_ENTRIES as u64;
    let at = |w: u64| (w.wrapping_mul(0x9e37_79b9) % n) as usize;
    let mut next = vec![0u32; CHASE_ENTRIES];
    for w in 0..n {
        next[at(w)] = at((w + 1) % n) as u32;
    }
    next
}

/// Runs the calibration and records `host.*`.
pub fn calibrate(m: &mut Metrics) {
    let (one_ns, _) = timed(|| black_box(spin(black_box(1))));
    let (two_ns, _) = timed(|| {
        std::thread::scope(|s| {
            let a = s.spawn(|| spin(black_box(2)));
            let b = spin(black_box(3));
            black_box((a.join().ok(), b));
        })
    });
    let ring = chase_ring();
    let (chase_ns, _) = timed(|| {
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = ring[at as usize];
        }
        black_box(at)
    });
    m.set("host.spin_ms", one_ns / 1e6);
    m.set("host.spin_eff_2t", one_ns / two_ns);
    m.set("host.chase_ms", chase_ns / 1e6);
}

/// Peak resident set (`VmHWM`) of this process in MB, if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
