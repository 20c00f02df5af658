//! A fixed host-speed reference.
//!
//! The benchmark shares its host with other tenants, and the host's speed
//! swings by tens of percent from one second to the next. A small
//! computation that does not depend on the program under test is timed
//! after every slice of a run, and each slice's host time is divided by
//! the host's slowdown around it (the median of the five nearest samples
//! over [`NOMINAL_S`]), so run times read as seconds on a host running
//! at the nominal speed. The computation reuses buffers built once, so it
//! measures the processor and its memory hierarchy, not the allocator's
//! state. Each sample runs the computation once untimed and times a
//! second pass: the first pass brings the buffers back into cache, so the
//! timed pass does not depend on how much of the cache the program's own
//! work evicted before it.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// A typical median sample on the 2-vCPU Xeon VM the baseline was
/// recorded on. It only sets the scale of normalized times.
pub const NOMINAL_S: f64 = 0.63e-3;

/// Keys sorted per sample.
const KEYS: u32 = 8_192;

thread_local! {
    /// `(keys, order)`: fixed record-key-like strings and a sort buffer.
    static BUFFERS: RefCell<(Vec<String>, Vec<u32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Times one reference computation: sorting the indices of a fixed set
/// of short, heap-allocated keys by key, as a store's key scans do. The
/// computation runs once untimed first, to warm the cache.
pub fn sample() -> f64 {
    BUFFERS.with(|b| {
        let (keys, order) = &mut *b.borrow_mut();
        if keys.is_empty() {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            keys.extend((0..KEYS).map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                format!("t{}/sc{}x{}", i % 16, x % 1000, x % 97)
            }));
            order.reserve(KEYS as usize);
        }
        let mut sort = || {
            order.clear();
            order.extend(0..KEYS);
            order.sort_unstable_by(|a, b| keys[*a as usize].cmp(&keys[*b as usize]));
            black_box(&order);
        };
        sort();
        let t = Instant::now();
        sort();
        t.elapsed().as_secs_f64()
    })
}

/// The host's slowdown right now, from `n` fresh samples.
pub fn slowdown_now(n: usize) -> f64 {
    slowdown(&(0..n).map(|_| sample()).collect::<Vec<_>>())
}

/// How much slower than nominal the host ran while `samples` were taken.
pub fn slowdown(samples: &[f64]) -> f64 {
    median(samples.to_vec()) / NOMINAL_S
}

/// The slowdown around each of a run's slices: the median of the five
/// samples nearest it, over the nominal time.
pub fn local_slowdowns(samples: &[f64]) -> Vec<f64> {
    (0..samples.len())
        .map(|i| slowdown(&samples[i.saturating_sub(2)..(i + 3).min(samples.len())]))
        .collect()
}

/// Median of a non-empty sample.
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
