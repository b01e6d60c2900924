//! Host-speed calibration.
//!
//! The machines this benchmark runs on are shared: identical work takes
//! up to a quarter longer for tens of seconds at a time while neighbours
//! load the host, and that drift would swamp a run-to-run comparison. So
//! a run interleaves short slices of a fixed kernel with its work, at
//! least every [`SLICE_EVERY`] and always outside the timed regions, and
//! divides its time metrics by the host's slowdown over the run: the
//! median slice over [`REFERENCE_SLICE_MS`], on the same clock as the
//! metric. (A host that takes the CPU away stretches wall time but not
//! CPU time, so wall metrics are scaled by the slices' wall time and CPU
//! metrics by their CPU time.) Reported times are thus times on a host
//! where the kernel's slice takes the reference time. The kernel is part
//! of the benchmark, not of the program under test, so a change to the
//! program cannot move it; raw times are printed beside the scaled ones.

use crate::measure::{median, ms, timed, Cost};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median slice time on the two-CPU reference machine.
pub const REFERENCE_SLICE_MS: f64 = 20.0;

/// Longest gap between slices while asking.
pub const SLICE_EVERY: Duration = Duration::from_millis(500);

/// 16 MiB each: larger than the caches, like the program's universes.
const TABLE_WORDS: usize = 1 << 21;
const RANDOM_STEPS: usize = 60_000;
const MAP_KEYS: u64 = 1 << 15;

/// A fixed slice of single-threaded work shaped like the program's own:
/// hash-map inserts and lookups with allocation, word-wise set algebra
/// streamed over tables larger than the caches, and dependent random
/// reads and writes.
pub struct Calibrator {
    table: Vec<u64>,
    other: Vec<u64>,
    slices: Vec<Cost>,
    last: Option<Instant>,
}

/// The host's slowdown against the reference on each clock (above 1 on a
/// slower host).
#[derive(Clone, Copy, Debug)]
pub struct Slowdown {
    pub wall: f64,
    pub cpu: f64,
}

impl Default for Calibrator {
    fn default() -> Self {
        let words = |k: u64| {
            (0..TABLE_WORDS as u64)
                .map(|i| (i ^ k).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect()
        };
        Calibrator {
            table: words(0),
            other: words(0x5555),
            slices: Vec::new(),
            last: None,
        }
    }
}

impl Calibrator {
    /// Runs and times one slice.
    pub fn slice(&mut self) {
        let ((), cost) = timed(|| self.kernel());
        self.slices.push(cost);
        self.last = Some(Instant::now());
    }

    fn kernel(&mut self) {
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for k in 0..MAP_KEYS {
            map.insert(k.wrapping_mul(0x2545_f491_4f6c_dd1d), k);
        }
        let mut acc: u64 = (0..MAP_KEYS)
            .filter_map(|k| map.get(&k.wrapping_mul(0x2545_f491_4f6c_dd1d)))
            .sum();
        for (a, b) in self.table.iter_mut().zip(&self.other) {
            *a = (*a & b) | (*a ^ b).rotate_left(1);
        }
        acc = acc.wrapping_add(self.table.iter().map(|w| u64::from(w.count_ones())).sum());
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..RANDOM_STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(acc | 1);
            let i = (x >> 32) as usize & (TABLE_WORDS - 1);
            acc ^= self.other[i];
            self.other[i] = acc.rotate_left(7) ^ x;
        }
        black_box(acc);
    }

    /// Runs a slice if none ran for [`SLICE_EVERY`].
    pub fn slice_if_due(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= SLICE_EVERY) {
            self.slice();
        }
    }

    pub fn slices(&self) -> usize {
        self.slices.len()
    }

    /// The median slowdown over the whole run.
    pub fn slowdown(&self) -> Slowdown {
        if self.slices.is_empty() {
            return Slowdown {
                wall: 1.0,
                cpu: 1.0,
            };
        }
        let on = |clock: fn(&Cost) -> f64| {
            median(&self.slices.iter().map(clock).collect::<Vec<_>>()) / REFERENCE_SLICE_MS
        };
        Slowdown {
            wall: on(|c| ms(c.wall)),
            cpu: on(|c| ms(c.cpu)),
        }
    }
}
