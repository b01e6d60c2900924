//! Clocks, memory and sample statistics.
//!
//! CPU time comes from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`: it has
//! nanosecond resolution and counts threads that have already exited, so
//! the joined shard workers of an enumeration are included. (The tick
//! counters of `/proc/self/stat` move in 10 ms steps, and summing
//! `/proc/self/task/*/schedstat` misses exited threads.)

use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap memory to the operating system, so that work which
/// follows starts from the same memory state whatever ran before it.
pub fn release_free_memory() {
    // SAFETY: glibc's `malloc_trim` only releases free heap pages; it
    // takes no pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far, exited
/// threads included.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the kernel writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is supported on Linux");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is non-negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds are below 1e9"),
    )
}

/// Wall and CPU time of one interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    pub wall: Duration,
    pub cpu: Duration,
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, other: Cost) {
        self.wall += other.wall;
        self.cpu += other.cpu;
    }
}

/// Runs `f`, returning its result with the wall and process CPU time it
/// took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (w0, c0) = (Instant::now(), process_cpu());
    let out = f();
    let cost = Cost {
        wall: w0.elapsed(),
        cpu: process_cpu().saturating_sub(c0),
    };
    (out, cost)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `xs` with at least [`TAIL_BEYOND`] samples
/// above it: `(value, percentile)`. With too few samples for that, the
/// maximum and percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return (v.last().copied().unwrap_or(0.0), 100.0);
    }
    #[allow(clippy::cast_precision_loss)]
    let pct = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    (v[n - TAIL_BEYOND - 1], pct)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
