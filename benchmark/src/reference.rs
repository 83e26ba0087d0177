//! Host-speed reference: a fixed kernel timed in short chunks between a
//! pass's operations.
//!
//! The benchmark host is a shared two-vCPU VM whose effective speed drifts
//! by 20–40 % over minutes: the same pass takes proportionally more CPU
//! time, with no steal time reported, so the drift cannot be seen from
//! inside except by timing fixed work. Each pass therefore samples this
//! kernel — a set-associative LRU cache simulation over a pseudo-random
//! reference stream, the same kind of work as the program's annotation
//! pass but in code of the benchmark's own, on the same two threads — and
//! the parent divides the pass's wall time by the kernel's slowdown against
//! its nominal chunk time. One chunk per 100 ms of measured work, taken
//! between operations, plus two at each end: on that host a 15 s run's
//! median then moves by about 4 % from run to run instead of 13 %, and
//! fewer or less evenly spread chunks track the drift measurably worse.
//!
//! The kernel allocates only half a megabyte. A `posix_spawn`ed child
//! starts in the runner's address space, and at exec the kernel folds that
//! space's high-water RSS into the child's `ru_maxrss`: a large buffer here,
//! even freed, would raise every paper binary's measured peak.

use crate::workload::JOBS;
use std::time::{Duration, Instant};

/// Nominal time of one chunk on an idle host; the unit the rescaled times
/// are expressed in.
pub const CHUNK_NOMINAL_S: f64 = 0.012;
/// References each thread simulates per chunk.
const CHUNK_REFS: u64 = 2_000_000;
/// Chunks taken at the start and at the end of a pass.
const BRACKET: u64 = 2;
/// Measured work per interior chunk.
const INTERVAL: Duration = Duration::from_millis(100);

/// A 4-way, 4096-set cache with 32-byte lines fed `refs` references that
/// mostly stay within an 8 KiB window which jumps every ~64 references.
/// Returns the miss count so the work cannot be optimised away.
fn cache_simulation(refs: u64, seed: u64) -> u64 {
    const SETS: usize = 1 << 12;
    const WAYS: usize = 4;
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut stamps = vec![0u64; SETS * WAYS];
    let mut x = seed | 1;
    let mut base = 0u64;
    let mut misses = 0u64;
    for i in 0..refs {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x.is_multiple_of(64) {
            base = (x >> 20) % (1 << 26);
        }
        let line = (base + (x % 8192) * 8) >> 5;
        let set = (line as usize) & (SETS - 1);
        let tag = line >> 12;
        let ways = &mut tags[set * WAYS..(set + 1) * WAYS];
        let ages = &mut stamps[set * WAYS..(set + 1) * WAYS];
        let way = match ways.iter().position(|&t| t == tag) {
            Some(w) => w,
            None => {
                misses += 1;
                let victim = (0..WAYS).min_by_key(|&w| ages[w]).expect("ways exist");
                ways[victim] = tag;
                victim
            }
        };
        ages[way] = i;
    }
    misses
}

/// Runs one chunk on [`JOBS`] threads and returns its wall time.
fn chunk() -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for k in 0..JOBS as u64 {
            s.spawn(move || std::hint::black_box(cache_simulation(CHUNK_REFS, 0x5EED + k)));
        }
    });
    start.elapsed().as_secs_f64()
}

/// The reference samples of one pass.
pub struct HostSpeed {
    chunks: u64,
    seconds: f64,
    since_sample: Duration,
}

impl HostSpeed {
    /// Takes the opening chunks.
    pub fn start() -> HostSpeed {
        let mut speed = HostSpeed {
            chunks: 0,
            seconds: 0.0,
            since_sample: Duration::ZERO,
        };
        speed.sample(BRACKET);
        speed
    }

    fn sample(&mut self, chunks: u64) {
        for _ in 0..chunks {
            self.seconds += chunk();
            self.chunks += 1;
        }
    }

    /// Accounts `work` of measured operations and takes one chunk per
    /// [`INTERVAL`] of work, carrying the remainder to the next operation.
    pub fn after(&mut self, work: Duration) {
        self.since_sample += work;
        while self.since_sample >= INTERVAL {
            self.sample(1);
            self.since_sample -= INTERVAL;
        }
    }

    /// Takes the closing chunks and returns the pass's slowdown: measured
    /// over nominal chunk time (1 on an idle host, 1.3 when it runs 30 %
    /// slow).
    pub fn finish(mut self) -> f64 {
        self.sample(BRACKET);
        self.seconds / (self.chunks as f64 * CHUNK_NOMINAL_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_misses() {
        let a = cache_simulation(100_000, 7);
        assert_eq!(a, cache_simulation(100_000, 7));
        assert!(a > 0 && a < 100_000);
    }
}
