//! CPU time and peak resident set size from `getrusage(2)`, declared here
//! rather than pulled in through a crate.

use std::ffi::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// Linux `struct rusage`: two timevals followed by fourteen longs, the first
/// of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawUsage) -> c_int;
}

/// Whose usage to read.
#[derive(Clone, Copy, Debug)]
pub enum Who {
    /// This process.
    Process = 0,
    /// All waited-for descendants of this process.
    Children = -1,
}

/// User plus system CPU seconds and peak RSS of one `getrusage` reading.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    pub cpu_s: f64,
    /// For [`Who::Children`], the largest RSS of any single descendant.
    pub max_rss_kib: u64,
}

pub fn usage(who: Who) -> Usage {
    let mut raw = RawUsage::default();
    // SAFETY: `raw` is a live, writable `RawUsage` whose layout matches the
    // C `struct rusage` on Linux (two `struct timeval`s of two longs each,
    // then fourteen longs); `getrusage` writes only within that struct.
    let rc = unsafe { getrusage(who as c_int, &mut raw) };
    assert_eq!(rc, 0, "getrusage with a valid `who` cannot fail");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&raw.utime) + secs(&raw.stime),
        max_rss_kib: raw.maxrss.max(0) as u64,
    }
}
