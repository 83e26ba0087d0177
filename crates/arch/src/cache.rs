//! Set-associative cache model with LRU replacement.
//!
//! The paper's FFT experiment compares a 512 KB and an 8 KB cache
//! configuration: the cache determines which memory references become shared
//! bus transactions, and hence the intensity and burstiness of the bus
//! traffic every model sees. The same [`Cache`] implementation is used by
//! the cycle-accurate reference simulator (`mesh-cyclesim`) and by the
//! annotation bridge (`mesh-annotate`), guaranteeing both fidelities observe
//! *identical miss streams* for a given workload.
//!
//! The model is deliberately simple — no write-back traffic, no coherence —
//! because every simulator in this repository must agree on it; see
//! `DESIGN.md` §3.

use std::fmt;

/// Cache geometry.
///
/// # Examples
///
/// ```
/// use mesh_arch::CacheConfig;
///
/// let l1 = CacheConfig::new(512 * 1024, 32, 4).unwrap();
/// assert_eq!(l1.sets(), 4096);
/// let tiny = CacheConfig::direct_mapped(8 * 1024, 32).unwrap();
/// assert_eq!(tiny.sets(), 256);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    size_bytes: u64,
    line_bytes: u64,
    ways: u32,
}

/// Error constructing a [`CacheConfig`] from an invalid geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheGeometryError {
    detail: &'static str,
}

impl fmt::Display for CacheGeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid cache geometry: {}", self.detail)
    }
}

impl std::error::Error for CacheGeometryError {}

impl CacheConfig {
    /// Creates a cache geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CacheGeometryError`] unless `size`, `line` and `ways` are
    /// all non-zero powers of two (ways may be any value ≥ 1 that divides
    /// the line count) and the size is divisible by `line × ways`.
    pub fn new(
        size_bytes: u64,
        line_bytes: u64,
        ways: u32,
    ) -> Result<CacheConfig, CacheGeometryError> {
        if size_bytes == 0 || line_bytes == 0 || ways == 0 {
            return Err(CacheGeometryError {
                detail: "size, line and ways must be non-zero",
            });
        }
        if !line_bytes.is_power_of_two() {
            return Err(CacheGeometryError {
                detail: "line size must be a power of two",
            });
        }
        let lines = size_bytes / line_bytes;
        if lines * line_bytes != size_bytes {
            return Err(CacheGeometryError {
                detail: "size must be a multiple of the line size",
            });
        }
        let sets = lines / ways as u64;
        if sets == 0 || sets * ways as u64 != lines {
            return Err(CacheGeometryError {
                detail: "size must be divisible by line × ways",
            });
        }
        if !sets.is_power_of_two() {
            return Err(CacheGeometryError {
                detail: "set count must be a power of two",
            });
        }
        Ok(CacheConfig {
            size_bytes,
            line_bytes,
            ways,
        })
    }

    /// Creates a direct-mapped geometry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CacheConfig::new`].
    pub fn direct_mapped(
        size_bytes: u64,
        line_bytes: u64,
    ) -> Result<CacheConfig, CacheGeometryError> {
        CacheConfig::new(size_bytes, line_bytes, 1)
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / self.line_bytes / self.ways as u64
    }

    /// The geometry as a fixed word tuple `[size, line, ways]` for stable
    /// content hashing. Two configs produce the same words iff they are
    /// equal, and the encoding is independent of the process, platform and
    /// std's `Hash` implementation details — suitable for keying caches that
    /// must agree across runs (e.g. `mesh-cyclesim`'s trace cache).
    pub fn geometry_words(&self) -> [u64; 3] {
        [self.size_bytes, self.line_bytes, u64::from(self.ways)]
    }
}

/// Outcome of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was absent and has been allocated (a bus transaction).
    Miss,
}

impl Access {
    /// `true` for [`Access::Miss`].
    pub fn is_miss(self) -> bool {
        matches!(self, Access::Miss)
    }
}

/// A set-associative LRU cache.
///
/// # Examples
///
/// ```
/// use mesh_arch::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::direct_mapped(1024, 32).unwrap());
/// assert!(c.access(0x0).is_miss());
/// assert!(!c.access(0x4).is_miss()); // same line
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Resident line tags, `ways` slots per set, most recently used last
    /// within each set's occupied prefix. Flat so an access touches one
    /// contiguous stripe instead of chasing a per-set allocation.
    tags: Vec<u64>,
    /// Occupied slots per set.
    lens: Vec<u32>,
    /// `log2(line_bytes)` — the geometry is validated power-of-two, so
    /// line/set indexing reduces to shifts and masks.
    line_shift: u32,
    /// `log2(sets)`.
    set_shift: u32,
    /// `sets - 1`.
    set_mask: u64,
    stats: CacheStats,
}

/// Hit/miss/eviction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found their line resident.
    pub hits: u64,
    /// Accesses that allocated a line.
    pub misses: u64,
    /// Misses that displaced a resident line (the set was full). Always
    /// `<= misses`; the difference is cold allocations into empty slots.
    pub evictions: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses were made.
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

impl Cache {
    /// Creates an empty (all-invalid) cache of the given geometry.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        Cache {
            config,
            tags: vec![0; (sets * config.ways as u64) as usize],
            lens: vec![0; sets as usize],
            line_shift: config.line_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets - 1,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Performs one access, updating LRU state and counters.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Access {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_shift;
        let ways = self.config.ways as usize;
        let len = self.lens[set_idx] as usize;
        let set = &mut self.tags[set_idx * ways..set_idx * ways + len];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU position (the occupied prefix's end).
            set.copy_within(pos + 1.., pos);
            set[len - 1] = tag;
            self.stats.hits += 1;
            Access::Hit
        } else {
            if len == ways {
                // Evict LRU: shift the set down and append at MRU.
                set.copy_within(1.., 0);
                set[len - 1] = tag;
                self.stats.evictions += 1;
            } else {
                self.tags[set_idx * ways + len] = tag;
                self.lens[set_idx] += 1;
            }
            self.stats.misses += 1;
            Access::Miss
        }
    }

    /// Invalidates all lines and clears the counters.
    pub fn reset(&mut self) {
        self.lens.fill(0);
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_validation() {
        assert!(CacheConfig::new(0, 32, 1).is_err());
        assert!(CacheConfig::new(1024, 33, 1).is_err());
        assert!(CacheConfig::new(1000, 32, 1).is_err());
        assert!(CacheConfig::new(1024, 32, 5).is_err());
        assert!(CacheConfig::new(1024, 32, 1).is_ok());
        assert!(CacheConfig::new(512 * 1024, 32, 4).is_ok());
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = Cache::new(CacheConfig::direct_mapped(1024, 32).unwrap());
        assert_eq!(c.access(100), Access::Miss);
        assert_eq!(c.access(100), Access::Hit);
        assert_eq!(c.access(101), Access::Hit); // same 32B line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn direct_mapped_conflict_misses() {
        // 1 KB direct mapped, 32 B lines -> 32 sets. Addresses 0 and 1024
        // map to the same set and evict each other.
        let mut c = Cache::new(CacheConfig::direct_mapped(1024, 32).unwrap());
        assert_eq!(c.access(0), Access::Miss);
        assert_eq!(c.access(1024), Access::Miss);
        assert_eq!(c.access(0), Access::Miss);
        assert_eq!(c.access(1024), Access::Miss);
    }

    #[test]
    fn two_way_avoids_simple_conflicts() {
        // Same addresses, 2-way: both lines fit in the set.
        let mut c = Cache::new(CacheConfig::new(1024, 32, 2).unwrap());
        assert_eq!(c.access(0), Access::Miss);
        assert_eq!(c.access(1024), Access::Miss);
        assert_eq!(c.access(0), Access::Hit);
        assert_eq!(c.access(1024), Access::Hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way set: touch A, B (set full), touch A again, then C evicts B.
        let mut c = Cache::new(CacheConfig::new(64, 32, 2).unwrap()); // 1 set
        let (a, b, d) = (0u64, 32, 64);
        c.access(a);
        c.access(b);
        c.access(a); // A is MRU
        assert_eq!(c.access(d), Access::Miss); // evicts B
        assert_eq!(c.access(a), Access::Hit);
        assert_eq!(c.access(b), Access::Miss);
    }

    #[test]
    fn working_set_fits_or_thrashes() {
        // A working set of 16 KB: fits a 512 KB cache, thrashes an 8 KB one.
        let big = CacheConfig::new(512 * 1024, 32, 4).unwrap();
        let small = CacheConfig::new(8 * 1024, 32, 4).unwrap();
        let sweep = |cfg: CacheConfig| {
            let mut c = Cache::new(cfg);
            for pass in 0..4 {
                for addr in (0..16 * 1024).step_by(32) {
                    let _ = c.access(addr);
                }
                if pass == 0 {
                    // Cold pass: all misses either way.
                    assert_eq!(c.stats().misses, 512);
                }
            }
            c.stats().miss_rate()
        };
        assert!(sweep(big) < 0.3);
        assert!(sweep(small) > 0.9);
    }

    #[test]
    fn evictions_count_displacements_only() {
        // 1-set, 2-way cache: two cold misses fill the set without evicting;
        // the third distinct line displaces the LRU.
        let mut c = Cache::new(CacheConfig::new(64, 32, 2).unwrap());
        c.access(0);
        c.access(32);
        assert_eq!(c.stats().evictions, 0);
        c.access(64);
        assert_eq!(c.stats().misses, 3);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = Cache::new(CacheConfig::direct_mapped(1024, 32).unwrap());
        c.access(0);
        c.reset();
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.access(0), Access::Miss);
    }

    #[test]
    fn miss_rate_edge_cases() {
        let s = CacheStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
    }
}
