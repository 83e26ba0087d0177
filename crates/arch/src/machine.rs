//! Machine descriptions shared by every simulator in the repository.
//!
//! A [`MachineConfig`] describes the hardware platform of an experiment — the
//! processors with their relative speeds and private caches, and the shared
//! bus. The cycle-accurate simulator executes on it directly; the annotation
//! bridge uses the same description to resolve workload segments into MESH
//! annotation tuples, so that both fidelities model the *same* machine.

use crate::cache::CacheConfig;

/// One processing element.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProcConfig {
    /// Relative computational power: operations retired per cycle. The
    /// reference processor has power 1.0; an embedded core might have 0.8.
    pub power: f64,
    /// Geometry of the processor's private cache.
    pub cache: CacheConfig,
    /// Cycles a cache hit costs (the reference access time).
    pub hit_cycles: u64,
}

impl ProcConfig {
    /// Creates a unit-power processor with the given cache and 1-cycle hits.
    ///
    /// # Panics
    ///
    /// Panics if `power` is not finite and positive.
    pub fn new(cache: CacheConfig) -> ProcConfig {
        ProcConfig {
            power: 1.0,
            cache,
            hit_cycles: 1,
        }
    }

    /// Sets the relative power (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `power` is not finite and positive.
    #[must_use]
    pub fn with_power(mut self, power: f64) -> ProcConfig {
        assert!(
            power.is_finite() && power > 0.0,
            "power must be finite and positive"
        );
        self.power = power;
        self
    }

    /// Sets the hit cost (builder style).
    #[must_use]
    pub fn with_hit_cycles(mut self, hit_cycles: u64) -> ProcConfig {
        self.hit_cycles = hit_cycles;
        self
    }

    /// Cycles one operation takes on this processor.
    pub fn cycles_per_op(&self) -> f64 {
        1.0 / self.power
    }

    /// Everything that determines this processor's timing behaviour, as a
    /// fixed word tuple for stable content hashing: the power's IEEE-754
    /// bits (`ProcConfig` cannot derive `Hash` because of the `f64`), the
    /// cache geometry words, and the hit cost. Two configs that simulate
    /// identically produce identical words.
    pub fn digest_words(&self) -> [u64; 5] {
        let [size, line, ways] = self.cache.geometry_words();
        [self.power.to_bits(), size, line, ways, self.hit_cycles]
    }
}

/// Bus arbitration policy of the cycle-accurate simulator.
///
/// [`RoundRobin`](Arbitration::RoundRobin) and
/// [`FixedPriority`](Arbitration::FixedPriority) model real arbiters. The
/// remaining variants are *adversarial schedules*: deterministic,
/// work-conserving policies chosen to maximize some processor's queuing.
/// They exist to validate the hybrid kernel's worst-case contention
/// envelope — every `Report` envelope must dominate the queuing any of
/// them produces (see `docs/MODELS.md`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Arbitration {
    /// Rotating grant among requesters (fair).
    #[default]
    RoundRobin,
    /// Lowest processor index wins.
    FixedPriority,
    /// Highest processor index wins — the mirror image of
    /// [`FixedPriority`](Arbitration::FixedPriority), starving the lowest
    /// indices instead.
    ReversePriority,
    /// Every other waiter is served before the victim processor; the victim
    /// is granted only when it waits alone — the worst work-conserving
    /// schedule for that processor.
    ///
    /// Two victims duplicate another schedule. On `n` processors,
    /// `VictimLast(n − 1)` grants exactly as
    /// [`FixedPriority`](Arbitration::FixedPriority): the highest index is
    /// never the lowest waiter while others wait. On two processors,
    /// `VictimLast(0)` grants exactly as
    /// [`ReversePriority`](Arbitration::ReversePriority): serving
    /// processor 0 last is serving the higher index first.
    /// [`Arbitration::adversarial`] leaves both out.
    VictimLast(usize),
}

impl Arbitration {
    /// The adversarial schedules of `procs` processors whose grants differ:
    /// [`FixedPriority`](Arbitration::FixedPriority), then
    /// [`ReversePriority`](Arbitration::ReversePriority) from two processors
    /// on, then [`VictimLast`](Arbitration::VictimLast) of every processor
    /// but the last from three on. The dropped victims grant exactly as a
    /// kept schedule does (see [`VictimLast`](Arbitration::VictimLast)), so
    /// the largest queuing over this set is the largest over all `2 + n`.
    /// Never empty: one processor has one schedule.
    pub fn adversarial(procs: usize) -> Vec<Arbitration> {
        let mut schedules = vec![Arbitration::FixedPriority];
        if procs >= 2 {
            schedules.push(Arbitration::ReversePriority);
        }
        if procs >= 3 {
            schedules.extend((0..procs - 1).map(Arbitration::VictimLast));
        }
        schedules
    }
}

/// The shared bus connecting all processors to memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusConfig {
    /// Cycles the bus is occupied by one transaction (one cache miss) — the
    /// "bus access time" swept in the paper's Figure 5.
    pub delay_cycles: u64,
    /// Arbitration policy.
    pub arbitration: Arbitration,
}

impl BusConfig {
    /// Creates a bus with the given per-transaction delay and round-robin
    /// arbitration.
    ///
    /// # Panics
    ///
    /// Panics if `delay_cycles` is zero (a zero-cost bus cannot contend).
    pub fn new(delay_cycles: u64) -> BusConfig {
        assert!(delay_cycles > 0, "bus delay must be at least one cycle");
        BusConfig {
            delay_cycles,
            arbitration: Arbitration::RoundRobin,
        }
    }

    /// Sets the arbitration policy (builder style).
    #[must_use]
    pub fn with_arbitration(mut self, arbitration: Arbitration) -> BusConfig {
        self.arbitration = arbitration;
        self
    }

    /// Everything that determines the bus's timing behaviour, as fixed
    /// words for stable content hashing (the scenario fingerprints of
    /// `mesh-bench`'s result cache): the delay plus an arbitration
    /// discriminant (with the victim index folded in).
    pub fn digest_words(&self) -> [u64; 2] {
        let arb = match self.arbitration {
            Arbitration::RoundRobin => 0,
            Arbitration::FixedPriority => 1,
            Arbitration::ReversePriority => 2,
            Arbitration::VictimLast(v) => 3 + v as u64,
        };
        [self.delay_cycles, arb]
    }
}

/// A shared I/O device (DMA engine, peripheral port, accelerator queue):
/// the second kind of shared resource of the paper's §4.1 list. One
/// operation occupies the device for `delay_cycles`; contention is resolved
/// by round-robin among requesting processors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoConfig {
    /// Cycles the device is occupied by one operation.
    pub delay_cycles: u64,
}

impl IoConfig {
    /// Creates a device with the given per-operation service time.
    ///
    /// # Panics
    ///
    /// Panics if `delay_cycles` is zero.
    pub fn new(delay_cycles: u64) -> IoConfig {
        assert!(delay_cycles > 0, "I/O delay must be at least one cycle");
        IoConfig { delay_cycles }
    }
}

/// A complete machine: processors plus the shared bus.
///
/// # Examples
///
/// The paper's FFT platform: `n` identical processors with 512 KB caches on
/// a 4-cycle bus.
///
/// ```
/// use mesh_arch::{BusConfig, CacheConfig, MachineConfig, ProcConfig};
///
/// let cache = CacheConfig::new(512 * 1024, 32, 4).unwrap();
/// let machine = MachineConfig::homogeneous(4, ProcConfig::new(cache), BusConfig::new(4));
/// assert_eq!(machine.procs.len(), 4);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// The processing elements, index-aligned with workload tasks.
    pub procs: Vec<ProcConfig>,
    /// The shared bus.
    pub bus: BusConfig,
    /// An optional shared I/O device (required when the workload issues
    /// I/O operations).
    pub io: Option<IoConfig>,
}

impl MachineConfig {
    /// Creates a machine from explicit processor list.
    pub fn new(procs: Vec<ProcConfig>, bus: BusConfig) -> MachineConfig {
        MachineConfig {
            procs,
            bus,
            io: None,
        }
    }

    /// Creates `n` identical processors on one bus.
    pub fn homogeneous(n: usize, proc: ProcConfig, bus: BusConfig) -> MachineConfig {
        MachineConfig {
            procs: vec![proc; n],
            bus,
            io: None,
        }
    }

    /// Attaches a shared I/O device (builder style).
    #[must_use]
    pub fn with_io(mut self, io: IoConfig) -> MachineConfig {
        self.io = Some(io);
        self
    }

    /// Everything that determines the whole machine's timing behaviour, as
    /// a variable-length word sequence for stable content hashing: the
    /// processor count, each processor's timing digest, the bus digest, and
    /// the I/O device's presence and delay. Two machines that simulate
    /// identically produce identical words.
    pub fn digest_words(&self) -> Vec<u64> {
        let mut words = Vec::with_capacity(4 + 5 * self.procs.len());
        words.push(self.procs.len() as u64);
        for p in &self.procs {
            words.extend_from_slice(&p.digest_words());
        }
        words.extend_from_slice(&self.bus.digest_words());
        match self.io {
            None => words.push(0),
            Some(io) => {
                words.push(1);
                words.push(io.delay_cycles);
            }
        }
        words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> CacheConfig {
        CacheConfig::direct_mapped(8 * 1024, 32).unwrap()
    }

    #[test]
    fn proc_builder() {
        let p = ProcConfig::new(cache()).with_power(0.8).with_hit_cycles(2);
        assert_eq!(p.power, 0.8);
        assert_eq!(p.hit_cycles, 2);
        assert!((p.cycles_per_op() - 1.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power")]
    fn zero_power_rejected() {
        let _ = ProcConfig::new(cache()).with_power(0.0);
    }

    #[test]
    #[should_panic(expected = "bus delay")]
    fn zero_bus_delay_rejected() {
        let _ = BusConfig::new(0);
    }

    #[test]
    fn homogeneous_machine_replicates() {
        let m = MachineConfig::homogeneous(8, ProcConfig::new(cache()), BusConfig::new(2));
        assert_eq!(m.procs.len(), 8);
        assert!(m.procs.iter().all(|p| p.power == 1.0));
        assert_eq!(m.bus.arbitration, Arbitration::RoundRobin);
    }
}
