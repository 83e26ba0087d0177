//! Index-ordered arbitration ring for the shared bus and I/O device.
//!
//! The simulator's original wait queues were `Vec<usize>` in request order,
//! and every round-robin grant scanned candidate processor indices from the
//! rotating pointer while calling `Vec::contains` — an O(n²) scan per grant,
//! plus an O(n) `Vec::retain` to dequeue the winner. [`GrantRing`] keeps the
//! waiting processor indices sorted ascending in a plain `Vec` behind a head
//! index (dequeues at the front advance the head instead of shifting memory;
//! the dead prefix is compacted away once it outgrows the live set), so both
//! arbitration policies become cheap while preserving the grant order of the
//! original scan **exactly**:
//!
//! * **round-robin** — the lowest waiting index at or after the rotating
//!   cursor, wrapping to the lowest waiting index: one `partition_point`
//!   binary search;
//! * **fixed-priority** — the lowest waiting index: the ring's front.
//!
//! Grant order is pinned by unit tests below; the differential property
//! tests (`tests/differential.rs`) additionally prove whole-run equivalence
//! against the reference ticker.

/// A set of waiting processor indices supporting the two arbitration
/// policies of [`Arbitration`](mesh_arch::Arbitration).
#[derive(Clone, Debug, Default)]
pub struct GrantRing {
    /// Waiting processor indices; the live set is `waiting[head..]`,
    /// ascending. Entries before `head` are already-granted garbage.
    waiting: Vec<usize>,
    head: usize,
}

impl GrantRing {
    /// Creates an empty ring with capacity for `n` processors.
    pub fn with_capacity(n: usize) -> GrantRing {
        GrantRing {
            waiting: Vec::with_capacity(2 * n),
            head: 0,
        }
    }

    /// Whether no processor is waiting.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.waiting.len()
    }

    /// Number of waiting processors.
    #[inline]
    pub fn len(&self) -> usize {
        self.waiting.len() - self.head
    }

    /// Enqueues processor `p`. Each processor has at most one outstanding
    /// request, so `p` must not already be waiting.
    #[inline]
    pub fn push(&mut self, p: usize) {
        // Compact once the dead prefix outgrows any plausible live set, so
        // the buffer stays a few cache lines regardless of run length.
        if self.head >= 32 {
            self.waiting.drain(..self.head);
            self.head = 0;
        }
        let at = self.head + self.waiting[self.head..].partition_point(|&q| q < p);
        debug_assert!(self.waiting.get(at) != Some(&p), "duplicate request");
        self.waiting.insert(at, p);
    }

    /// Grants the lowest waiting index (fixed-priority arbitration).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    #[inline]
    pub fn grant_min(&mut self) -> usize {
        let p = self.waiting[self.head];
        self.head += 1;
        p
    }

    /// Grants the highest waiting index (reverse-priority arbitration — an
    /// adversarial schedule starving low indices).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    #[inline]
    pub fn grant_max(&mut self) -> usize {
        debug_assert!(!self.is_empty());
        self.waiting.pop().expect("empty ring")
    }

    /// Grants the lowest waiting index that is not `victim`, falling back to
    /// the victim only when it waits alone (victim-last arbitration — the
    /// worst work-conserving schedule for that processor).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    #[inline]
    pub fn grant_victim_last(&mut self, victim: usize) -> usize {
        if self.waiting[self.head] == victim && self.len() > 1 {
            self.waiting.remove(self.head + 1)
        } else {
            self.grant_min()
        }
    }

    /// Grants the lowest waiting index at or after `cursor`, wrapping to the
    /// lowest waiting index (round-robin arbitration). The caller advances
    /// its cursor to `winner + 1` modulo the processor count.
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    #[inline]
    pub fn grant_round_robin(&mut self, cursor: usize) -> usize {
        let live = &self.waiting[self.head..];
        let at = live.partition_point(|&q| q < cursor);
        let at = if at == live.len() { 0 } else { at };
        if at == 0 {
            self.grant_min()
        } else {
            self.waiting.remove(self.head + at)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_arch::Arbitration;

    /// Replays the original O(n²) scan for differential comparison.
    fn reference_round_robin(waiting: &mut Vec<usize>, cursor: usize, n: usize) -> usize {
        let mut pick = None;
        for off in 0..n {
            let cand = (cursor + off) % n;
            if waiting.contains(&cand) {
                pick = Some(cand);
                break;
            }
        }
        let p = pick.expect("queue non-empty");
        waiting.retain(|&q| q != p);
        p
    }

    #[test]
    fn round_robin_grant_order_is_pinned() {
        // Waiters {1, 3, 6} on an 8-processor machine; cursor walks the
        // grants in rotating order regardless of request order.
        let mut ring = GrantRing::with_capacity(8);
        for p in [6, 1, 3] {
            ring.push(p);
        }
        assert_eq!(ring.grant_round_robin(4), 6); // first waiter at/after 4
        assert_eq!(ring.grant_round_robin(7), 1); // wraps past 7 to lowest
        assert_eq!(ring.grant_round_robin(2), 3);
        assert!(ring.is_empty());
    }

    #[test]
    fn fixed_priority_always_grants_lowest() {
        let mut ring = GrantRing::with_capacity(4);
        for p in [2, 0, 3] {
            ring.push(p);
        }
        assert_eq!(ring.grant_min(), 0);
        assert_eq!(ring.grant_min(), 2);
        ring.push(1);
        assert_eq!(ring.grant_min(), 1);
        assert_eq!(ring.grant_min(), 3);
    }

    #[test]
    fn matches_reference_scan_for_all_cursor_positions() {
        let n = 8;
        for mask in 1u32..(1 << n) {
            let waiters: Vec<usize> = (0..n).filter(|&p| mask & (1 << p) != 0).collect();
            for cursor in 0..n {
                let mut ring = GrantRing::with_capacity(n);
                let mut reference = waiters.clone();
                for &p in &waiters {
                    ring.push(p);
                }
                // Drain both completely, advancing the cursor as the
                // simulator does, and compare the full grant sequence.
                let mut cur = cursor;
                for _ in 0..waiters.len() {
                    let a = ring.grant_round_robin(cur);
                    let b = reference_round_robin(&mut reference, cur, n);
                    assert_eq!(a, b, "mask {mask:#b} cursor {cursor}");
                    cur = (a + 1) % n;
                }
                assert!(ring.is_empty());
            }
        }
    }

    #[test]
    fn reverse_priority_always_grants_highest() {
        let mut ring = GrantRing::with_capacity(4);
        for p in [2, 0, 3] {
            ring.push(p);
        }
        assert_eq!(ring.grant_max(), 3);
        assert_eq!(ring.grant_max(), 2);
        ring.push(1);
        assert_eq!(ring.grant_max(), 1);
        assert_eq!(ring.grant_max(), 0);
        assert!(ring.is_empty());
    }

    #[test]
    fn victim_is_served_last() {
        let mut ring = GrantRing::with_capacity(4);
        for p in [0, 2, 3] {
            ring.push(p);
        }
        // Victim 0 waits while 2 and 3 are served, then goes alone.
        assert_eq!(ring.grant_victim_last(0), 2);
        assert_eq!(ring.grant_victim_last(0), 3);
        assert_eq!(ring.grant_victim_last(0), 0);
        assert!(ring.is_empty());
        // A non-waiting victim leaves plain fixed-priority order.
        for p in [1, 3] {
            ring.push(p);
        }
        assert_eq!(ring.grant_victim_last(0), 1);
        assert_eq!(ring.grant_victim_last(0), 3);
    }

    /// Every grant `arbitration` makes while draining the waiting set
    /// `mask` of `n` processors, dispatched as both engines dispatch it.
    fn drain(arbitration: Arbitration, n: usize, mask: u32) -> Vec<usize> {
        let mut ring = GrantRing::with_capacity(n);
        for p in (0..n).filter(|&p| mask & (1 << p) != 0) {
            ring.push(p);
        }
        let mut grants = Vec::new();
        while !ring.is_empty() {
            grants.push(match arbitration {
                Arbitration::FixedPriority => ring.grant_min(),
                Arbitration::ReversePriority => ring.grant_max(),
                Arbitration::VictimLast(victim) => ring.grant_victim_last(victim),
                Arbitration::RoundRobin => unreachable!("round-robin is no adversary"),
            });
        }
        grants
    }

    #[test]
    fn dropped_victims_grant_as_a_kept_schedule() {
        for n in 1..=8 {
            for mask in 1u32..(1 << n) {
                assert_eq!(
                    drain(Arbitration::VictimLast(n - 1), n, mask),
                    drain(Arbitration::FixedPriority, n, mask),
                    "{n} processors, waiting {mask:#b}"
                );
            }
        }
        for mask in 1u32..(1 << 2) {
            assert_eq!(
                drain(Arbitration::VictimLast(0), 2, mask),
                drain(Arbitration::ReversePriority, 2, mask),
                "waiting {mask:#b}"
            );
        }
    }

    #[test]
    fn adversarial_set_is_exactly_the_distinct_schedules() {
        for n in 1..=8usize {
            let masks = 1u32..(1 << n);
            let kept = Arbitration::adversarial(n);
            for (i, &a) in kept.iter().enumerate() {
                for &b in &kept[i + 1..] {
                    assert!(
                        masks.clone().any(|m| drain(a, n, m) != drain(b, n, m)),
                        "{n} processors: {a:?} grants as {b:?}"
                    );
                }
            }
            let full = [Arbitration::FixedPriority, Arbitration::ReversePriority]
                .into_iter()
                .chain((0..n).map(Arbitration::VictimLast));
            for a in full {
                assert!(
                    kept.iter()
                        .any(|&k| masks.clone().all(|m| drain(a, n, m) == drain(k, n, m))),
                    "{n} processors: {a:?} grants as no kept schedule"
                );
            }
        }
    }

    #[test]
    fn len_tracks_pushes_and_grants() {
        let mut ring = GrantRing::with_capacity(4);
        assert_eq!(ring.len(), 0);
        ring.push(2);
        ring.push(0);
        assert_eq!(ring.len(), 2);
        let _ = ring.grant_round_robin(0);
        assert_eq!(ring.len(), 1);
    }
}
