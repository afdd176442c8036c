//! Bank-level retransmission-timer wheel: one engine timer for a whole
//! flow bank.
//!
//! A [`crate::bank::SenderBank`] re-arms a retransmission timeout on every
//! ACK. Done naively — one engine timer per flow, cancel + re-arm per ACK
//! — a million-flow bank pushes a million live timers through the engine
//! and pays timer churn on its hottest path. The bank's RTO is *fixed*,
//! which makes the deadlines monotone: a timer armed later always expires
//! no earlier than one armed before it. [`RtoWheel`] exploits that: arms
//! append to a FIFO of `(deadline, slot)` entries, re-arms invalidate the
//! old entry lazily with a per-slot epoch (no scan, no engine cancel), and
//! expiry pops the whole due prefix — the "bucket" of everything that has
//! hit its deadline — in arm order. The owning bank arms one engine timer
//! per distinct deadline instant, at the moment that deadline first
//! appears, so engine-side timer cost is O(1) per re-arm (nothing is ever
//! cancelled), a synchronized timeout storm expires as a single engine
//! event, and the timer's event key matches what a per-flow timer armed
//! at the same instant would carry — same-instant ordering is preserved
//! exactly.
//!
//! The contract, checked by the proptest battery below: for any sequence
//! of arms and re-arms with a fixed RTO, the wheel fires exactly the slots
//! a per-flow timer implementation would fire, at the same times and in
//! the same order (equal deadlines fire in arm order, matching the event
//! queue's arm-order tie-break for per-flow timers).

use pdos_sim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One queued expiry: the deadline, the flow slot, and the slot's arm
/// epoch at push time (stale when the slot has been re-armed since).
#[derive(Debug, Clone, Copy)]
struct Entry {
    deadline: SimTime,
    slot: u32,
    epoch: u32,
}

/// A monotone-deadline retransmission wheel for a dense bank of flows.
///
/// # Examples
///
/// ```
/// use pdos_tcp::rto_wheel::RtoWheel;
/// use pdos_sim::time::{SimDuration, SimTime};
///
/// let mut wheel = RtoWheel::new(SimDuration::from_millis(500), 4);
/// wheel.rearm(0, SimTime::ZERO);
/// wheel.rearm(1, SimTime::from_millis(100));
/// // Re-arming slot 0 invalidates its first deadline.
/// wheel.rearm(0, SimTime::from_millis(200));
/// assert_eq!(wheel.next_deadline(), Some(SimTime::from_millis(600)));
/// let mut fired = Vec::new();
/// wheel.expire(SimTime::from_millis(700), |slot| fired.push(slot));
/// assert_eq!(fired, vec![1, 0]);
/// assert_eq!(wheel.next_deadline(), None);
/// ```
#[derive(Debug, Clone)]
pub struct RtoWheel {
    rto: SimDuration,
    queue: VecDeque<Entry>,
    /// Arm epoch per slot; a queued entry is live iff its epoch matches.
    epoch: Vec<u32>,
}

impl RtoWheel {
    /// A wheel for `n` slots with the bank's fixed retransmission
    /// timeout `rto`.
    pub fn new(rto: SimDuration, n: usize) -> Self {
        RtoWheel {
            rto,
            queue: VecDeque::new(),
            epoch: vec![0; n],
        }
    }

    /// The fixed timeout deadlines are derived from.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Number of queued entries, live and stale (diagnostics only).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// (Re-)arms `slot` to expire at `now + rto`, replacing any
    /// outstanding deadline for the slot.
    ///
    /// # Panics
    ///
    /// Panics when `now + rto` precedes an already-queued deadline —
    /// callers must arm with a non-decreasing `now`, which every event
    /// handler does for free (the simulation clock never runs backwards).
    pub fn rearm(&mut self, slot: usize, now: SimTime) {
        let deadline = now + self.rto;
        if let Some(back) = self.queue.back() {
            assert!(
                back.deadline <= deadline,
                "RtoWheel deadlines must be monotone: {deadline:?} after {:?}",
                back.deadline
            );
        }
        self.epoch[slot] = self.epoch[slot].wrapping_add(1);
        self.queue.push_back(Entry {
            deadline,
            slot: slot as u32,
            epoch: self.epoch[slot],
        });
    }

    /// The earliest live deadline, pruning stale front entries.
    /// `None` when nothing is armed.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        while let Some(front) = self.queue.front() {
            if self.epoch[front.slot as usize] == front.epoch {
                return Some(front.deadline);
            }
            self.queue.pop_front();
        }
        None
    }

    /// Pops every live entry due at or before `now` — the whole expired
    /// bucket — calling `fire(slot)` for each in arm order, exactly as
    /// per-flow timers would have fired. Expired slots are disarmed;
    /// `fire` may re-arm them (the classic RTO-backoff pattern) because
    /// the new deadline `now + rto` cannot precede the queue's tail.
    pub fn expire(&mut self, now: SimTime, mut fire: impl FnMut(usize)) {
        while let Some(front) = self.queue.front() {
            if front.deadline > now {
                break;
            }
            let entry = *front;
            self.queue.pop_front();
            let slot = entry.slot as usize;
            if self.epoch[slot] == entry.epoch {
                fire(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::ProptestConfig;

    /// The reference model: one independent timer per slot, exactly what
    /// the bank did when every flow owned an engine timer. Firing drains
    /// all due timers ordered by (deadline, arm sequence) — the event
    /// queue's tie-break for timers scheduled at the same instant.
    #[derive(Debug, Clone)]
    struct PerFlowModel {
        rto: SimDuration,
        /// (deadline, arm seq) per armed slot.
        timers: Vec<Option<(SimTime, u64)>>,
        seq: u64,
    }

    impl PerFlowModel {
        fn new(rto: SimDuration, n: usize) -> Self {
            PerFlowModel {
                rto,
                timers: vec![None; n],
                seq: 0,
            }
        }

        fn rearm(&mut self, slot: usize, now: SimTime) {
            self.seq += 1;
            self.timers[slot] = Some((now + self.rto, self.seq));
        }

        fn next_deadline(&self) -> Option<SimTime> {
            self.timers.iter().flatten().map(|&(at, _)| at).min()
        }

        fn expire(&mut self, now: SimTime) -> Vec<usize> {
            let mut due: Vec<(SimTime, u64, usize)> = self
                .timers
                .iter()
                .enumerate()
                .filter_map(|(slot, t)| t.filter(|&(at, _)| at <= now).map(|(at, s)| (at, s, slot)))
                .collect();
            due.sort();
            let fired: Vec<usize> = due.iter().map(|&(_, _, slot)| slot).collect();
            for &slot in &fired {
                self.timers[slot] = None;
            }
            fired
        }
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Drives wheel and model through the same randomized arm/expire
        /// schedule and demands identical fire order, times and pending
        /// deadlines throughout. Steps are weighted 3:1 toward re-arms —
        /// re-arms dominate real ACK traffic.
        #[test]
        fn wheel_matches_per_flow_timers(
            n in 1usize..24,
            rto_ms in 1u64..800,
            ops in proptest::collection::vec((0u32..4, 0usize..64, 0u64..900_000), 1..120),
        ) {
            let rto = SimDuration::from_millis(rto_ms);
            let mut wheel = RtoWheel::new(rto, n);
            let mut model = PerFlowModel::new(rto, n);
            let mut now = SimTime::ZERO;
            for (op, raw_slot, advance_us) in ops {
                now += SimDuration::from_micros(advance_us);
                if op < 3 {
                    // Arm or re-arm a random slot.
                    let slot = raw_slot % n;
                    wheel.rearm(slot, now);
                    model.rearm(slot, now);
                } else {
                    // Fire everything due, like the bank's on_timer.
                    let mut fired = Vec::new();
                    wheel.expire(now, |slot| fired.push(slot));
                    proptest::prop_assert_eq!(fired, model.expire(now), "fire order diverged");
                }
                proptest::prop_assert_eq!(
                    wheel.next_deadline(),
                    model.next_deadline(),
                    "pending deadline diverged"
                );
            }
            // Drain both completely: every armed slot must fire, once,
            // in the same order.
            let end = now + rto + rto;
            let mut fired = Vec::new();
            wheel.expire(end, |slot| fired.push(slot));
            proptest::prop_assert_eq!(fired, model.expire(end));
            proptest::prop_assert_eq!(wheel.next_deadline(), None);
        }
    }

    #[test]
    fn rearm_within_expire_callback_is_legal() {
        let mut wheel = RtoWheel::new(SimDuration::from_millis(100), 2);
        wheel.rearm(0, SimTime::ZERO);
        wheel.rearm(1, SimTime::ZERO);
        let now = SimTime::from_millis(100);
        let mut fired = Vec::new();
        let mut rearms: Vec<usize> = Vec::new();
        wheel.expire(now, |slot| fired.push(slot));
        for &slot in &fired {
            wheel.rearm(slot, now);
            rearms.push(slot);
        }
        assert_eq!(fired, vec![0, 1]);
        assert_eq!(wheel.next_deadline(), Some(SimTime::from_millis(200)));
        let mut again = Vec::new();
        wheel.expire(SimTime::from_millis(200), |slot| again.push(slot));
        assert_eq!(again, vec![0, 1]);
    }

    #[test]
    fn stale_entries_never_fire() {
        let mut wheel = RtoWheel::new(SimDuration::from_millis(50), 1);
        for step in 0..10 {
            wheel.rearm(0, SimTime::from_millis(step));
        }
        // Only the newest deadline is live.
        assert_eq!(wheel.next_deadline(), Some(SimTime::from_millis(59)));
        let mut fired = Vec::new();
        wheel.expire(SimTime::from_secs(1), |slot| fired.push(slot));
        assert_eq!(fired, vec![0], "re-armed slot must fire exactly once");
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn non_monotone_arm_panics() {
        let mut wheel = RtoWheel::new(SimDuration::from_millis(50), 2);
        wheel.rearm(0, SimTime::from_secs(1));
        wheel.rearm(1, SimTime::ZERO);
    }
}
