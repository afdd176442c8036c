//! Random Early Detection (RED), after Floyd & Jacobson, with the `gentle_`
//! extension used by the paper's test-bed (§4.2).
//!
//! The implementation follows the canonical algorithm:
//!
//! * exponentially weighted moving average `avg` of the instantaneous queue
//!   length in packets, weight `w_q`;
//! * while the queue is idle the average decays as if `m` small packets had
//!   departed, `m = idle_time / s` with `s` the mean packet service time;
//! * between `min_th` and `max_th` the early-drop probability ramps from 0
//!   to `max_p` and is corrected by the inter-drop count so that drops are
//!   roughly uniform;
//! * with `gentle`, between `max_th` and `2*max_th` it ramps from `max_p`
//!   to 1 instead of jumping to a forced drop.

use super::{EnqueueOutcome, QueueDiscipline};
use crate::packet::{Ecn, Packet};
use crate::time::SimTime;
use crate::units::{BitsPerSec, Bytes};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// RED parameters.
///
/// All thresholds are measured in packets, like ns-2's queue-length mode.
#[derive(Debug, Clone, PartialEq)]
pub struct RedConfig {
    /// Hard buffer capacity in packets (tail drop beyond this).
    pub capacity: usize,
    /// Lower average-queue threshold; below it no packet is early-dropped.
    pub min_th: f64,
    /// Upper average-queue threshold.
    pub max_th: f64,
    /// EWMA weight for the average queue size.
    pub w_q: f64,
    /// Maximum early-drop probability at `max_th`.
    pub max_p: f64,
    /// Enable the gentle ramp between `max_th` and `2*max_th`.
    pub gentle: bool,
    /// Mark ECN-capable packets instead of early-dropping them (RFC 3168
    /// style). Forced drops (hard region / full buffer) still drop.
    pub ecn: bool,
    /// Mean packet size used to convert idle time into equivalent packet
    /// departures for the idle decay.
    pub mean_packet_size: Bytes,
}

impl RedConfig {
    /// Classic ns-2-style defaults (`min_th = 5`, `max_th = 15`,
    /// `w_q = 0.002`, `max_p = 0.1`, gentle on) with the given hard
    /// capacity.
    pub fn ns2_default(capacity: usize) -> Self {
        RedConfig {
            capacity,
            min_th: 5.0,
            max_th: 15.0,
            w_q: 0.002,
            max_p: 0.1,
            gentle: true,
            ecn: false,
            mean_packet_size: Bytes::from_u64(1000),
        }
    }

    /// The paper's test-bed configuration (§4.2): thresholds placed at 20%
    /// and 80% of the buffer sized by the rule of thumb `B = RTT x R_bottle`,
    /// `w_q = 0.002`, `max_p = 0.1`, `gentle_ = true`.
    pub fn paper_testbed(buffer_packets: usize) -> Self {
        let b = buffer_packets as f64;
        RedConfig {
            capacity: buffer_packets,
            min_th: 0.2 * b,
            max_th: 0.8 * b,
            w_q: 0.002,
            max_p: 0.1,
            gentle: true,
            ecn: false,
            mean_packet_size: Bytes::from_u64(1000),
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a parameter is out of range
    /// (`min_th >= max_th`, probabilities outside `(0, 1]`, …).
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity == 0 {
            return Err("capacity must be at least 1 packet".into());
        }
        if !(self.min_th >= 0.0 && self.min_th < self.max_th) {
            return Err(format!(
                "need 0 <= min_th < max_th, got min_th={} max_th={}",
                self.min_th, self.max_th
            ));
        }
        if !(self.w_q > 0.0 && self.w_q <= 1.0) {
            return Err(format!("w_q must be in (0,1], got {}", self.w_q));
        }
        if !(self.max_p > 0.0 && self.max_p <= 1.0) {
            return Err(format!("max_p must be in (0,1], got {}", self.max_p));
        }
        if self.mean_packet_size == Bytes::ZERO {
            return Err("mean_packet_size must be positive".into());
        }
        Ok(())
    }
}

/// A RED queue instance.
#[derive(Debug, Clone)]
pub struct RedQueue {
    cfg: RedConfig,
    buf: VecDeque<Packet>,
    bytes: Bytes,
    avg: f64,
    /// Packets enqueued since the last early drop; -1 right after a drop,
    /// following Floyd's pseudocode.
    count: i64,
    idle_since: Option<SimTime>,
    mean_service_time_s: f64,
    rng: SmallRng,
    drops: u64,
    early_drops: u64,
    forced_drops: u64,
    ecn_marks: u64,
}

impl RedQueue {
    /// Creates a RED queue draining at `bandwidth`, with early-drop
    /// randomness seeded by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`RedConfig::validate`] or `bandwidth` is zero.
    pub fn new(cfg: RedConfig, bandwidth: BitsPerSec, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid RED configuration: {e}");
        }
        assert!(!bandwidth.is_zero(), "RED needs a positive drain rate");
        let mean_service_time_s = cfg.mean_packet_size.as_bits() as f64 / bandwidth.as_bps();
        RedQueue {
            // Grows on demand: most links never queue more than a few
            // packets, and a forked copy keeps only `len` capacity anyway.
            buf: VecDeque::new(),
            bytes: Bytes::ZERO,
            avg: 0.0,
            count: -1,
            idle_since: Some(SimTime::ZERO),
            mean_service_time_s,
            rng: SmallRng::seed_from_u64(seed),
            drops: 0,
            early_drops: 0,
            forced_drops: 0,
            ecn_marks: 0,
            cfg,
        }
    }

    /// The current average queue estimate, in packets.
    pub fn avg_queue(&self) -> f64 {
        self.avg
    }

    /// The early-drop probability `p_b` implied by the current average
    /// queue (0 below `min_th`), before Floyd's inter-drop count
    /// correction.
    ///
    /// For a fixed configuration this is non-decreasing in the average
    /// queue and confined to `[0, 1]` — the monotonicity contract the
    /// runtime checkers enforce.
    pub fn drop_probability(&self) -> f64 {
        self.base_drop_prob().unwrap_or(0.0)
    }

    /// Early (probabilistic) drops so far.
    pub fn early_drops(&self) -> u64 {
        self.early_drops
    }

    /// Forced drops (average beyond the hard region, or buffer full).
    pub fn forced_drops(&self) -> u64 {
        self.forced_drops
    }

    /// ECN congestion-experienced marks applied so far.
    pub fn ecn_marks(&self) -> u64 {
        self.ecn_marks
    }

    fn update_avg_on_arrival(&mut self, now: SimTime) {
        if let Some(idle_start) = self.idle_since.take() {
            // Queue was empty: decay the average as if m packets departed.
            let idle = now.saturating_since(idle_start).as_secs_f64();
            let m = (idle / self.mean_service_time_s).floor();
            self.avg *= (1.0 - self.cfg.w_q).powf(m);
        }
        self.avg += self.cfg.w_q * (self.buf.len() as f64 - self.avg);
    }

    /// Early-drop probability for the current average, before the inter-drop
    /// count correction. `None` means "no early drop consideration".
    fn base_drop_prob(&self) -> Option<f64> {
        let RedConfig {
            min_th,
            max_th,
            max_p,
            gentle,
            ..
        } = self.cfg;
        if self.avg < min_th {
            None
        } else if self.avg < max_th {
            Some(max_p * (self.avg - min_th) / (max_th - min_th))
        } else if gentle && self.avg < 2.0 * max_th {
            Some(max_p + (1.0 - max_p) * (self.avg - max_th) / max_th)
        } else {
            Some(1.0)
        }
    }

    fn should_early_drop(&mut self) -> bool {
        let Some(pb) = self.base_drop_prob() else {
            self.count = -1;
            return false;
        };
        if pb >= 1.0 {
            self.count = 0;
            return true;
        }
        self.count += 1;
        // Floyd's uniformization: pa = pb / (1 - count*pb), clamped.
        let denom = 1.0 - self.count as f64 * pb;
        let pa = if denom <= 0.0 {
            1.0
        } else {
            (pb / denom).min(1.0)
        };
        if self.rng.random::<f64>() < pa {
            self.count = 0;
            true
        } else {
            false
        }
    }
}

impl QueueDiscipline for RedQueue {
    fn enqueue(&mut self, mut packet: Packet, now: SimTime) -> EnqueueOutcome {
        self.update_avg_on_arrival(now);
        let mut marked = false;
        if self.should_early_drop() {
            if self.cfg.ecn && packet.ecn.is_markable() && self.avg < self.cfg.max_th {
                // RFC 3168: in the probabilistic region, mark instead of
                // dropping an ECN-capable packet. Beyond max_th RED still
                // drops (the signal must not saturate).
                packet.ecn = Ecn::CongestionExperienced;
                self.ecn_marks += 1;
                marked = true;
            } else {
                self.drops += 1;
                self.early_drops += 1;
                return EnqueueOutcome::Dropped;
            }
        }
        if self.buf.len() >= self.cfg.capacity {
            self.drops += 1;
            self.forced_drops += 1;
            // ns-2 resets count on forced drops as well.
            self.count = 0;
            return EnqueueOutcome::Dropped;
        }
        self.bytes += packet.size;
        self.buf.push_back(packet);
        if marked {
            EnqueueOutcome::EnqueuedMarked
        } else {
            EnqueueOutcome::Enqueued
        }
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        let p = self.buf.pop_front()?;
        self.bytes = self.bytes - p.size;
        if self.buf.is_empty() {
            self.idle_since = Some(now);
        }
        Some(p)
    }

    fn len_packets(&self) -> usize {
        self.buf.len()
    }

    fn len_bytes(&self) -> Bytes {
        self.bytes
    }

    fn capacity_packets(&self) -> usize {
        self.cfg.capacity
    }

    fn drops(&self) -> u64 {
        self.drops
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "red"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::pkt;
    use super::*;

    fn queue(capacity: usize) -> RedQueue {
        RedQueue::new(
            RedConfig::ns2_default(capacity),
            BitsPerSec::from_mbps(15.0),
            7,
        )
    }

    #[test]
    fn below_min_th_never_drops() {
        let mut q = queue(100);
        // avg stays near zero for the first few arrivals (w_q = 0.002).
        for _ in 0..5 {
            assert_eq!(
                q.enqueue(pkt(1000), SimTime::ZERO),
                EnqueueOutcome::Enqueued
            );
        }
        assert_eq!(q.drops(), 0);
        assert!(q.avg_queue() < 5.0);
    }

    #[test]
    fn sustained_congestion_triggers_early_drops() {
        let mut q = queue(1000);
        // Keep the instantaneous queue large without draining: the average
        // climbs past min_th and early drops must begin.
        let mut enqueued = 0u64;
        for i in 0..5000 {
            let t = SimTime::from_nanos(i);
            if q.enqueue(pkt(1000), t) == EnqueueOutcome::Enqueued {
                enqueued += 1;
            }
        }
        assert!(q.early_drops() > 0, "expected early drops under congestion");
        assert!(enqueued > 0);
        assert!(q.avg_queue() > 5.0);
    }

    #[test]
    fn gentle_region_ramps_to_certain_drop() {
        let mut cfg = RedConfig::ns2_default(10_000);
        cfg.min_th = 1.0;
        cfg.max_th = 2.0;
        cfg.w_q = 1.0; // avg == instantaneous queue for the test
        let mut q = RedQueue::new(cfg, BitsPerSec::from_mbps(15.0), 7);
        // Fill far past 2*max_th; with avg >= 2*max_th every arrival drops.
        for i in 0..50 {
            q.enqueue(pkt(1000), SimTime::from_nanos(i));
        }
        let len = q.len_packets();
        let before = q.drops();
        for i in 0..20 {
            assert!(q
                .enqueue(pkt(1000), SimTime::from_nanos(1000 + i))
                .is_drop());
        }
        assert_eq!(q.drops(), before + 20);
        assert_eq!(q.len_packets(), len);
    }

    #[test]
    fn idle_period_decays_average() {
        let mut cfg = RedConfig::ns2_default(100);
        cfg.w_q = 0.5;
        let mut q = RedQueue::new(cfg, BitsPerSec::from_mbps(15.0), 7);
        for i in 0..20 {
            q.enqueue(pkt(1000), SimTime::from_nanos(i));
        }
        let avg_loaded = q.avg_queue();
        assert!(avg_loaded > 1.0);
        // Drain fully, then stay idle for a long time.
        while q.dequeue(SimTime::from_millis(1)).is_some() {}
        let _ = q.enqueue(pkt(1000), SimTime::from_secs(10));
        assert!(
            q.avg_queue() < avg_loaded / 2.0,
            "average should decay over idle time: {} -> {}",
            avg_loaded,
            q.avg_queue()
        );
    }

    #[test]
    fn hard_capacity_enforced() {
        let mut q = queue(3);
        let mut stored = 0;
        for i in 0..10 {
            if q.enqueue(pkt(1000), SimTime::from_nanos(i)) == EnqueueOutcome::Enqueued {
                stored += 1;
            }
        }
        assert!(stored <= 3);
        assert!(q.forced_drops() > 0 || q.early_drops() > 0);
    }

    #[test]
    fn determinism_same_seed_same_decisions() {
        let run = |seed: u64| {
            let mut q = RedQueue::new(
                RedConfig::ns2_default(60),
                BitsPerSec::from_mbps(15.0),
                seed,
            );
            // Interleave dequeues so the average stays in the probabilistic
            // band (min_th..max_th) where the seed actually matters.
            (0..5000u64)
                .map(|i| {
                    if i % 3 == 0 {
                        let _ = q.dequeue(SimTime::from_nanos(i));
                    }
                    q.enqueue(pkt(1000), SimTime::from_nanos(i)).is_drop()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ somewhere");
    }

    #[test]
    fn config_validation_catches_bad_parameters() {
        let mut cfg = RedConfig::ns2_default(10);
        cfg.min_th = 20.0; // >= max_th
        assert!(cfg.validate().is_err());
        let mut cfg = RedConfig::ns2_default(10);
        cfg.w_q = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = RedConfig::ns2_default(10);
        cfg.max_p = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = RedConfig::ns2_default(10);
        cfg.capacity = 0;
        assert!(cfg.validate().is_err());
        assert!(RedConfig::ns2_default(10).validate().is_ok());
        assert!(RedConfig::paper_testbed(125).validate().is_ok());
    }

    #[test]
    fn paper_testbed_thresholds() {
        let cfg = RedConfig::paper_testbed(100);
        assert_eq!(cfg.min_th, 20.0);
        assert_eq!(cfg.max_th, 80.0);
        assert!(cfg.gentle);
    }

    proptest::proptest! {
        /// The buffer never exceeds capacity and byte accounting stays
        /// consistent, whatever the arrival pattern.
        #[test]
        fn prop_capacity_and_bytes(ops in proptest::collection::vec((proptest::bool::ANY, 40u64..1500), 1..400)) {
            let mut q = queue(16);
            let mut t = 0u64;
            let mut model_bytes: u64 = 0;
            let mut model_len: usize = 0;
            for (is_enq, size) in ops {
                t += 1;
                if is_enq {
                    if q.enqueue(pkt(size), SimTime::from_nanos(t)) == EnqueueOutcome::Enqueued {
                        model_bytes += size;
                        model_len += 1;
                    }
                } else if let Some(p) = q.dequeue(SimTime::from_nanos(t)) {
                    model_bytes -= p.size.as_u64();
                    model_len -= 1;
                }
                proptest::prop_assert!(q.len_packets() <= 16);
                proptest::prop_assert_eq!(q.len_packets(), model_len);
                proptest::prop_assert_eq!(q.len_bytes().as_u64(), model_bytes);
                proptest::prop_assert!(q.avg_queue() >= 0.0);
            }
        }

        /// The base drop probability is non-decreasing in the average
        /// queue and stays in `[0, 1]` across the whole range — including
        /// the gentle region between `max_th` and `2*max_th` — for
        /// arbitrary threshold placements.
        #[test]
        fn prop_drop_probability_monotone_in_avg(
            params in (0.5f64..50.0, 0.5f64..50.0, 0.05f64..1.0),
            avgs in proptest::collection::vec(0.0f64..200.0, 2..40)
        ) {
            let (min_th, span, max_p) = params;
            let mut cfg = RedConfig::ns2_default(10_000);
            cfg.min_th = min_th;
            cfg.max_th = min_th + span;
            cfg.max_p = max_p;
            let mut q = RedQueue::new(cfg, BitsPerSec::from_mbps(15.0), 7);
            let mut sorted = avgs;
            sorted.sort_by(f64::total_cmp);
            let mut last_p = -1.0;
            for avg in sorted {
                q.avg = avg;
                let p = q.drop_probability();
                proptest::prop_assert!(
                    (0.0..=1.0).contains(&p),
                    "p_b {p} outside [0,1] at avg {avg}"
                );
                proptest::prop_assert!(
                    p >= last_p - 1e-12,
                    "p_b decreased {last_p} -> {p} as avg rose to {avg}"
                );
                last_p = p;
            }
            // Beyond the gentle region the drop is certain.
            q.avg = 2.0 * q.cfg.max_th;
            proptest::prop_assert_eq!(q.drop_probability(), 1.0);
            // Below min_th no early drop is ever considered.
            q.avg = 0.0;
            proptest::prop_assert_eq!(q.drop_probability(), 0.0);
        }
    }
}
