//! Tail-drop FIFO queue.

use super::{EnqueueOutcome, QueueDiscipline};
use crate::packet::Packet;
use crate::time::SimTime;
use crate::units::Bytes;
use std::collections::VecDeque;

/// A classic tail-drop FIFO: accept until the packet capacity is reached,
/// then drop arrivals.
///
/// # Examples
///
/// ```
/// use pdos_sim::queue::{DropTailQueue, QueueDiscipline, EnqueueOutcome};
/// use pdos_sim::packet::{Packet, FlowId, PacketKind};
/// use pdos_sim::node::NodeId;
/// use pdos_sim::units::Bytes;
/// use pdos_sim::time::SimTime;
///
/// let mut q = DropTailQueue::new(1);
/// let pkt = Packet::new(FlowId::from_u32(0), NodeId::from_u32(0),
///                       NodeId::from_u32(1), Bytes::from_u64(100),
///                       PacketKind::Background);
/// assert_eq!(q.enqueue(pkt, SimTime::ZERO), EnqueueOutcome::Enqueued);
/// assert_eq!(q.enqueue(pkt, SimTime::ZERO), EnqueueOutcome::Dropped);
/// ```
#[derive(Debug, Clone)]
pub struct DropTailQueue {
    buf: VecDeque<Packet>,
    capacity: usize,
    bytes: Bytes,
    drops: u64,
}

impl DropTailQueue {
    /// Creates a queue holding at most `capacity` packets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity buffer cannot even
    /// hold the packet in transmission.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1 packet");
        DropTailQueue {
            // Grows on demand: most links never queue more than a few
            // packets, and a forked copy keeps only `len` capacity anyway.
            buf: VecDeque::new(),
            capacity,
            bytes: Bytes::ZERO,
            drops: 0,
        }
    }
}

impl QueueDiscipline for DropTailQueue {
    fn enqueue(&mut self, packet: Packet, _now: SimTime) -> EnqueueOutcome {
        if self.buf.len() >= self.capacity {
            self.drops += 1;
            return EnqueueOutcome::Dropped;
        }
        self.bytes += packet.size;
        self.buf.push_back(packet);
        EnqueueOutcome::Enqueued
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<Packet> {
        let p = self.buf.pop_front()?;
        self.bytes = self.bytes - p.size;
        Some(p)
    }

    fn len_packets(&self) -> usize {
        self.buf.len()
    }

    fn len_bytes(&self) -> Bytes {
        self.bytes
    }

    fn capacity_packets(&self) -> usize {
        self.capacity
    }

    fn drops(&self) -> u64 {
        self.drops
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "droptail"
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::pkt;
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut q = DropTailQueue::new(8);
        for size in [100, 200, 300] {
            assert_eq!(
                q.enqueue(pkt(size), SimTime::ZERO),
                EnqueueOutcome::Enqueued
            );
        }
        assert_eq!(q.len_packets(), 3);
        assert_eq!(q.len_bytes().as_u64(), 600);
        let sizes: Vec<u64> = std::iter::from_fn(|| q.dequeue(SimTime::ZERO))
            .map(|p| p.size.as_u64())
            .collect();
        assert_eq!(sizes, vec![100, 200, 300]);
        assert_eq!(q.len_bytes(), Bytes::ZERO);
    }

    #[test]
    fn drops_when_full_and_counts() {
        let mut q = DropTailQueue::new(2);
        assert!(!q.enqueue(pkt(1), SimTime::ZERO).is_drop());
        assert!(!q.enqueue(pkt(1), SimTime::ZERO).is_drop());
        assert!(q.enqueue(pkt(1), SimTime::ZERO).is_drop());
        assert!(q.enqueue(pkt(1), SimTime::ZERO).is_drop());
        assert_eq!(q.drops(), 2);
        assert_eq!(q.len_packets(), 2);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        DropTailQueue::new(0);
    }

    proptest::proptest! {
        /// Byte accounting matches the sum of buffered packet sizes under an
        /// arbitrary interleaving of enqueues and dequeues.
        #[test]
        fn prop_byte_accounting(ops in proptest::collection::vec((proptest::bool::ANY, 1u64..2000), 1..300)) {
            let mut q = DropTailQueue::new(64);
            let mut model: std::collections::VecDeque<u64> = Default::default();
            for (is_enq, size) in ops {
                if is_enq {
                    if q.enqueue(pkt(size), SimTime::ZERO) == EnqueueOutcome::Enqueued {
                        model.push_back(size);
                    }
                } else {
                    let got = q.dequeue(SimTime::ZERO).map(|p| p.size.as_u64());
                    proptest::prop_assert_eq!(got, model.pop_front());
                }
                proptest::prop_assert_eq!(q.len_packets(), model.len());
                proptest::prop_assert_eq!(q.len_bytes().as_u64(), model.iter().sum::<u64>());
                proptest::prop_assert!(q.len_packets() <= q.capacity_packets());
            }
        }

        /// A tail-drop queue drops an arrival **iff** it is full at that
        /// instant, for every capacity and interleaving, and the drop
        /// counter tracks exactly the dropped arrivals.
        #[test]
        fn prop_drops_iff_full(
            cap in 1usize..32,
            ops in proptest::collection::vec((proptest::bool::ANY, 1u64..1500), 1..300)
        ) {
            let mut q = DropTailQueue::new(cap);
            let mut expected_drops = 0u64;
            for (is_enq, size) in ops {
                if is_enq {
                    let was_full = q.len_packets() == cap;
                    let outcome = q.enqueue(pkt(size), SimTime::ZERO);
                    proptest::prop_assert_eq!(
                        outcome.is_drop(),
                        was_full,
                        "cap {}: outcome {:?} with occupancy {}",
                        cap, outcome, q.len_packets()
                    );
                    if was_full {
                        expected_drops += 1;
                    }
                } else {
                    let _ = q.dequeue(SimTime::ZERO);
                }
                proptest::prop_assert!(q.len_packets() <= cap);
                proptest::prop_assert_eq!(q.drops(), expected_drops);
            }
        }
    }
}
