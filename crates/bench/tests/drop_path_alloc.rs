//! A queue drop costs O(1) and allocates nothing, however many distinct
//! flows are dropping: the engine keeps no flow-keyed state on the drop
//! path. A timeout storm drops millions of packets from a million flows,
//! so any per-flow record there would grow with the flow count and turn
//! every drop into a random heap access.
//!
//! This binary registers the counting allocator, so it holds one test:
//! the counters are process-global and a second test running in
//! parallel would pollute them.

use pdos_bench::alloc::{self, CountingAllocator};
use pdos_sim::agent::{Agent, AgentCtx};
use pdos_sim::node::NodeId;
use pdos_sim::packet::{FlowId, Packet, PacketKind};
use pdos_sim::queue::QueueSpec;
use pdos_sim::time::{SimDuration, SimTime};
use pdos_sim::topology::TopologyBuilder;
use pdos_sim::units::{BitsPerSec, Bytes};
use std::any::Any;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Packets per burst. The burst size is fixed so that the event queue
/// and packet arena do the same work whatever the flow count; only the
/// number of distinct flows the packets belong to varies.
const BURST: u32 = 10_000;

/// Sends [`BURST`] packets at the same instant, once per burst, spread
/// round-robin over `flows` flow ids: burst `k` (fired at `k` seconds)
/// uses the fresh id block `[k * flows, (k + 1) * flows)`.
struct Burster {
    dst: NodeId,
    flows: u32,
}

impl Agent for Burster {
    fn start(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.timer_at(SimTime::ZERO, 0);
        ctx.timer_at(SimTime::from_secs(1), 1);
    }

    fn on_packet(&mut self, _: Packet, _: &mut AgentCtx<'_>) {}

    fn on_timer(&mut self, burst: u64, ctx: &mut AgentCtx<'_>) {
        let first = burst as u32 * self.flows;
        for i in 0..BURST {
            ctx.send(Packet::new(
                FlowId::from_u32(first + i % self.flows),
                ctx.node(),
                self.dst,
                Bytes::from_u64(1000),
                PacketKind::Background,
            ));
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Heap bytes requested while the second burst, on `flows` fresh flow
/// ids, hits a capacity-1 DropTail link after an identical warm-up burst
/// on other ids. Returns the bytes and the drops the second burst caused.
fn second_burst_bytes(flows: u32) -> (u64, u64) {
    let mut t = TopologyBuilder::new();
    let a = t.add_host("a");
    let b = t.add_host("b");
    let (ab, _) = t.add_duplex_link(
        a,
        b,
        BitsPerSec::from_mbps(10.0),
        SimDuration::from_millis(1),
        QueueSpec::DropTail { capacity: 1 },
    );
    let mut sim = t.build().unwrap();
    sim.attach_agent(a, Box::new(Burster { dst: b, flows }));
    sim.run_until(SimTime::from_millis(500));
    let drops_before = sim.link(ab).drops();
    let before = alloc::snapshot();
    sim.run_until(SimTime::from_millis(1500));
    let bytes = alloc::snapshot().since(before).bytes;
    (bytes, sim.link(ab).drops() - drops_before)
}

#[test]
fn drop_heap_traffic_does_not_grow_with_flow_count() {
    assert!(alloc::is_counting(), "counting allocator not registered");
    let (small, small_drops) = second_burst_bytes(1_000);
    let (large, large_drops) = second_burst_bytes(10_000);
    // One packet is sent and one queued; the rest of each burst drops.
    assert_eq!(small_drops, u64::from(BURST) - 2);
    assert_eq!(large_drops, small_drops);
    assert!(
        large <= small,
        "dropping on 10,000 fresh flows allocated {large} B, \
         on 1,000 only {small} B: the drop path keeps per-flow state"
    );
}
