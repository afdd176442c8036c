//! Once every wheel slot a workload reaches has held entries, the event
//! queue runs without touching the heap: a drained slot keeps its buffer
//! for the next push. Before, every cursor advance freed the slot's `Vec`
//! and the next push into it allocated again, one malloc/free pair for
//! almost every event of a sparse workload.
//!
//! The workload is periodic in simulated time with period [`REV`], one
//! full turn of packet-wheel levels 0–2, so every revolution files the
//! same entries into the same slots of those levels. Timers reach levels
//! 0–2 of the timer wheel. The entries that cross into the next
//! revolution land one level higher, in the slot named by that
//! revolution's digit, so the warm-up runs one full turn of that level
//! too before a revolution is measured.
//!
//! This binary registers the counting allocator, so it holds one test:
//! the counters are process-global and a second test running in
//! parallel would pollute them.

use pdos_bench::alloc::{self, CountingAllocator};
use pdos_sim::agent::AgentId;
use pdos_sim::event::{Event, EventQueue, TimerHandle};
use pdos_sim::link::LinkId;
use pdos_sim::time::SimTime;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The pattern's period: `2^32` ns, one turn of packet-wheel levels 0–2
/// (`2^14` ns ticks, 6 bits per level).
const REV: u64 = 1 << 32;

/// Revolutions before the measured one: a full turn of the level the
/// revolution-crossing entries land in (one slot per revolution).
const WARMUP_REVS: u64 = 64;

/// Delays of one packet chain, summing to [`REV`]: a hop inside the
/// current tick, then hops filed at levels 0, 1 and 2.
const PACKET_STEPS: [u64; 4] = [
    1_000,
    (1 << 19) - 1_000,
    1 << 25,
    REV - (1 << 19) - (1 << 25),
];

/// Delays of the timer chains, each summing to [`REV`]. The timer wheel
/// has `2^20` ns ticks: the first chain files at levels 0 and 1, the
/// second (one delay of a whole revolution) at level 2.
const TIMER_CHAINS: [&[u64]; 2] = [&[1 << 20, 1 << 27, REV - (1 << 20) - (1 << 27)], &[REV]];

/// Packet chains, started at staggered phases.
const PACKET_CHAINS: u32 = 8;

/// Same-instant sends that follow the first step of every packet chain.
const BURST: u32 = 16;

/// Retransmission-style timer re-armed (and the previous one cancelled)
/// on every packet-chain event.
const RTO_NS: u64 = 1 << 28;

/// Token of a one-shot event: popped and dropped.
const ONE_SHOT: u32 = u32::MAX;

fn agent() -> AgentId {
    AgentId::from_u32(0)
}

/// Packet-chain events are `LinkTxDone` on link `chain * 8 + step`.
fn packet(chain: u32, step: usize) -> Event {
    Event::LinkTxDone {
        link: LinkId::from_u32(chain * 8 + step as u32),
    }
}

/// The workload: pops every event before `end` and schedules what the
/// pattern says follows it.
struct Pattern {
    q: EventQueue,
    rto: [Option<TimerHandle>; PACKET_CHAINS as usize],
    events: u64,
}

impl Pattern {
    fn start() -> Self {
        let mut q = EventQueue::new();
        for chain in 0..PACKET_CHAINS {
            let phase = u64::from(chain) * 37_000_123;
            q.schedule(SimTime::from_nanos(phase), packet(chain, 0));
        }
        for (chain, _) in TIMER_CHAINS.iter().enumerate() {
            let phase = chain as u64 * 51_000_077;
            q.schedule_timer(SimTime::from_nanos(phase), agent(), chain as u64 * 8);
        }
        Self {
            q,
            rto: [None; PACKET_CHAINS as usize],
            events: 0,
        }
    }

    fn run_until(&mut self, end: u64) {
        while let Some((at, event)) = self.q.pop_strictly_before(SimTime::from_nanos(end)) {
            self.events += 1;
            self.q.set_now(at);
            let now = at.as_nanos();
            match event {
                Event::LinkTxDone { link } if link.as_u32() != ONE_SHOT => {
                    let (chain, step) = (link.as_u32() / 8, link.as_u32() as usize % 8);
                    let next = (step + 1) % PACKET_STEPS.len();
                    self.q.schedule(
                        SimTime::from_nanos(now + PACKET_STEPS[step]),
                        packet(chain, next),
                    );
                    if step == 0 {
                        for _ in 0..BURST {
                            let one_shot = Event::LinkTxDone {
                                link: LinkId::from_u32(ONE_SHOT),
                            };
                            self.q.schedule(at, one_shot);
                        }
                    }
                    let rto = &mut self.rto[chain as usize];
                    if let Some(h) = rto.take() {
                        self.q.cancel_timer(h);
                    }
                    *rto = Some(self.q.schedule_timer(
                        SimTime::from_nanos(now + RTO_NS),
                        agent(),
                        u64::from(ONE_SHOT),
                    ));
                }
                Event::Timer { token, .. } if token != u64::from(ONE_SHOT) => {
                    let (chain, step) = (token as usize / 8, token as usize % 8);
                    let steps = TIMER_CHAINS[chain];
                    let next = (step + 1) % steps.len();
                    self.q.schedule_timer(
                        SimTime::from_nanos(now + steps[step]),
                        agent(),
                        (chain * 8 + next) as u64,
                    );
                }
                _ => {}
            }
        }
    }
}

#[test]
fn a_warm_event_queue_allocates_nothing() {
    assert!(alloc::is_counting(), "counting allocator not registered");
    let mut p = Pattern::start();
    let before = alloc::snapshot();
    p.run_until(WARMUP_REVS * REV);
    let warmup = alloc::snapshot().since(before);
    assert!(warmup.allocations > 0, "the warm-up fills the wheel slots");

    let events_before = p.events;
    let before = alloc::snapshot();
    p.run_until((WARMUP_REVS + 1) * REV);
    let measured = alloc::snapshot().since(before);
    let per_rev = (p.events - events_before) as f64;
    assert!(
        per_rev > 100.0,
        "the revolution pops {per_rev} events, too few to measure"
    );
    assert_eq!(
        measured.bytes, 0,
        "a warm revolution of {per_rev} events allocated {} B in {} allocations",
        measured.bytes, measured.allocations
    );
}
