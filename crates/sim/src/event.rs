//! The event queue: a deterministic priority queue of future happenings.
//!
//! Determinism matters: two events at the same instant are delivered in the
//! order they were scheduled (FIFO tie-break via a monotone sequence
//! number), so a run is a pure function of topology + seeds.
//!
//! # Structure
//!
//! The queue is two-tier — two hierarchical timing wheels sharing one
//! sequence counter. Packet and link events — the bulk of the load — live
//! in a fine-grained wheel of small `Copy` entries ([`Event`] carries a
//! [`PacketRef`] handle, not a full packet, so an entry is a few dozen
//! bytes): push is O(1), and pop drains a sub-tick front tier of two
//! key-monotone FIFO lanes plus a small heap for out-of-order stragglers,
//! which beat the 4-ary min-heap it replaced (comparison sifts on
//! `(time, seq)` keys dominated event-loop profiles). Agent timers live
//! in a coarser wheel with *real* cancellation: cancelling is a generation
//! bump on a slab slot, so the churn of TCP retransmission timers (armed
//! and re-armed on almost every ACK) never bloats the queue with stale
//! entries.
//!
//! Both tiers draw sequence numbers from one shared counter and [`pop`]
//! compares exact `(time, seq)` keys across tiers, so the merged order is
//! byte-for-byte identical to a single global heap — the golden trace
//! digests do not move.
//!
//! [`pop`]: EventQueue::pop
//!
//! ## The wheels
//!
//! Both tiers use the same layout, differing only in tick width (`2^14` ns
//! ≈ 16 µs for packets, so a slot drain moves only a couple of entries;
//! `2^20` ns for timers) and in whether slots hold events directly or
//! generation-checked slab handles. A drained slot keeps its buffer, so
//! once every slot a workload reaches has been filled once, neither wheel
//! allocates. Taking the timer wheel as the worked example: ticks are
//! `2^20` ns (~1.05 ms), 8 levels of 64 slots; a timer due at tick `t` is
//! filed at the level of the highest bit where `t` differs from the wheel
//! cursor (6 bits per level), in the slot named by
//! `t`'s 6-bit digit at that level. Two invariants follow directly:
//! every entry at level `L+1` fires after *every* entry at level `L` (its
//! tick exceeds the cursor at a higher digit), and within a level lower
//! slot index means earlier tick. So the next timer is always found in the
//! lowest occupied slot of the lowest occupied level (one `trailing_zeros`
//! per level on an occupancy bitmap); advancing the cursor there
//! redistributes that slot's entries strictly downward until the due ones
//! surface in a small exact-keyed front heap. Sub-tick ordering — many
//! timers inside one 1.05 ms tick — is resolved by that front heap on the
//! exact `(time, seq)` key, preserving the global FIFO contract.

use crate::agent::AgentId;
use crate::link::LinkId;
use crate::node::NodeId;
use crate::packet::PacketRef;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A future happening inside the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The packet in arena slot `packet` arrives at `node` (propagation
    /// across a link finished, or a local agent handed it to its own node).
    Deliver {
        /// The node the packet arrives at.
        node: NodeId,
        /// Arena handle of the arriving packet.
        packet: PacketRef,
    },
    /// The transmitter of `link` finished serializing its current packet.
    LinkTxDone {
        /// The link whose head-of-line packet completed serialization.
        link: LinkId,
    },
    /// A timer set by `agent` fired. `token` is agent-private state used to
    /// recognize stale timers that were not explicitly cancelled.
    Timer {
        /// The agent that owns the timer.
        agent: AgentId,
        /// Agent-private discriminator.
        token: u64,
    },
    /// An agent's `start` hook should run.
    AgentStart {
        /// The agent to start.
        agent: AgentId,
    },
}

/// A cancellation handle for a timer scheduled with
/// [`EventQueue::schedule_timer`].
///
/// Handles are generation-checked: once the timer fires or is cancelled,
/// the handle goes dead and further [`cancel_timer`](EventQueue::cancel_timer)
/// calls on it return `false` (they never touch a recycled slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    id: u32,
    gen: u32,
}

#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at: SimTime,
    /// Clock time at which the event was scheduled. For same-`at` ties the
    /// queue orders by `(sched, seq)`; `seq` alone is equivalent for events
    /// scheduled through one queue (seqs are monotone in `sched`), but
    /// `sched` lets a sharded run position cross-shard injections exactly
    /// where the unsharded run would have scheduled them.
    sched: SimTime,
    seq: u64,
    event: Event,
}

impl Scheduled {
    /// The exact ordering key, `(at, sched, seq)`.
    #[inline]
    fn key(&self) -> (SimTime, SimTime, u64) {
        (self.at, self.sched, self.seq)
    }
}

/// Packet-event ticks are nanoseconds divided by `2^PKT_TICK_SHIFT`
/// (~16.4 µs): fine enough that the sub-tick `front` list holds well
/// under one event on average, coarse enough that propagation-delay
/// horizons land one or two wheel levels up.
const PKT_TICK_SHIFT: u32 = 14;
/// Levels for the packet wheel: 9 × 6 = 54 bits covers the 50-bit tick
/// space (`u64` nanoseconds >> 14).
const PKT_LEVELS: usize = 9;

/// Hierarchical wheel for packet/link events — the no-cancellation
/// sibling of [`TimerWheel`].
///
/// Packet events need no handles, so the slots store [`Scheduled`]
/// entries directly; push is O(1) (a `Vec` push plus an occupancy bit).
/// Entries due within the cursor's tick form the front tier: the
/// same-instant lane, the FIFO lane and the `front` min-heap, each
/// holding its entries in exact `(at, sched, seq)` order, and pop takes
/// the smallest of their heads. An in-order arrival costs O(1); only
/// entries that arrive out of key order in their lane pay heap sifts. This
/// replaced a 4-ary min-heap whose branchy `(at, seq)` sifts dominated
/// event-loop profiles; the wheel's ordering argument
/// (strictly-lower-tick-first across levels, exact key order inside the
/// front) is the same one the timer tier proves.
#[derive(Debug, Clone)]
struct PacketWheel {
    /// `PKT_LEVELS × SLOTS_PER_LEVEL` buckets of scheduled events.
    slots: Vec<Vec<Scheduled>>,
    /// Per-level bitmap of non-empty slots.
    occupied: [u64; PKT_LEVELS],
    /// Current wheel position, in packet ticks. Never decreases.
    cursor: u64,
    /// Front-tier entries that arrived out of key order in their lane,
    /// ordered by exact `(at, sched, seq)`.
    front: BinaryHeap<Reverse<FrontEntry>>,
    /// Key-monotone lane for front-tier entries with `at > sched`: appended
    /// in key order, popped FIFO.
    front_fifo: VecDeque<Scheduled>,
    /// Key-monotone lane for same-instant entries (`at == sched`). The
    /// engine's clock never regresses and seqs increase, so a dispatch
    /// chain — a bank's burst of sends, all at `now` — appends here in key
    /// order even while the FIFO lane holds a later entry of the same
    /// tick, and each event costs O(1) instead of O(log burst) heap sifts.
    front_now: VecDeque<Scheduled>,
    len: usize,
}

/// The front-tier structures of [`PacketWheel`]. Pop and peek take the
/// smallest of their heads; keys never collide (seqs are unique).
#[derive(Debug, Clone, Copy)]
enum Lane {
    Now,
    Fifo,
    Heap,
}

/// A [`Scheduled`] entry ordered by its `(at, sched, seq)` key. Seqs are
/// unique within a queue, so key equality implies entry identity and the
/// derived-from-key `Ord`/`Eq` pair stays consistent.
#[derive(Debug, Clone, Copy)]
struct FrontEntry(Scheduled);

impl FrontEntry {
    #[inline]
    fn key(&self) -> (SimTime, SimTime, u64) {
        self.0.key()
    }
}

impl PartialEq for FrontEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for FrontEntry {}

impl PartialOrd for FrontEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FrontEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl Default for PacketWheel {
    fn default() -> Self {
        Self {
            slots: std::iter::repeat_with(Vec::new)
                .take(PKT_LEVELS * SLOTS_PER_LEVEL)
                .collect(),
            occupied: [0; PKT_LEVELS],
            cursor: 0,
            front: BinaryHeap::new(),
            front_fifo: VecDeque::new(),
            front_now: VecDeque::new(),
            len: 0,
        }
    }
}

impl PacketWheel {
    #[inline]
    fn push(&mut self, s: Scheduled) {
        self.len += 1;
        self.place(s);
    }

    /// Files `s` into the wheel slot (or the front tier) where an event
    /// due at `s.at` belongs, relative to the current cursor.
    #[inline]
    fn place(&mut self, s: Scheduled) {
        let tick = s.at.as_nanos() >> PKT_TICK_SHIFT;
        if tick <= self.cursor {
            // Due within the current tick: exact ordering happens in the
            // front tier. Same-instant entries (`at == sched`: sends,
            // go-back-N bursts, zero-delay hops) have their own lane, so a
            // later entry of the same tick waiting in the FIFO lane cannot
            // push a burst into the heap; each lane takes entries while
            // keys arrive in order, the heap takes the out-of-order rest.
            let lane = if s.at == s.sched {
                &mut self.front_now
            } else {
                &mut self.front_fifo
            };
            if lane.back().is_none_or(|b| b.key() <= s.key()) {
                lane.push_back(s);
            } else {
                self.front.push(Reverse(FrontEntry(s)));
            }
        } else {
            let diff = tick ^ self.cursor;
            let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
            debug_assert!(level < PKT_LEVELS, "50-bit ticks fit in 9 levels");
            let slot =
                ((tick >> (LEVEL_BITS as usize * level)) & (SLOTS_PER_LEVEL as u64 - 1)) as usize;
            self.slots[level * SLOTS_PER_LEVEL + slot].push(s);
            self.occupied[level] |= 1u64 << slot;
        }
    }

    /// Advances the wheel until the front tier is non-empty (or the wheel
    /// is empty). Cursor motion only redistributes entries to strictly
    /// lower levels, so this terminates.
    #[inline]
    fn refill_front(&mut self) {
        while self.front.is_empty() && self.front_fifo.is_empty() && self.front_now.is_empty() {
            let mut found = None;
            for (level, &occ) in self.occupied.iter().enumerate() {
                if occ != 0 {
                    found = Some((level, occ.trailing_zeros() as usize));
                    break;
                }
            }
            let Some((level, slot)) = found else {
                return; // wheel empty
            };
            let idx = level * SLOTS_PER_LEVEL + slot;
            self.occupied[level] &= !(1u64 << slot);
            let shift = LEVEL_BITS as usize * level;
            // Jump the cursor to the earliest tick this slot can hold: the
            // cursor's digits above this level, the slot digit, zeros below.
            let high_mask = !((1u64 << (shift + LEVEL_BITS as usize)) - 1);
            let tick_lo = (self.cursor & high_mask) | ((slot as u64) << shift);
            debug_assert!(tick_lo > self.cursor);
            self.cursor = tick_lo;
            let mut entries = std::mem::take(&mut self.slots[idx]);
            for s in entries.drain(..) {
                self.place(s);
            }
            // No entry re-enters the slot being drained, so its emptied
            // buffer goes back for the next push to reuse.
            debug_assert!(self.slots[idx].is_empty());
            self.slots[idx] = entries;
        }
    }

    /// The earliest entry's key and the front-tier structure holding it,
    /// advancing the wheel first if the front tier is empty.
    #[inline]
    fn peek(&mut self) -> Option<((SimTime, SimTime, u64), Lane)> {
        self.refill_front();
        // Seqs are unique, so the keys never tie.
        let (key, lane) = match (self.front_now.front(), self.front_fifo.front()) {
            (Some(n), Some(f)) if f.key() < n.key() => (f.key(), Lane::Fifo),
            (Some(n), _) => (n.key(), Lane::Now),
            (None, Some(f)) => (f.key(), Lane::Fifo),
            (None, None) => return self.front.peek().map(|Reverse(h)| (h.key(), Lane::Heap)),
        };
        match self.front.peek() {
            Some(Reverse(h)) if h.key() < key => Some((h.key(), Lane::Heap)),
            _ => Some((key, lane)),
        }
    }

    /// Removes the head of `lane`, which [`peek`](Self::peek) just named.
    #[inline]
    fn pop(&mut self, lane: Lane) -> Scheduled {
        self.len -= 1;
        match lane {
            Lane::Now => self.front_now.pop_front(),
            Lane::Fifo => self.front_fifo.pop_front(),
            Lane::Heap => self.front.pop().map(|Reverse(FrontEntry(s))| s),
        }
        .expect("peek named a non-empty lane")
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }
}

/// Timer ticks are nanoseconds divided by `2^TICK_SHIFT` (~1.05 ms).
const TICK_SHIFT: u32 = 20;
/// Bits of tick consumed per wheel level.
const LEVEL_BITS: u32 = 6;
/// Slots per level (`2^LEVEL_BITS`).
const SLOTS_PER_LEVEL: usize = 1 << LEVEL_BITS;
/// Levels; 8 × 6 = 48 bits covers the full 44-bit tick space
/// (`u64` nanoseconds >> 20), so no overflow list is needed.
const LEVELS: usize = 8;

#[derive(Debug, Clone)]
struct TimerEntry {
    at: SimTime,
    sched: SimTime,
    seq: u64,
    agent: AgentId,
    token: u64,
    gen: u32,
}

/// Min-heap key of a due timer: `(at, sched, seq, slab id, gen)`.
type DueTimer = Reverse<(SimTime, SimTime, u64, u32, u32)>;

/// Hierarchical timer wheel with slab-allocated, generation-checked entries.
#[derive(Debug, Clone)]
struct TimerWheel {
    /// Slab of timer entries; `free` holds recyclable indices.
    entries: Vec<TimerEntry>,
    free: Vec<u32>,
    /// `LEVELS × SLOTS_PER_LEVEL` buckets of `(id, gen)` pairs. A pair is
    /// stale (cancelled or moved) when its `gen` no longer matches the
    /// slab entry; stale pairs are skipped when the slot drains.
    slots: Vec<Vec<(u32, u32)>>,
    /// Per-level bitmap of non-empty slots.
    occupied: [u64; LEVELS],
    /// Current wheel position, in ticks. Never decreases.
    cursor: u64,
    /// Due (or sub-tick-resolution) timers, ordered by exact
    /// `(at, sched, seq)`.
    front: BinaryHeap<DueTimer>,
    /// Number of live (scheduled, not yet fired or cancelled) timers.
    live: usize,
    /// Cached key of the earliest live timer; `Err(())` means stale (a
    /// mutation may have changed the minimum) and `Ok(None)` means the
    /// wheel is known empty. Pops vastly outnumber timer mutations, so the
    /// cross-tier compare in [`EventQueue::pop`] usually skips
    /// [`refill_front`](Self::refill_front) entirely.
    min_key: Result<Option<(SimTime, SimTime, u64)>, ()>,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            free: Vec::new(),
            slots: std::iter::repeat_with(Vec::new)
                .take(LEVELS * SLOTS_PER_LEVEL)
                .collect(),
            occupied: [0; LEVELS],
            cursor: 0,
            front: BinaryHeap::new(),
            live: 0,
            min_key: Ok(None),
        }
    }
}

impl TimerWheel {
    fn insert(
        &mut self,
        at: SimTime,
        sched: SimTime,
        seq: u64,
        agent: AgentId,
        token: u64,
    ) -> TimerHandle {
        let (id, gen) = match self.free.pop() {
            Some(id) => {
                let e = &mut self.entries[id as usize];
                e.at = at;
                e.sched = sched;
                e.seq = seq;
                e.agent = agent;
                e.token = token;
                (id, e.gen)
            }
            None => {
                let id = u32::try_from(self.entries.len()).expect("timer slab overflow");
                self.entries.push(TimerEntry {
                    at,
                    sched,
                    seq,
                    agent,
                    token,
                    gen: 0,
                });
                (id, 0)
            }
        };
        self.live += 1;
        self.place(id, gen, at);
        self.note_insert(at, sched, seq);
        TimerHandle { id, gen }
    }

    /// Files `(id, gen)` into the wheel slot (or the front heap) where a
    /// timer due at `at` belongs, relative to the current cursor.
    fn place(&mut self, id: u32, gen: u32, at: SimTime) {
        let tick = at.as_nanos() >> TICK_SHIFT;
        if tick <= self.cursor {
            // Due within the current tick (or scheduled in the past, e.g.
            // zero-delay timers): exact ordering happens in the front heap.
            let e = &self.entries[id as usize];
            self.front.push(Reverse((e.at, e.sched, e.seq, id, gen)));
        } else {
            let diff = tick ^ self.cursor;
            let level = ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize;
            debug_assert!(level < LEVELS, "44-bit ticks fit in 8 levels");
            let slot =
                ((tick >> (LEVEL_BITS as usize * level)) & (SLOTS_PER_LEVEL as u64 - 1)) as usize;
            self.slots[level * SLOTS_PER_LEVEL + slot].push((id, gen));
            self.occupied[level] |= 1u64 << slot;
        }
    }

    /// True while the handle's timer is still scheduled.
    #[inline]
    fn is_live(&self, h: TimerHandle) -> bool {
        self.entries
            .get(h.id as usize)
            .is_some_and(|e| e.gen == h.gen)
    }

    /// Cancels the handle's timer. Returns `false` if it already fired or
    /// was already cancelled.
    fn cancel(&mut self, h: TimerHandle) -> bool {
        let Some(e) = self.entries.get_mut(h.id as usize) else {
            return false;
        };
        if e.gen != h.gen {
            return false;
        }
        if self.min_key == Ok(Some((e.at, e.sched, e.seq))) {
            self.min_key = Err(());
        }
        let e = &mut self.entries[h.id as usize];
        // The (id, gen) pair still sits in some slot or the front heap;
        // bumping the generation turns it stale there.
        e.gen = e.gen.wrapping_add(1);
        self.free.push(h.id);
        self.live -= 1;
        true
    }

    /// Earliest occupied `(level, slot)`, exploiting that lower levels fire
    /// strictly before higher ones and lower slots before higher ones.
    fn earliest_slot(&self) -> Option<(usize, usize)> {
        for (level, &occ) in self.occupied.iter().enumerate() {
            if occ != 0 {
                return Some((level, occ.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Advances the wheel until the front heap's head is a live timer (or
    /// the wheel is empty). Cursor motion only redistributes entries to
    /// strictly lower levels, so this terminates.
    #[inline]
    fn refill_front(&mut self) {
        loop {
            while let Some(&Reverse((_, _, _, id, gen))) = self.front.peek() {
                if self.entries[id as usize].gen == gen {
                    return; // live head
                }
                self.front.pop(); // cancelled; discard the stale pair
            }
            let Some((level, slot)) = self.earliest_slot() else {
                return; // wheel empty
            };
            let idx = level * SLOTS_PER_LEVEL + slot;
            self.occupied[level] &= !(1u64 << slot);
            let shift = LEVEL_BITS as usize * level;
            // Jump the cursor to the earliest tick this slot can hold: the
            // cursor's digits above this level, the slot digit, zeros below.
            let high_mask = !((1u64 << (shift + LEVEL_BITS as usize)) - 1);
            let tick_lo = (self.cursor & high_mask) | ((slot as u64) << shift);
            debug_assert!(tick_lo > self.cursor);
            self.cursor = tick_lo;
            let mut pairs = std::mem::take(&mut self.slots[idx]);
            for (id, gen) in pairs.drain(..) {
                if self.entries[id as usize].gen != gen {
                    continue; // cancelled while parked
                }
                let at = self.entries[id as usize].at;
                self.place(id, gen, at);
            }
            // As in the packet wheel: the slot stays empty, so its buffer
            // goes back for reuse.
            debug_assert!(self.slots[idx].is_empty());
            self.slots[idx] = pairs;
        }
    }

    /// `(at, sched, seq)` of the earliest live timer.
    #[inline]
    fn peek(&mut self) -> Option<(SimTime, SimTime, u64)> {
        if let Ok(k) = self.min_key {
            return k;
        }
        self.refill_front();
        let k = self
            .front
            .peek()
            .map(|&Reverse((at, sched, seq, _, _))| (at, sched, seq));
        self.min_key = Ok(k);
        k
    }

    /// Folds a freshly inserted key into the cached minimum.
    #[inline]
    fn note_insert(&mut self, at: SimTime, sched: SimTime, seq: u64) {
        if let Ok(cur) = self.min_key {
            let k = (at, sched, seq);
            self.min_key = Ok(Some(match cur {
                Some(c) if c < k => c,
                _ => k,
            }));
        }
    }

    /// Removes and returns the earliest live timer.
    #[inline]
    fn pop(&mut self) -> Option<(SimTime, u64, AgentId, u64)> {
        self.refill_front();
        let Reverse((at, _, seq, id, gen)) = self.front.pop()?;
        let e = &mut self.entries[id as usize];
        debug_assert_eq!(e.gen, gen, "refill_front leaves a live head");
        let (agent, token) = (e.agent, e.token);
        e.gen = e.gen.wrapping_add(1);
        self.free.push(id);
        self.live -= 1;
        self.min_key = Err(());
        Some((at, seq, agent, token))
    }
}

/// Priority queue of scheduled events with FIFO tie-breaking.
///
/// See the [module docs](self) for the two-tier design. The public
/// contract is unchanged from the plain-heap implementation: events pop in
/// `(time, scheduling order)` — with the addition of real timer
/// cancellation via [`schedule_timer`](Self::schedule_timer) /
/// [`cancel_timer`](Self::cancel_timer).
#[derive(Debug, Clone, Default)]
pub struct EventQueue {
    packets: PacketWheel,
    timers: TimerWheel,
    next_seq: u64,
    /// The scheduling clock: the engine mirrors its own clock here before
    /// dispatching, so every `schedule` call records *when* it was made.
    /// `sched` never regresses, which keeps `(at, sched, seq)` ordering
    /// identical to the historical `(at, seq)` order for events scheduled
    /// through one queue.
    now: SimTime,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the scheduling clock recorded on subsequent `schedule` calls.
    /// The engine calls this whenever its own clock advances.
    #[inline]
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    #[inline]
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// [`Event::Timer`]s are routed to the timer wheel (without a
    /// cancellation handle — use [`schedule_timer`](Self::schedule_timer)
    /// to keep one); everything else goes to the packet wheel. Ordering is
    /// identical either way.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.take_seq();
        let sched = self.now;
        match event {
            Event::Timer { agent, token } => {
                self.timers.insert(at, sched, seq, agent, token);
            }
            event => self.packets.push(Scheduled {
                at,
                sched,
                seq,
                event,
            }),
        }
    }

    /// Schedules `event` to fire at `at` with an explicit scheduling
    /// timestamp, as if it had been scheduled at `sched` on this queue.
    ///
    /// This is the cross-shard injection point: a packet handed over from
    /// another shard carries the clock time of its sending shard, so it
    /// sorts among same-instant local events exactly where an unsharded
    /// run would have placed it. Not meaningful for [`Event::Timer`].
    #[inline]
    pub fn inject(&mut self, at: SimTime, sched: SimTime, event: Event) {
        debug_assert!(
            !matches!(event, Event::Timer { .. }),
            "cross-queue injection is for packet-tier events"
        );
        let seq = self.take_seq();
        self.packets.push(Scheduled {
            at,
            sched,
            seq,
            event,
        });
    }

    /// Schedules a timer for `agent` at `at` and returns a handle that can
    /// cancel it before it fires.
    pub fn schedule_timer(&mut self, at: SimTime, agent: AgentId, token: u64) -> TimerHandle {
        let seq = self.take_seq();
        let sched = self.now;
        self.timers.insert(at, sched, seq, agent, token)
    }

    /// Cancels a pending timer. Returns `true` if the timer was still
    /// pending (and is now gone), `false` if it had already fired or been
    /// cancelled. Never affects a recycled slot: handles are
    /// generation-checked.
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.timers.cancel(handle)
    }

    /// Whether the timer behind `handle` is still pending.
    pub fn timer_is_live(&self, handle: TimerHandle) -> bool {
        self.timers.is_live(handle)
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_before(SimTime::from_nanos(u64::MAX))
    }

    /// Removes and returns the earliest event whose time is `<= horizon`.
    ///
    /// Equivalent to `peek_time` + `pop` fused into one peek round — the
    /// simulator's main loop calls this once per event instead of paying
    /// two cross-tier peeks.
    #[inline]
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, Event)> {
        self.pop_when(|at| at <= horizon)
    }

    /// Removes and returns the earliest event whose time is strictly
    /// `< end`.
    ///
    /// This is the sharded engine's round primitive: a conservative
    /// lookahead window `[s, s + L)` is half-open, because a cross-shard
    /// packet generated inside the window can fire exactly at `s + L` and
    /// must wait for injection before that instant is processed.
    #[inline]
    pub fn pop_strictly_before(&mut self, end: SimTime) -> Option<(SimTime, Event)> {
        self.pop_when(|at| at < end)
    }

    #[inline]
    fn pop_when(&mut self, admit: impl Fn(SimTime) -> bool) -> Option<(SimTime, Event)> {
        let packet = self.packets.peek();
        let timer_key = self.timers.peek();
        let take_packet = match (packet, timer_key) {
            (None, None) => return None,
            // Seqs are globally unique, so the keys never tie.
            (Some((p, _)), Some(t)) => p < t,
            (p, _) => p.is_some(),
        };
        if take_packet {
            let (key, lane) = packet?;
            if !admit(key.0) {
                return None;
            }
            let s = self.packets.pop(lane);
            Some((s.at, s.event))
        } else {
            let (at, _, _) = timer_key?;
            if !admit(at) {
                return None;
            }
            self.timers
                .pop()
                .map(|(at, _, agent, token)| (at, Event::Timer { agent, token }))
        }
    }

    /// The timestamp of the earliest pending event.
    ///
    /// Takes `&mut self` because peeking may advance the timer wheel
    /// (moving due timers into its front heap); the observable queue
    /// contents are unchanged.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        let p = self.packets.peek().map(|((at, _, _), _)| at);
        let t = self.timers.peek().map(|(at, _, _)| at);
        match (p, t) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.packets.len() + self.timers.live
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(token: u64) -> Event {
        Event::Timer {
            agent: AgentId::from_u32(0),
            token,
        }
    }

    fn link(id: u64) -> Event {
        Event::LinkTxDone {
            link: LinkId::from_u32(id as u32),
        }
    }

    fn drain_tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timer { token, .. } => token,
                Event::LinkTxDone { link } => u64::from(link.as_u32()),
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), timer(3));
        q.schedule(SimTime::from_millis(10), timer(1));
        q.schedule(SimTime::from_millis(20), timer(2));
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for token in 0..100 {
            q.schedule(t, timer(token));
        }
        assert_eq!(drain_tokens(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn simultaneous_cross_tier_events_fire_fifo() {
        // Timers (wheel tier) and link events (packet tier) at the same
        // instant must still interleave in scheduling order.
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..50u64 {
            if i % 2 == 0 {
                q.schedule(t, timer(i));
            } else {
                q.schedule(t, link(i));
            }
        }
        assert_eq!(drain_tokens(&mut q), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_millis(9), timer(0));
        q.schedule(SimTime::from_millis(4), timer(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(4)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut q = EventQueue::new();
        let h = q.schedule_timer(SimTime::from_millis(10), AgentId::from_u32(0), 7);
        q.schedule(SimTime::from_millis(20), timer(8));
        assert!(q.timer_is_live(h));
        assert!(q.cancel_timer(h));
        assert!(!q.timer_is_live(h));
        assert!(!q.cancel_timer(h), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(drain_tokens(&mut q), vec![8]);
    }

    #[test]
    fn stale_handle_cannot_cancel_recycled_slot() {
        let mut q = EventQueue::new();
        let a = AgentId::from_u32(0);
        let h1 = q.schedule_timer(SimTime::from_millis(1), a, 1);
        assert!(q.cancel_timer(h1));
        // The slab slot is recycled for a new timer; the old handle must
        // not be able to touch it.
        let h2 = q.schedule_timer(SimTime::from_millis(2), a, 2);
        assert!(!q.cancel_timer(h1));
        assert!(q.timer_is_live(h2));
        assert_eq!(drain_tokens(&mut q), vec![2]);
    }

    #[test]
    fn firing_consumes_the_handle() {
        let mut q = EventQueue::new();
        let h = q.schedule_timer(SimTime::from_millis(3), AgentId::from_u32(9), 42);
        assert_eq!(
            q.pop(),
            Some((
                SimTime::from_millis(3),
                Event::Timer {
                    agent: AgentId::from_u32(9),
                    token: 42
                }
            ))
        );
        assert!(!q.timer_is_live(h));
        assert!(!q.cancel_timer(h));
    }

    #[test]
    fn strict_pop_respects_the_half_open_window() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), timer(1));
        q.schedule(SimTime::from_millis(10), timer(2));
        assert_eq!(
            q.pop_strictly_before(SimTime::from_millis(10)),
            Some((SimTime::from_millis(5), timer(1)))
        );
        assert_eq!(q.pop_strictly_before(SimTime::from_millis(10)), None);
        assert_eq!(
            q.pop_before(SimTime::from_millis(10)),
            Some((SimTime::from_millis(10), timer(2)))
        );
    }

    #[test]
    fn injected_events_sort_by_scheduling_time_among_ties() {
        // Local events scheduled at now=14 for t=20; an injection that was
        // scheduled (on another shard) at t=12 must pop before them, and
        // one scheduled at t=16 after them, regardless of insertion order.
        let mut q = EventQueue::new();
        q.set_now(SimTime::from_millis(14));
        q.schedule(SimTime::from_millis(20), link(100));
        q.schedule(SimTime::from_millis(20), link(101));
        q.inject(
            SimTime::from_millis(20),
            SimTime::from_millis(16),
            link(300),
        );
        q.inject(SimTime::from_millis(20), SimTime::from_millis(12), link(50));
        assert_eq!(drain_tokens(&mut q), vec![50, 100, 101, 300]);
    }

    /// One wheel tick in nanoseconds.
    const TICK: u64 = 1 << TICK_SHIFT;
    /// One packet-wheel tick in nanoseconds.
    const PKT_TICK: u64 = 1 << PKT_TICK_SHIFT;

    #[test]
    fn same_instant_burst_stays_out_of_the_front_heap() {
        // Bring the packet cursor to `t`'s tick, park a later entry of the
        // same tick in the FIFO lane, then send a burst at exactly `now`:
        // the burst takes the same-instant lane, never the heap.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100 * PKT_TICK);
        q.schedule(t, link(0));
        assert_eq!(q.pop(), Some((t, link(0))));
        q.set_now(t);
        let later = SimTime::from_nanos(t.as_nanos() + 1_000);
        q.schedule(later, link(1));
        for i in 0..1_000 {
            q.schedule(t, link(2 + i));
            assert!(
                q.packets.front.is_empty(),
                "burst entry {i} went to the heap"
            );
        }
        let mut got = Vec::new();
        while let Some((at, e)) = q.pop() {
            assert!(q.packets.front.is_empty());
            let Event::LinkTxDone { link } = e else {
                unreachable!()
            };
            got.push((at, link.as_u32()));
        }
        // `(at, sched, seq)` order: the burst at `t` in scheduling order,
        // then the entry a microsecond later.
        let mut want: Vec<(SimTime, u32)> = (2..1_002).map(|i| (t, i)).collect();
        want.push((later, 1));
        assert_eq!(got, want);
    }

    #[test]
    fn wheel_cascade_boundaries() {
        // Explicit cascade coverage: same-tick (sub-tick ordering), exact
        // slot edges of every level, far-future ticks in the top level, and
        // zero-delay timers, all interleaved with a packet-tier event.
        let mut times: Vec<u64> = vec![0, 1, TICK - 1, TICK, TICK + 1];
        for level in 1..LEVELS as u32 {
            let edge = TICK << (LEVEL_BITS * level);
            times.extend_from_slice(&[edge - 1, edge, edge + 1]);
        }
        times.push(u64::MAX / 2); // far future: top-level slot
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), timer(i as u64));
        }
        q.schedule(SimTime::from_nanos(TICK + 1), link(1_000));
        let mut expected: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect();
        expected.push((TICK + 1, 1_000));
        // Stable sort on time preserves scheduling order for ties, which is
        // exactly the queue's contract.
        expected.sort_by_key(|&(t, _)| t);
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(at, e)| {
                let id = match e {
                    Event::Timer { token, .. } => token,
                    Event::LinkTxDone { link } => u64::from(link.as_u32()),
                    _ => unreachable!(),
                };
                (at.as_nanos(), id)
            })
            .collect();
        assert_eq!(got, expected);
    }

    /// Naive model: a vector sorted by (time, seq), with cancellation.
    #[derive(Default)]
    struct Model {
        entries: Vec<(u64, u64, u64)>, // (time, seq, token)
        next_seq: u64,
    }

    impl Model {
        fn schedule(&mut self, t: u64, token: u64) -> u64 {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.entries.push((t, seq, token));
            seq
        }
        fn cancel(&mut self, seq: u64) {
            self.entries.retain(|&(_, s, _)| s != seq);
        }
        fn pop(&mut self) -> Option<(u64, u64)> {
            let i = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(t, s, _))| (t, s))
                .map(|(i, _)| i)?;
            let (t, _, token) = self.entries.swap_remove(i);
            Some((t, token))
        }
    }

    /// `(at, token)` of one pop, or `None` when empty.
    type Popped = Option<(u64, u64)>;

    /// Pops the queue and an `(at, sched, seq)` model (the seq doubles as
    /// the event's token) once each, then advances the queue's scheduling
    /// clock to the popped instant as the engine does.
    fn pop_like_the_engine(
        q: &mut EventQueue,
        model: &mut Vec<(u64, u64, u64)>,
    ) -> (Popped, Popped) {
        let got = q.pop().map(|(at, e)| {
            q.set_now(at);
            let tok = match e {
                Event::Timer { token, .. } => token,
                Event::LinkTxDone { link } => u64::from(link.as_u32()),
                _ => unreachable!(),
            };
            (at.as_nanos(), tok)
        });
        let want = (0..model.len()).min_by_key(|&i| model[i]).map(|i| {
            let (at, _, seq) = model.swap_remove(i);
            (at, seq)
        });
        (got, want)
    }

    proptest::proptest! {
        /// Property: regardless of insertion order, events pop sorted by
        /// (time, insertion sequence).
        #[test]
        fn prop_pop_order_is_stable_sort(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), timer(i as u64));
            }
            let mut expected: Vec<(u64, u64)> =
                times.iter().enumerate().map(|(i, &t)| (t, i as u64)).collect();
            expected.sort();
            let got: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
                .map(|(at, e)| match e {
                    Event::Timer { token, .. } => (at.as_nanos(), token),
                    _ => unreachable!(),
                })
                .collect();
            proptest::prop_assert_eq!(got, expected);
        }

        /// Property: under the engine's discipline — `set_now(at)` after
        /// every pop, nothing scheduled before `now` — pops follow the
        /// exact `(at, sched, seq)` order of a sorted model, so the `sched`
        /// tie-break and every front-tier lane are exercised.
        ///
        /// Ops: (kind % 6, value). Offsets from `now` are whole quarter
        /// packet ticks, so many entries share an instant and only
        /// `sched` and `seq` order them; `d` is `value % 12` quarter ticks.
        /// 0 ⇒ a burst of `1 + value % 8` link events at exactly `now`,
        /// 1 ⇒ a link event at `now + d` (inside the current tick or just
        /// past it), 2 ⇒ a link event about `value` ns ahead (several
        /// wheel levels up), 3 ⇒ a timer up to 64 timer ticks ahead,
        /// 4 ⇒ `inject(now + d, now − value % (now + 1))`, 5 ⇒ pop.
        #[test]
        fn prop_engine_discipline_pops_in_exact_key_order(
            ops in proptest::collection::vec((0u8..6, 0u64..(1u64 << 33)), 1..400)
        ) {
            let mut q = EventQueue::new();
            let mut model = Vec::new();
            let mut seq = 0u64;
            for &(kind, value) in &ops {
                let now = q.now.as_nanos();
                let quarters = |ns: u64| ns & !(PKT_TICK / 4 - 1);
                let d = value % 12 * (PKT_TICK / 4);
                match kind {
                    0 => {
                        for _ in 0..=value % 8 {
                            q.schedule(SimTime::from_nanos(now), link(seq));
                            model.push((now, now, seq));
                            seq += 1;
                        }
                    }
                    1 | 2 => {
                        let at = now + if kind == 1 { d } else { quarters(value) };
                        q.schedule(SimTime::from_nanos(at), link(seq));
                        model.push((at, now, seq));
                        seq += 1;
                    }
                    3 => {
                        let at = now + quarters(value % (64 * TICK));
                        q.schedule(SimTime::from_nanos(at), timer(seq));
                        model.push((at, now, seq));
                        seq += 1;
                    }
                    4 => {
                        let (at, sched) = (now + d, now - value % (now + 1));
                        q.inject(SimTime::from_nanos(at), SimTime::from_nanos(sched), link(seq));
                        model.push((at, sched, seq));
                        seq += 1;
                    }
                    _ => {
                        let (got, want) = pop_like_the_engine(&mut q, &mut model);
                        proptest::prop_assert_eq!(got, want);
                    }
                }
                proptest::prop_assert_eq!(q.len(), model.len());
            }
            loop {
                let (got, want) = pop_like_the_engine(&mut q, &mut model);
                proptest::prop_assert_eq!(got, want);
                if want.is_none() {
                    break;
                }
            }
        }

        /// Property: arbitrary interleavings of schedule / cancel / pop
        /// across both tiers agree with the naive sorted-Vec model.
        ///
        /// Ops: (kind % 4, value). 0 ⇒ schedule timer at `value`,
        /// 1 ⇒ schedule link event at `value`, 2 ⇒ cancel the
        /// (value % live)-th outstanding timer handle, 3 ⇒ pop.
        /// Times span several wheel levels so cascades are exercised.
        #[test]
        fn prop_schedule_cancel_pop_matches_model(
            ops in proptest::collection::vec((0u8..4, 0u64..(1u64 << 33)), 1..300)
        ) {
            let mut q = EventQueue::new();
            let mut model = Model::default();
            // Outstanding (handle, model-seq) pairs for cancellation.
            let mut handles: Vec<(TimerHandle, u64)> = Vec::new();
            let mut token = 0u64;
            for &(kind, value) in &ops {
                match kind {
                    0 => {
                        let at = SimTime::from_nanos(value);
                        let h = q.schedule_timer(at, AgentId::from_u32(0), token);
                        let seq = model.schedule(value, token);
                        handles.push((h, seq));
                        token += 1;
                    }
                    1 => {
                        q.schedule(SimTime::from_nanos(value), link(token));
                        model.schedule(value, token);
                        token += 1;
                    }
                    2 if !handles.is_empty() => {
                        let i = (value as usize) % handles.len();
                        let (h, seq) = handles.swap_remove(i);
                        let was_live = q.timer_is_live(h);
                        proptest::prop_assert_eq!(q.cancel_timer(h), was_live);
                        model.cancel(seq);
                    }
                    _ => {
                        let got = q.pop().map(|(at, e)| {
                            let tok = match e {
                                Event::Timer { token, .. } => token,
                                Event::LinkTxDone { link } => u64::from(link.as_u32()),
                                _ => unreachable!(),
                            };
                            (at.as_nanos(), tok)
                        });
                        // Popping may consume a timer whose handle we still
                        // hold; it goes dead, which the `was_live` check on
                        // a later cancel op tolerates.
                        proptest::prop_assert_eq!(got, model.pop());
                    }
                }
                proptest::prop_assert_eq!(q.len(), model.entries.len());
            }
            // Drain both to the end.
            loop {
                let got = q.pop().map(|(at, e)| {
                    let tok = match e {
                        Event::Timer { token, .. } => token,
                        Event::LinkTxDone { link } => u64::from(link.as_u32()),
                        _ => unreachable!(),
                    };
                    (at.as_nanos(), tok)
                });
                let want = model.pop();
                proptest::prop_assert_eq!(got, want);
                if want.is_none() {
                    break;
                }
            }
        }
    }
}
