//! The discrete-event simulation engine.
//!
//! ## The indexed scheduler
//!
//! The hot loop of every experiment is: pop the earliest event, find the
//! destination actor, run its handler, enqueue its outputs. The original
//! implementation kept one global `BinaryHeap` of events and looked actors
//! up in a `HashMap<NodeId, _>` per delivery; both dominate profiles at
//! high client counts. This version is index-addressed:
//!
//! * **Dense actor slots** — `add_node` assigns each node a slot in a
//!   `Vec`; destination `NodeId`s are resolved to slot indices once, when a
//!   message is *sent*, so a delivery is a bounds-checked array access.
//!   Per-node metrics live in the slot, so the per-delivery accounting
//!   touches no hash map either.
//! * **Bucketed calendar queue** — events are filed by time bucket
//!   (2¹⁶ ns ≈ 66 µs wide). Events in the bucket currently being drained
//!   sit in a small [`BinaryHeap`]; near-future buckets are plain `Vec`s in
//!   a 1024-slot ring (one push = one `Vec::push`); events beyond the
//!   ring's ~67 ms horizon overflow into a fallback heap and are promoted
//!   when the cursor reaches their bucket. Heap discipline is thus paid
//!   only within one bucket (a handful of events) instead of across the
//!   whole queue.
//!
//! ## Determinism contract
//!
//! Delivery order is *identical* to a single global min-heap ordered by
//! `(time, sequence number)`: every event in the drain bucket precedes
//! every event in a later bucket by construction, and ties within a bucket
//! are broken by the globally unique, monotonically assigned sequence
//! number. All randomness (latency jitter, loss) is drawn from one seeded
//! RNG at the same points as before, so a fixed seed reproduces the exact
//! event trace — `tests/golden_trace.rs` pins this with a trace hash
//! captured from the original heap scheduler.

use crate::actor::{Actor, Context, Output};
use crate::metrics::{Metrics, NodeMetrics};
use crate::network::{LinkFault, LinkFaultKind, NetworkConfig, Partition};
use basil_common::{Duration, NodeId, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// A typed in-flight message corruptor: mutates a payload that a
/// [`LinkFaultKind::Corrupt`] fault selected, using the salt for variety.
/// Installed per simulation via [`Simulation::set_corruptor`]; without one,
/// corruption models *detected* garbling on an authenticated channel and the
/// message is discarded instead.
pub type Corruptor<M> = Arc<dyn Fn(&mut M, u64)>;

/// Static properties of a simulated node.
#[derive(Clone, Copy, Debug)]
pub struct NodeProps {
    /// Number of CPU cores available for message processing.
    pub cores: u32,
    /// Offset of this node's local clock from global simulation time, in
    /// nanoseconds (positive = clock runs ahead). Models NTP skew.
    pub clock_skew_ns: i64,
}

impl NodeProps {
    /// A client node: clients in the paper's closed-loop benchmark drive a
    /// handful of outstanding requests, so a few cores suffice.
    pub fn client() -> Self {
        NodeProps {
            cores: 2,
            clock_skew_ns: 0,
        }
    }

    /// A replica node matching the paper's m510 servers (8 cores).
    pub fn replica() -> Self {
        NodeProps {
            cores: 8,
            clock_skew_ns: 0,
        }
    }

    /// Overrides the core count.
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.cores = cores.max(1);
        self
    }

    /// Overrides the clock skew.
    pub fn with_skew_ns(mut self, skew: i64) -> Self {
        self.clock_skew_ns = skew;
        self
    }
}

impl Default for NodeProps {
    fn default() -> Self {
        NodeProps {
            cores: 1,
            clock_skew_ns: 0,
        }
    }
}

struct NodeSlot<M> {
    id: NodeId,
    actor: Box<dyn Actor<M>>,
    props: NodeProps,
    core_free: Vec<SimTime>,
    crashed: bool,
    metrics: NodeMetrics,
}

impl<M> NodeSlot<M> {
    fn local_clock(&self, now: SimTime) -> SimTime {
        let ns = now.as_nanos() as i64 + self.props.clock_skew_ns;
        SimTime::from_nanos(ns.max(0) as u64)
    }

    /// Index of the core that frees up earliest.
    fn earliest_core(&self) -> usize {
        self.core_free
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("nodes have at least one core")
    }
}

/// Slot index standing for a destination that was not registered when the
/// message was sent; the event is dropped at dispatch, as the heap
/// scheduler did for unknown `NodeId`s.
const UNKNOWN_SLOT: u32 = u32::MAX;

#[derive(Debug)]
struct Event<M> {
    at: SimTime,
    seq: u64,
    /// Destination, pre-resolved to a dense slot index at enqueue time.
    to_slot: u32,
    from: NodeId,
    msg: M,
    is_timer: bool,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Width of one calendar bucket: 2^16 ns ≈ 66 µs, on the order of one LAN
/// message latency, so consecutive protocol events land in the same or
/// adjacent buckets.
const BUCKET_BITS: u32 = 16;
/// Number of ring buckets (power of two). Span = 1024 × 66 µs ≈ 67 ms;
/// protocol timeouts beyond that go to the overflow heap.
const WHEEL_SLOTS: usize = 1024;

const fn bucket_of(at: SimTime) -> u64 {
    at.as_nanos() >> BUCKET_BITS
}

/// The calendar event queue: a drain heap for the current bucket, a ring of
/// unsorted near-future buckets, and an overflow heap for the far future.
///
/// Pops are in strict `(at, seq)` order — see the module docs for why this
/// is bit-for-bit identical to one global min-heap.
struct EventQueue<M> {
    /// Events of buckets `<= cursor` (plus anything scheduled in the past,
    /// e.g. an `inject` behind the clock), ordered by `(at, seq)`.
    current: BinaryHeap<Reverse<Event<M>>>,
    /// Ring of future buckets; slot `b & (WHEEL_SLOTS-1)` holds the events
    /// of exactly one bucket `b` in `(cursor, cursor + WHEEL_SLOTS)`.
    wheel: Vec<Vec<Event<M>>>,
    /// Number of events currently filed in the ring.
    wheel_len: usize,
    /// Events more than the ring span into the future.
    overflow: BinaryHeap<Reverse<Event<M>>>,
    /// Bucket currently being drained through `current`.
    cursor: u64,
    /// Total events queued.
    len: usize,
}

impl<M> EventQueue<M> {
    fn new() -> Self {
        EventQueue {
            current: BinaryHeap::new(),
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            cursor: 0,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, ev: Event<M>) {
        let b = bucket_of(ev.at);
        self.len += 1;
        if b <= self.cursor {
            self.current.push(Reverse(ev));
        } else if b - self.cursor < WHEEL_SLOTS as u64 {
            self.wheel[(b as usize) & (WHEEL_SLOTS - 1)].push(ev);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(ev));
        }
    }

    /// Moves the cursor to the next non-empty bucket and spills that
    /// bucket's events into the drain heap. No-op when nothing is queued
    /// beyond the cursor.
    fn advance(&mut self) {
        let next_overflow = self.overflow.peek().map(|Reverse(e)| bucket_of(e.at));
        // The ring scan visits buckets in increasing order: a non-empty
        // slot at distance d from the cursor can only hold bucket
        // `cursor + d` (two buckets of one slot are WHEEL_SLOTS apart and
        // cannot both be within the ring's open window).
        let mut next_wheel = None;
        if self.wheel_len > 0 {
            for d in 1..WHEEL_SLOTS as u64 {
                let slot = ((self.cursor + d) as usize) & (WHEEL_SLOTS - 1);
                if !self.wheel[slot].is_empty() {
                    next_wheel = Some(self.cursor + d);
                    break;
                }
            }
        }
        let target = match (next_wheel, next_overflow) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => return,
        };
        self.cursor = target;
        if next_wheel == Some(target) {
            let slot = (target as usize) & (WHEEL_SLOTS - 1);
            let events = std::mem::take(&mut self.wheel[slot]);
            self.wheel_len -= events.len();
            self.current.extend(events.into_iter().map(Reverse));
        }
        while let Some(Reverse(e)) = self.overflow.peek() {
            if bucket_of(e.at) > self.cursor {
                break;
            }
            let Reverse(e) = self.overflow.pop().expect("peeked event exists");
            self.current.push(Reverse(e));
        }
    }

    /// Ensures the drain heap holds the globally earliest event.
    fn prime(&mut self) {
        while self.current.is_empty() && (self.wheel_len > 0 || !self.overflow.is_empty()) {
            self.advance();
        }
    }

    /// Timestamp of the earliest queued event.
    fn peek_at(&mut self) -> Option<SimTime> {
        self.prime();
        self.current.peek().map(|Reverse(e)| e.at)
    }

    /// Removes and returns the earliest queued event.
    fn pop(&mut self) -> Option<Event<M>> {
        self.prime();
        let Reverse(ev) = self.current.pop()?;
        self.len -= 1;
        Some(ev)
    }
}

/// The discrete-event simulator.
///
/// Generic over the message type `M` exchanged by the actors registered in
/// it. All randomness (latency jitter, message loss) flows from the seed
/// passed to [`Simulation::new`], so runs are reproducible; see the module
/// docs for the scheduler design and the determinism contract.
pub struct Simulation<M> {
    /// Dense actor slots, indexed by the slot numbers in `index`.
    slots: Vec<NodeSlot<M>>,
    index: HashMap<NodeId, u32>,
    queue: EventQueue<M>,
    now: SimTime,
    seq: u64,
    network: NetworkConfig,
    partitions: Vec<Partition>,
    /// Targeted, time-windowed link faults (see [`LinkFault`]); consulted in
    /// [`Simulation::apply_outputs`] only.
    link_faults: Vec<LinkFault>,
    corruptor: Option<Corruptor<M>>,
    rng: SmallRng,
    /// Registered node ids in sorted order, maintained on `add_node` so
    /// `node_ids` is allocation-free and startup order is deterministic.
    node_order: Vec<NodeId>,
    /// Whole-simulation counters; the per-node breakdown lives in the
    /// slots and is assembled on demand by [`Simulation::metrics`].
    global: Metrics,
    started: bool,
}

impl<M: Clone + 'static> Simulation<M> {
    /// Creates an empty simulation.
    pub fn new(seed: u64, network: NetworkConfig) -> Self {
        Simulation {
            slots: Vec::new(),
            index: HashMap::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            seq: 0,
            network,
            partitions: Vec::new(),
            link_faults: Vec::new(),
            corruptor: None,
            rng: SmallRng::seed_from_u64(seed),
            node_order: Vec::new(),
            global: Metrics::default(),
            started: false,
        }
    }

    /// Registers an actor under `id`. Panics if the id is already taken.
    ///
    /// Destinations are resolved to dense slot indices when a message is
    /// sent, so nodes should be registered before the simulation runs;
    /// messages sent to an id that is unregistered at send time are
    /// dropped on delivery.
    pub fn add_node(&mut self, id: NodeId, props: NodeProps, actor: Box<dyn Actor<M>>) {
        assert!(
            !self.index.contains_key(&id),
            "node {id:?} registered twice"
        );
        let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 nodes");
        assert!(slot != UNKNOWN_SLOT, "node capacity exhausted");
        let cores = props.cores.max(1) as usize;
        self.index.insert(id, slot);
        let pos = self
            .node_order
            .binary_search(&id)
            .expect_err("id not yet registered");
        self.node_order.insert(pos, id);
        self.slots.push(NodeSlot {
            id,
            actor,
            props,
            core_free: vec![SimTime::ZERO; cores],
            crashed: false,
            metrics: NodeMetrics::default(),
        });
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Simulation-wide metrics collected so far: the global counters plus
    /// the per-node breakdown, assembled from the dense per-slot records.
    pub fn metrics(&self) -> Metrics {
        let mut m = self.global.clone();
        m.per_node = self
            .slots
            .iter()
            .map(|s| (s.id, s.metrics.clone()))
            .collect();
        m
    }

    /// The metrics of one node, without assembling the full report.
    pub fn node_metrics(&self, id: NodeId) -> Option<&NodeMetrics> {
        self.slot_ref(id).map(|s| &s.metrics)
    }

    fn slot_of(&self, id: NodeId) -> Option<usize> {
        self.index.get(&id).map(|i| *i as usize)
    }

    fn slot_ref(&self, id: NodeId) -> Option<&NodeSlot<M>> {
        self.slot_of(id).map(|i| &self.slots[i])
    }

    fn slot_mut(&mut self, id: NodeId) -> Option<&mut NodeSlot<M>> {
        self.slot_of(id).map(|i| &mut self.slots[i])
    }

    /// All registered node identifiers, in sorted order.
    ///
    /// Allocation-free: the sorted order is maintained incrementally by
    /// [`Simulation::add_node`]. Collect if you need to mutate the
    /// simulation while iterating.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_order.iter().copied()
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// Immutable access to a registered actor, downcast to its concrete type.
    pub fn actor<A: Actor<M>>(&self, id: NodeId) -> Option<&A> {
        self.slot_ref(id)
            .and_then(|s| s.actor.as_any().downcast_ref::<A>())
    }

    /// Mutable access to a registered actor, downcast to its concrete type.
    pub fn actor_mut<A: Actor<M>>(&mut self, id: NodeId) -> Option<&mut A> {
        self.slot_mut(id)
            .and_then(|s| s.actor.as_any_mut().downcast_mut::<A>())
    }

    /// Marks a node as crashed: all subsequent deliveries to it are dropped.
    pub fn crash(&mut self, id: NodeId) {
        if let Some(s) = self.slot_mut(id) {
            s.crashed = true;
        }
    }

    /// *Warm*-restarts a crashed node: deliveries resume and the actor wakes
    /// with its full pre-crash memory, as if it had merely been paused. This
    /// models a long GC stall or scheduling hiccup; a real process crash
    /// loses memory — model that with [`Simulation::restart_amnesia`].
    pub fn restart(&mut self, id: NodeId) {
        if let Some(s) = self.slot_mut(id) {
            s.crashed = false;
        }
    }

    /// *Amnesia*-restarts a crashed node: the registered actor is replaced
    /// by `actor` — typically rebuilt from whatever durable state the caller
    /// salvaged from the old one — and deliveries resume. Returns the old
    /// boxed actor (so the caller can drop or inspect it), or `None` if `id`
    /// is not registered.
    ///
    /// If the simulation has already started, the replacement's
    /// [`Actor::on_start`] runs at the current simulation time with the same
    /// core accounting as a message delivery, so anything it sends or
    /// schedules (catch-up requests, recovery deadlines) enters the timeline
    /// deterministically.
    pub fn restart_amnesia(
        &mut self,
        id: NodeId,
        actor: Box<dyn Actor<M>>,
    ) -> Option<Box<dyn Actor<M>>> {
        let i = self.slot_of(id)?;
        let now = self.now;
        let started = self.started;
        let slot = &mut self.slots[i];
        let old = std::mem::replace(&mut slot.actor, actor);
        slot.crashed = false;
        if started {
            let core = slot.earliest_core();
            let start = slot.core_free[core].max(now);
            let local = slot.local_clock(start);
            let mut ctx = Context::new(id, start, local);
            slot.actor.on_start(&mut ctx);
            let (outputs, charged) = ctx.finish();
            let completion = start + charged;
            if charged > Duration::ZERO {
                slot.core_free[core] = completion;
                slot.metrics.cpu_busy += charged;
            }
            slot.metrics.messages_sent += outputs
                .iter()
                .filter(|o| matches!(o, Output::Send { .. }))
                .count() as u64;
            self.apply_outputs(i as u32, id, completion, outputs);
        }
        Some(old)
    }

    /// Installs a network partition. Returns its index for later healing.
    pub fn add_partition(&mut self, partition: Partition) -> usize {
        self.partitions.push(partition);
        self.partitions.len() - 1
    }

    /// Mutable access to an installed partition (to activate or heal it).
    pub fn partition_mut(&mut self, index: usize) -> Option<&mut Partition> {
        self.partitions.get_mut(index)
    }

    /// Installs a targeted link fault (drop / delay / replay / corrupt on a
    /// matcher-selected set of links, active during a time window). Returns
    /// its index. Faults are evaluated in installation order per message.
    pub fn add_link_fault(&mut self, fault: LinkFault) -> usize {
        self.link_faults.push(fault);
        self.link_faults.len() - 1
    }

    /// Removes every installed link fault.
    pub fn clear_link_faults(&mut self) {
        self.link_faults.clear();
    }

    /// Installs the typed corruptor applied by [`LinkFaultKind::Corrupt`]
    /// faults. Without one, corrupted messages are discarded (detected
    /// garble on an authenticated channel) rather than mutated.
    pub fn set_corruptor(&mut self, corruptor: Corruptor<M>) {
        self.corruptor = Some(corruptor);
    }

    /// Injects a message from the outside world (e.g. the benchmark harness)
    /// to be delivered to `to` at time `at`.
    ///
    /// Like actor sends, the destination is resolved when this call is
    /// made: `to` must already be registered via [`Simulation::add_node`],
    /// otherwise the message is dropped at delivery time (counted in
    /// `messages_dropped`).
    pub fn inject(&mut self, to: NodeId, from: NodeId, msg: M, at: SimTime) {
        let seq = self.next_seq();
        let to_slot = self.index.get(&to).copied().unwrap_or(UNKNOWN_SLOT);
        self.queue.push(Event {
            at,
            seq,
            to_slot,
            from,
            msg,
            is_timer: false,
        });
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for pos in 0..self.node_order.len() {
            let id = self.node_order[pos];
            let i = self.slot_of(id).expect("listed node exists");
            let slot = &mut self.slots[i];
            let local = slot.local_clock(SimTime::ZERO);
            let mut ctx = Context::new(id, SimTime::ZERO, local);
            slot.actor.on_start(&mut ctx);
            let (outputs, charged) = ctx.finish();
            let completion = SimTime::ZERO + charged;
            if charged > Duration::ZERO {
                let core = slot.earliest_core();
                slot.core_free[core] = completion;
                slot.metrics.cpu_busy += charged;
            }
            slot.metrics.messages_sent += outputs
                .iter()
                .filter(|o| matches!(o, Output::Send { .. }))
                .count() as u64;
            self.apply_outputs(i as u32, id, completion, outputs);
        }
    }

    /// Runs until the event queue is exhausted or `deadline` is reached.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.ensure_started();
        while let Some(at) = self.queue.peek_at() {
            if at > deadline {
                break;
            }
            let ev = self.queue.pop().expect("peeked event exists");
            self.now = ev.at;
            self.dispatch(ev);
        }
        self.now = deadline.max(self.now);
    }

    /// Runs for `d` of simulated time past the current time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Processes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        match self.queue.pop() {
            Some(ev) => {
                self.now = ev.at;
                self.dispatch(ev);
                true
            }
            None => false,
        }
    }

    /// Number of events waiting in the queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    fn dispatch(&mut self, ev: Event<M>) {
        self.global.events_processed += 1;
        self.global.last_event_at = ev.at;

        let Some(slot) = self.slots.get_mut(ev.to_slot as usize) else {
            // Message to a node unknown at send time: drop.
            self.global.messages_dropped += 1;
            return;
        };
        if slot.crashed {
            self.global.messages_dropped += 1;
            return;
        }

        // Queue for a free core.
        let core = slot.earliest_core();
        let start = slot.core_free[core].max(ev.at);
        let wait = start - ev.at;
        let local = slot.local_clock(start);

        let mut ctx = Context::new(slot.id, start, local);
        if ev.is_timer {
            slot.actor.on_timer(&mut ctx, ev.msg);
        } else {
            slot.actor.on_message(&mut ctx, ev.from, ev.msg);
        }
        let (outputs, charged) = ctx.finish();
        let completion = start + charged;
        slot.core_free[core] = completion;

        if ev.is_timer {
            slot.metrics.timers_fired += 1;
        } else {
            slot.metrics.messages_processed += 1;
        }
        slot.metrics.cpu_busy += charged;
        slot.metrics.queue_wait += wait;
        slot.metrics.messages_sent += outputs
            .iter()
            .filter(|o| matches!(o, Output::Send { .. }))
            .count() as u64;
        self.global.messages_delivered += u64::from(!ev.is_timer);

        let from = slot.id;
        self.apply_outputs(ev.to_slot, from, completion, outputs);
    }

    /// Applies a handler's recorded outputs: network sampling (partitions,
    /// loss, latency jitter) and queue insertion, in output order. This is
    /// the *only* place randomness is consumed, so applying outputs in
    /// `(time, seq)` dispatch order reproduces the exact event trace.
    fn apply_outputs(
        &mut self,
        from_slot: u32,
        from: NodeId,
        completion: SimTime,
        outputs: Vec<Output<M>>,
    ) {
        for out in outputs {
            match out {
                Output::Send { to, mut msg } => {
                    self.global.messages_sent += 1;
                    if self.partitions.iter().any(|p| p.blocks(from, to)) {
                        self.global.messages_dropped += 1;
                        continue;
                    }
                    if self.network.sample_drop(&mut self.rng) {
                        self.global.messages_dropped += 1;
                        continue;
                    }
                    // Targeted link faults, in installation order. Matching
                    // is deterministic and only matching faults draw from
                    // the RNG, so with no faults installed the RNG stream —
                    // and every pinned golden trace — is untouched.
                    let mut extra_delay = Duration::ZERO;
                    let mut replay = false;
                    let mut fault_dropped = false;
                    if !self.link_faults.is_empty() {
                        for f in &self.link_faults {
                            if !f.applies(completion, from, to) {
                                continue;
                            }
                            match f.kind {
                                LinkFaultKind::Drop { probability } => {
                                    if self.rng.gen::<f64>() < probability {
                                        fault_dropped = true;
                                        break;
                                    }
                                }
                                LinkFaultKind::Delay { extra } => extra_delay += extra,
                                LinkFaultKind::Replay { probability } => {
                                    if self.rng.gen::<f64>() < probability {
                                        replay = true;
                                    }
                                }
                                LinkFaultKind::Corrupt { probability } => {
                                    if self.rng.gen::<f64>() < probability {
                                        self.global.messages_corrupted += 1;
                                        match &self.corruptor {
                                            Some(c) => {
                                                let salt = self.rng.gen::<u64>();
                                                c(&mut msg, salt);
                                            }
                                            // Detected garble on an
                                            // authenticated channel: the
                                            // receiver discards it.
                                            None => {
                                                fault_dropped = true;
                                                break;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                    if fault_dropped {
                        self.global.messages_dropped += 1;
                        continue;
                    }
                    let to_slot = self.index.get(&to).copied().unwrap_or(UNKNOWN_SLOT);
                    let dup = if replay {
                        self.global.messages_replayed += 1;
                        Some(msg.clone())
                    } else {
                        None
                    };
                    let latency =
                        self.network.sample_latency(from, to, &mut self.rng) + extra_delay;
                    let seq = self.next_seq();
                    let at = completion + latency;
                    self.queue.push(Event {
                        at,
                        seq,
                        to_slot,
                        from,
                        msg,
                        is_timer: false,
                    });
                    if let Some(msg) = dup {
                        let latency =
                            self.network.sample_latency(from, to, &mut self.rng) + extra_delay;
                        let seq = self.next_seq();
                        let at = completion + latency;
                        self.queue.push(Event {
                            at,
                            seq,
                            to_slot,
                            from,
                            msg,
                            is_timer: false,
                        });
                    }
                }
                Output::Timer { delay, msg } => {
                    let seq = self.next_seq();
                    let at = completion + delay;
                    self.queue.push(Event {
                        at,
                        seq,
                        to_slot: from_slot,
                        from,
                        msg,
                        is_timer: true,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::ClientId;
    use std::any::Any;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
        Tick,
    }

    /// Sends `count` pings to a peer on start, counts pongs.
    struct Pinger {
        peer: NodeId,
        count: u32,
        pongs_received: Vec<u32>,
        completion_times: Vec<SimTime>,
    }

    impl Actor<Msg> for Pinger {
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            for i in 0..self.count {
                ctx.send(self.peer, Msg::Ping(i));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
            if let Msg::Pong(i) = msg {
                self.pongs_received.push(i);
                self.completion_times.push(ctx.now());
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Echoes pings as pongs, charging a fixed CPU cost per ping.
    struct Echoer {
        cpu_per_ping: Duration,
        handled: u32,
    }

    impl Actor<Msg> for Echoer {
        fn on_message(&mut self, ctx: &mut Context<Msg>, from: NodeId, msg: Msg) {
            if let Msg::Ping(i) = msg {
                self.handled += 1;
                ctx.charge(self.cpu_per_ping);
                ctx.send(from, Msg::Pong(i));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn client(n: u64) -> NodeId {
        NodeId::Client(ClientId(n))
    }

    fn build_ping_pong(
        seed: u64,
        net: NetworkConfig,
        count: u32,
        cores: u32,
        cpu: Duration,
    ) -> Simulation<Msg> {
        let mut sim = Simulation::new(seed, net);
        sim.add_node(
            client(1),
            NodeProps::default(),
            Box::new(Pinger {
                peer: client(2),
                count,
                pongs_received: Vec::new(),
                completion_times: Vec::new(),
            }),
        );
        sim.add_node(
            client(2),
            NodeProps::default().with_cores(cores),
            Box::new(Echoer {
                cpu_per_ping: cpu,
                handled: 0,
            }),
        );
        sim
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = build_ping_pong(1, NetworkConfig::lan(), 5, 1, Duration::from_micros(10));
        sim.run_until(SimTime::from_millis(10));
        let pinger: &Pinger = sim.actor(client(1)).expect("pinger exists");
        assert_eq!(pinger.pongs_received.len(), 5);
        let echoer: &Echoer = sim.actor(client(2)).expect("echoer exists");
        assert_eq!(echoer.handled, 5);
        assert_eq!(sim.metrics().messages_delivered, 10);
    }

    #[test]
    fn single_core_serializes_processing() {
        // 10 pings arrive nearly simultaneously; with one core and 100us per
        // ping, the last pong must come back at least ~1ms after the first.
        let mut sim = build_ping_pong(
            1,
            NetworkConfig::instant(),
            10,
            1,
            Duration::from_micros(100),
        );
        sim.run_until(SimTime::from_millis(50));
        let pinger: &Pinger = sim.actor(client(1)).expect("pinger");
        assert_eq!(pinger.pongs_received.len(), 10);
        let first = *pinger.completion_times.first().expect("non-empty");
        let last = *pinger.completion_times.last().expect("non-empty");
        assert!(
            last - first >= Duration::from_micros(850),
            "expected serialization, got spread {:?}",
            last - first
        );
        let m = sim.node_metrics(client(2)).expect("metrics");
        assert_eq!(m.cpu_busy, Duration::from_micros(1000));
        assert!(m.queue_wait > Duration::ZERO);
    }

    #[test]
    fn more_cores_reduce_latency() {
        let run = |cores: u32| {
            let mut sim = build_ping_pong(
                1,
                NetworkConfig::instant(),
                8,
                cores,
                Duration::from_micros(100),
            );
            sim.run_until(SimTime::from_millis(50));
            let pinger: &Pinger = sim.actor(client(1)).expect("pinger");
            *pinger.completion_times.last().expect("non-empty")
        };
        let one_core = run(1);
        let eight_cores = run(8);
        assert!(
            eight_cores < one_core,
            "8 cores {eight_cores:?} !< 1 core {one_core:?}"
        );
    }

    #[test]
    fn deterministic_under_same_seed() {
        let trace = |seed| {
            let mut sim =
                build_ping_pong(seed, NetworkConfig::lan(), 20, 2, Duration::from_micros(30));
            sim.run_until(SimTime::from_millis(20));
            let pinger: &Pinger = sim.actor(client(1)).expect("pinger");
            pinger.completion_times.clone()
        };
        assert_eq!(trace(7), trace(7));
        assert_ne!(
            trace(7),
            trace(8),
            "different seeds should differ in jitter"
        );
    }

    #[test]
    fn crashed_node_drops_messages() {
        let mut sim = build_ping_pong(1, NetworkConfig::lan(), 5, 1, Duration::ZERO);
        sim.crash(client(2));
        sim.run_until(SimTime::from_millis(10));
        let pinger: &Pinger = sim.actor(client(1)).expect("pinger");
        assert!(pinger.pongs_received.is_empty());
        assert_eq!(sim.metrics().messages_dropped, 5);
    }

    #[test]
    fn partition_blocks_and_heals() {
        struct PeriodicSender {
            peer: NodeId,
        }
        impl Actor<Msg> for PeriodicSender {
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                ctx.schedule_self(Duration::from_millis(1), Msg::Tick);
            }
            fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
                if msg == Msg::Tick {
                    ctx.send(self.peer, Msg::Ping(0));
                    ctx.schedule_self(Duration::from_millis(1), Msg::Tick);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut sim: Simulation<Msg> = Simulation::new(3, NetworkConfig::lan());
        sim.add_node(
            client(1),
            NodeProps::default(),
            Box::new(PeriodicSender { peer: client(2) }),
        );
        sim.add_node(
            client(2),
            NodeProps::default(),
            Box::new(Echoer {
                cpu_per_ping: Duration::ZERO,
                handled: 0,
            }),
        );
        let pidx = sim.add_partition(Partition::isolating([client(2)]));
        sim.partition_mut(pidx).expect("partition").activate();
        sim.run_until(SimTime::from_millis(10));
        let handled_during_partition = sim.actor::<Echoer>(client(2)).expect("echoer").handled;
        assert_eq!(handled_during_partition, 0);
        sim.partition_mut(pidx).expect("partition").heal();
        sim.run_until(SimTime::from_millis(20));
        assert!(sim.actor::<Echoer>(client(2)).expect("echoer").handled > 5);
    }

    #[test]
    fn clock_skew_shifts_local_clock() {
        struct ClockReader {
            readings: Vec<(SimTime, SimTime)>,
        }
        impl Actor<Msg> for ClockReader {
            fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, _msg: Msg) {
                self.readings.push((ctx.now(), ctx.local_clock()));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(3, NetworkConfig::instant());
        sim.add_node(
            client(1),
            NodeProps::default().with_skew_ns(2_000_000),
            Box::new(ClockReader { readings: vec![] }),
        );
        sim.inject(client(1), client(1), Msg::Tick, SimTime::from_millis(5));
        sim.run_until(SimTime::from_millis(10));
        let reader: &ClockReader = sim.actor(client(1)).expect("reader");
        let (global, local) = reader.readings[0];
        assert_eq!(local - global, Duration::from_millis(2));
    }

    #[test]
    fn lossy_network_drops_some_messages() {
        let mut sim = build_ping_pong(11, NetworkConfig::lossy(0.5), 100, 4, Duration::ZERO);
        sim.run_until(SimTime::from_millis(100));
        let pinger: &Pinger = sim.actor(client(1)).expect("pinger");
        assert!(pinger.pongs_received.len() < 100);
        assert!(sim.metrics().messages_dropped > 0);
    }

    #[test]
    fn run_until_stops_at_deadline_and_resumes() {
        let mut sim = build_ping_pong(1, NetworkConfig::lan(), 3, 1, Duration::ZERO);
        sim.run_until(SimTime::from_micros(10)); // too early for round trips
        let before = sim
            .actor::<Pinger>(client(1))
            .expect("pinger")
            .pongs_received
            .len();
        assert_eq!(before, 0);
        assert_eq!(sim.now(), SimTime::from_micros(10));
        sim.run_until(SimTime::from_millis(5));
        let after = sim
            .actor::<Pinger>(client(1))
            .expect("pinger")
            .pongs_received
            .len();
        assert_eq!(after, 3);
    }

    #[test]
    fn inject_delivers_external_messages() {
        let mut sim: Simulation<Msg> = Simulation::new(1, NetworkConfig::instant());
        sim.add_node(
            client(2),
            NodeProps::default(),
            Box::new(Echoer {
                cpu_per_ping: Duration::ZERO,
                handled: 0,
            }),
        );
        sim.inject(client(2), client(99), Msg::Ping(1), SimTime::from_millis(1));
        sim.run_until(SimTime::from_millis(2));
        assert_eq!(sim.actor::<Echoer>(client(2)).expect("echoer").handled, 1);
    }

    /// A timer far beyond the calendar ring's span must take the overflow
    /// path and still fire at the right time, after nearer events.
    #[test]
    fn far_future_timers_survive_the_overflow_path() {
        struct LongTimer {
            fired_at: Vec<SimTime>,
        }
        impl Actor<Msg> for LongTimer {
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                // Far beyond WHEEL_SLOTS * 2^BUCKET_BITS ns (~67 ms).
                ctx.schedule_self(Duration::from_millis(500), Msg::Tick);
                ctx.schedule_self(Duration::from_millis(250), Msg::Tick);
                ctx.schedule_self(Duration::from_micros(10), Msg::Tick);
            }
            fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, _msg: Msg) {
                self.fired_at.push(ctx.now());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(1, NetworkConfig::instant());
        sim.add_node(
            client(1),
            NodeProps::default(),
            Box::new(LongTimer { fired_at: vec![] }),
        );
        sim.run_until(SimTime::from_secs(1));
        let t: &LongTimer = sim.actor(client(1)).expect("timer actor");
        assert_eq!(
            t.fired_at,
            vec![
                SimTime::from_micros(10),
                SimTime::from_millis(250),
                SimTime::from_millis(500),
            ]
        );
    }

    use crate::network::{LinkFault, LinkFaultKind, NodeMatcher};

    #[test]
    fn link_fault_drop_blocks_only_inside_window() {
        struct PeriodicPinger {
            peer: NodeId,
        }
        impl Actor<Msg> for PeriodicPinger {
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                ctx.schedule_self(Duration::from_millis(1), Msg::Tick);
            }
            fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
                if msg == Msg::Tick {
                    ctx.send(self.peer, Msg::Ping(0));
                    ctx.schedule_self(Duration::from_millis(1), Msg::Tick);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(5, NetworkConfig::instant());
        sim.add_node(
            client(1),
            NodeProps::default(),
            Box::new(PeriodicPinger { peer: client(2) }),
        );
        sim.add_node(
            client(2),
            NodeProps::default(),
            Box::new(Echoer {
                cpu_per_ping: Duration::ZERO,
                handled: 0,
            }),
        );
        // Pings leave at 1, 2, ..., 9 ms; the window [2, 6) swallows the
        // ones at 2, 3, 4, 5 ms.
        sim.add_link_fault(LinkFault::new(
            LinkFaultKind::Drop { probability: 1.0 },
            NodeMatcher::Node(client(1)),
            NodeMatcher::Node(client(2)),
            SimTime::from_millis(2),
            SimTime::from_millis(6),
        ));
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.actor::<Echoer>(client(2)).expect("echoer").handled, 5);
        assert_eq!(sim.metrics().messages_dropped, 4);
    }

    #[test]
    fn link_fault_replay_duplicates_matching_messages() {
        let mut sim = build_ping_pong(1, NetworkConfig::lan(), 5, 2, Duration::ZERO);
        sim.add_link_fault(LinkFault::new(
            LinkFaultKind::Replay { probability: 1.0 },
            NodeMatcher::Node(client(1)),
            NodeMatcher::Node(client(2)),
            SimTime::ZERO,
            SimTime::from_secs(1),
        ));
        sim.run_until(SimTime::from_millis(10));
        // Every ping delivered twice; pongs are not matched by the fault.
        assert_eq!(sim.actor::<Echoer>(client(2)).expect("echoer").handled, 10);
        assert_eq!(sim.metrics().messages_replayed, 5);
        let pinger: &Pinger = sim.actor(client(1)).expect("pinger");
        assert_eq!(pinger.pongs_received.len(), 10);
    }

    #[test]
    fn link_fault_delay_adds_to_latency() {
        let mut sim = build_ping_pong(1, NetworkConfig::instant(), 1, 1, Duration::ZERO);
        sim.add_link_fault(LinkFault::new(
            LinkFaultKind::Delay {
                extra: Duration::from_millis(3),
            },
            NodeMatcher::Any,
            NodeMatcher::Node(client(2)),
            SimTime::ZERO,
            SimTime::from_secs(1),
        ));
        sim.run_until(SimTime::from_millis(10));
        let pinger: &Pinger = sim.actor(client(1)).expect("pinger");
        assert_eq!(pinger.pongs_received.len(), 1);
        assert!(
            pinger.completion_times[0] >= SimTime::from_millis(3),
            "ping delayed 3 ms: {:?}",
            pinger.completion_times[0]
        );
    }

    #[test]
    fn corrupt_without_corruptor_discards_as_detected_garble() {
        let mut sim = build_ping_pong(1, NetworkConfig::lan(), 5, 1, Duration::ZERO);
        sim.add_link_fault(LinkFault::new(
            LinkFaultKind::Corrupt { probability: 1.0 },
            NodeMatcher::Clients,
            NodeMatcher::Node(client(2)),
            SimTime::ZERO,
            SimTime::from_secs(1),
        ));
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.actor::<Echoer>(client(2)).expect("echoer").handled, 0);
        let m = sim.metrics();
        assert_eq!(m.messages_corrupted, 5);
        assert_eq!(m.messages_dropped, 5);
    }

    #[test]
    fn corrupt_with_corruptor_mutates_payload() {
        let mut sim = build_ping_pong(1, NetworkConfig::lan(), 3, 1, Duration::ZERO);
        sim.set_corruptor(std::sync::Arc::new(|msg: &mut Msg, _salt| {
            if let Msg::Ping(i) = msg {
                *i += 100;
            }
        }));
        sim.add_link_fault(LinkFault::new(
            LinkFaultKind::Corrupt { probability: 1.0 },
            NodeMatcher::Node(client(1)),
            NodeMatcher::Node(client(2)),
            SimTime::ZERO,
            SimTime::from_secs(1),
        ));
        sim.run_until(SimTime::from_millis(10));
        let mut pongs = sim
            .actor::<Pinger>(client(1))
            .expect("pinger")
            .pongs_received
            .clone();
        pongs.sort_unstable();
        assert_eq!(pongs, vec![100, 101, 102]);
        assert_eq!(sim.metrics().messages_corrupted, 3);
        assert_eq!(sim.metrics().messages_dropped, 0);
    }

    /// Events queued across many buckets and in the same bucket pop in
    /// strict (time, sequence) order — the global-heap equivalence the
    /// determinism contract promises.
    #[test]
    fn queue_pops_in_time_then_sequence_order() {
        struct Recorder {
            seen: Vec<(SimTime, u32)>,
        }
        impl Actor<Msg> for Recorder {
            fn on_message(&mut self, ctx: &mut Context<Msg>, _from: NodeId, msg: Msg) {
                if let Msg::Ping(i) = msg {
                    self.seen.push((ctx.now(), i));
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim: Simulation<Msg> = Simulation::new(1, NetworkConfig::instant());
        sim.add_node(
            client(1),
            NodeProps::default().with_cores(64),
            Box::new(Recorder { seen: vec![] }),
        );
        // Inject in scrambled time order, including same-time pairs (which
        // must deliver in injection order) and far-future outliers.
        let times: Vec<u64> = vec![900, 20, 20, 500_000_000, 100, 70_000_000, 100, 3];
        for (i, us) in times.iter().enumerate() {
            sim.inject(
                client(1),
                client(9),
                Msg::Ping(i as u32),
                SimTime::from_nanos(*us * 1_000),
            );
        }
        sim.run_until(SimTime::from_secs(600));
        let rec: &Recorder = sim.actor(client(1)).expect("recorder");
        let mut expected: Vec<(SimTime, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, us)| (SimTime::from_nanos(us * 1_000), i as u32))
            .collect();
        // Stable sort by time keeps same-time entries in injection
        // (sequence) order.
        expected.sort_by_key(|(at, _)| *at);
        assert_eq!(rec.seen, expected);
    }
}
