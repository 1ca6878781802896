//! The single-node event loop: drives one unmodified [`Actor`] from real
//! time and real sockets.
//!
//! This is the real-IO counterpart of the simulator's scheduler. The actor
//! cannot tell the difference — it sees the same [`Context`] callbacks —
//! but here:
//!
//! * **Time** is the wall clock, expressed as nanoseconds since a
//!   deployment-wide epoch that the supervisor passes to every process.
//!   All processes on the host share one clock, so `Context::at(now, now)`
//!   is exact: there is no injected skew to model.
//! * **Sends** are encoded and handed to the [`ConnManager`]; self-sends
//!   loop back through an in-process queue (the simulator's loopback
//!   latency collapses to "immediately after the current handler").
//! * **Timers** go into a real binary heap keyed by due time; the loop
//!   sleeps on the inbound channel with a timeout equal to the next due
//!   timer.
//! * **CPU charges** are ignored: real execution takes however long it
//!   takes.
//!
//! After every handler the runtime runs a caller-provided *persistence
//! hook*; the replica role uses it to drain `take_wal_bytes()` to the WAL
//! file before any subsequent handler can observe the state the records
//! describe (write-ahead discipline across a real crash).

use crate::conn::ConnManager;
use crate::wire::encode_msg;
use basil_common::{NodeId, SimTime};
use basil_core::messages::BasilMsg;
use basil_simnet::actor::Output;
use basil_simnet::{Actor, Context};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// A deployment-wide time base: wall-clock nanoseconds since a shared epoch.
///
/// The supervisor picks the epoch once (just before spawning) and passes it
/// to every process, so timestamps minted by different processes are
/// directly comparable — the same property the simulator gets from its
/// global clock.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    epoch_unix_nanos: u64,
}

impl Clock {
    /// A clock counting from `epoch_unix_nanos` (UNIX nanoseconds).
    pub fn new(epoch_unix_nanos: u64) -> Self {
        Clock { epoch_unix_nanos }
    }

    /// The current UNIX time in nanoseconds (for supervisors minting an
    /// epoch).
    pub fn unix_now_nanos() -> u64 {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0)
    }

    /// Now, as deployment time. Saturates at zero for processes started
    /// marginally before the epoch (the supervisor sets the epoch first,
    /// so in practice this is always positive).
    pub fn now(&self) -> SimTime {
        SimTime(Self::unix_now_nanos().saturating_sub(self.epoch_unix_nanos))
    }
}

/// A scheduled timer: ordered by due time, FIFO within a tick.
struct TimerEntry {
    due: SimTime,
    seq: u64,
    msg: BasilMsg,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// Runs after every handler with the actor and a flag saying whether the
/// handler ran (used for WAL persistence; see module docs).
pub type PostEventHook = Box<dyn FnMut(&mut dyn Actor<BasilMsg>)>;

/// The event loop for one node process.
pub struct NodeRuntime {
    self_id: NodeId,
    actor: Box<dyn Actor<BasilMsg>>,
    clock: Clock,
    conn: Arc<ConnManager>,
    inbound: Receiver<(NodeId, BasilMsg)>,
    timers: BinaryHeap<TimerEntry>,
    loopback: VecDeque<(NodeId, BasilMsg)>,
    timer_seq: u64,
    post_event: Option<PostEventHook>,
}

impl NodeRuntime {
    /// Wraps `actor` for execution. `inbound` is the event channel returned
    /// by [`ConnManager::start`].
    pub fn new(
        self_id: NodeId,
        actor: Box<dyn Actor<BasilMsg>>,
        clock: Clock,
        conn: Arc<ConnManager>,
        inbound: Receiver<(NodeId, BasilMsg)>,
    ) -> Self {
        NodeRuntime {
            self_id,
            actor,
            clock,
            conn,
            inbound,
            timers: BinaryHeap::new(),
            loopback: VecDeque::new(),
            timer_seq: 0,
            post_event: None,
        }
    }

    /// Installs the persistence hook run after every handler.
    pub fn set_post_event(&mut self, hook: PostEventHook) {
        self.post_event = Some(hook);
    }

    /// Drives the actor until deployment time reaches `deadline`, then
    /// returns it for harvesting (stats, store contents, WAL bytes).
    ///
    /// The loop: fire due timers, then wait on the socket channel until the
    /// next timer is due (bounded by a short idle tick so the deadline is
    /// always observed promptly).
    pub fn run_until(mut self, deadline: SimTime) -> Box<dyn Actor<BasilMsg>> {
        // on_start, like the simulator, runs before any delivery. A replica
        // built through `BasilReplica::recover` broadcasts its real
        // CatchUpRequest traffic here.
        let mut ctx = Context::at(self.self_id, self.clock.now());
        self.actor.on_start(&mut ctx);
        self.apply(ctx);
        self.drain_loopback();

        loop {
            let now = self.clock.now();
            if now >= deadline {
                return self.actor;
            }
            self.fire_due_timers(now);
            self.drain_loopback();

            let wait = self.next_wait(deadline);
            match self.inbound.recv_timeout(wait) {
                Ok((from, msg)) => {
                    self.dispatch(from, msg);
                    // Opportunistically drain whatever else arrived, so a
                    // burst does not pay one recv_timeout per message.
                    while let Ok((from, msg)) = self.inbound.try_recv() {
                        self.dispatch(from, msg);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return self.actor,
            }
        }
    }

    /// How long to sleep on the inbound channel: until the next timer, the
    /// deadline, or a 10 ms idle tick, whichever is soonest.
    fn next_wait(&self, deadline: SimTime) -> Duration {
        let now = self.clock.now();
        let mut wait_nanos: u64 = 10_000_000;
        if let Some(t) = self.timers.peek() {
            wait_nanos = wait_nanos.min(t.due.0.saturating_sub(now.0));
        }
        wait_nanos = wait_nanos.min(deadline.0.saturating_sub(now.0));
        Duration::from_nanos(wait_nanos.max(100_000))
    }

    /// Fires every timer due at or before `now`.
    fn fire_due_timers(&mut self, now: SimTime) {
        while self.timers.peek().is_some_and(|t| t.due <= now) {
            let entry = self.timers.pop().expect("peeked");
            let mut ctx = Context::at(self.self_id, self.clock.now());
            self.actor.on_timer(&mut ctx, entry.msg);
            self.apply(ctx);
        }
    }

    /// Delivers one inbound (or loopback) message.
    fn dispatch(&mut self, from: NodeId, msg: BasilMsg) {
        let mut ctx = Context::at(self.self_id, self.clock.now());
        self.actor.on_message(&mut ctx, from, msg);
        self.apply(ctx);
        self.drain_loopback();
    }

    /// Self-sends deliver in order, immediately after the handler that
    /// produced them (and any they produce in turn).
    fn drain_loopback(&mut self) {
        while let Some((from, msg)) = self.loopback.pop_front() {
            let mut ctx = Context::at(self.self_id, self.clock.now());
            self.actor.on_message(&mut ctx, from, msg);
            self.apply(ctx);
        }
    }

    /// Applies a finished handler's outputs and runs the persistence hook.
    fn apply(&mut self, ctx: Context<BasilMsg>) {
        let (outputs, _charged) = ctx.finish();
        // Persist (WAL) *before* acting on the outputs: a record must be
        // durable before any message built on it can leave the node.
        if let Some(hook) = self.post_event.as_mut() {
            hook(self.actor.as_mut());
        }
        for output in outputs {
            match output {
                Output::Send { to, msg } => {
                    if to == self.self_id {
                        self.loopback.push_back((to, msg));
                    } else {
                        // Timer variants never reach here (they go through
                        // schedule_self); treat an encode failure as a
                        // shed, not a crash.
                        if let Ok(frame) = encode_msg(self.self_id, &msg) {
                            self.conn.send_frame(to, frame);
                        }
                    }
                }
                Output::Timer { delay, msg } => {
                    self.timer_seq += 1;
                    self.timers.push(TimerEntry {
                        due: SimTime(self.clock.now().0.saturating_add(delay.0)),
                        seq: self.timer_seq,
                        msg,
                    });
                }
            }
        }
    }
}
