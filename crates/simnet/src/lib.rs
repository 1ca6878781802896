//! # basil-simnet
//!
//! A deterministic discrete-event cluster simulator.
//!
//! The Basil reproduction runs its protocols — Basil itself and all the
//! baselines — as *sans-io state machines* (see `basil-core`), and this crate
//! provides the cluster they run on: an event queue, a network model with
//! configurable latency, jitter, loss, and partitions, per-node CPU
//! accounting with a configurable core count, and per-node clock skew.
//!
//! ## Why a simulator
//!
//! The paper's evaluation ran on a CloudLab cluster; its claims are about
//! *relative* behaviour (Basil vs the baselines, fast path vs slow path,
//! batching, graceful degradation under Byzantine clients). Reproducing those
//! shapes requires faithfully modelling the two bottlenecks the paper
//! identifies — CPU time spent on cryptography and contention amplified by
//! latency — which the simulator does by charging signature/verification
//! costs to node CPUs (the `basil-crypto` cost model) and by delivering
//! messages with CloudLab-like latencies. Determinism (a seeded RNG drives
//! all jitter and loss) makes every experiment and test reproducible.
//!
//! ## Model
//!
//! * Each node ([`NodeProps`]) has `cores` CPU lanes and a clock skew.
//! * A message delivered to a node waits until a core is free, then its
//!   handler runs; the CPU time the handler charges (via
//!   [`Context::charge`]) occupies that core and delays the handler's
//!   outputs, so overloaded nodes queue work and throughput saturates.
//! * Actors communicate only through messages and self-scheduled
//!   timers ([`Context::schedule_self`]); they never share memory.
//! * The harness can inject messages from the outside and inspect actors
//!   through [`Simulation::actor`] / [`Simulation::actor_mut`].
//!
//! ## Key types
//!
//! * [`Simulation`] — the event loop: dense actor slots, the calendar
//!   event queue, the network model, and the seeded RNG.
//! * [`Actor`] / [`Context`] — the sans-io state-machine interface.
//! * [`NodeProps`] — per-node cores and clock skew.
//! * [`NetworkConfig`] / [`Partition`] — latency, jitter, loss, and
//!   fault-injection partitions.
//! * [`Metrics`] / [`NodeMetrics`] — counters assembled on demand from the
//!   per-slot records.
//!
//! ## Seed and determinism contract
//!
//! A `Simulation` constructed with the same seed, the same actors (added in
//! the same order), and driven by the same `run_until`/`step` calls
//! delivers the *identical* event sequence: events pop in strict
//! `(time, sequence-number)` order, sequence numbers are assigned in
//! deterministic send order, and all jitter/loss randomness comes from the
//! one seeded RNG. The scheduler implementation is free to change (it has:
//! global heap → indexed calendar queue, see [`sim`]) but must preserve
//! this order bit-for-bit; `tests/golden_trace.rs` pins it with a trace
//! hash captured before the rewrite.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod actor;
pub mod metrics;
pub mod network;
pub mod sim;

pub use actor::{Actor, Context};
pub use metrics::{Metrics, NodeMetrics};
pub use network::{LinkFault, LinkFaultKind, NetworkConfig, NodeMatcher, Partition};
pub use sim::{Corruptor, NodeProps, Simulation};
