//! # basil-net
//!
//! The real-IO runtime: the *identical* protocol state machines the
//! simulator drives (`BasilReplica` / `BasilClient` from `basil-core`,
//! behind the `Actor` seam of `basil-simnet`) running as OS processes over
//! localhost TCP. Nothing in the protocol crates changes — this crate
//! supplies the world around the seam:
//!
//! * [`wire`] — a length-prefixed, checksummed frame codec for every
//!   [`basil_core::BasilMsg`], reusing the memoized canonical transaction
//!   encoding. Decoding is total: malformed input is a typed error (a peer
//!   fault), never a panic.
//! * [`conn`] — the TCP connection manager: per-peer bounded outbound
//!   queues (full queue ⇒ shed + count, never block), connect/read
//!   timeouts, and deterministic-jitter exponential backoff reconnects. A
//!   dead or partitioned peer degrades throughput; it cannot wedge the
//!   node.
//! * [`runtime`] — the single-node event loop: wall-clock time against a
//!   deployment-wide epoch, a real timer heap, loopback self-sends, and a
//!   post-event persistence hook that appends `take_wal_bytes()` to a real
//!   WAL file with write-ahead ordering.
//! * [`node`] — process assembly for the `basil-node` binary: address
//!   book, key derivation identical to the simulator harness, WAL-file
//!   recovery through `BasilReplica::recover`, and the results file the
//!   supervisor harvests.
//! * [`supervisor`] — the process-cluster harness: spawns an n = 6 / f = 1
//!   deployment, SIGKILLs a replica mid-run, restarts it over the surviving
//!   WAL file (driving real `CatchUpRequest` traffic), and runs the same
//!   serializability + decision-agreement audit as the simulator
//!   ([`basil::audit_history`]) over the collected results.
//!
//! The division of labor with the simulator is deliberate: the simulator
//! owns semantic coverage (deterministic schedules, fault matrices,
//! golden digests), while this crate proves the same state machines
//! survive contact with real sockets, real clocks, real files, and real
//! `kill -9`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod conn;
pub mod node;
pub mod runtime;
pub mod supervisor;
pub mod wire;

pub use conn::{reconnect_backoff, ConnManager, ConnOptions, NetStats};
pub use node::{NodeConfig, Role};
pub use runtime::{Clock, NodeRuntime};
pub use supervisor::{run_cluster, ClusterOutcome, KillPlan, SupervisorConfig};
pub use wire::{decode_frame_payload, encode_msg, FrameReader, WireError};
