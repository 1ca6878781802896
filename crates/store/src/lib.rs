//! # basil-store
//!
//! The multiversioned storage substrate of the Basil reproduction.
//!
//! Basil modifies multiversioned timestamp ordering (MVTSO) to run under
//! Byzantine faults (Section 4). This crate implements the storage-engine
//! half of that design, independent of networking and quorums:
//!
//! * [`tx`] — the transaction representation: timestamp, read set (with the
//!   versions read), buffered write set, dependency set, and the
//!   hash-derived transaction identifier.
//! * [`mvtso`] — the per-replica storage engine: committed version chains,
//!   prepared (visible but uncommitted) writes, read timestamps (RTS),
//!   the concurrency-control check of **Algorithm 1**, and dependency
//!   tracking with deferred votes ("wait for all pending dependencies").
//! * [`varray`] — the flattened, timestamp-sorted version arrays backing the
//!   store's per-key records (append-mostly `Vec`s with binary-search range
//!   queries; the watermark/generation fast path of
//!   [`mvtso::MvtsoStore::prepare`] is built on their `O(1)` tails).
//! * [`txstore`] — the [`txstore::TxStore`] seam `BasilReplica` is generic
//!   over, so a caller can substitute an instrumented store.
//! * [`occ`] — a classic backward-validation OCC check used by the baseline
//!   systems (TxHotstuff / TxBFT-SMaRt / TAPIR-style) in the evaluation.
//! * [`audit`] — a serialization-graph auditor used by tests to verify that
//!   every committed history is acyclic (Byz-serializability, Lemma 1).
//! * [`wal`] — a simulated durable write-ahead log: checksum-framed records
//!   of prepares, decisions, applies, and GC watermarks, with torn-tail
//!   tolerant recovery. Replicas replay it after an *amnesia* restart.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod mvtso;
pub mod occ;
#[cfg(test)]
mod reference;
pub mod tx;
pub mod txstore;
pub mod varray;
pub mod wal;

pub use audit::{audit_serializability, AuditError};
pub use mvtso::{CheckOutcome, MvtsoStore, ReadResult, StoreStats, Vote};
pub use tx::{Dependency, ReadOp, Transaction, TransactionBuilder, WriteOp};
pub use txstore::TxStore;
pub use varray::{ReaderSummary, VersionArray};
pub use wal::{Wal, WalRecord};
