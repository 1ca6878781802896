//! The storage seam `BasilReplica` is generic over.
//!
//! The replica state machine reaches its store only through [`TxStore`],
//! whose surface is exactly the set of store calls the protocol makes. The
//! seam's one reason to exist is instrumentation: a caller can substitute a
//! store that wraps [`MvtsoStore`] and observes every call, as the
//! wall-clock benchmark's `TracedStore` does to time each store operation
//! from outside. With the default type parameter
//! (`BasilReplica<S = MvtsoStore>`) every call is statically dispatched and
//! inlines exactly as a direct call would.

use crate::mvtso::{CheckOutcome, MvtsoStore, ReadResult, StoreStats, Vote};
use crate::tx::Transaction;
use basil_common::{Duration, Key, SimTime, Timestamp, TxId, Value};
use std::sync::Arc;

/// The store operations a Basil replica performs (Algorithm 1 plus the
/// decision/GC lifecycle). See the module docs for the design intent.
pub trait TxStore: 'static {
    /// Creates a store preloaded with genesis versions at
    /// [`Timestamp::ZERO`].
    fn with_initial_data(data: impl IntoIterator<Item = (Key, Value)>) -> Self
    where
        Self: Sized;

    /// Serves a versioned read at `ts` and registers `ts` in the key's RTS
    /// set.
    fn read(&mut self, key: &Key, ts: Timestamp) -> ReadResult;

    /// Removes a read timestamp previously registered by
    /// [`TxStore::read`].
    fn remove_rts(&mut self, key: &Key, ts: Timestamp);

    /// Runs the MVTSO concurrency-control check (Algorithm 1) for `tx`.
    fn prepare(
        &mut self,
        tx: &Arc<Transaction>,
        local_clock: SimTime,
        delta: Duration,
    ) -> CheckOutcome;

    /// Applies a commit decision; returns deferred votes it released.
    fn commit(&mut self, tx: &Arc<Transaction>) -> Vec<(TxId, Vote)>;

    /// Applies an abort decision; returns deferred votes it released.
    fn abort(&mut self, txid: TxId) -> Vec<(TxId, Vote)>;

    /// Garbage-collects bookkeeping below `watermark` and raises the abort
    /// floor.
    fn gc_before(&mut self, watermark: Timestamp);

    /// The prepared transaction's shared metadata, if present.
    fn prepared_tx_shared(&self, txid: &TxId) -> Option<Arc<Transaction>>;

    /// The scan-free fast-path counters.
    fn store_stats(&self) -> StoreStats;
}

impl TxStore for MvtsoStore {
    fn with_initial_data(data: impl IntoIterator<Item = (Key, Value)>) -> Self {
        MvtsoStore::with_initial_data(data)
    }

    fn read(&mut self, key: &Key, ts: Timestamp) -> ReadResult {
        MvtsoStore::read(self, key, ts)
    }

    fn remove_rts(&mut self, key: &Key, ts: Timestamp) {
        MvtsoStore::remove_rts(self, key, ts)
    }

    fn prepare(
        &mut self,
        tx: &Arc<Transaction>,
        local_clock: SimTime,
        delta: Duration,
    ) -> CheckOutcome {
        MvtsoStore::prepare(self, tx, local_clock, delta)
    }

    fn commit(&mut self, tx: &Arc<Transaction>) -> Vec<(TxId, Vote)> {
        MvtsoStore::commit(self, tx)
    }

    fn abort(&mut self, txid: TxId) -> Vec<(TxId, Vote)> {
        MvtsoStore::abort(self, txid)
    }

    fn gc_before(&mut self, watermark: Timestamp) {
        MvtsoStore::gc_before(self, watermark)
    }

    fn prepared_tx_shared(&self, txid: &TxId) -> Option<Arc<Transaction>> {
        MvtsoStore::prepared_tx_shared(self, txid)
    }

    fn store_stats(&self) -> StoreStats {
        self.stats()
    }
}
