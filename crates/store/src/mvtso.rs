//! The per-replica MVTSO storage engine and the concurrency-control check of
//! Algorithm 1.
//!
//! Each Basil replica holds one [`MvtsoStore`] for its shard's key range. The
//! store tracks, per key, one flat `KeyRecord`:
//!
//! * the chain of **committed** versions,
//! * the **prepared** (visible but uncommitted) writes of transactions that
//!   passed the concurrency-control check,
//! * the read timestamps (**RTS**) left behind by execution-phase reads, and
//! * the reads performed by prepared and committed transactions.
//!
//! All four indexes are timestamp-sorted [`VersionArray`]s (flat `Vec`s,
//! append-mostly) rather than per-key `BTreeMap`s, and every record carries a
//! **generation stamp** plus two watermarks — the largest write timestamp and
//! the largest read timestamp currently present. The watermarks let
//! [`MvtsoStore::prepare`] answer the common no-conflict case with two integer
//! comparisons per key and no scan at all; the generation stamp counts record
//! mutations and pins the watermarks' freshness (every mutation bumps it, and
//! any removal that could lower a watermark recomputes the watermark from the
//! array tails in `O(1)`). [`MvtsoStore::stats`] reports the fast-path hit
//! rate. See `docs/ARCHITECTURE.md` ("Store layout & conflict windows").
//!
//! [`MvtsoStore::prepare`] implements Algorithm 1 of the paper. Step 7 of the
//! algorithm ("wait for all pending dependencies") is realised without
//! blocking: if some dependencies of the transaction have no decision yet the
//! check returns [`CheckOutcome::Pending`], and the replica defers its vote
//! until [`MvtsoStore::commit`] / [`MvtsoStore::abort`] of the dependencies
//! release it (the returned wake-ups carry the final vote).
//!
//! One deviation from the paper's text is documented inline: a dependency the
//! replica has *never heard of* (its `ST1` has not arrived, e.g. due to
//! message reordering) is treated as pending rather than invalid, which
//! avoids spurious aborts during fault-free executions while preserving
//! safety (the vote is still withheld until the dependency's fate is known).

use crate::tx::{Dependency, Transaction};
use crate::varray::{ReaderSummary, VersionArray};
use basil_common::error::AbortReason;
use basil_common::{Duration, FastHashMap, FastHashSet, Key, SimTime, Timestamp, TxId, Value};
use std::sync::Arc;

/// A replica's vote on whether committing a transaction preserves
/// serializability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Vote {
    /// The transaction may commit.
    Commit,
    /// The transaction must abort, for the given reason.
    Abort(AbortReason),
}

impl Vote {
    /// True for [`Vote::Commit`].
    pub fn is_commit(&self) -> bool {
        matches!(self, Vote::Commit)
    }
}

/// Result of running the concurrency-control check for a transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The vote is known immediately.
    Decided(Vote),
    /// The transaction is prepared, but the vote is withheld until every
    /// listed dependency reaches a decision on this replica.
    Pending {
        /// Dependencies whose decision this replica has not yet learned.
        waiting_on: Vec<TxId>,
    },
}

/// The final, durable decision for a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Decision {
    /// The transaction committed.
    Commit,
    /// The transaction aborted.
    Abort,
}

/// The latest committed version of a key visible to a given timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommittedVersion {
    /// Timestamp of the transaction that wrote the version.
    pub version: Timestamp,
    /// The value written.
    pub value: Value,
    /// Identifier of the writing transaction.
    pub txid: TxId,
}

/// The latest prepared (uncommitted) version of a key visible to a timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedVersion {
    /// Timestamp of the preparing transaction.
    pub version: Timestamp,
    /// The value it intends to write.
    pub value: Value,
    /// Identifier of the preparing transaction.
    pub txid: TxId,
    /// That transaction's own dependency set (`Dep_T'`), which the reader
    /// needs in order to understand what must commit before its dependency
    /// can.
    pub deps: Vec<Dependency>,
}

/// Reply to a versioned read: the newest committed and newest prepared
/// versions with timestamps strictly smaller than the reader's timestamp.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadResult {
    /// Newest committed version visible to the reader, if any.
    pub committed: Option<CommittedVersion>,
    /// Newest prepared version visible to the reader, if any.
    pub prepared: Option<PreparedVersion>,
}

/// Counters for the scan-free prepare fast path (see module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Prepare calls that ran the full concurrency-control pipeline (i.e.
    /// were not answered from the duplicate-delivery memo).
    pub prepares: u64,
    /// Per-key conflict checks answered by the watermark comparison alone.
    pub fast_path_checks: u64,
    /// Per-key conflict checks that fell past the watermark (the slow
    /// path). A subset of these still avoid the ordered reader scan via the
    /// Bloom-style reader summary — see `reader_scan_skips`.
    pub slow_path_checks: u64,
    /// Slow-path write checks whose invalidated-reader scan was skipped
    /// because the per-key reader summary proved no reader interval covers
    /// the write's timestamp.
    pub reader_scan_skips: u64,
}

impl StoreStats {
    /// Fraction of per-key checks answered without a scan (1.0 when no
    /// checks ran yet).
    pub fn fast_path_hit_rate(&self) -> f64 {
        let total = self.fast_path_checks + self.slow_path_checks;
        if total == 0 {
            return 1.0;
        }
        self.fast_path_checks as f64 / total as f64
    }

    /// Adds another store's counters into this one (harness aggregation).
    pub fn merge(&mut self, other: &StoreStats) {
        self.prepares += other.prepares;
        self.fast_path_checks += other.fast_path_checks;
        self.slow_path_checks += other.slow_path_checks;
        self.reader_scan_skips += other.reader_scan_skips;
    }
}

/// All concurrency-control state of one key, flattened into a single record
/// (one cache-friendly map lookup per key per check instead of five).
#[derive(Debug, Default)]
struct KeyRecord {
    /// Committed versions, sorted by writer timestamp.
    committed: VersionArray<(TxId, Value)>,
    /// Prepared (visible, uncommitted) writes, sorted by writer timestamp.
    prepared: VersionArray<TxId>,
    /// Reads of committed transactions: reader timestamp -> version read.
    committed_reads: VersionArray<Timestamp>,
    /// Reads of prepared transactions: reader timestamp -> version read.
    prepared_reads: VersionArray<Timestamp>,
    /// Read timestamps left by execution-phase reads (set semantics).
    rts: VersionArray<()>,
    /// Mutation counter: bumped on every insert/remove touching this record.
    /// The watermarks below are exact as of this generation.
    generation: u64,
    /// Largest committed-or-prepared write timestamp present.
    max_write: Timestamp,
    /// Largest read timestamp present across committed reads, prepared
    /// reads, and RTS entries.
    max_read: Timestamp,
    /// Bloom-style cover of the `(version read, reader)` intervals in
    /// `committed_reads` and `prepared_reads`. A clear bucket proves no
    /// reader can be invalidated by a write at that timestamp, skipping the
    /// ordered scans of check (5); rebuilt after GC drains a prefix.
    reader_summary: ReaderSummary,
}

impl KeyRecord {
    /// Records a write at `ts` into the watermarks.
    fn note_write(&mut self, ts: Timestamp) {
        self.generation += 1;
        if ts > self.max_write {
            self.max_write = ts;
        }
    }

    /// Records a read at `ts` into the watermarks.
    fn note_read(&mut self, ts: Timestamp) {
        self.generation += 1;
        if ts > self.max_read {
            self.max_read = ts;
        }
    }

    /// Recomputes the write watermark from the array tails (`O(1)`), after a
    /// removal that may have lowered it.
    fn refresh_write_watermark(&mut self) {
        self.max_write = self
            .committed
            .max_ts()
            .into_iter()
            .chain(self.prepared.max_ts())
            .max()
            .unwrap_or(Timestamp::ZERO);
    }

    /// True when every index is empty: the record carries no state a fresh
    /// `KeyRecord::default()` would not, so it can be dropped from the map.
    fn is_unused(&self) -> bool {
        self.committed.is_empty()
            && self.prepared.is_empty()
            && self.committed_reads.is_empty()
            && self.prepared_reads.is_empty()
            && self.rts.is_empty()
    }

    /// Recomputes the read watermark from the array tails (`O(1)`), after a
    /// removal that may have lowered it.
    fn refresh_read_watermark(&mut self) {
        self.max_read = self
            .committed_reads
            .max_ts()
            .into_iter()
            .chain(self.prepared_reads.max_ts())
            .chain(self.rts.max_ts())
            .max()
            .unwrap_or(Timestamp::ZERO);
    }

    /// Records a read of `version` performed at `reader` in the summary.
    fn cover_read(&mut self, version: Timestamp, reader: Timestamp) {
        self.reader_summary.cover(version, reader);
    }

    /// Recomputes the reader summary from the surviving reader entries.
    /// Removals never clear summary bits (Bloom semantics), so GC calls this
    /// after draining a prefix to stop stale covers from forcing scans.
    fn rebuild_reader_summary(&mut self) {
        self.reader_summary.clear();
        for (reader, version) in self
            .committed_reads
            .iter()
            .chain(self.prepared_reads.iter())
        {
            self.reader_summary.cover(*version, *reader);
        }
    }
}

/// The multiversioned store of a single replica.
///
/// Per-key state lives in one `Key -> KeyRecord` map; per-transaction state
/// (metadata, decisions, dependency wait graph) in `TxId`-keyed maps. Both
/// key kinds are uniform and attacker-independent ([`Key`]s are short
/// workload strings, [`TxId`]s SHA-256 digests), so the maps use
/// `basil_common::fasthash` instead of SipHash (see that module for the
/// threat-model note).
#[derive(Debug, Default)]
pub struct MvtsoStore {
    /// Per-key records live in an **arena**: the hash table maps a key to a
    /// `u32` slot in `key_records`, and freed slots are recycled through
    /// `free_records`. Storing ~160-byte records inline in the table made
    /// every probe, insert, and rehash drag whole records through the cache
    /// (measured ~1 µs per map operation on the 96-client bench's ~50k-key
    /// working set); with 4-byte values the table stays small and hot, the
    /// records are reached by direct indexing, and — because an index,
    /// unlike a map entry reference, can be *saved* — the prepare pipeline
    /// resolves each key once and reuses the slot for both the conflict
    /// check and the prepared-index insert.
    key_index: FastHashMap<Key, u32>,
    /// The record arena (`key_index` values point here).
    key_records: Vec<KeyRecord>,
    /// Recycled arena slots (records released by GC or RTS removal).
    free_records: Vec<u32>,
    /// Scratch: per-prepare resolved arena slots for the read/write sets
    /// (`u32::MAX` = key unknown at check time). Reused across calls to
    /// avoid an allocation per prepare; never observable state.
    scratch_reads: Vec<u32>,
    /// Scratch for the write set (see `scratch_reads`).
    scratch_writes: Vec<u32>,
    /// Metadata of committed transactions (needed for the read-write checks
    /// and for the serializability audit). `Arc`-shared so the prepared
    /// entry is promoted on commit without copying, and so audits can
    /// borrow instead of cloning the whole history.
    committed_txs: FastHashMap<TxId, Arc<Transaction>>,
    /// Metadata of prepared (visible, uncommitted) transactions.
    prepared_txs: FastHashMap<TxId, Arc<Transaction>>,
    /// Final decisions known to this replica.
    decisions: FastHashMap<TxId, Decision>,
    /// Aborted transactions (subset view of `decisions`, kept for fast checks).
    aborted: FastHashSet<TxId>,
    /// Transactions whose vote is withheld, with the dependencies still
    /// missing a decision.
    pending: FastHashMap<TxId, FastHashSet<TxId>>,
    /// Reverse index: dependency -> transactions waiting on it.
    waiters: FastHashMap<TxId, Vec<TxId>>,
    /// Highest watermark any [`MvtsoStore::gc_before`] sweep has used.
    /// Conflict evidence at or below it is gone, so prepares timestamped
    /// there must be refused (see the GC floor in `prepare`).
    gc_watermark: Timestamp,
    /// Fast-path counters.
    stats: StoreStats,
}

/// Sentinel for "key had no record when the check pass resolved it".
const NO_SLOT: u32 = u32::MAX;

impl MvtsoStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The record of `key`, if one exists.
    fn key_rec(&self, key: &Key) -> Option<&KeyRecord> {
        self.key_index
            .get(key)
            .map(|i| &self.key_records[*i as usize])
    }

    /// Mutable access to the record of `key`, if one exists.
    fn key_rec_mut(&mut self, key: &Key) -> Option<(u32, &mut KeyRecord)> {
        let idx = *self.key_index.get(key)?;
        Some((idx, &mut self.key_records[idx as usize]))
    }

    /// The arena slot of `key`, creating an empty record if needed.
    fn intern_key(&mut self, key: &Key) -> u32 {
        if let Some(idx) = self.key_index.get(key) {
            return *idx;
        }
        let idx = match self.free_records.pop() {
            Some(free) => free,
            None => {
                let idx = u32::try_from(self.key_records.len()).expect("fewer than 2^32 keys");
                assert!(idx != NO_SLOT, "key arena exhausted");
                self.key_records.push(KeyRecord::default());
                idx
            }
        };
        self.key_index.insert(key.clone(), idx);
        idx
    }

    /// Drops `key`'s (empty) record: the slot is reset and recycled.
    fn release_key(&mut self, key: &Key, idx: u32) {
        self.key_index.remove(key);
        self.key_records[idx as usize] = KeyRecord::default();
        self.free_records.push(idx);
    }

    /// Creates a store preloaded with initial data. The initial versions are
    /// committed at [`Timestamp::ZERO`] by a synthetic "genesis" transaction.
    pub fn with_initial_data(data: impl IntoIterator<Item = (Key, Value)>) -> Self {
        let mut store = Self::new();
        for (key, value) in data {
            store.load_initial(key, value);
        }
        store
    }

    /// Loads one more initial key (same semantics as
    /// [`MvtsoStore::with_initial_data`]).
    pub fn load_initial(&mut self, key: Key, value: Value) {
        let idx = self.intern_key(&key);
        let rec = &mut self.key_records[idx as usize];
        rec.committed
            .insert(Timestamp::ZERO, (TxId::default(), value));
        rec.note_write(Timestamp::ZERO);
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Serves a versioned read at timestamp `ts` and records `ts` in the
    /// key's RTS set (Section 4.1, replica read logic step 2).
    pub fn read(&mut self, key: &Key, ts: Timestamp) -> ReadResult {
        let idx = self.intern_key(key);
        let rec = &mut self.key_records[idx as usize];
        rec.rts.insert(ts, ());
        rec.note_read(ts);
        self.read_at_slot(idx, key, ts)
    }

    /// Serves a versioned read without registering an RTS (used when
    /// re-serving a retried read that already registered one).
    pub fn read_without_rts(&self, key: &Key, ts: Timestamp) -> ReadResult {
        match self.key_index.get(key) {
            Some(idx) => self.read_at_slot(*idx, key, ts),
            None => ReadResult::default(),
        }
    }

    /// The versioned-read logic against an already-resolved arena slot (so
    /// `read` pays one key lookup, not two).
    fn read_at_slot(&self, idx: u32, key: &Key, ts: Timestamp) -> ReadResult {
        let rec = &self.key_records[idx as usize];
        let committed = rec
            .committed
            .latest_before(ts)
            .map(|(version, (txid, value))| CommittedVersion {
                version: *version,
                value: value.clone(),
                txid: *txid,
            });
        let prepared = rec.prepared.latest_before(ts).and_then(|(version, txid)| {
            self.prepared_txs.get(txid).map(|tx| PreparedVersion {
                version: *version,
                value: tx.written_value(key).cloned().unwrap_or_else(Value::empty),
                txid: *txid,
                deps: tx.deps().to_vec(),
            })
        });
        ReadResult {
            committed,
            prepared,
        }
    }

    /// Removes a read timestamp previously registered by [`MvtsoStore::read`]
    /// (client-initiated `Abort()` during the execution phase).
    pub fn remove_rts(&mut self, key: &Key, ts: Timestamp) {
        let mut unused = None;
        if let Some((idx, rec)) = self.key_rec_mut(key) {
            if rec.rts.remove(ts).is_some() {
                rec.generation += 1;
                if ts == rec.max_read {
                    rec.refresh_read_watermark();
                }
                if rec.is_unused() {
                    unused = Some(idx);
                }
            }
        }
        // Reads of never-written keys create a record only to hold the RTS;
        // releasing the last piece of state releases the record too.
        if let Some(idx) = unused {
            self.release_key(key, idx);
        }
    }

    /// The newest committed value of a key (used by examples and tests to
    /// inspect final state).
    pub fn latest_committed(&self, key: &Key) -> Option<(Timestamp, Value)> {
        self.key_rec(key)
            .and_then(|rec| rec.committed.last())
            .map(|(ts, (_, value))| (*ts, value.clone()))
    }

    // ------------------------------------------------------------------
    // Algorithm 1: the concurrency-control check
    // ------------------------------------------------------------------

    /// Runs the MVTSO concurrency-control check (Algorithm 1) for `tx`.
    ///
    /// `local_clock` and `delta` implement the timestamp acceptance window of
    /// lines 1-2. On success the transaction is added to the prepared set and
    /// becomes visible to subsequent reads. The transaction arrives as the
    /// `Arc` the `ST1` message carries, so indexing it shares the allocation
    /// instead of deep-copying the read/write sets per prepare.
    ///
    /// The per-key conflict checks first consult the record watermarks (see
    /// module docs): a read that observed the key's newest write and a write
    /// above the key's newest read pass with two integer comparisons. Only
    /// keys whose conflict window is non-trivially populated fall through to
    /// the ordered binary-search scans, whose verdicts are bit-identical to
    /// the original nested-`BTreeMap` implementation (property-tested in
    /// `reference.rs`).
    pub fn prepare(
        &mut self,
        tx: &Arc<Transaction>,
        local_clock: SimTime,
        delta: Duration,
    ) -> CheckOutcome {
        let txid = tx.id();

        // A transaction we already know the fate of keeps that fate.
        if let Some(decision) = self.decisions.get(&txid) {
            return CheckOutcome::Decided(match decision {
                Decision::Commit => Vote::Commit,
                Decision::Abort => Vote::Abort(AbortReason::Conflict),
            });
        }
        // Re-delivery of a prepare we are still waiting on.
        if let Some(missing) = self.pending.get(&txid) {
            return CheckOutcome::Pending {
                waiting_on: missing.iter().copied().collect(),
            };
        }
        // Re-delivery of a prepare we already voted to commit.
        if self.prepared_txs.contains_key(&txid) {
            return CheckOutcome::Decided(Vote::Commit);
        }

        self.stats.prepares += 1;

        // (1) Timestamp bound: ts_T <= localClock + delta.
        if tx.timestamp().exceeds_bound(local_clock, delta) {
            return CheckOutcome::Decided(Vote::Abort(AbortReason::TimestampOutOfBounds));
        }

        // (1b) GC floor: read records and superseded versions at or below the
        // GC watermark have been discarded, so the checks below could no
        // longer see a conflict there. A transaction backdated into that
        // region must abort — otherwise a Byzantine (or badly skewed) client
        // could commit a write under a collected reader, a serializability
        // violation rather than the liveness trade GC is allowed to make.
        if self.gc_watermark > Timestamp::ZERO && tx.timestamp() <= self.gc_watermark {
            return CheckOutcome::Decided(Vote::Abort(AbortReason::TimestampOutOfBounds));
        }

        // (2) Dependency validity: every dependency this replica knows about
        // must actually have produced the claimed version.
        for dep in tx.deps() {
            let known = self
                .prepared_txs
                .get(&dep.txid)
                .or_else(|| self.committed_txs.get(&dep.txid));
            if let Some(dep_tx) = known {
                let produced = dep_tx.writes(&dep.key) && dep_tx.timestamp() == dep.version;
                if !produced {
                    return CheckOutcome::Decided(Vote::Abort(AbortReason::InvalidDependency));
                }
            } else if self.aborted.contains(&dep.txid) {
                // The dependency already aborted here; the dependent cannot
                // commit (Algorithm 1, lines 16-18).
                return CheckOutcome::Decided(Vote::Abort(AbortReason::DependencyAborted));
            }
            // Unknown dependency: treated as pending (see module docs).
        }

        let ts = tx.timestamp();

        // (3) Reads must not claim versions from the future; that would prove
        // client misbehaviour. The builder froze the maximum claimed version,
        // so this is one comparison instead of a read-set walk.
        if tx.max_read_version() > ts {
            return CheckOutcome::Decided(Vote::Abort(AbortReason::Misbehavior));
        }

        // (4) Reads in T did not miss any committed or prepared write:
        // no write W to `key` with version_read < ts_W < ts_T may exist.
        // Fast path: the version read is the key's newest write overall.
        // Each key's arena slot is resolved once here and reused by the
        // prepared-index inserts below (one map lookup per key per prepare).
        self.scratch_reads.clear();
        for read in tx.read_set() {
            let slot = self.key_index.get(&read.key).copied();
            self.scratch_reads.push(slot.unwrap_or(NO_SLOT));
            match slot.map(|i| &self.key_records[i as usize]) {
                Some(rec) if rec.max_write > read.version => {
                    self.stats.slow_path_checks += 1;
                    if rec.committed.any_in_open_range(read.version, ts)
                        || rec.prepared.any_in_open_range(read.version, ts)
                    {
                        return CheckOutcome::Decided(Vote::Abort(AbortReason::Conflict));
                    }
                }
                _ => self.stats.fast_path_checks += 1,
            }
        }

        // (5) Writes in T must not invalidate reads of prepared or committed
        // transactions: no reader T' with ts_T' > ts_T may have read a
        // version older than ts_T for a key T writes.
        // (6) Writes must not invalidate ongoing reads (RTS check).
        // Fast path for both: the write lands above the key's newest read.
        self.scratch_writes.clear();
        for write in tx.write_set() {
            let slot = self.key_index.get(&write.key).copied();
            self.scratch_writes.push(slot.unwrap_or(NO_SLOT));
            match slot.map(|i| &self.key_records[i as usize]) {
                Some(rec) if rec.max_read > ts => {
                    self.stats.slow_path_checks += 1;
                    // The reader summary proves most stale writes invalidate
                    // nobody without walking the reader arrays; a set bucket
                    // demands the exact ordered scan.
                    if rec.reader_summary.may_invalidate(ts) {
                        let invalidates = |reads: &VersionArray<Timestamp>| {
                            reads
                                .iter_above(ts)
                                .any(|(_, version_read)| *version_read < ts)
                        };
                        if invalidates(&rec.committed_reads) || invalidates(&rec.prepared_reads) {
                            return CheckOutcome::Decided(Vote::Abort(AbortReason::Conflict));
                        }
                    } else {
                        self.stats.reader_scan_skips += 1;
                    }
                    if rec.rts.max_ts().map(|m| m > ts).unwrap_or(false) {
                        return CheckOutcome::Decided(Vote::Abort(AbortReason::Conflict));
                    }
                }
                _ => self.stats.fast_path_checks += 1,
            }
        }

        // (7) Prepared.add(T): make the transaction visible to future reads,
        // reusing the slots resolved by the checks (keys unseen there are
        // interned now).
        let mut write_slots = std::mem::take(&mut self.scratch_writes);
        for (write, slot) in tx.write_set().iter().zip(write_slots.iter_mut()) {
            if *slot == NO_SLOT {
                *slot = self.intern_key(&write.key);
            }
            let rec = &mut self.key_records[*slot as usize];
            rec.prepared.insert(ts, txid);
            rec.note_write(ts);
        }
        self.scratch_writes = write_slots;
        let mut read_slots = std::mem::take(&mut self.scratch_reads);
        for (read, slot) in tx.read_set().iter().zip(read_slots.iter_mut()) {
            if *slot == NO_SLOT {
                *slot = self.intern_key(&read.key);
            }
            let rec = &mut self.key_records[*slot as usize];
            rec.prepared_reads.insert(ts, read.version);
            rec.cover_read(read.version, ts);
            rec.note_read(ts);
        }
        self.scratch_reads = read_slots;
        self.prepared_txs.insert(txid, Arc::clone(tx));

        // (8) Wait for all pending dependencies.
        let mut missing: FastHashSet<TxId> = FastHashSet::default();
        for dep in tx.deps() {
            match self.decisions.get(&dep.txid) {
                Some(Decision::Commit) => {}
                Some(Decision::Abort) => {
                    // A dependency already aborted: withdraw the prepare.
                    self.unindex_prepared(&txid);
                    return CheckOutcome::Decided(Vote::Abort(AbortReason::DependencyAborted));
                }
                None => {
                    missing.insert(dep.txid);
                }
            }
        }
        if missing.is_empty() {
            return CheckOutcome::Decided(Vote::Commit);
        }
        for dep in &missing {
            self.waiters.entry(*dep).or_default().push(txid);
        }
        let waiting_on: Vec<TxId> = missing.iter().copied().collect();
        self.pending.insert(txid, missing);
        CheckOutcome::Pending { waiting_on }
    }

    /// Removes a prepared transaction from the visibility indexes,
    /// returning its shared metadata so a commit can promote it without
    /// copying. Watermarks are recomputed (`O(1)` from the array tails)
    /// whenever the removed entry was the watermark, so the fast path stays
    /// exact rather than decaying conservatively.
    fn unindex_prepared(&mut self, txid: &TxId) -> Option<Arc<Transaction>> {
        let tx = self.prepared_txs.remove(txid)?;
        let ts = tx.timestamp();
        for write in tx.write_set() {
            if let Some((_, rec)) = self.key_rec_mut(&write.key) {
                if rec.prepared.remove(ts).is_some() {
                    rec.generation += 1;
                    if ts == rec.max_write {
                        rec.refresh_write_watermark();
                    }
                }
            }
        }
        for read in tx.read_set() {
            if let Some((_, rec)) = self.key_rec_mut(&read.key) {
                if rec.prepared_reads.remove(ts).is_some() {
                    rec.generation += 1;
                    if ts == rec.max_read {
                        rec.refresh_read_watermark();
                    }
                }
            }
        }
        Some(tx)
    }

    // ------------------------------------------------------------------
    // Decisions
    // ------------------------------------------------------------------

    /// Applies a commit decision for `tx`: its writes become committed
    /// versions and its reads are recorded for future checks. Returns the
    /// votes of transactions whose deferred check was waiting on this
    /// decision.
    pub fn commit(&mut self, tx: &Arc<Transaction>) -> Vec<(TxId, Vote)> {
        let txid = tx.id();
        if matches!(self.decisions.get(&txid), Some(Decision::Commit)) {
            return Vec::new();
        }
        // Promote the prepared entry when there is one: the transaction id
        // is a content hash, so the prepared metadata under this id is the
        // same transaction and no copy is needed. A commit that skipped the
        // prepare (writeback to a replica that missed ST1) shares the Arc
        // the writeback carries. The prepared-entry removal and the
        // committed-version insert are fused into one key-record pass —
        // the per-key end state is identical to removing first and
        // inserting second, at half the map lookups.
        let shared = self
            .prepared_txs
            .remove(&txid)
            .unwrap_or_else(|| Arc::clone(tx));
        self.pending.remove(&txid);
        self.decisions.insert(txid, Decision::Commit);

        let ts = tx.timestamp();
        for write in tx.write_set() {
            let idx = self.intern_key(&write.key);
            let rec = &mut self.key_records[idx as usize];
            if rec.prepared.remove(ts).is_some() {
                rec.generation += 1;
                if ts == rec.max_write {
                    rec.refresh_write_watermark();
                }
            }
            rec.committed.insert(ts, (txid, write.value.clone()));
            rec.note_write(ts);
        }
        for read in tx.read_set() {
            let idx = self.intern_key(&read.key);
            let rec = &mut self.key_records[idx as usize];
            if rec.prepared_reads.remove(ts).is_some() {
                rec.generation += 1;
                if ts == rec.max_read {
                    rec.refresh_read_watermark();
                }
            }
            rec.committed_reads.insert(ts, read.version);
            rec.cover_read(read.version, ts);
            rec.note_read(ts);
        }
        self.committed_txs.insert(txid, shared);

        self.wake_waiters(txid, Decision::Commit)
    }

    /// Applies an abort decision for `txid`. Returns the votes of
    /// transactions whose deferred check was waiting on this decision (each
    /// of them votes abort, per Algorithm 1 lines 16-18).
    pub fn abort(&mut self, txid: TxId) -> Vec<(TxId, Vote)> {
        if matches!(self.decisions.get(&txid), Some(Decision::Abort)) {
            return Vec::new();
        }
        self.unindex_prepared(&txid);
        self.pending.remove(&txid);
        self.decisions.insert(txid, Decision::Abort);
        self.aborted.insert(txid);
        self.wake_waiters(txid, Decision::Abort)
    }

    fn wake_waiters(&mut self, resolved: TxId, decision: Decision) -> Vec<(TxId, Vote)> {
        let mut released = Vec::new();
        let Some(waiters) = self.waiters.remove(&resolved) else {
            return released;
        };
        for waiter in waiters {
            let Some(missing) = self.pending.get_mut(&waiter) else {
                continue; // already resolved some other way
            };
            match decision {
                Decision::Abort => {
                    // The dependency aborted: the waiter votes abort and is
                    // withdrawn from the prepared set.
                    self.pending.remove(&waiter);
                    self.unindex_prepared(&waiter);
                    released.push((waiter, Vote::Abort(AbortReason::DependencyAborted)));
                }
                Decision::Commit => {
                    missing.remove(&resolved);
                    if missing.is_empty() {
                        self.pending.remove(&waiter);
                        released.push((waiter, Vote::Commit));
                    }
                }
            }
        }
        released
    }

    // ------------------------------------------------------------------
    // Inspection
    // ------------------------------------------------------------------

    /// The decision this replica knows for `txid`, if any.
    pub fn decision(&self, txid: &TxId) -> Option<Decision> {
        self.decisions.get(txid).copied()
    }

    /// Whether the transaction is currently prepared (visible, uncommitted).
    pub fn is_prepared(&self, txid: &TxId) -> bool {
        self.prepared_txs.contains_key(txid)
    }

    /// The prepared transaction's metadata, if present.
    pub fn prepared_tx(&self, txid: &TxId) -> Option<&Transaction> {
        self.prepared_txs.get(txid).map(|tx| tx.as_ref())
    }

    /// The prepared transaction's shared metadata, if present (a reference
    /// count bump, not a copy — used to embed the transaction in read
    /// replies).
    pub fn prepared_tx_shared(&self, txid: &TxId) -> Option<Arc<Transaction>> {
        self.prepared_txs.get(txid).cloned()
    }

    /// The committed transaction's metadata, if present.
    pub fn committed_tx(&self, txid: &TxId) -> Option<&Transaction> {
        self.committed_txs.get(txid).map(|tx| tx.as_ref())
    }

    /// Whether the transaction's vote is currently withheld waiting on
    /// dependencies.
    pub fn is_pending(&self, txid: &TxId) -> bool {
        self.pending.contains_key(txid)
    }

    /// Iterates over all committed transactions without cloning them (the
    /// serializability audit used to clone the entire history per replica
    /// per audit; it now borrows).
    pub fn committed_iter(&self) -> impl Iterator<Item = &Transaction> {
        self.committed_txs.values().map(|tx| tx.as_ref())
    }

    /// Iterates over every final decision this replica knows, in arbitrary
    /// order. The real-IO runtime dumps these into per-process result files
    /// so the supervisor can run the cross-replica decision-agreement audit
    /// without reaching into live actors.
    pub fn decisions_iter(&self) -> impl Iterator<Item = (&TxId, &Decision)> {
        self.decisions.iter()
    }

    /// Number of committed transactions.
    pub fn committed_count(&self) -> usize {
        self.committed_txs.len()
    }

    /// Number of currently prepared transactions.
    pub fn prepared_count(&self) -> usize {
        self.prepared_txs.len()
    }

    /// The scan-free fast-path counters (see [`StoreStats`]).
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The generation stamp of a key's record: how many times its
    /// concurrency-control state has mutated (tests and diagnostics).
    pub fn key_generation(&self, key: &Key) -> Option<u64> {
        self.key_rec(key).map(|rec| rec.generation)
    }

    /// The `(max_write, max_read)` watermarks of a key's record (tests and
    /// diagnostics).
    pub fn key_watermarks(&self, key: &Key) -> Option<(Timestamp, Timestamp)> {
        self.key_rec(key).map(|rec| (rec.max_write, rec.max_read))
    }

    /// Garbage-collects bookkeeping that can no longer affect any future
    /// check: committed versions strictly older than the newest one at or
    /// below `watermark` (the newest such version must be retained because
    /// future readers may still need it), committed read records below the
    /// watermark, and RTS entries below the watermark.
    ///
    /// In the flattened layout each trim is an in-place prefix drain of a
    /// sorted `Vec` — no allocation, unlike the `BTreeMap::split_off` tail
    /// copies this replaces.
    pub fn gc_before(&mut self, watermark: Timestamp) {
        self.gc_watermark = self.gc_watermark.max(watermark);
        for idx in self.key_index.values() {
            let rec = &mut self.key_records[*idx as usize];
            let mut dropped = 0;
            if let Some(keep_from) = rec.committed.latest_at_or_below(watermark).map(|(t, _)| *t) {
                dropped += rec.committed.drop_below(keep_from);
            }
            dropped += rec.committed_reads.drop_below(watermark);
            dropped += rec.rts.drop_below(watermark);
            if dropped > 0 {
                rec.generation += 1;
                // Prefix drains cannot raise the tails, but they can empty
                // an array entirely; recompute both watermarks exactly, and
                // re-derive the reader summary from the surviving entries
                // (its Bloom bits are never cleared incrementally).
                rec.refresh_read_watermark();
                rec.refresh_write_watermark();
                rec.rebuild_reader_summary();
            }
        }
        // A fully drained record is semantically identical to an absent one;
        // dropping it (and recycling its arena slot) keeps the store bounded
        // by the keys that still carry state (reads of never-written keys
        // would otherwise pin a record forever).
        let drained: Vec<(Key, u32)> = self
            .key_index
            .iter()
            .filter(|(_, idx)| self.key_records[**idx as usize].is_unused())
            .map(|(key, idx)| (key.clone(), *idx))
            .collect();
        for (key, idx) in drained {
            self.release_key(&key, idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::TransactionBuilder;
    use basil_common::ClientId;

    const DELTA: Duration = Duration::from_millis(100);
    // A clock far enough in the future that timestamp-bound checks pass by
    // default in these unit tests.
    const CLOCK: SimTime = SimTime::from_secs(1);

    fn ts(t: u64, c: u64) -> Timestamp {
        Timestamp::from_nanos(t, ClientId(c))
    }

    fn k(s: &str) -> Key {
        Key::new(s)
    }

    fn v(n: u64) -> Value {
        Value::from_u64(n)
    }

    fn store_with_xy() -> MvtsoStore {
        MvtsoStore::with_initial_data([(k("x"), v(0)), (k("y"), v(0))])
    }

    /// A transaction reading nothing and writing `key := val` at `t`.
    fn blind_write(t: u64, c: u64, key: &str, val: u64) -> Arc<Transaction> {
        let mut b = TransactionBuilder::new(ts(t, c));
        b.record_write(k(key), v(val));
        b.build_shared()
    }

    /// A read-modify-write transaction on one key.
    fn rmw(t: u64, c: u64, key: &str, read_version: Timestamp, val: u64) -> Arc<Transaction> {
        let mut b = TransactionBuilder::new(ts(t, c));
        b.record_read(k(key), read_version);
        b.record_write(k(key), v(val));
        b.build_shared()
    }

    fn expect_commit(out: CheckOutcome) {
        assert_eq!(out, CheckOutcome::Decided(Vote::Commit));
    }

    fn expect_abort(out: CheckOutcome, reason: AbortReason) {
        assert_eq!(out, CheckOutcome::Decided(Vote::Abort(reason)));
    }

    #[test]
    fn read_returns_initial_version() {
        let mut store = store_with_xy();
        let r = store.read(&k("x"), ts(10, 1));
        let committed = r.committed.expect("initial version exists");
        assert_eq!(committed.version, Timestamp::ZERO);
        assert_eq!(committed.value, v(0));
        assert!(r.prepared.is_none());
        assert!(store.read(&k("unknown"), ts(10, 1)).committed.is_none());
    }

    #[test]
    fn prepare_and_commit_installs_version() {
        let mut store = store_with_xy();
        let t = blind_write(100, 1, "x", 42);
        expect_commit(store.prepare(&t, CLOCK, DELTA));
        assert!(store.is_prepared(&t.id()));

        // Visible as prepared to later readers, not as committed.
        let r = store.read(&k("x"), ts(200, 2));
        assert_eq!(r.prepared.as_ref().expect("prepared visible").value, v(42));
        assert_eq!(r.committed.expect("initial").version, Timestamp::ZERO);

        let woken = store.commit(&t);
        assert!(woken.is_empty());
        assert!(!store.is_prepared(&t.id()));
        let r = store.read(&k("x"), ts(200, 2));
        assert_eq!(r.committed.expect("committed").value, v(42));
        assert!(r.prepared.is_none());
        assert_eq!(store.decision(&t.id()), Some(Decision::Commit));
    }

    #[test]
    fn read_ignores_versions_at_or_above_reader_timestamp() {
        let mut store = store_with_xy();
        let t = blind_write(100, 1, "x", 42);
        expect_commit(store.prepare(&t, CLOCK, DELTA));
        store.commit(&t);
        // A reader at exactly ts 100 must not see the version written at 100
        // (reads return versions strictly smaller than the reader timestamp).
        let r = store.read(&k("x"), ts(100, 0));
        assert_eq!(r.committed.expect("initial").version, Timestamp::ZERO);
        // A reader below 100 sees only the initial version.
        let r = store.read(&k("x"), ts(50, 2));
        assert_eq!(r.committed.expect("initial").version, Timestamp::ZERO);
    }

    #[test]
    fn timestamp_bound_rejected() {
        let mut store = store_with_xy();
        let t = blind_write(u64::MAX / 2, 1, "x", 1);
        expect_abort(
            store.prepare(&t, SimTime::from_millis(1), Duration::from_millis(1)),
            AbortReason::TimestampOutOfBounds,
        );
        assert!(!store.is_prepared(&t.id()));
    }

    #[test]
    fn read_from_future_is_misbehaviour() {
        let mut store = store_with_xy();
        let mut b = TransactionBuilder::new(ts(100, 1));
        b.record_read(k("x"), ts(500, 2)); // claims to have read the future
        let t = b.build_shared();
        expect_abort(store.prepare(&t, CLOCK, DELTA), AbortReason::Misbehavior);
    }

    #[test]
    fn stale_read_misses_committed_write_aborts() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        store.commit(&w);

        // T reads version 0 of x but has timestamp 200 > 100: it missed the
        // write at 100 and must abort (Algorithm 1 lines 7-8).
        let t = rmw(200, 2, "x", Timestamp::ZERO, 7);
        expect_abort(store.prepare(&t, CLOCK, DELTA), AbortReason::Conflict);
    }

    #[test]
    fn stale_read_misses_prepared_write_aborts() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA)); // prepared only

        let t = rmw(200, 2, "x", Timestamp::ZERO, 7);
        expect_abort(store.prepare(&t, CLOCK, DELTA), AbortReason::Conflict);
    }

    #[test]
    fn read_of_latest_version_commits() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        store.commit(&w);

        // Reader at 200 read the version written at 100: no missed write.
        let t = rmw(200, 2, "x", ts(100, 1), 7);
        expect_commit(store.prepare(&t, CLOCK, DELTA));
    }

    #[test]
    fn late_write_under_committed_reader_aborts() {
        let mut store = store_with_xy();
        // Reader at ts 300 read version 0 of x, committed.
        let mut b = TransactionBuilder::new(ts(300, 1));
        b.record_read(k("x"), Timestamp::ZERO);
        b.record_write(k("dummy"), v(1));
        let reader = b.build_shared();
        expect_commit(store.prepare(&reader, CLOCK, DELTA));
        store.commit(&reader);

        // A writer at ts 200 < 300 writing x would invalidate that read
        // (the reader should have seen it): abort (lines 9-11).
        let w = blind_write(200, 2, "x", 9);
        expect_abort(store.prepare(&w, CLOCK, DELTA), AbortReason::Conflict);

        // A writer above the reader's timestamp is fine.
        let w2 = blind_write(400, 3, "x", 9);
        expect_commit(store.prepare(&w2, CLOCK, DELTA));
    }

    #[test]
    fn late_write_under_prepared_reader_aborts() {
        let mut store = store_with_xy();
        let mut b = TransactionBuilder::new(ts(300, 1));
        b.record_read(k("x"), Timestamp::ZERO);
        let reader = b.build_shared();
        expect_commit(store.prepare(&reader, CLOCK, DELTA)); // prepared only

        let w = blind_write(200, 2, "x", 9);
        expect_abort(store.prepare(&w, CLOCK, DELTA), AbortReason::Conflict);
    }

    #[test]
    fn rts_blocks_late_writer_and_clears_on_removal() {
        let mut store = store_with_xy();
        // An execution-phase read at ts 500 leaves an RTS on x.
        store.read(&k("x"), ts(500, 1));

        let w = blind_write(200, 2, "x", 9);
        expect_abort(store.prepare(&w, CLOCK, DELTA), AbortReason::Conflict);

        // After the reader abandons its transaction the RTS is removed and
        // the same write succeeds.
        store.remove_rts(&k("x"), ts(500, 1));
        let w2 = blind_write(201, 2, "x", 9);
        expect_commit(store.prepare(&w2, CLOCK, DELTA));
    }

    #[test]
    fn rts_below_writer_timestamp_is_harmless() {
        let mut store = store_with_xy();
        store.read(&k("x"), ts(100, 1));
        let w = blind_write(200, 2, "x", 9);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
    }

    #[test]
    fn write_write_is_not_a_conflict_by_itself() {
        // MVTSO orders blind writes by timestamp; two writers of the same key
        // can both commit.
        let mut store = store_with_xy();
        let w1 = blind_write(100, 1, "x", 1);
        let w2 = blind_write(200, 2, "x", 2);
        expect_commit(store.prepare(&w1, CLOCK, DELTA));
        expect_commit(store.prepare(&w2, CLOCK, DELTA));
        store.commit(&w1);
        store.commit(&w2);
        assert_eq!(store.latest_committed(&k("x")).expect("x").1, v(2));
    }

    #[test]
    fn dependent_read_waits_for_dependency_commit() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA)); // prepared, not committed

        // T2 reads the prepared version and declares the dependency.
        let mut b = TransactionBuilder::new(ts(200, 2));
        b.record_dependent_read(k("x"), ts(100, 1), w.id());
        b.record_write(k("y"), v(6));
        let t2 = b.build_shared();

        match store.prepare(&t2, CLOCK, DELTA) {
            CheckOutcome::Pending { waiting_on } => assert_eq!(waiting_on, vec![w.id()]),
            other => panic!("expected pending, got {other:?}"),
        }
        assert!(store.is_pending(&t2.id()));
        assert!(
            store.is_prepared(&t2.id()),
            "pending transactions are visible"
        );

        // Committing the dependency releases T2 with a commit vote.
        let woken = store.commit(&w);
        assert_eq!(woken, vec![(t2.id(), Vote::Commit)]);
        assert!(!store.is_pending(&t2.id()));
    }

    #[test]
    fn dependent_read_aborts_when_dependency_aborts() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));

        let mut b = TransactionBuilder::new(ts(200, 2));
        b.record_dependent_read(k("x"), ts(100, 1), w.id());
        let t2 = b.build_shared();
        assert!(matches!(
            store.prepare(&t2, CLOCK, DELTA),
            CheckOutcome::Pending { .. }
        ));

        let woken = store.abort(w.id());
        assert_eq!(
            woken,
            vec![(t2.id(), Vote::Abort(AbortReason::DependencyAborted))]
        );
        assert!(
            !store.is_prepared(&t2.id()),
            "aborted-by-dependency transactions leave the prepared set"
        );
    }

    #[test]
    fn dependency_already_committed_votes_immediately() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        store.commit(&w);

        let mut b = TransactionBuilder::new(ts(200, 2));
        b.record_dependent_read(k("x"), ts(100, 1), w.id());
        let t2 = b.build_shared();
        expect_commit(store.prepare(&t2, CLOCK, DELTA));
    }

    #[test]
    fn dependency_already_aborted_votes_abort() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        store.abort(w.id());

        let mut b = TransactionBuilder::new(ts(200, 2));
        b.record_dependent_read(k("x"), ts(100, 1), w.id());
        let t2 = b.build_shared();
        expect_abort(
            store.prepare(&t2, CLOCK, DELTA),
            AbortReason::DependencyAborted,
        );
    }

    #[test]
    fn invalid_dependency_claim_is_rejected() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));

        // Claim a dependency on w for key "y", which w never wrote.
        let mut b = TransactionBuilder::new(ts(200, 2));
        b.record_dependent_read(k("y"), ts(100, 1), w.id());
        let t2 = b.build_shared();
        expect_abort(
            store.prepare(&t2, CLOCK, DELTA),
            AbortReason::InvalidDependency,
        );

        // Claim a dependency with the wrong version timestamp.
        let mut b = TransactionBuilder::new(ts(200, 3));
        b.record_dependent_read(k("x"), ts(101, 1), w.id());
        let t3 = b.build_shared();
        expect_abort(
            store.prepare(&t3, CLOCK, DELTA),
            AbortReason::InvalidDependency,
        );
    }

    #[test]
    fn unknown_dependency_is_pending_not_invalid() {
        let mut store = store_with_xy();
        let unseen = blind_write(100, 1, "x", 5); // never sent to this store
        let mut b = TransactionBuilder::new(ts(200, 2));
        b.record_dependent_read(k("x"), ts(100, 1), unseen.id());
        let t2 = b.build_shared();
        match store.prepare(&t2, CLOCK, DELTA) {
            CheckOutcome::Pending { waiting_on } => assert_eq!(waiting_on, vec![unseen.id()]),
            other => panic!("expected pending, got {other:?}"),
        }
        // When the missing dependency's decision finally arrives, the waiter
        // is released.
        let woken = store.commit(&unseen);
        assert_eq!(woken, vec![(t2.id(), Vote::Commit)]);
    }

    #[test]
    fn multiple_dependencies_release_only_when_all_commit() {
        let mut store = store_with_xy();
        let w1 = blind_write(100, 1, "x", 1);
        let w2 = blind_write(110, 2, "y", 2);
        expect_commit(store.prepare(&w1, CLOCK, DELTA));
        expect_commit(store.prepare(&w2, CLOCK, DELTA));

        let mut b = TransactionBuilder::new(ts(200, 3));
        b.record_dependent_read(k("x"), ts(100, 1), w1.id());
        b.record_dependent_read(k("y"), ts(110, 2), w2.id());
        let t = b.build_shared();
        assert!(matches!(
            store.prepare(&t, CLOCK, DELTA),
            CheckOutcome::Pending { .. }
        ));

        assert!(store.commit(&w1).is_empty(), "still waiting on w2");
        let woken = store.commit(&w2);
        assert_eq!(woken, vec![(t.id(), Vote::Commit)]);
    }

    #[test]
    fn duplicate_prepare_is_idempotent() {
        let mut store = store_with_xy();
        let t = blind_write(100, 1, "x", 1);
        expect_commit(store.prepare(&t, CLOCK, DELTA));
        expect_commit(store.prepare(&t, CLOCK, DELTA));
        assert_eq!(store.prepared_count(), 1);
        assert_eq!(
            store.stats().prepares,
            1,
            "duplicate deliveries answer from the memo without a check"
        );

        store.commit(&t);
        // After commit, a re-delivered prepare reports commit.
        expect_commit(store.prepare(&t, CLOCK, DELTA));

        let t2 = blind_write(200, 2, "x", 2);
        expect_commit(store.prepare(&t2, CLOCK, DELTA));
        store.abort(t2.id());
        // After abort, a re-delivered prepare reports abort.
        expect_abort(store.prepare(&t2, CLOCK, DELTA), AbortReason::Conflict);
    }

    #[test]
    fn commit_and_abort_are_idempotent() {
        let mut store = store_with_xy();
        let t = blind_write(100, 1, "x", 1);
        store.prepare(&t, CLOCK, DELTA);
        assert!(store.commit(&t).is_empty());
        assert!(store.commit(&t).is_empty());
        assert_eq!(store.committed_count(), 1);

        let t2 = blind_write(200, 2, "y", 1);
        store.prepare(&t2, CLOCK, DELTA);
        assert!(store.abort(t2.id()).is_empty());
        assert!(store.abort(t2.id()).is_empty());
        assert_eq!(store.decision(&t2.id()), Some(Decision::Abort));
    }

    #[test]
    fn commit_without_prior_prepare_applies_writes() {
        // A replica that voted abort (or missed ST1 entirely) still applies a
        // transaction once it receives a valid commit certificate.
        let mut store = store_with_xy();
        let t = blind_write(100, 1, "x", 77);
        store.commit(&t);
        assert_eq!(store.latest_committed(&k("x")).expect("x").1, v(77));
        assert_eq!(store.committed_count(), 1);
    }

    #[test]
    fn gc_retains_visibility_for_future_readers() {
        let mut store = store_with_xy();
        for i in 1..=10u64 {
            let t = blind_write(i * 100, 1, "x", i);
            store.prepare(&t, CLOCK, DELTA);
            store.commit(&t);
        }
        store.gc_before(ts(550, 0));
        // Future readers still see the newest version at or below the
        // watermark (ts 500) and everything above it.
        let r = store.read(&k("x"), ts(551, 9));
        assert_eq!(r.committed.expect("visible").value, v(5));
        let r = store.read(&k("x"), ts(2_000, 9));
        assert_eq!(r.committed.expect("latest").value, v(10));
    }

    #[test]
    fn prepared_version_carries_dependency_chain_info() {
        let mut store = store_with_xy();
        let w1 = blind_write(100, 1, "x", 1);
        expect_commit(store.prepare(&w1, CLOCK, DELTA));

        let mut b = TransactionBuilder::new(ts(200, 2));
        b.record_dependent_read(k("x"), ts(100, 1), w1.id());
        b.record_write(k("y"), v(2));
        let t2 = b.build_shared();
        assert!(matches!(
            store.prepare(&t2, CLOCK, DELTA),
            CheckOutcome::Pending { .. }
        ));

        // A reader of y at ts 300 sees t2's prepared write, including t2's
        // dependency on w1, so it can later help finish the whole chain.
        let r = store.read(&k("y"), ts(300, 3));
        let prepared = r.prepared.expect("prepared y visible");
        assert_eq!(prepared.txid, t2.id());
        assert_eq!(prepared.deps.len(), 1);
        assert_eq!(prepared.deps[0].txid, w1.id());
    }

    // ------------------------------------------------------------------
    // Flattened-layout specifics: watermarks, generations, fast path
    // ------------------------------------------------------------------

    #[test]
    fn timestamp_ordered_appends_stay_on_the_fast_path() {
        let mut store = store_with_xy();
        // Monotone blind writes to one key: every check is answered by the
        // watermark comparison (no reader above, version read is newest).
        for i in 1..=50u64 {
            let t = rmw(
                i * 10,
                1,
                "x",
                if i == 1 {
                    Timestamp::ZERO
                } else {
                    ts((i - 1) * 10, 1)
                },
                i,
            );
            expect_commit(store.prepare(&t, CLOCK, DELTA));
            store.commit(&t);
        }
        let stats = store.stats();
        assert_eq!(stats.prepares, 50);
        assert_eq!(stats.slow_path_checks, 0, "no conflict window ever opened");
        assert_eq!(
            stats.fast_path_checks, 100,
            "one read + one write check per tx"
        );
        assert_eq!(stats.fast_path_hit_rate(), 1.0);
    }

    #[test]
    fn stale_reads_and_late_writes_take_the_slow_path() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        store.commit(&w);

        // Stale read: max_write (100) > version read (0) forces the scan.
        let stale = rmw(200, 2, "x", Timestamp::ZERO, 7);
        expect_abort(store.prepare(&stale, CLOCK, DELTA), AbortReason::Conflict);
        assert!(store.stats().slow_path_checks >= 1);

        // Late write under an RTS: max_read (500) > write ts (300).
        store.read(&k("y"), ts(500, 3));
        let before = store.stats().slow_path_checks;
        let late = blind_write(300, 4, "y", 1);
        expect_abort(store.prepare(&late, CLOCK, DELTA), AbortReason::Conflict);
        assert_eq!(store.stats().slow_path_checks, before + 1);
    }

    #[test]
    fn generation_stamp_counts_record_mutations() {
        let mut store = store_with_xy();
        let g0 = store.key_generation(&k("x")).expect("genesis record");
        store.read(&k("x"), ts(10, 1));
        let g1 = store.key_generation(&k("x")).unwrap();
        assert!(g1 > g0, "RTS registration bumps the generation");
        store.remove_rts(&k("x"), ts(10, 1));
        let g2 = store.key_generation(&k("x")).unwrap();
        assert!(g2 > g1, "RTS removal bumps the generation");
        assert_eq!(store.key_generation(&k("never-touched")), None);
    }

    #[test]
    fn watermarks_track_inserts_and_removals_exactly() {
        let mut store = store_with_xy();
        let w = blind_write(100, 1, "x", 5);
        expect_commit(store.prepare(&w, CLOCK, DELTA));
        assert_eq!(store.key_watermarks(&k("x")).unwrap().0, ts(100, 1));

        // Aborting the newest prepared write lowers max_write back to the
        // genesis version, restoring the fast path for future readers of
        // version ZERO.
        store.abort(w.id());
        assert_eq!(store.key_watermarks(&k("x")).unwrap().0, Timestamp::ZERO);
        let before = store.stats().fast_path_checks;
        let t = rmw(200, 2, "x", Timestamp::ZERO, 7);
        expect_commit(store.prepare(&t, CLOCK, DELTA));
        assert!(
            store.stats().fast_path_checks > before,
            "read check answered by the refreshed watermark"
        );

        // Read watermarks follow RTS removal the same way.
        store.read(&k("y"), ts(900, 3));
        assert_eq!(store.key_watermarks(&k("y")).unwrap().1, ts(900, 3));
        store.remove_rts(&k("y"), ts(900, 3));
        assert_eq!(store.key_watermarks(&k("y")).unwrap().1, Timestamp::ZERO);
    }

    #[test]
    fn prepare_below_gc_watermark_aborts() {
        let mut store = store_with_xy();
        // Reader at 300 read x@0 and committed; GC then collects its read
        // record. A write backdated under the collected reader must abort —
        // the evidence that would have caught it is gone.
        let mut b = TransactionBuilder::new(ts(300, 1));
        b.record_read(k("x"), Timestamp::ZERO);
        b.record_write(k("dummy"), v(1));
        let reader = b.build_shared();
        expect_commit(store.prepare(&reader, CLOCK, DELTA));
        store.commit(&reader);
        store.gc_before(ts(400, 0));

        let w = blind_write(200, 2, "x", 9);
        expect_abort(
            store.prepare(&w, CLOCK, DELTA),
            AbortReason::TimestampOutOfBounds,
        );
        // Exactly at the watermark is refused too; strictly above proceeds.
        let at = blind_write(400, 0, "x", 9);
        expect_abort(
            store.prepare(&at, CLOCK, DELTA),
            AbortReason::TimestampOutOfBounds,
        );
        let above = blind_write(500, 3, "x", 9);
        expect_commit(store.prepare(&above, CLOCK, DELTA));
    }

    #[test]
    fn unused_key_records_are_pruned() {
        let mut store = store_with_xy();
        // A read of a never-written key holds a record only for its RTS.
        store.read(&k("ghost"), ts(100, 1));
        assert!(store.key_generation(&k("ghost")).is_some());
        store.remove_rts(&k("ghost"), ts(100, 1));
        assert_eq!(
            store.key_generation(&k("ghost")),
            None,
            "record released with its last RTS"
        );

        // GC drops records drained to nothing but keeps live ones.
        store.read(&k("phantom"), ts(100, 2));
        store.gc_before(ts(200, 0));
        assert_eq!(store.key_generation(&k("phantom")), None);
        assert!(
            store.key_generation(&k("x")).is_some(),
            "keys with retained versions keep their record"
        );
    }

    #[test]
    fn gc_refreshes_watermarks_and_generation() {
        let mut store = store_with_xy();
        for i in 1..=5u64 {
            let t = blind_write(i * 100, 1, "x", i);
            store.prepare(&t, CLOCK, DELTA);
            store.commit(&t);
        }
        store.read(&k("x"), ts(120, 7));
        let gen_before = store.key_generation(&k("x")).unwrap();
        store.gc_before(ts(450, 0));
        assert!(store.key_generation(&k("x")).unwrap() > gen_before);
        // The RTS at 120 was collected; the newest write (500) is retained.
        let (max_write, max_read) = store.key_watermarks(&k("x")).unwrap();
        assert_eq!(max_write, ts(500, 1));
        assert_eq!(
            max_read,
            Timestamp::ZERO,
            "the only read record (the RTS) was below the GC watermark"
        );
    }
}
