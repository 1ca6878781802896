//! The cluster adapter the benchmark runs, and the wrappers that time each
//! layer from outside the program.
//!
//! [`BenchProtocol`] is a [`ClusterProtocol`] that builds the same Basil
//! replicas and clients as `basil::harness::BasilProtocol`, with two
//! differences that leave the simulated behaviour untouched:
//!
//! * every client is a [`BenchClient`], which forwards each event to the
//!   wrapped `BasilClient` and keeps the exact (unbucketed) commit latency
//!   of every transaction it completes, and which drives its workload
//!   through a [`BenchGenerator`];
//! * the replica type is a parameter: the plain `BasilReplica` for the
//!   untraced runs, or a [`TracedReplica`] over a [`TracedStore`] for the
//!   traced run.
//!
//! The traced wrappers open a [`trace::span`] around every call they
//! forward: replica and client handlers per message kind, every `TxStore`
//! call, and `TxGenerator::next_tx`. They also push every delivered message
//! through the wire codec ([`wire_roundtrip`]).

use crate::trace;
use basil::cluster::ClusterProtocol;
use basil::report::Snapshot;
use basil_common::{
    ClientId, Duration, Key, NodeId, ReplicaId, ShardId, SimTime, Timestamp, TxGenerator, TxId,
    TxProfile, Value,
};
use basil_core::byzantine::FaultProfile;
use basil_core::replica::ReplicaStats;
use basil_core::{BasilClient, BasilConfig, BasilMsg, BasilReplica, ClientStats, ReplicaBehavior};
use basil_crypto::KeyRegistry;
use basil_net::wire::{decode_frame_payload, encode_msg, split_frame};
use basil_simnet::{Actor, Context};
use basil_store::mvtso::Decision;
use basil_store::{CheckOutcome, MvtsoStore, ReadResult, StoreStats, Transaction, TxStore, Vote};
use std::any::Any;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A replica actor the benchmark can build and inspect.
pub trait BenchReplica: Actor<BasilMsg> + Sized {
    /// Builds the replica exactly as `BasilProtocol::make_replica` does.
    fn build(
        rid: ReplicaId,
        cfg: BasilConfig,
        registry: KeyRegistry,
        behavior: ReplicaBehavior,
        data: Vec<(Key, Value)>,
    ) -> Self;
    /// The replica's MVTSO store.
    fn mvtso(&self) -> &MvtsoStore;
    /// The replica's protocol counters.
    fn replica_stats(&self) -> &ReplicaStats;
    /// Changes the replica's behaviour.
    fn set_replica_behavior(&mut self, behavior: ReplicaBehavior);
}

impl BenchReplica for BasilReplica {
    fn build(
        rid: ReplicaId,
        cfg: BasilConfig,
        registry: KeyRegistry,
        behavior: ReplicaBehavior,
        data: Vec<(Key, Value)>,
    ) -> Self {
        BasilReplica::new(rid, cfg, registry, behavior, data)
    }
    fn mvtso(&self) -> &MvtsoStore {
        self.store()
    }
    fn replica_stats(&self) -> &ReplicaStats {
        self.stats()
    }
    fn set_replica_behavior(&mut self, behavior: ReplicaBehavior) {
        self.set_behavior(behavior);
    }
}

/// Basil on the benchmark's wrappers; `R` selects plain or traced replicas.
pub struct BenchProtocol<R> {
    basil: BasilConfig,
    registry: Option<KeyRegistry>,
    _replica: PhantomData<fn() -> R>,
}

impl<R> BenchProtocol<R> {
    /// Wraps a protocol configuration.
    pub fn new(basil: BasilConfig) -> Self {
        BenchProtocol {
            basil,
            registry: None,
            _replica: PhantomData,
        }
    }

    fn registry(&self) -> &KeyRegistry {
        self.registry
            .as_ref()
            .expect("prepare_build derives the key registry before actors are built")
    }
}

impl<R: BenchReplica> ClusterProtocol for BenchProtocol<R> {
    type Msg = BasilMsg;
    type Client = BenchClient;
    type Replica = R;
    type Stats = ClientStats;

    fn prepare_build(&mut self, seed: u64, num_clients: u32) {
        // The same registry `BasilProtocol::prepare_build` derives.
        let n = self.basil.system.shard.n();
        let replicas = self
            .shards()
            .into_iter()
            .flat_map(move |shard| (0..n).map(move |i| NodeId::Replica(ReplicaId::new(shard, i))));
        let clients = (0..num_clients).map(|i| NodeId::Client(ClientId(i as u64)));
        self.registry = Some(KeyRegistry::from_seed_with_nodes(
            seed,
            replicas.chain(clients),
        ));
    }

    fn shards(&self) -> Vec<ShardId> {
        self.basil.system.shards().collect()
    }

    fn shard_for_key(&self, key: &Key) -> ShardId {
        self.basil.system.shard_for_key(key)
    }

    fn replicas_per_shard(&self) -> u32 {
        self.basil.system.shard.n()
    }

    fn make_replica(
        &self,
        rid: ReplicaId,
        behavior: ReplicaBehavior,
        initial_data: Vec<(Key, Value)>,
    ) -> R {
        R::build(
            rid,
            self.basil.clone(),
            self.registry().clone(),
            behavior,
            initial_data,
        )
    }

    fn make_client(
        &self,
        cid: ClientId,
        generator: Box<dyn TxGenerator>,
        fault: FaultProfile,
        seed: u64,
    ) -> BenchClient {
        let started = Arc::new(AtomicBool::new(false));
        let generator = Box::new(BenchGenerator {
            inner: generator,
            started: Arc::clone(&started),
        });
        BenchClient {
            inner: BasilClient::new(
                cid,
                self.basil.clone(),
                self.registry().clone(),
                generator,
                fault,
                seed,
            ),
            started,
            started_at: SimTime::ZERO,
            seen_committed: 0,
            recording: false,
            latencies_ns: Vec::new(),
        }
    }

    fn client_stats(client: &BenchClient) -> &ClientStats {
        client.inner.stats()
    }

    fn accumulate(stats: &ClientStats, byzantine: bool, snap: &mut Snapshot) {
        basil::BasilProtocol::accumulate(stats, byzantine, snap);
    }

    fn latest_value(replica: &R, key: &Key) -> Option<Value> {
        replica.mvtso().latest_committed(key).map(|(_, v)| v)
    }

    fn committed_transactions(replica: &R) -> Vec<&Transaction> {
        replica.mvtso().committed_iter().collect()
    }

    fn decision(replica: &R, txid: &TxId) -> Option<Decision> {
        replica.mvtso().decision(txid)
    }

    fn set_behavior(replica: &mut R, behavior: ReplicaBehavior) {
        replica.set_replica_behavior(behavior);
    }
}

/// The workload generator seam: flags each transaction start for the
/// client's latency clock and times `next_tx`.
struct BenchGenerator {
    inner: Box<dyn TxGenerator>,
    started: Arc<AtomicBool>,
}

impl TxGenerator for BenchGenerator {
    fn next_tx(&mut self) -> Option<TxProfile> {
        // Relaxed: the flag is read back by the owning client on the same
        // thread, inside the same handler call.
        self.started.store(true, Ordering::Relaxed);
        trace::span("workload.next_tx", || self.inner.next_tx())
    }

    fn next_arrival_delay(&mut self) -> Option<Duration> {
        self.inner.next_arrival_delay()
    }
}

/// A Basil client that records exact commit latencies.
///
/// The client's own histogram measures a commit as `now` at the commit
/// minus `now` at the handler that pulled the transaction from the
/// generator; this wrapper takes the same two readings, unbucketed.
pub struct BenchClient {
    inner: BasilClient,
    started: Arc<AtomicBool>,
    started_at: SimTime,
    seen_committed: u64,
    recording: bool,
    latencies_ns: Vec<u64>,
}

impl BenchClient {
    /// Starts or stops keeping latency samples.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// The commit latencies recorded while recording was on.
    pub fn latencies_ns(&self) -> &[u64] {
        &self.latencies_ns
    }

    fn deliver(
        &mut self,
        ctx: &mut Context<BasilMsg>,
        run: impl FnOnce(&mut BasilClient, &mut Context<BasilMsg>),
    ) {
        let now = ctx.now();
        run(&mut self.inner, ctx);
        let committed = self.inner.stats().committed;
        if committed != self.seen_committed {
            // A closed-loop client completes at most one transaction per
            // event; the run cross-checks the sample count against the
            // client's own histogram.
            if self.recording {
                self.latencies_ns.push((now - self.started_at).as_nanos());
            }
            self.seen_committed = committed;
        }
        if self.started.swap(false, Ordering::Relaxed) {
            self.started_at = now;
        }
    }
}

impl Actor<BasilMsg> for BenchClient {
    fn on_start(&mut self, ctx: &mut Context<BasilMsg>) {
        self.deliver(ctx, |c, ctx| c.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId, msg: BasilMsg) {
        wire_roundtrip(from, &msg);
        let name = client_span(&msg);
        trace::span(name, || {
            self.deliver(ctx, |c, ctx| c.on_message(ctx, from, msg))
        });
    }

    fn on_timer(&mut self, ctx: &mut Context<BasilMsg>, msg: BasilMsg) {
        trace::span("client.ClientTimer", || {
            self.deliver(ctx, |c, ctx| c.on_timer(ctx, msg))
        });
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A replica over a [`TracedStore`] whose handlers are timed per message
/// kind.
pub struct TracedReplica {
    inner: BasilReplica<TracedStore>,
}

impl BenchReplica for TracedReplica {
    fn build(
        rid: ReplicaId,
        cfg: BasilConfig,
        registry: KeyRegistry,
        behavior: ReplicaBehavior,
        data: Vec<(Key, Value)>,
    ) -> Self {
        TracedReplica {
            inner: BasilReplica::new(rid, cfg, registry, behavior, data),
        }
    }
    fn mvtso(&self) -> &MvtsoStore {
        &self.inner.store().0
    }
    fn replica_stats(&self) -> &ReplicaStats {
        self.inner.stats()
    }
    fn set_replica_behavior(&mut self, behavior: ReplicaBehavior) {
        self.inner.set_behavior(behavior);
    }
}

impl Actor<BasilMsg> for TracedReplica {
    fn on_start(&mut self, ctx: &mut Context<BasilMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<BasilMsg>, from: NodeId, msg: BasilMsg) {
        wire_roundtrip(from, &msg);
        let name = replica_span(&msg);
        trace::span(name, || self.inner.on_message(ctx, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Context<BasilMsg>, msg: BasilMsg) {
        trace::span("replica.ReplicaTimer", || self.inner.on_timer(ctx, msg));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn replica_span(msg: &BasilMsg) -> &'static str {
    match msg {
        BasilMsg::Read(_) => "replica.Read",
        BasilMsg::St1(_) => "replica.St1",
        BasilMsg::St2(_) => "replica.St2",
        BasilMsg::Writeback(_) => "replica.Writeback",
        BasilMsg::RtsRelease { .. } => "replica.RtsRelease",
        BasilMsg::ReplicaTimer(_) => "replica.ReplicaTimer",
        _ => "replica.Other",
    }
}

fn client_span(msg: &BasilMsg) -> &'static str {
    match msg {
        BasilMsg::ReadReply(_) => "client.ReadReply",
        BasilMsg::St1Reply(_) => "client.St1Reply",
        BasilMsg::St2Reply(_) => "client.St2Reply",
        BasilMsg::Writeback(_) => "client.Writeback",
        BasilMsg::ClientTimer(_) => "client.ClientTimer",
        _ => "client.Other",
    }
}

/// Encodes a delivered message with the real-IO wire codec, decodes it
/// again (checksum included) and re-encodes the result, counting bytes and
/// any frame whose re-encoding differs. Only runs while recording.
fn wire_roundtrip(from: NodeId, msg: &BasilMsg) {
    if !trace::enabled() || matches!(msg, BasilMsg::ClientTimer(_) | BasilMsg::ReplicaTimer(_)) {
        return;
    }
    let Ok(frame) = trace::span("wire.encode", || encode_msg(from, msg)) else {
        trace::count("wire.mismatches", 1);
        return;
    };
    let decoded = trace::span("wire.decode", || {
        let (payload, _) = split_frame(&frame).ok().flatten()?;
        decode_frame_payload(payload).ok()
    });
    let identical = trace::span("wire.check", || match decoded {
        Some((sender, copy)) => sender == from && encode_msg(sender, &copy).as_ref() == Ok(&frame),
        None => false,
    });
    trace::count("wire.messages", 1);
    trace::count("wire.bytes", frame.len() as u64);
    if !identical {
        trace::count("wire.mismatches", 1);
    }
}

/// An [`MvtsoStore`] whose every call is a `store.*` span.
pub struct TracedStore(MvtsoStore);

fn count_commit_votes(released: &[(TxId, Vote)]) {
    let commits = released.iter().filter(|(_, v)| v.is_commit()).count();
    trace::count("store.released_commit_votes", commits as u64);
}

impl TxStore for TracedStore {
    fn with_initial_data(data: impl IntoIterator<Item = (Key, Value)>) -> Self {
        TracedStore(MvtsoStore::with_initial_data(data))
    }

    fn read(&mut self, key: &Key, ts: Timestamp) -> ReadResult {
        trace::span("store.read", || self.0.read(key, ts))
    }

    fn remove_rts(&mut self, key: &Key, ts: Timestamp) {
        trace::span("store.remove_rts", || self.0.remove_rts(key, ts))
    }

    fn prepare(
        &mut self,
        tx: &Arc<Transaction>,
        local_clock: SimTime,
        delta: Duration,
    ) -> CheckOutcome {
        let outcome = trace::span("store.prepare", || self.0.prepare(tx, local_clock, delta));
        if matches!(outcome, CheckOutcome::Decided(Vote::Commit)) {
            trace::count("store.prepare_commit_votes", 1);
        }
        outcome
    }

    fn commit(&mut self, tx: &Arc<Transaction>) -> Vec<(TxId, Vote)> {
        let released = trace::span("store.commit", || self.0.commit(tx));
        count_commit_votes(&released);
        released
    }

    fn abort(&mut self, txid: TxId) -> Vec<(TxId, Vote)> {
        let released = trace::span("store.abort", || self.0.abort(txid));
        count_commit_votes(&released);
        released
    }

    fn gc_before(&mut self, watermark: Timestamp) {
        trace::span("store.gc_before", || self.0.gc_before(watermark))
    }

    fn prepared_tx_shared(&self, txid: &TxId) -> Option<Arc<Transaction>> {
        trace::span("store.prepared_tx", || self.0.prepared_tx_shared(txid))
    }

    fn store_stats(&self) -> StoreStats {
        self.0.stats()
    }
}
