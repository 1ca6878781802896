//! The generic simulated-cluster runtime.
//!
//! Historically the repository carried two parallel harnesses — one for
//! Basil deployments and one for the baseline systems — duplicating the
//! whole cluster lifecycle: replica/client spawning, key-registry and
//! genesis-data setup, `run_for`/`run_measured` measurement windows,
//! fault and partition injection, and the serializability audit. This
//! module extracts that lifecycle into one engine, [`ProtocolCluster`],
//! generic over a [`ClusterProtocol`] adapter that contributes only the
//! protocol-specific pieces: how to construct a client or replica actor,
//! how to read its statistics, and how to inspect its store.
//!
//! `basil::harness::BasilCluster` and
//! `basil::baseline_harness::BaselineCluster` are thin aliases over this
//! engine; adding a new protocol to the evaluation means writing one
//! `ClusterProtocol` impl, after which every experiment control — faults,
//! partitions, measurement windows, audits — works unchanged. This is the
//! same apples-to-apples harness discipline the paper's own evaluation
//! needed to compare Basil against TAPIR-style, TxHotstuff, and
//! TxBFT-SMaRt baselines.

use crate::report::{RunReport, Snapshot};
use basil_common::{
    ClientId, Duration, Key, NodeId, ReplicaId, ShardId, SimTime, TxGenerator, TxId, Value,
};
use basil_core::byzantine::FaultProfile;
use basil_core::ReplicaBehavior;
use basil_simnet::{Actor, NetworkConfig, NodeProps, Simulation};
use basil_store::mvtso::Decision;
use basil_store::{audit_serializability, AuditError, Transaction};
use std::collections::HashMap;

/// The protocol-specific slice of a simulated deployment.
///
/// One implementation exists per system under evaluation (Basil, the
/// baselines, and any protocol a future experiment adds). The engine calls
/// these hooks to build the cluster and to observe it; everything else —
/// scheduling, measurement, fault injection, auditing — lives in
/// [`ProtocolCluster`] and is shared.
pub trait ClusterProtocol {
    /// The wire message type exchanged by this protocol's actors.
    type Msg: Clone + 'static;
    /// The client actor type (downcast target for stats collection).
    type Client: Actor<Self::Msg>;
    /// The replica actor type (downcast target for store inspection).
    type Replica: Actor<Self::Msg>;
    /// Per-client statistics exposed by the client actor.
    type Stats: Clone;

    /// Called once at the start of [`ProtocolCluster::build`], before any
    /// actor is constructed (e.g. to derive deployment-wide key material
    /// from the simulation seed). `num_clients` lets the adapter
    /// precompute per-node verification keys for the whole deployment.
    fn prepare_build(&mut self, _seed: u64, _num_clients: u32) {}

    /// The shards of this deployment.
    fn shards(&self) -> Vec<ShardId>;

    /// Placement: the shard responsible for `key`.
    fn shard_for_key(&self, key: &Key) -> ShardId;

    /// Number of replicas per shard (`5f + 1` for Basil, `2f + 1` or
    /// `3f + 1` for the baselines).
    fn replicas_per_shard(&self) -> u32;

    /// Behaviour assigned to replicas without an explicit override.
    fn default_replica_behavior(&self) -> ReplicaBehavior {
        ReplicaBehavior::Correct
    }

    /// Constructs the replica actor for `rid`, preloaded with its shard's
    /// slice of the genesis data.
    fn make_replica(
        &self,
        rid: ReplicaId,
        behavior: ReplicaBehavior,
        initial_data: Vec<(Key, Value)>,
    ) -> Self::Replica;

    /// Rebuilds a replica actor after an *amnesia* restart: the replacement
    /// starts from the shard's genesis data plus whatever durable state the
    /// protocol salvages from the crashed actor (e.g. its write-ahead log).
    /// Returning `None` — the default — declares that the protocol has no
    /// recovery path, and the engine downgrades the restart to a warm one
    /// (pre-crash memory preserved) rather than silently losing state.
    fn recover_replica(
        &self,
        _rid: ReplicaId,
        _initial_data: Vec<(Key, Value)>,
        _old: &mut Self::Replica,
    ) -> Option<Self::Replica> {
        None
    }

    /// Constructs the client actor for `cid` driving `generator`.
    /// Protocols without Byzantine-client support ignore `fault` (the
    /// engine only passes non-honest profiles when the deployment was
    /// configured with Byzantine clients).
    fn make_client(
        &self,
        cid: ClientId,
        generator: Box<dyn TxGenerator>,
        fault: FaultProfile,
        seed: u64,
    ) -> Self::Client;

    /// The client's statistics counters.
    fn client_stats(client: &Self::Client) -> &Self::Stats;

    /// Folds one client's statistics into an aggregate snapshot.
    /// `byzantine` tells the adapter whether the client was configured as
    /// faulty (the paper's methodology excludes Byzantine clients from
    /// throughput).
    fn accumulate(stats: &Self::Stats, byzantine: bool, snap: &mut Snapshot);

    /// The latest committed value of `key` on a replica (inspection).
    fn latest_value(replica: &Self::Replica, key: &Key) -> Option<Value>;

    /// The transactions committed on a replica, borrowed from its store,
    /// for the serializability audit (no clone of the history).
    fn committed_transactions(replica: &Self::Replica) -> Vec<&Transaction>;

    /// The decision a replica recorded for `txid`, if any (for the
    /// decision-agreement audit).
    fn decision(replica: &Self::Replica, txid: &TxId) -> Option<Decision>;

    /// Changes a replica's behaviour mid-run (fault injection). Protocols
    /// without replica misbehaviour support may ignore this.
    fn set_behavior(replica: &mut Self::Replica, behavior: ReplicaBehavior);
}

/// The event-loop runtime a cluster runs on. The serial discrete-event loop
/// is the only one, so this type has a single variant and
/// [`ClusterConfig::with_runtime`] stores nothing. Both exist only for the
/// wall-clock benchmark (`perfbench/`), which calls
/// `.with_runtime(RuntimeMode::Serial)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RuntimeMode {
    /// The single-threaded discrete-event loop.
    #[default]
    Serial,
}

/// Build-time node-property overrides for one replica: clock skew and/or a
/// reduced core count. `None` fields keep the deployment default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicaPropsOverride {
    /// Clock skew in nanoseconds (positive = the replica's clock runs
    /// ahead of global simulation time).
    pub clock_skew_ns: Option<i64>,
    /// Core count override (fewer cores than `replica_cores` models a
    /// straggler / underprovisioned replica).
    pub cores: Option<u32>,
}

impl ReplicaPropsOverride {
    /// An override that only skews the replica's clock.
    pub fn skewed_ns(skew: i64) -> Self {
        ReplicaPropsOverride {
            clock_skew_ns: Some(skew),
            cores: None,
        }
    }

    /// An override that only changes the replica's core count.
    pub fn with_cores(cores: u32) -> Self {
        ReplicaPropsOverride {
            clock_skew_ns: None,
            cores: Some(cores),
        }
    }
}

/// Configuration of a simulated deployment, generic over the protocol
/// adapter `P` supplying the protocol-specific configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig<P> {
    /// The protocol adapter (and its protocol-level configuration).
    pub protocol: P,
    /// Number of closed-loop clients.
    pub num_clients: u32,
    /// How many of the clients follow the Byzantine fault profile.
    pub num_byzantine_clients: u32,
    /// The strategy and fault fraction applied by Byzantine clients.
    pub fault: FaultProfile,
    /// Behaviour overrides for specific replicas.
    pub replica_behaviors: Vec<(ReplicaId, ReplicaBehavior)>,
    /// Node-property overrides for specific replicas: clock skew
    /// (nanoseconds, positive runs ahead) and core count (a "slow
    /// replica" gets fewer cores than `replica_cores`). Scenario specs
    /// compile their `clock-skew` and `slow-replica` faults down to these.
    pub replica_props: Vec<(ReplicaId, ReplicaPropsOverride)>,
    /// Network model.
    pub network: NetworkConfig,
    /// Simulation seed (drives all randomness).
    pub seed: u64,
    /// Initial database contents, loaded as committed genesis versions on
    /// the replicas responsible for each key.
    pub initial_data: Vec<(Key, Value)>,
    /// CPU cores per replica (the paper's m510 machines have 8).
    pub replica_cores: u32,
    /// CPU cores per client process.
    pub client_cores: u32,
}

impl<P> ClusterConfig<P> {
    /// A deployment of `protocol` with `num_clients` honest clients and
    /// the default LAN network, seed, and core counts.
    pub fn for_protocol(protocol: P, num_clients: u32) -> Self {
        ClusterConfig {
            protocol,
            num_clients,
            num_byzantine_clients: 0,
            fault: FaultProfile::honest(),
            replica_behaviors: Vec::new(),
            replica_props: Vec::new(),
            network: NetworkConfig::lan(),
            seed: 42,
            initial_data: Vec::new(),
            replica_cores: 8,
            client_cores: 8,
        }
    }

    /// Sets the initial database contents.
    pub fn with_initial_data(mut self, data: Vec<(Key, Value)>) -> Self {
        self.initial_data = data;
        self
    }

    /// Configures `count` of the clients to follow `fault`.
    pub fn with_byzantine_clients(mut self, count: u32, fault: FaultProfile) -> Self {
        self.num_byzantine_clients = count.min(self.num_clients);
        self.fault = fault;
        self
    }

    /// Sets the simulation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the network model.
    pub fn with_network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Accepts the event-loop runtime and stores nothing: serial is the
    /// only one (see [`RuntimeMode`]).
    pub fn with_runtime(self, _runtime: RuntimeMode) -> Self {
        self
    }

    /// Adds a node-property override (clock skew / cores) for one replica.
    pub fn with_replica_props(mut self, rid: ReplicaId, props: ReplicaPropsOverride) -> Self {
        self.replica_props.push((rid, props));
        self
    }
}

/// A running simulated deployment of protocol `P`.
///
/// Owns the discrete-event simulation and exposes the controls every
/// experiment needs: run for a simulated duration, take
/// throughput/latency measurements over a window, inject replica faults
/// and partitions, and audit the committed history for serializability.
pub struct ProtocolCluster<P: ClusterProtocol> {
    sim: Simulation<P::Msg>,
    config: ClusterConfig<P>,
    clients: Vec<ClientId>,
    replicas: Vec<ReplicaId>,
}

impl<P: ClusterProtocol> ProtocolCluster<P> {
    /// Builds the deployment. `make_generator` is called once per client
    /// to produce its workload.
    pub fn build(
        mut config: ClusterConfig<P>,
        mut make_generator: impl FnMut(ClientId) -> Box<dyn TxGenerator>,
    ) -> Self {
        config
            .protocol
            .prepare_build(config.seed, config.num_clients);
        let mut sim = Simulation::new(config.seed, config.network.clone());

        // Replicas, one group per shard, each holding its shard's slice of
        // the initial data.
        let mut replicas = Vec::new();
        let behavior_overrides: HashMap<ReplicaId, ReplicaBehavior> =
            config.replica_behaviors.iter().copied().collect();
        let props_overrides: HashMap<ReplicaId, ReplicaPropsOverride> =
            config.replica_props.iter().copied().collect();
        for shard in config.protocol.shards() {
            let shard_data: Vec<(Key, Value)> = config
                .initial_data
                .iter()
                .filter(|(k, _)| config.protocol.shard_for_key(k) == shard)
                .cloned()
                .collect();
            for index in 0..config.protocol.replicas_per_shard() {
                let rid = ReplicaId::new(shard, index);
                let behavior = behavior_overrides
                    .get(&rid)
                    .copied()
                    .unwrap_or_else(|| config.protocol.default_replica_behavior());
                let replica = config
                    .protocol
                    .make_replica(rid, behavior, shard_data.clone());
                let mut props = NodeProps::replica().with_cores(config.replica_cores);
                if let Some(o) = props_overrides.get(&rid) {
                    if let Some(skew) = o.clock_skew_ns {
                        props = props.with_skew_ns(skew);
                    }
                    if let Some(cores) = o.cores {
                        props = props.with_cores(cores);
                    }
                }
                sim.add_node(NodeId::Replica(rid), props, Box::new(replica));
                replicas.push(rid);
            }
        }

        // Clients: the first `num_clients - num_byzantine_clients` are
        // honest, the rest follow the configured fault profile.
        let mut clients = Vec::new();
        let honest = config.num_clients - config.num_byzantine_clients;
        for i in 0..config.num_clients {
            let cid = ClientId(i as u64);
            let fault = if i < honest {
                FaultProfile::honest()
            } else {
                config.fault
            };
            let client = config.protocol.make_client(
                cid,
                make_generator(cid),
                fault,
                config.seed.wrapping_add(i as u64),
            );
            sim.add_node(
                NodeId::Client(cid),
                NodeProps::client().with_cores(config.client_cores),
                Box::new(client),
            );
            clients.push(cid);
        }

        ProtocolCluster {
            sim,
            config,
            clients,
            replicas,
        }
    }

    /// Advances the simulation by `d`.
    pub fn run_for(&mut self, d: Duration) {
        self.sim.run_for(d);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Runs a warmup period, then a measurement window, and reports
    /// throughput and latency over the window (correct clients only, as
    /// in the paper).
    pub fn run_measured(&mut self, warmup: Duration, window: Duration) -> RunReport {
        self.run_for(warmup);
        let start = self.snapshot();
        self.run_for(window);
        let end = self.snapshot();
        RunReport::between(&start, &end, window)
    }

    /// Direct access to the underlying simulator (fault injection,
    /// partitions, metrics).
    pub fn sim_mut(&mut self) -> &mut Simulation<P::Msg> {
        &mut self.sim
    }

    /// The simulator's metrics and actors.
    pub fn sim(&self) -> &Simulation<P::Msg> {
        &self.sim
    }

    /// Identifiers of all clients.
    pub fn client_ids(&self) -> &[ClientId] {
        &self.clients
    }

    /// Identifiers of all replicas.
    pub fn replica_ids(&self) -> &[ReplicaId] {
        &self.replicas
    }

    /// Whether client `id` was configured as Byzantine.
    pub fn is_byzantine_client(&self, id: ClientId) -> bool {
        let honest = (self.config.num_clients - self.config.num_byzantine_clients) as u64;
        id.0 >= honest
    }

    /// Per-client statistics.
    pub fn client_stats(&self) -> Vec<(ClientId, P::Stats)> {
        self.clients
            .iter()
            .filter_map(|cid| {
                self.sim
                    .actor::<P::Client>(NodeId::Client(*cid))
                    .map(|c| (*cid, P::client_stats(c).clone()))
            })
            .collect()
    }

    /// Changes a replica's behaviour mid-run (fault injection).
    pub fn set_replica_behavior(&mut self, rid: ReplicaId, behavior: ReplicaBehavior) {
        if let Some(replica) = self.sim.actor_mut::<P::Replica>(NodeId::Replica(rid)) {
            P::set_behavior(replica, behavior);
        }
    }

    /// Crashes a replica (all messages to it are dropped).
    pub fn crash_replica(&mut self, rid: ReplicaId) {
        self.sim.crash(NodeId::Replica(rid));
    }

    /// *Warm*-restarts a crashed replica: deliveries resume and the actor
    /// keeps its full pre-crash memory (a pause, not a real crash).
    pub fn restart_replica_warm(&mut self, rid: ReplicaId) {
        self.sim.restart(NodeId::Replica(rid));
    }

    /// *Amnesia*-restarts a crashed replica: the actor is rebuilt through
    /// [`ClusterProtocol::recover_replica`] — its shard's genesis data plus
    /// whatever durable state the protocol salvages from the crashed actor —
    /// and re-enters the simulation via `Simulation::restart_amnesia`, so
    /// its recovery traffic (WAL-replay catch-up requests, deadlines) joins
    /// the timeline deterministically. Protocols without a recovery path
    /// fall back to a warm restart.
    pub fn restart_replica_amnesia(&mut self, rid: ReplicaId) {
        let id = NodeId::Replica(rid);
        let shard_data: Vec<(Key, Value)> = self
            .config
            .initial_data
            .iter()
            .filter(|(k, _)| self.config.protocol.shard_for_key(k) == rid.shard)
            .cloned()
            .collect();
        let fresh = match self.sim.actor_mut::<P::Replica>(id) {
            Some(old) => self.config.protocol.recover_replica(rid, shard_data, old),
            None => None,
        };
        match fresh {
            Some(replica) => {
                drop(self.sim.restart_amnesia(id, Box::new(replica)));
            }
            None => self.sim.restart(id),
        }
    }

    /// Aggregates client counters into a snapshot (correct clients only
    /// for the throughput-bearing counters, per the paper's methodology).
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for cid in &self.clients {
            if let Some(client) = self.sim.actor::<P::Client>(NodeId::Client(*cid)) {
                P::accumulate(
                    P::client_stats(client),
                    self.is_byzantine_client(*cid),
                    &mut snap,
                );
            }
        }
        snap
    }

    /// The union of transactions committed on any replica, deduplicated by
    /// transaction id and borrowed from the replica stores.
    fn committed_dedup(&self) -> Vec<&Transaction> {
        let mut seen: HashMap<TxId, &Transaction> = HashMap::new();
        for rid in &self.replicas {
            if let Some(replica) = self.sim.actor::<P::Replica>(NodeId::Replica(*rid)) {
                for tx in P::committed_transactions(replica) {
                    seen.entry(tx.id()).or_insert(tx);
                }
            }
        }
        seen.into_values().collect()
    }

    /// The union of transactions committed on any replica, deduplicated
    /// by transaction id (owned copies, for inspection).
    pub fn committed_transactions(&self) -> Vec<Transaction> {
        self.committed_dedup().into_iter().cloned().collect()
    }

    /// SHA-256 hex digest over the sorted committed transaction ids: pins
    /// the exact set of transactions that committed (and therefore every
    /// decision), independent of replica iteration order. The golden
    /// determinism tests compare this digest against captured values.
    pub fn committed_history_digest(&self) -> String {
        let mut ids: Vec<[u8; 32]> = self
            .committed_dedup()
            .iter()
            .map(|tx| *tx.id().as_bytes())
            .collect();
        ids.sort_unstable();
        let mut hasher = basil_crypto::Sha256::new();
        for id in &ids {
            hasher.update(id);
        }
        hasher
            .finalize()
            .as_bytes()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// Audits the committed history: serializability of the union of
    /// committed transactions, and agreement of per-transaction decisions
    /// across replicas (no transaction may be committed on one correct
    /// replica and aborted on another — Lemma 2: no C-CERT and A-CERT
    /// can coexist).
    pub fn audit(&self) -> Result<(), ClusterAuditError> {
        let committed = self.committed_dedup();
        let mut aborted: Vec<TxId> = Vec::new();
        for rid in &self.replicas {
            let Some(replica) = self.sim.actor::<P::Replica>(NodeId::Replica(*rid)) else {
                continue;
            };
            for tx in &committed {
                if P::decision(replica, &tx.id()) == Some(Decision::Abort) {
                    aborted.push(tx.id());
                }
            }
        }
        audit_history(&committed, aborted)
    }

    /// Sum of committed transactions over correct clients.
    pub fn total_committed(&self) -> u64 {
        self.snapshot().committed
    }

    /// The latest committed value of `key` as seen by the first replica
    /// of the key's shard (inspection helper for examples and tests).
    pub fn latest_value(&self, key: &Key) -> Option<Value> {
        let shard = self.config.protocol.shard_for_key(key);
        let rid = ReplicaId::new(shard, 0);
        self.sim
            .actor::<P::Replica>(NodeId::Replica(rid))
            .and_then(|r| P::latest_value(r, key))
    }

    /// The shard responsible for `key` under this deployment's placement.
    pub fn shard_for_key(&self, key: &Key) -> ShardId {
        self.config.protocol.shard_for_key(key)
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig<P> {
        &self.config
    }
}

/// Failures the cluster-level audit can detect.
#[derive(Clone, Debug)]
pub enum ClusterAuditError {
    /// The committed history is not serializable.
    NotSerializable(AuditError),
    /// Correct replicas disagree about a transaction's outcome.
    DivergentDecision {
        /// The transaction with conflicting outcomes.
        txid: TxId,
    },
}

impl std::fmt::Display for ClusterAuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterAuditError::NotSerializable(e) => write!(f, "history not serializable: {e}"),
            ClusterAuditError::DivergentDecision { txid } => {
                write!(f, "replicas disagree on the outcome of {txid}")
            }
        }
    }
}

impl std::error::Error for ClusterAuditError {}

/// Audits a collected history: no transaction may appear both committed and
/// aborted anywhere in the deployment (Lemma 2: no C-CERT and A-CERT can
/// coexist), and the union of committed transactions must be serializable.
///
/// This is the same check [`ProtocolCluster::audit`] runs over live actors,
/// factored out so runtimes that *collect* results instead of holding actors
/// in memory — the real-IO supervisor reads per-process result files — apply
/// the identical judgement. `aborted` is the set of transaction ids any
/// replica finalized as [`Decision::Abort`].
pub fn audit_history<T: std::borrow::Borrow<Transaction>>(
    committed: &[T],
    aborted: impl IntoIterator<Item = TxId>,
) -> Result<(), ClusterAuditError> {
    let aborted: std::collections::HashSet<TxId> = aborted.into_iter().collect();
    for tx in committed {
        let txid = tx.borrow().id();
        if aborted.contains(&txid) {
            return Err(ClusterAuditError::DivergentDecision { txid });
        }
    }
    audit_serializability(committed).map_err(ClusterAuditError::NotSerializable)
}
