//! Compiles a [`ScenarioSpec`] onto the simulator seam and executes it.
//!
//! One spec drives any [`ClusterProtocol`] deployment: build-time faults (clock skew, slow replicas) become
//! [`ReplicaPropsOverride`]s, link faults become `basil_simnet`
//! [`LinkFault`]s installed up-front with absolute windows, and the timed
//! actions (crash/restart, partition/heal, misbehave/revert) are walked as
//! a sorted timeline of `run_for` steps. Because every fault compiles to
//! the deterministic simulator's own hooks, replaying the same `(spec,
//! seed)` is bit-for-bit identical ([`ScenarioOutcome::diverges_from`]
//! compares two replays).

use crate::spec::{FaultEvent, RecoveryMode, ScenarioSpec, Selector, WorkloadSpec};
use basil::cluster::{ClusterProtocol, ProtocolCluster, ReplicaPropsOverride};
use basil::harness::{BasilCluster, ClusterConfig};
use basil::report::RunReport;
use basil::workloads::ycsb::YcsbGenerator;
use basil::{BaselineCluster, BaselineClusterConfig};
use basil::{
    BasilConfig, Duration, NodeId, Partition, ReplicaBehavior, ReplicaId, ShardConfig, ShardId,
    SimTime, SystemConfig, TxId,
};
use basil_baselines::{BaselineConfig, SystemKind};
use basil_core::byzantine::FaultProfile;
use basil_simnet::{LinkFault, LinkFaultKind, NodeMatcher};
use basil_store::mvtso::Decision;
use std::collections::HashMap;

/// Everything a scenario run produces, comparable across replays and
/// against pinned corpus expectations.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Committed transactions across correct clients (whole run).
    pub committed: u64,
    /// Aborted attempts across correct clients (whole run).
    pub aborted_attempts: u64,
    /// Commits by Byzantine clients (whole run).
    pub byz_committed: u64,
    /// Fast-path decisions (whole run).
    pub fast_path: u64,
    /// Slow-path decisions (whole run).
    pub slow_path: u64,
    /// Fallback recoveries started (whole run).
    pub fallbacks: u64,
    /// Correct-client commits inside the quiet tail (the liveness signal).
    pub tail_committed: u64,
    /// SHA-256 hex digest of the committed transaction-id set.
    pub digest: String,
    /// SHA-256 hex digest over every replica's per-transaction decision
    /// (replica order × sorted transaction ids): pins decision agreement,
    /// not just the committed set.
    pub decisions_digest: String,
    /// The audit failure, if the committed history failed serializability
    /// or decision agreement.
    pub audit_failure: Option<String>,
    /// Simulator metric: messages dropped (crashes, partitions, faults).
    pub messages_dropped: u64,
    /// Simulator metric: messages garbled by corrupt-link faults.
    pub messages_corrupted: u64,
    /// Simulator metric: messages duplicated by replay-link faults.
    pub messages_replayed: u64,
    /// Throughput/latency report over the post-warmup window.
    pub report: RunReport,
}

/// The failure classes the scenario checks can detect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The committed history failed the serializability or
    /// decision-agreement audit (a safety violation).
    Audit,
    /// A liveness-checkable scenario made no progress in the quiet tail.
    Liveness,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureKind::Audit => write!(f, "audit"),
            FailureKind::Liveness => write!(f, "liveness"),
        }
    }
}

impl ScenarioOutcome {
    /// Checks this single-run outcome against the spec's invariants:
    /// the safety audit always applies; the liveness-under-budget check
    /// applies when [`ScenarioSpec::liveness_checkable`] holds.
    pub fn check(&self, spec: &ScenarioSpec) -> Option<FailureKind> {
        if self.audit_failure.is_some() {
            return Some(FailureKind::Audit);
        }
        if spec.liveness_checkable() && self.tail_committed == 0 {
            return Some(FailureKind::Liveness);
        }
        None
    }

    /// Whether two runs of the same spec disagree on any decision-bearing
    /// result (counts, committed-set digest, or per-replica decisions).
    pub fn diverges_from(&self, other: &ScenarioOutcome) -> bool {
        self.committed != other.committed
            || self.aborted_attempts != other.aborted_attempts
            || self.byz_committed != other.byz_committed
            || self.fast_path != other.fast_path
            || self.slow_path != other.slow_path
            || self.fallbacks != other.fallbacks
            || self.tail_committed != other.tail_committed
            || self.digest != other.digest
            || self.decisions_digest != other.decisions_digest
    }
}

/// One step of the compiled fault timeline.
#[derive(Clone, Copy)]
enum Action {
    Crash(u32),
    Restart(u32, RecoveryMode),
    PartitionOn(usize),
    PartitionHeal(usize),
    Behave(u32, ReplicaBehavior),
    MarkWarm,
    MarkTail,
}

fn rid(index: u32) -> ReplicaId {
    ReplicaId::new(ShardId(0), index)
}

fn matcher(sel: Selector) -> NodeMatcher {
    match sel {
        Selector::Any => NodeMatcher::Any,
        Selector::Clients => NodeMatcher::Clients,
        Selector::Replicas => NodeMatcher::Replicas,
        Selector::Replica(i) => NodeMatcher::Node(NodeId::Replica(rid(i))),
    }
}

fn link_fault(
    kind: LinkFaultKind,
    from: Selector,
    to: Selector,
    at_ms: u64,
    until_ms: u64,
) -> LinkFault {
    LinkFault::new(
        kind,
        matcher(from),
        matcher(to),
        SimTime::from_millis(at_ms),
        SimTime::from_millis(until_ms),
    )
}

/// Executes `spec`'s fault timeline against an already-built cluster and
/// collects the outcome. Generic over the protocol: the same spec drives
/// Basil and the baselines. Build-time faults (clock skew, slow replicas)
/// must already be part of the cluster's configuration — the protocol
/// front-ends ([`run_basil_spec`], [`run_baseline_spec`]) handle that.
pub fn drive<P: ClusterProtocol>(
    cluster: &mut ProtocolCluster<P>,
    spec: &ScenarioSpec,
) -> ScenarioOutcome {
    // Link faults: installed up-front with absolute windows; the simulator
    // applies them only inside [at, until).
    for ev in &spec.faults {
        let fault = match *ev {
            FaultEvent::DropLink {
                from,
                to,
                at_ms,
                until_ms,
                probability,
            } => link_fault(
                LinkFaultKind::Drop { probability },
                from,
                to,
                at_ms,
                until_ms,
            ),
            FaultEvent::DelayLink {
                from,
                to,
                at_ms,
                until_ms,
                extra_us,
            } => link_fault(
                LinkFaultKind::Delay {
                    extra: Duration::from_micros(extra_us),
                },
                from,
                to,
                at_ms,
                until_ms,
            ),
            FaultEvent::ReplayLink {
                from,
                to,
                at_ms,
                until_ms,
                probability,
            } => link_fault(
                LinkFaultKind::Replay { probability },
                from,
                to,
                at_ms,
                until_ms,
            ),
            FaultEvent::CorruptLink {
                from,
                to,
                at_ms,
                until_ms,
                probability,
            } => link_fault(
                LinkFaultKind::Corrupt { probability },
                from,
                to,
                at_ms,
                until_ms,
            ),
            _ => continue,
        };
        cluster.sim_mut().add_link_fault(fault);
    }

    // Timed actions, sorted by (time, insertion order) so both runtimes walk
    // an identical timeline. The measurement marks come first at their
    // timestamp: a snapshot taken at t precedes any fault injected at t.
    let mut timeline: Vec<(u64, usize, Action)> = Vec::new();
    timeline.push((spec.warmup_ms, 0, Action::MarkWarm));
    timeline.push((spec.tail_start_ms(), 1, Action::MarkTail));
    let mut seq = 2;
    let mut push = |timeline: &mut Vec<(u64, usize, Action)>, ms: u64, a: Action| {
        timeline.push((ms, seq, a));
        seq += 1;
    };
    for ev in &spec.faults {
        match *ev {
            FaultEvent::Crash {
                replica,
                at_ms,
                restart_ms,
                recovery,
            } => {
                push(&mut timeline, at_ms, Action::Crash(replica));
                if let Some(r) = restart_ms {
                    push(&mut timeline, r, Action::Restart(replica, recovery));
                }
            }
            FaultEvent::ProcessKill {
                replica,
                at_ms,
                restart_ms,
            } => {
                // The simulator has no OS processes to SIGKILL; the closest
                // model is a crash-stop that loses all volatile state and
                // recovers from the WAL plus peer catch-up — exactly the
                // amnesia restart. The real-IO supervisor executes the same
                // event as an actual `kill -9` + process relaunch.
                push(&mut timeline, at_ms, Action::Crash(replica));
                if let Some(r) = restart_ms {
                    push(
                        &mut timeline,
                        r,
                        Action::Restart(replica, RecoveryMode::Amnesia),
                    );
                }
            }
            FaultEvent::PartitionReplica {
                replica,
                at_ms,
                heal_ms,
            } => {
                // Partitions are pre-registered inactive; the timeline only
                // toggles them.
                let idx = cluster
                    .sim_mut()
                    .add_partition(Partition::isolating([NodeId::Replica(rid(replica))]));
                push(&mut timeline, at_ms, Action::PartitionOn(idx));
                push(&mut timeline, heal_ms, Action::PartitionHeal(idx));
            }
            FaultEvent::Misbehave {
                replica,
                behavior,
                at_ms,
                revert_ms,
            } => {
                push(&mut timeline, at_ms, Action::Behave(replica, behavior));
                if let Some(r) = revert_ms {
                    push(
                        &mut timeline,
                        r,
                        Action::Behave(replica, ReplicaBehavior::Correct),
                    );
                }
            }
            _ => {}
        }
    }
    timeline.sort_by_key(|(ms, seq, _)| (*ms, *seq));

    let mut warm = None;
    let mut tail = None;
    let mut now_ms = 0u64;
    for (ms, _, action) in timeline {
        if ms > now_ms {
            cluster.run_for(Duration::from_millis(ms - now_ms));
            now_ms = ms;
        }
        match action {
            Action::Crash(r) => cluster.crash_replica(rid(r)),
            Action::Restart(r, RecoveryMode::Warm) => cluster.restart_replica_warm(rid(r)),
            Action::Restart(r, RecoveryMode::Amnesia) => cluster.restart_replica_amnesia(rid(r)),
            Action::PartitionOn(idx) => {
                if let Some(p) = cluster.sim_mut().partition_mut(idx) {
                    p.activate();
                }
            }
            Action::PartitionHeal(idx) => {
                if let Some(p) = cluster.sim_mut().partition_mut(idx) {
                    p.heal();
                }
            }
            Action::Behave(r, b) => cluster.set_replica_behavior(rid(r), b),
            Action::MarkWarm => warm = Some(cluster.snapshot()),
            Action::MarkTail => tail = Some(cluster.snapshot()),
        }
    }
    if spec.duration_ms > now_ms {
        cluster.run_for(Duration::from_millis(spec.duration_ms - now_ms));
    }

    let end = cluster.snapshot();
    let warm = warm.unwrap_or_default();
    let tail = tail.unwrap_or_default();
    let metrics = cluster.sim().metrics();
    ScenarioOutcome {
        committed: end.committed,
        aborted_attempts: end.aborted_attempts,
        byz_committed: end.byz_committed,
        fast_path: end.fast_path,
        slow_path: end.slow_path,
        fallbacks: end.fallbacks,
        tail_committed: end.committed.saturating_sub(tail.committed),
        digest: cluster.committed_history_digest(),
        decisions_digest: decisions_digest(cluster),
        audit_failure: cluster.audit().err().map(|e| e.to_string()),
        messages_dropped: metrics.messages_dropped,
        messages_corrupted: metrics.messages_corrupted,
        messages_replayed: metrics.messages_replayed,
        report: RunReport::between(
            &warm,
            &end,
            Duration::from_millis(spec.duration_ms - spec.warmup_ms),
        ),
    }
}

/// SHA-256 hex digest over `(replica, txid, decision)` for every replica ×
/// every committed transaction id (sorted), pinning decision agreement
/// independent of replica iteration order.
fn decisions_digest<P: ClusterProtocol>(cluster: &ProtocolCluster<P>) -> String {
    let mut txids: Vec<TxId> = cluster
        .committed_transactions()
        .iter()
        .map(|tx| tx.id())
        .collect();
    txids.sort_by_key(|t| *t.as_bytes());
    let mut rids: Vec<ReplicaId> = cluster.replica_ids().to_vec();
    rids.sort();
    let mut hasher = basil_crypto::Sha256::new();
    for r in rids {
        if let Some(replica) = cluster.sim().actor::<P::Replica>(NodeId::Replica(r)) {
            for txid in &txids {
                hasher.update(txid.as_bytes());
                hasher.update(&[match P::decision(replica, txid) {
                    None => 0u8,
                    Some(Decision::Commit) => 1,
                    Some(Decision::Abort) => 2,
                }]);
            }
        }
    }
    hasher
        .finalize()
        .as_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn make_generator(spec: &ScenarioSpec, client: u64) -> Box<dyn basil::TxGenerator> {
    let seed = spec.seed.wrapping_add(client.wrapping_mul(7919));
    match spec.workload {
        WorkloadSpec::RwUniform {
            reads,
            writes,
            keys,
        } => Box::new(YcsbGenerator::rw_uniform(
            seed,
            keys,
            reads as usize,
            writes as usize,
        )),
        WorkloadSpec::RwZipf {
            reads,
            writes,
            keys,
            theta,
        } => Box::new(YcsbGenerator::rw_zipf(
            seed,
            keys,
            reads as usize,
            writes as usize,
            theta,
        )),
    }
}

/// The build-time replica-property overrides a spec's clock-skew and
/// slow-replica faults compile to (merged per replica).
fn props_overrides(spec: &ScenarioSpec) -> Vec<(ReplicaId, ReplicaPropsOverride)> {
    let mut map: HashMap<u32, ReplicaPropsOverride> = HashMap::new();
    for ev in &spec.faults {
        match *ev {
            FaultEvent::ClockSkew { replica, skew_us } => {
                map.entry(replica).or_default().clock_skew_ns = Some(skew_us.saturating_mul(1_000));
            }
            FaultEvent::SlowReplica { replica, cores } => {
                map.entry(replica).or_default().cores = Some(cores);
            }
            _ => {}
        }
    }
    let mut out: Vec<(ReplicaId, ReplicaPropsOverride)> =
        map.into_iter().map(|(r, p)| (rid(r), p)).collect();
    out.sort_by_key(|(r, _)| *r);
    out
}

/// Runs `spec` against a Basil deployment and returns the outcome. Panics
/// if the spec fails [`ScenarioSpec::validate`] — validate at the boundary
/// (fuzzer, corpus loader) first.
pub fn run_basil_spec(spec: &ScenarioSpec) -> ScenarioOutcome {
    spec.validate().expect("spec validated before running");
    let mut system = SystemConfig::single_shard_f1();
    system.shard = ShardConfig::new(spec.f);
    let mut basil_cfg = BasilConfig::bench(system).with_batch_size(spec.batch_size);
    basil_cfg.relax_st2_validation = spec.relax_st2;
    let mut config = ClusterConfig::basil_default(spec.clients)
        .with_basil(basil_cfg)
        .with_seed(spec.seed);
    if spec.byz_clients > 0 {
        config = config.with_byzantine_clients(
            spec.byz_clients,
            FaultProfile {
                strategy: spec.byz_strategy,
                faulty_fraction: spec.byz_fraction,
            },
        );
    }
    for (r, props) in props_overrides(spec) {
        config = config.with_replica_props(r, props);
    }
    let mut cluster = BasilCluster::build(config, |cid| make_generator(spec, cid.0));
    drive(&mut cluster, spec)
}

/// Runs `spec` against one of the baseline systems. The baselines deploy
/// fewer replicas than Basil's `5f + 1` and ignore client strategies and
/// replica misbehaviour they don't implement; fault events targeting
/// replica indices outside the baseline's range are harmless no-ops.
pub fn run_baseline_spec(spec: &ScenarioSpec, kind: SystemKind) -> ScenarioOutcome {
    spec.validate().expect("spec validated before running");
    let baseline = BaselineConfig::new(kind)
        .with_shards(1)
        .with_batch_size(spec.batch_size);
    let mut config = BaselineClusterConfig::new(baseline, spec.clients).with_seed(spec.seed);
    for (r, props) in props_overrides(spec) {
        config = config.with_replica_props(r, props);
    }
    let mut cluster = BaselineCluster::build(config, |cid| make_generator(spec, cid.0));
    drive(&mut cluster, spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::base_spec;

    #[test]
    fn base_spec_runs_and_passes_checks_on_serial() {
        let spec = base_spec();
        let out = run_basil_spec(&spec);
        assert!(out.committed > 0, "progress under faults: {out:?}");
        assert!(out.tail_committed > 0, "tail progress: {out:?}");
        assert!(
            out.messages_dropped > 0,
            "crash + drop-link dropped traffic"
        );
        assert_eq!(out.check(&spec), None, "{:?}", out.audit_failure);
    }

    #[test]
    fn replay_is_bit_identical() {
        let spec = base_spec();
        let a = run_basil_spec(&spec);
        let b = run_basil_spec(&spec);
        assert!(!a.diverges_from(&b), "replay identical: {a:?} vs {b:?}");
    }

    #[test]
    fn amnesia_restart_recovers_and_stays_deterministic() {
        let mut spec = base_spec();
        spec.name = "amnesia".into();
        spec.faults = vec![crate::spec::FaultEvent::Crash {
            replica: 4,
            at_ms: 50,
            restart_ms: Some(90),
            recovery: RecoveryMode::Amnesia,
        }];
        spec.validate().expect("valid");
        let out = run_basil_spec(&spec);
        assert!(out.committed > 0, "progress across the amnesia crash");
        assert!(out.tail_committed > 0, "liveness after recovery");
        assert_eq!(out.check(&spec), None, "{:?}", out.audit_failure);
        let replay = run_basil_spec(&spec);
        assert!(
            !out.diverges_from(&replay),
            "replay identical: {out:?} vs {replay:?}"
        );
    }

    #[test]
    fn skew_slow_and_misbehave_compile_onto_the_cluster() {
        let mut spec = base_spec();
        spec.name = "props".into();
        spec.faults = vec![
            crate::spec::FaultEvent::ClockSkew {
                replica: 2,
                skew_us: 5_000,
            },
            crate::spec::FaultEvent::SlowReplica {
                replica: 2,
                cores: 1,
            },
            crate::spec::FaultEvent::Misbehave {
                replica: 2,
                behavior: basil::ReplicaBehavior::WithholdVotes,
                at_ms: 50,
                revert_ms: Some(100),
            },
        ];
        spec.budget.crash = 1;
        spec.budget.deceit = 1;
        spec.validate().expect("valid");
        let out = run_basil_spec(&spec);
        assert!(out.committed > 0, "{out:?}");
        assert_eq!(out.check(&spec), None, "{:?}", out.audit_failure);
    }

    #[test]
    fn baseline_runs_the_same_spec() {
        let mut spec = base_spec();
        spec.byz_clients = 0; // baselines have no Byzantine-client support
        let out = run_baseline_spec(&spec, SystemKind::Tapir);
        assert!(out.committed > 0, "{out:?}");
        assert!(out.audit_failure.is_none(), "{:?}", out.audit_failure);
    }
}
