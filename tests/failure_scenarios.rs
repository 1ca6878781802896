//! The Figure 7 failure scenario as a declarative [`ScenarioSpec`], run
//! twice.
//!
//! Figure 7 measures Basil under Byzantine-client attacks; this test ports
//! that scenario — a contended Zipfian workload with 30% equivocating
//! Byzantine clients — and layers the fault injections the figure binaries
//! drive interactively: a replica crash and restart, and a network
//! partition that isolates another replica for part of the run. Where this
//! test once hand-coded the phase schedule against the harness, the whole
//! adversary is now *data*: one spec, compiled by `basil_scenario::runner`
//! onto the simulator seam and executed twice. The replay must agree on
//! *every* decision: commit/abort counts, path split, fallback count, the
//! digest of the committed set, and each replica's per-transaction
//! decision digest.

use basil_core::byzantine::ClientStrategy;
use basil_scenario::runner::run_basil_spec;
use basil_scenario::spec::{FaultBudget, FaultEvent, RecoveryMode, ScenarioSpec, WorkloadSpec};

const CLIENTS: u32 = 10;
const BYZANTINE: u32 = 3; // 30%, the paper's headline fraction

/// The fig7 adversary as data: crash replica 4 at 60 ms (restart at
/// 120 ms), partition replica 5 during [120 ms, 180 ms), on a contended
/// Zipf workload with 30% equivocating clients. Two distinct replicas are
/// perturbed, so the benign budget is 2 — more than `f`, which correctly
/// disarms the liveness check (safety is still audited); the progress
/// assertions below stand in for it.
fn fig7_spec() -> ScenarioSpec {
    let spec = ScenarioSpec {
        name: "fig7-failures".into(),
        seed: 23,
        clients: CLIENTS,
        byz_clients: BYZANTINE,
        byz_strategy: ClientStrategy::EquivReal,
        byz_fraction: 1.0,
        f: 1,
        batch_size: 16,
        relax_st2: false,
        warmup_ms: 60,
        duration_ms: 300,
        tail_ms: 60,
        budget: FaultBudget {
            crash: 2,
            deceit: 0,
        },
        workload: WorkloadSpec::RwZipf {
            reads: 2,
            writes: 2,
            keys: 5_000,
            theta: 0.9,
        },
        faults: vec![
            FaultEvent::Crash {
                replica: 4,
                at_ms: 60,
                restart_ms: Some(120),
                recovery: RecoveryMode::Warm,
            },
            FaultEvent::PartitionReplica {
                replica: 5,
                at_ms: 120,
                heal_ms: 180,
            },
        ],
        expect: None,
    };
    spec.validate().expect("fig7 spec is well-formed");
    spec
}

#[test]
fn fig7_failure_scenario_replays_identically() {
    let spec = fig7_spec();
    let serial = run_basil_spec(&spec);
    let replay = run_basil_spec(&spec);

    assert_eq!(replay.committed, serial.committed, "committed");
    assert_eq!(
        replay.aborted_attempts, serial.aborted_attempts,
        "aborted attempts"
    );
    assert_eq!(replay.fast_path, serial.fast_path, "fast-path decisions");
    assert_eq!(replay.slow_path, serial.slow_path, "slow-path decisions");
    assert_eq!(replay.fallbacks, serial.fallbacks, "fallback invocations");
    assert_eq!(
        replay.byz_committed, serial.byz_committed,
        "byzantine commits"
    );
    assert_eq!(replay.digest, serial.digest, "committed-set digest");
    assert_eq!(
        replay.decisions_digest, serial.decisions_digest,
        "per-replica decisions"
    );
    assert!(
        !serial.diverges_from(&replay),
        "replays agree on every compared field"
    );

    // The scenario is meaningful: work committed in every phase, the crash
    // dropped traffic, and correct clients kept making progress with 30%
    // Byzantine clients (the paper's graceful-degradation claim).
    assert!(
        serial.committed > 100,
        "correct clients progressed: {serial:?}"
    );
    assert!(
        serial.tail_committed > 0,
        "progress after the faults healed: {serial:?}"
    );
    assert!(
        serial.messages_dropped > 0,
        "crash/partition actually dropped messages"
    );
    assert_eq!(serial.audit_failure, None, "history serializable");
}
