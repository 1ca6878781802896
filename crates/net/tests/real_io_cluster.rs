//! The real-IO smoke test: an n = 6 / f = 1 Basil deployment as actual OS
//! processes over localhost TCP, driven by the supervisor harness.
//!
//! Two scenarios: a fault-free run, and a run where one replica is
//! SIGKILLed mid-flight and restarted over its surviving WAL file — the
//! restart goes through `BasilReplica::recover` and real `CatchUpRequest`
//! traffic. Both must complete the workload and pass the same
//! serializability + decision-agreement audit the simulator applies.

use basil_net::supervisor::{run_cluster, KillPlan, SupervisorConfig};
use std::path::PathBuf;

fn node_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_basil-node"))
}

/// A port range unique to this test process; stays clear of the reconnect
/// tests' 21000–29000 window.
fn base_port(offset: u16) -> u16 {
    30000 + (std::process::id() as u16 % 200) * 160 + offset
}

fn workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("basil-net-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn six_process_cluster_commits_and_audits() {
    let cfg = SupervisorConfig {
        node_bin: node_bin(),
        num_clients: 2,
        seed: 42,
        base_port: base_port(0),
        run_ms: 3_000,
        kill: None,
        workdir: workdir("clean"),
        workload: (200, 2, 2),
    };
    let outcome = run_cluster(&cfg).expect("cluster runs to completion");
    assert_eq!(outcome.replicas.len(), 6, "all six replicas reported");
    assert_eq!(outcome.clients.len(), 2, "all clients reported");
    let committed = outcome.total_committed();
    assert!(committed > 0, "clients committed over real TCP");
    outcome.audit().expect("history is serializable and agreed");
    // Replicas actually persisted: the WAL carries at least the committed
    // transactions' prepare/decision/apply records.
    let wal_appends: u64 = outcome.replicas.values().map(|r| r.wal_appends).sum();
    assert!(wal_appends > 0, "real WAL files got records");
    let _ = std::fs::remove_dir_all(&cfg.workdir);
}

#[test]
fn sigkill_mid_run_recovers_through_the_real_wal() {
    let victim = 2;
    let cfg = SupervisorConfig {
        node_bin: node_bin(),
        num_clients: 2,
        seed: 77,
        base_port: base_port(110),
        run_ms: 6_000,
        kill: Some(KillPlan {
            replica: victim,
            at_ms: 1_500,
            restart_ms: 2_500,
        }),
        workdir: workdir("kill"),
        workload: (200, 2, 2),
    };
    let outcome = run_cluster(&cfg).expect("cluster survives a SIGKILL");
    assert_eq!(
        outcome.replicas.len(),
        6,
        "the victim came back and reported"
    );
    let committed = outcome.total_committed();
    assert!(
        committed > 0,
        "clients kept committing around the crash (no wedged clients)"
    );
    outcome.audit().expect("post-recovery history audits clean");

    let recovered = &outcome.replicas[&victim];
    assert!(
        recovered.catch_up_applied > 0,
        "the restarted process applied peer catch-up certificates \
         (real CatchUpRequest traffic): {recovered:?}"
    );
    // The recovered replica rejoined the history: it holds committed
    // transactions even though its process started with nothing but the
    // WAL file.
    assert!(
        !recovered.committed.is_empty(),
        "recovered replica reconstructed committed state"
    );
    let _ = std::fs::remove_dir_all(&cfg.workdir);
}
