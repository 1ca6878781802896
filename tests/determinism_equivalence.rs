//! Determinism-equivalence golden test for the zero-copy message plane.
//!
//! The Arc-sharing refactor (reference-counted `Transaction`s and
//! `DecisionCert`s inside protocol messages and record state) must not change
//! any simulated result: it removes copies, not behaviour. In the same spirit
//! as the scheduler golden-trace test of `basil-simnet`, this test runs a
//! fixed-seed three-shard scenario and pins the results — commit/abort
//! counts, path split, and a digest over the exact set of committed
//! transaction ids — to the values captured from the pre-refactor binary
//! (commit a89501c). A mismatch means a change to simulated behaviour, not
//! just to its cost.

use basil::harness::{BasilCluster, ClusterConfig};
use basil::workloads::ycsb::YcsbGenerator;
use basil::{BasilConfig, Duration, SystemConfig};

/// Values captured from the pre-refactor binary. Scenario: 3 shards,
/// 12 clients, RW-U 2r2w over 10k keys, seed 7, 50 ms warmup + 200 ms window.
const EXPECTED_COMMITTED: u64 = 992;
const EXPECTED_ABORTED: u64 = 12;
const EXPECTED_FAST: u64 = 999;
const EXPECTED_SLOW: u64 = 5;
const EXPECTED_HISTORY_DIGEST: &str =
    "e275d26a31fe5101bbbf203382700ab764d90a6b8a18701e0d4628e934669d59";

fn run_scenario() -> BasilCluster {
    let basil = BasilConfig::bench(SystemConfig::sharded(3)).with_batch_size(16);
    let config = ClusterConfig::basil_default(12)
        .with_basil(basil)
        .with_seed(7);
    let mut cluster = BasilCluster::build(config, |cid| {
        Box::new(YcsbGenerator::rw_uniform(
            7u64.wrapping_add(cid.0.wrapping_mul(7919)),
            10_000,
            2,
            2,
        ))
    });
    cluster.run_for(Duration::from_millis(250));
    cluster
}

#[test]
fn arc_refactor_preserves_simulated_results() {
    let cluster = run_scenario();
    let snap = cluster.snapshot();
    // The canonical digest helper (SHA-256 over sorted committed ids),
    // shared with the scenario runner so the definition cannot drift.
    let digest = cluster.committed_history_digest();
    eprintln!(
        "capture: committed={} aborted={} fast={} slow={} digest={digest}",
        snap.committed, snap.aborted_attempts, snap.fast_path, snap.slow_path,
    );
    assert_eq!(snap.committed, EXPECTED_COMMITTED, "committed count");
    assert_eq!(snap.aborted_attempts, EXPECTED_ABORTED, "aborted attempts");
    assert_eq!(snap.fast_path, EXPECTED_FAST, "fast-path decisions");
    assert_eq!(snap.slow_path, EXPECTED_SLOW, "slow-path decisions");
    assert_eq!(digest, EXPECTED_HISTORY_DIGEST, "committed-history digest");
    cluster.audit().expect("history serializable");
}

/// Beyond the decisions: a replay reproduces the full simulator metrics
/// (event counts, message counts, per-node CPU accounting), so the event
/// trace itself repeats, not just its outcome.
#[test]
fn replay_reproduces_simulator_metrics() {
    let first = run_scenario();
    let replay = run_scenario();
    let fm = first.sim().metrics();
    let rm = replay.sim().metrics();
    assert_eq!(rm.events_processed, fm.events_processed);
    assert_eq!(rm.messages_sent, fm.messages_sent);
    assert_eq!(rm.messages_delivered, fm.messages_delivered);
    assert_eq!(rm.messages_dropped, fm.messages_dropped);
    assert_eq!(rm.last_event_at, fm.last_event_at);
    assert_eq!(rm.per_node.len(), fm.per_node.len());
    for (id, fnode) in &fm.per_node {
        let rnode = rm.per_node.get(id).expect("node present in the replay");
        assert_eq!(rnode.messages_processed, fnode.messages_processed, "{id:?}");
        assert_eq!(rnode.timers_fired, fnode.timers_fired, "{id:?}");
        assert_eq!(rnode.cpu_busy, fnode.cpu_busy, "{id:?}");
        assert_eq!(rnode.queue_wait, fnode.queue_wait, "{id:?}");
        assert_eq!(rnode.messages_sent, fnode.messages_sent, "{id:?}");
    }
}
