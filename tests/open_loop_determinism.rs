//! Determinism test for the open-loop throughput plane.
//!
//! Open-loop driving adds a second source of scheduled events — Poisson
//! arrival timers that fire independently of protocol progress — plus the
//! admission queue and load shedding. None of that may perturb determinism:
//! for a fixed seed, two runs must agree bit-for-bit on every simulated
//! result, including the offered/shed accounting.

use basil::harness::{BasilCluster, ClusterConfig};
use basil::workloads::poisson::PoissonTxGenerator;
use basil::workloads::ycsb::YcsbGenerator;
use basil::{BasilConfig, Duration, SystemConfig};

/// A rate chosen past the per-client saturation point so the admission
/// queue actually fills and shedding participates in the run.
const RATE_TPS: f64 = 900.0;

fn run_scenario() -> BasilCluster {
    let basil = BasilConfig::bench(SystemConfig::sharded(2))
        .with_batch_size(16)
        .with_admission_bound(8);
    let basil = basil
        .clone()
        .with_verify_grouping(basil.system.batch_timeout);
    let config = ClusterConfig::basil_default(8)
        .with_basil(basil)
        .with_seed(11);
    let mut cluster = BasilCluster::build(config, |cid| {
        let inner = YcsbGenerator::rw_zipf(
            11u64.wrapping_add(cid.0.wrapping_mul(7919)),
            10_000,
            2,
            2,
            0.9,
        );
        Box::new(PoissonTxGenerator::new(
            inner,
            11u64.wrapping_add(cid.0.wrapping_mul(104_729)),
            RATE_TPS,
        ))
    });
    cluster.run_for(Duration::from_millis(150));
    cluster
}

/// Everything the harness can observe about a run, summarized for equality.
fn fingerprint(cluster: &BasilCluster) -> (u64, u64, u64, u64, u64, u64, String) {
    let snap = cluster.snapshot();
    (
        snap.committed,
        snap.aborted_attempts,
        snap.fast_path,
        snap.slow_path,
        snap.offered,
        snap.shed,
        cluster.committed_history_digest(),
    )
}

#[test]
fn open_loop_poisson_saturates_and_stays_serializable() {
    let cluster = run_scenario();
    let print = fingerprint(&cluster);
    // The scenario is meaningful: load arrived, committed, and was shed.
    assert!(print.0 > 0, "committed under open loop: {print:?}");
    assert!(print.4 > print.0, "offered exceeds committed: {print:?}");
    assert!(print.5 > 0, "saturating rate sheds load: {print:?}");
    cluster.audit().expect("history serializable");
}

#[test]
fn open_loop_reruns_are_bit_identical() {
    assert_eq!(fingerprint(&run_scenario()), fingerprint(&run_scenario()));
}
