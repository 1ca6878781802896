//! Figure 5c: scaling the number of shards on the CPU-bound RW-U workload
//! with three reads and three writes per transaction, for Basil and
//! Basil-NoProofs. The paper reports the 1 -> 3 shard scale-up (1.3x with
//! proofs, 1.9x without: cross-shard certificates cost a signature per
//! shard); this reproduction extends the sweep to eight shards, which the
//! paper's testbed never reached, and adds an `f = 2` (n = 11 replicas per
//! shard) row probing the proofs-bound-scale-out claim at the larger
//! deployment the schedule fuzzer already exercises: quorum certificates
//! grow from 4 to 7 signatures, so the proofs gap should widen.
//!
//! The offered load scales with the deployment: `clients_per_shard`
//! closed-loop clients per shard (default 24, the paper's saturating load
//! per shard), so larger deployments are measured at saturation rather
//! than at a fixed, increasingly idle client count. `BASIL_FIG5C_SHARDS`
//! overrides the f = 1 sweep width and `BASIL_FIG5C_F2_SHARDS` the shard
//! count of the f = 2 row (0 skips it).

use basil_bench::{basil_default, basil_with_f, print_table, run_basil, RunParams, Workload};

fn env_u32(name: &str, default: u32) -> u32 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let quick = std::env::var("BASIL_BENCH_QUICK").is_ok();
    let base = if quick {
        RunParams::quick()
    } else {
        RunParams::default()
    };
    let max_shards = env_u32("BASIL_FIG5C_SHARDS", if quick { 3 } else { 8 }).max(1);
    let f2_shards = env_u32("BASIL_FIG5C_F2_SHARDS", if quick { 1 } else { 3 });
    let clients_per_shard = base.clients;
    let workload = Workload::RwUniform {
        reads: 3,
        writes: 3,
    };
    let mut rows = Vec::new();
    let mut basil_at = Vec::new();
    let mut noproofs_at = Vec::new();
    for shards in 1..=max_shards {
        let p = base.clone().with_clients(clients_per_shard * shards);
        let with_sigs = run_basil(basil_default(shards), workload, &p);
        let no_proofs = run_basil(basil_default(shards).without_proofs(), workload, &p);
        basil_at.push(with_sigs.throughput_tps);
        noproofs_at.push(no_proofs.throughput_tps);
        rows.push(vec![
            shards.to_string(),
            "1".to_string(),
            p.clients.to_string(),
            format!("{:.0}", with_sigs.throughput_tps),
            format!("{:.1}x", with_sigs.throughput_tps / basil_at[0].max(1.0)),
            format!("{:.0}", no_proofs.throughput_tps),
            format!("{:.1}x", no_proofs.throughput_tps / noproofs_at[0].max(1.0)),
        ]);
        eprintln!(
            "[fig5c] {shards} shard(s) f=1, {} clients: Basil {:.0} tx/s, NoProofs {:.0} tx/s",
            p.clients, with_sigs.throughput_tps, no_proofs.throughput_tps
        );
    }
    // The f = 2 row: n = 11 replicas per shard, commit quorum 7. Compared
    // against the f = 1 deployment of the same shard count it isolates what
    // larger quorum certificates cost with and without proofs.
    let mut f2 = None;
    if f2_shards > 0 {
        let p = base.clone().with_clients(clients_per_shard * f2_shards);
        let with_sigs = run_basil(basil_with_f(f2_shards, 2), workload, &p);
        let no_proofs = run_basil(basil_with_f(f2_shards, 2).without_proofs(), workload, &p);
        rows.push(vec![
            f2_shards.to_string(),
            "2".to_string(),
            p.clients.to_string(),
            format!("{:.0}", with_sigs.throughput_tps),
            format!("{:.1}x", with_sigs.throughput_tps / basil_at[0].max(1.0)),
            format!("{:.0}", no_proofs.throughput_tps),
            format!("{:.1}x", no_proofs.throughput_tps / noproofs_at[0].max(1.0)),
        ]);
        eprintln!(
            "[fig5c] {f2_shards} shard(s) f=2 (n=11), {} clients: Basil {:.0} tx/s, NoProofs {:.0} tx/s",
            p.clients,
            with_sigs.throughput_tps,
            no_proofs.throughput_tps
        );
        f2 = Some((with_sigs.throughput_tps, no_proofs.throughput_tps));
    }
    print_table(
        "Figure 5c: shard scaling (RW-U, 3 reads / 3 writes, saturating load)",
        &[
            "shards",
            "f",
            "clients",
            "Basil tx/s",
            "vs 1 (f=1)",
            "NoProofs tx/s",
            "vs 1 (f=1)",
        ],
        &rows,
    );
    let idx3 = (3.min(max_shards) - 1) as usize;
    println!(
        "\nScale-up 1 -> 3 shards: Basil {:.1}x (paper 1.3x), NoProofs {:.1}x (paper 1.9x)",
        basil_at[idx3] / basil_at[0].max(1.0),
        noproofs_at[idx3] / noproofs_at[0].max(1.0)
    );
    if max_shards > 3 {
        println!(
            "Scale-up 1 -> {max_shards} shards (beyond the paper): Basil {:.1}x, NoProofs {:.1}x",
            basil_at[(max_shards - 1) as usize] / basil_at[0].max(1.0),
            noproofs_at[(max_shards - 1) as usize] / noproofs_at[0].max(1.0)
        );
    }
    if let Some((b2, np2)) = f2 {
        if (f2_shards as usize) <= basil_at.len() {
            let i = (f2_shards - 1) as usize;
            println!(
                "f=1 -> f=2 at {f2_shards} shard(s): Basil {:.0} -> {:.0} tx/s ({:.2}x), \
                 NoProofs {:.0} -> {:.0} tx/s ({:.2}x)",
                basil_at[i],
                b2,
                b2 / basil_at[i].max(1.0),
                noproofs_at[i],
                np2,
                np2 / noproofs_at[i].max(1.0)
            );
        }
    }
}
