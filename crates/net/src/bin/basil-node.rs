//! `basil-node`: one Basil participant as an OS process.
//!
//! Runs the unmodified `BasilReplica` or `BasilClient` state machine from
//! `basil-core` over localhost TCP (see `basil_net`). Launched by the
//! supervisor harness or by hand:
//!
//! ```text
//! basil-node --role replica --who 0 --clients 2 --seed 42 \
//!   --base-port 4600 --epoch-nanos <unix-nanos> --duration-ms 2000 \
//!   --wal /tmp/replica-0.wal --results /tmp/replica-0.results
//! ```
//!
//! Exits 0 after writing the results file; exits 2 on a usage error: an
//! unknown flag, a missing or malformed value, or a `--who` that names no
//! node of the deployment.

use basil_net::node::{deployment_config, run_node, NodeConfig, Role};
use std::path::PathBuf;
use std::str::FromStr;

fn usage(err: &str) -> ! {
    eprintln!("basil-node: {err}");
    eprintln!(
        "usage: basil-node --role replica|client --who N --clients N --seed N \
         --base-port N --epoch-nanos N --duration-ms N [--wal PATH] --results PATH \
         [--keys N] [--reads N] [--writes N]"
    );
    std::process::exit(2);
}

/// Parses a numeric flag value, or exits with a usage error.
fn number<T: FromStr>(flag: &str, raw: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| usage(&format!("{flag} expects a number, got {raw:?}")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut role: Option<String> = None;
    let mut who: Option<u64> = None;
    let mut clients: Option<u32> = None;
    let mut seed: u64 = 42;
    let mut base_port: Option<u16> = None;
    let mut epoch_nanos: Option<u64> = None;
    let mut duration_ms: u64 = 2_000;
    let mut wal: Option<PathBuf> = None;
    let mut results: Option<PathBuf> = None;
    let mut keys: u64 = 1_000;
    let mut reads: usize = 2;
    let mut writes: usize = 2;

    while let Some(flag) = args.next() {
        let mut value = |flag: &str| -> String {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--role" => role = Some(value("--role")),
            "--who" => who = Some(number("--who", &value("--who"))),
            "--clients" => clients = Some(number("--clients", &value("--clients"))),
            "--seed" => seed = number("--seed", &value("--seed")),
            "--base-port" => base_port = Some(number("--base-port", &value("--base-port"))),
            "--epoch-nanos" => epoch_nanos = Some(number("--epoch-nanos", &value("--epoch-nanos"))),
            "--duration-ms" => duration_ms = number("--duration-ms", &value("--duration-ms")),
            "--wal" => wal = Some(PathBuf::from(value("--wal"))),
            "--results" => results = Some(PathBuf::from(value("--results"))),
            "--keys" => keys = number("--keys", &value("--keys")),
            "--reads" => reads = number("--reads", &value("--reads")),
            "--writes" => writes = number("--writes", &value("--writes")),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let who = who.unwrap_or_else(|| usage("--who is required"));
    let num_clients = clients.unwrap_or_else(|| usage("--clients is required"));
    let base_port = base_port.unwrap_or_else(|| usage("--base-port is required"));
    let n = deployment_config().system.shard.n();
    let role = match role.as_deref() {
        Some("replica") => match u32::try_from(who) {
            Ok(index) if index < n => Role::Replica { index },
            _ => usage(&format!("--who {who} is not a replica index in 0..{n}")),
        },
        Some("client") if who < u64::from(num_clients) => Role::Client { id: who },
        Some("client") => usage(&format!(
            "--who {who} is not a client id in 0..{num_clients}"
        )),
        _ => usage("--role must be replica or client"),
    };
    // Clients listen at `base_port + 100 + id`; every one needs a port.
    if u64::from(base_port) + 100 + u64::from(num_clients) > 65_536 {
        usage(&format!(
            "--base-port {base_port} with --clients {num_clients} runs past port 65535"
        ));
    }
    let cfg = NodeConfig {
        role,
        num_clients,
        seed,
        base_port,
        epoch_unix_nanos: epoch_nanos.unwrap_or_else(|| usage("--epoch-nanos is required")),
        duration_ms,
        wal_path: wal,
        results_path: results.unwrap_or_else(|| usage("--results is required")),
        keys,
        reads,
        writes,
    };
    if let Err(e) = run_node(&cfg) {
        eprintln!("basil-node: {e}");
        std::process::exit(1);
    }
}
