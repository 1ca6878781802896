//! Wall-clock benchmark of the Basil reproduction.
//!
//! ```text
//! basil-perfbench --workload <ycsb-u|ycsb-z|tpcc-noproofs> --seed <n>
//!                 --seconds <s> --trace <0|1>
//! ```
//!
//! One run measures a series of short repetitions for `--seconds` of wall
//! time. Each builds a fresh one-shard Basil cluster (n = 6, f = 1, 24
//! closed-loop clients, LAN network) on the serial simulator with real
//! cryptography, from its own seed derived from `--seed`, warms it up and
//! measures a fixed window of simulated time. The same seed always gives the
//! same transactions, and repetition *i* the same simulated results; only
//! wall-clock figures vary. Wall-clock figures are scaled to the host's
//! undisturbed speed by a probe run between slices of each window (see
//! [`host::probe`]) and reported as medians over the repetitions.
//!
//! Every run also reruns repetition 0 with simulated cryptography (the
//! crypto probe). With `--trace 1` it reruns repetition 0 once more with
//! every layer wrapped in spans (see `wrap.rs`), prints the per-layer table
//! and writes the raw spans to [`SPANS_DIR`]. Every measured cluster must
//! pass the serializability and decision-agreement audit, and both reruns
//! must commit the identical history (same digest) as repetition 0.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the metrics are the
//! end-to-end set without tracing and the per-layer set with it.

mod host;
mod trace;
mod wrap;

use basil::cluster::{ClusterConfig, ProtocolCluster};
use basil::report::RunReport;
use basil_common::{ClientId, Duration, NodeId, SystemConfig, TxGenerator};
use basil_core::config::CryptoMode;
use basil_core::{BasilConfig, BasilReplica};
use basil_simnet::NetworkConfig;
use basil_store::StoreStats;
use basil_workloads::tpcc::TpccGenerator;
use basil_workloads::ycsb::YcsbGenerator;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use wrap::{BenchClient, BenchProtocol, BenchReplica, TracedReplica};

/// Closed-loop clients per cluster.
const CLIENTS: u32 = 24;
/// Keys of the YCSB-T key space.
const YCSB_KEYS: u64 = 1_000_000;
/// Slices a measured window is cut into, with a speed probe before each
/// and after the last. The benchmark shares its cores with other tenants:
/// the same repetition takes up to twice as long from one second to the
/// next, and whole minutes run slow. The probes' mean time against
/// [`host::REFERENCE_PROBE_S`] gives the window's host speed, and wall
/// times are scaled by it (see [`Shape::sensitivity`]).
const SLICES: u64 = 20;
/// [`Shape::sensitivity`] of a cluster build: measured on all three
/// workloads (log-log slope 0.55 to 0.65 against the probes' speed).
const BUILD_SENSITIVITY: f64 = 0.6;
/// Reruns of repetition 0 with simulated cryptography (the crypto probe);
/// their median is used.
const CRYPTO_PROBES: usize = 3;
/// Where a traced run writes its spans, relative to the repository root.
const SPANS_DIR: &str = "perfbench/out";

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug)]
enum Workload {
    /// YCSB-T RW-U: 2 reads + 2 writes over 1M uniform keys, reply batch
    /// 16, signatures on. Uncontended; crypto-bound.
    YcsbU,
    /// The same transactions over Zipf(0.9) keys. Contended: aborts,
    /// retries, ST2 slow path.
    YcsbZ,
    /// TPC-C, 20 warehouses, reply batch 4, signatures off (the paper's
    /// Basil-NoProofs). Read-heavy; store- and simulator-bound.
    TpccNoProofs,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "ycsb-u" => Some(Workload::YcsbU),
            "ycsb-z" => Some(Workload::YcsbZ),
            "tpcc-noproofs" => Some(Workload::TpccNoProofs),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::YcsbU => "ycsb-u",
            Workload::YcsbZ => "ycsb-z",
            Workload::TpccNoProofs => "tpcc-noproofs",
        }
    }

    fn basil(self, crypto: CryptoMode) -> BasilConfig {
        let mut cfg = BasilConfig::bench(SystemConfig::single_shard_f1());
        cfg = match self {
            Workload::YcsbU | Workload::YcsbZ => cfg.with_batch_size(16),
            Workload::TpccNoProofs => cfg.with_batch_size(4).without_proofs(),
        };
        cfg.crypto_mode = crypto;
        cfg
    }

    fn generator(self, client: ClientId, seed: u64) -> Box<dyn TxGenerator> {
        let s = seed.wrapping_add(client.0.wrapping_mul(7919));
        match self {
            Workload::YcsbU => Box::new(YcsbGenerator::rw_uniform(s, YCSB_KEYS, 2, 2)),
            Workload::YcsbZ => Box::new(YcsbGenerator::rw_zipf(s, YCSB_KEYS, 2, 2, 0.9)),
            Workload::TpccNoProofs => Box::new(TpccGenerator::new(s, 20)),
        }
    }

    /// One repetition of the workload. Each repetition runs a fresh
    /// cluster, which bounds memory: the stores and logs only grow (no GC),
    /// by about 25 KB per YCSB commit and 100 KB per TPC-C commit. Short
    /// windows keep the heap small and give a run many repetitions to take
    /// medians over; `ycsb-z` gets a longer one so its retries and slow
    /// path settle.
    fn shape(self) -> Shape {
        let ms = Duration::from_millis;
        let (warmup, window, sensitivity) = match self {
            Workload::YcsbU => (ms(20), ms(100), 0.85),
            Workload::YcsbZ => (ms(50), ms(200), 0.9),
            Workload::TpccNoProofs => (ms(50), ms(100), 0.7),
        };
        Shape {
            warmup,
            window,
            sensitivity,
        }
    }
}

/// How one repetition runs and how its wall time is scaled.
#[derive(Clone, Copy)]
struct Shape {
    /// Simulated warm-up before the measured window.
    warmup: Duration,
    /// Simulated time measured.
    window: Duration,
    /// How strongly the window's wall time follows the host speed: the
    /// slope of log(wall time) against log(1 / host speed) across the
    /// repetitions of a long run on a loaded host. Wall times are multiplied
    /// by `speed^sensitivity`. Crypto-bound work follows the probe closely;
    /// store- and memory-bound work less.
    sensitivity: f64,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

type Cluster<R> = ProtocolCluster<BenchProtocol<R>>;

fn build<R: BenchReplica>(workload: Workload, seed: u64, crypto: CryptoMode) -> Cluster<R> {
    build_with(workload, seed, crypto, |_| {})
}

/// [`build`], calling `before_generator` before each client's generator
/// is made.
fn build_with<R: BenchReplica>(
    workload: Workload,
    seed: u64,
    crypto: CryptoMode,
    mut before_generator: impl FnMut(ClientId),
) -> Cluster<R> {
    let config = ClusterConfig::for_protocol(BenchProtocol::new(workload.basil(crypto)), CLIENTS)
        .with_seed(seed)
        .with_network(NetworkConfig::lan())
        // Pinned: the simulated results do not depend on the runtime, but
        // the wall clock does.
        .with_runtime(basil::RuntimeMode::Serial);
    ProtocolCluster::build(config, |client| {
        before_generator(client);
        workload.generator(client, seed)
    })
}

/// [`build`] with real cryptography, timed: returns the cluster and its
/// build time scaled to host speed 1. A speed probe runs before each
/// client's generator is made (the Zipf normalisation of `ycsb-z`, about
/// 0.5 s, is most of a build) and once after the build; the probes' own
/// time is taken out of the build's.
fn build_timed(workload: Workload, seed: u64) -> (Cluster<BasilReplica>, f64) {
    let mut probe_s = 0.0;
    let mut probes = 1;
    let begin = Instant::now();
    let cluster = build_with(workload, seed, CryptoMode::Real, |_| {
        probe_s += host::probe();
        probes += 1;
    });
    probe_s += host::probe();
    let wall_s = begin.elapsed().as_secs_f64() - probe_s;
    let speed = host::REFERENCE_PROBE_S * probes as f64 / probe_s;
    (cluster, wall_s * speed.powf(BUILD_SENSITIVITY))
}

/// Counters summed over the cluster at one instant.
#[derive(Default)]
struct Counters {
    events: u64,
    msgs: u64,
    queue_wait_ns: u64,
    cpu_ns: u64,
    replies_batched: u64,
    batches_signed: u64,
    wal_appends: u64,
    cert_hits: u64,
    cert_misses: u64,
    store: StoreStats,
}

impl Counters {
    fn read<R: BenchReplica>(cluster: &Cluster<R>) -> Self {
        let metrics = cluster.sim().metrics();
        let mut c = Counters {
            events: metrics.events_processed,
            msgs: metrics.messages_delivered,
            ..Counters::default()
        };
        for node in metrics.per_node.values() {
            c.queue_wait_ns += node.queue_wait.as_nanos();
            c.cpu_ns += node.cpu_busy.as_nanos();
        }
        for rid in cluster.replica_ids() {
            if let Some(r) = cluster.sim().actor::<R>(NodeId::Replica(*rid)) {
                let s = r.replica_stats();
                c.replies_batched += s.replies_batched;
                c.batches_signed += s.batches_signed;
                c.wal_appends += s.wal_appends;
                c.store.merge(&r.mvtso().stats());
            }
        }
        for (_, s) in cluster.client_stats() {
            c.cert_hits += s.cert_cache_hits;
            c.cert_misses += s.cert_cache_misses;
        }
        c
    }

    fn since(&self, start: &Counters) -> Counters {
        Counters {
            events: self.events - start.events,
            msgs: self.msgs - start.msgs,
            queue_wait_ns: self.queue_wait_ns - start.queue_wait_ns,
            cpu_ns: self.cpu_ns - start.cpu_ns,
            replies_batched: self.replies_batched - start.replies_batched,
            batches_signed: self.batches_signed - start.batches_signed,
            wal_appends: self.wal_appends - start.wal_appends,
            cert_hits: self.cert_hits - start.cert_hits,
            cert_misses: self.cert_misses - start.cert_misses,
            store: StoreStats {
                prepares: self.store.prepares - start.store.prepares,
                fast_path_checks: self.store.fast_path_checks - start.store.fast_path_checks,
                slow_path_checks: self.store.slow_path_checks - start.store.slow_path_checks,
                reader_scan_skips: self.store.reader_scan_skips - start.store.reader_scan_skips,
            },
        }
    }
}

/// One measured window.
struct Window {
    wall_s: f64,
    /// How fast the host ran during the window: the reference probe time
    /// over the probes' mean time (1 undisturbed, 0.5 at half speed).
    speed: f64,
    /// The wall time the window would have taken at host speed 1.
    undisturbed_wall_s: f64,
    report: RunReport,
    latencies_ns: Vec<u64>,
    histogram_samples: u64,
    fast_decisions: u64,
    slow_decisions: u64,
    counters: Counters,
    digest: String,
    audit: Result<(), String>,
}

impl Window {
    /// Commits per wall second at host speed 1.
    fn commit_rate(&self) -> f64 {
        ratio(self.report.committed as f64, self.undisturbed_wall_s)
    }
}

fn set_recording<R: BenchReplica>(cluster: &mut Cluster<R>, on: bool) {
    let ids = cluster.client_ids().to_vec();
    for cid in ids {
        if let Some(c) = cluster
            .sim_mut()
            .actor_mut::<BenchClient>(NodeId::Client(cid))
        {
            c.set_recording(on);
        }
    }
}

/// Runs `cluster` for the warm-up, then times the window of simulated time
/// in [`SLICES`] slices between speed probes; `traced` records spans over
/// the window.
fn measure<R: BenchReplica>(
    cluster: &mut Cluster<R>,
    shape: Shape,
    traced: bool,
) -> (Window, Option<trace::Recording>) {
    cluster.run_for(shape.warmup);
    let snap_start = cluster.snapshot();
    let counters_start = Counters::read(cluster);
    set_recording(cluster, true);
    let mut probe_s = host::probe();
    let mut wall_s = 0.0;
    if traced {
        trace::start();
    }
    for _ in 0..SLICES {
        let t = Instant::now();
        cluster.run_for(shape.window / SLICES);
        wall_s += t.elapsed().as_secs_f64();
        probe_s += host::probe();
    }
    let recording = traced.then(trace::stop);
    set_recording(cluster, false);
    let snap_end = cluster.snapshot();
    let counters = Counters::read(cluster).since(&counters_start);
    let mut latencies_ns = Vec::new();
    for cid in cluster.client_ids() {
        if let Some(c) = cluster.sim().actor::<BenchClient>(NodeId::Client(*cid)) {
            latencies_ns.extend_from_slice(c.latencies_ns());
        }
    }
    latencies_ns.sort_unstable();
    let window_report = RunReport::between(&snap_start, &snap_end, shape.window);
    let speed = host::REFERENCE_PROBE_S * (SLICES + 1) as f64 / probe_s;
    let w = Window {
        wall_s,
        speed,
        undisturbed_wall_s: wall_s * speed.powf(shape.sensitivity),
        report: window_report,
        latencies_ns,
        histogram_samples: snap_end.latency.count() - snap_start.latency.count(),
        fast_decisions: snap_end.fast_path - snap_start.fast_path,
        slow_decisions: snap_end.slow_path - snap_start.slow_path,
        counters,
        digest: cluster.committed_history_digest(),
        audit: cluster.audit().map_err(|e| e.to_string()),
    };
    (w, recording)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The exact `p`-quantile of sorted samples, by the rank rule the client
/// histograms use (`round((n - 1) * p)`), in milliseconds.
fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[rank] as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Named metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// The correctness checks a run failed, as messages.
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// Checks one window: the audit passed, something committed, every
    /// commit left an exact latency sample, and, for a rerun, the committed
    /// history is the `reference` one.
    fn window(&mut self, label: &str, w: &Window, reference: Option<&str>) {
        if let Err(e) = &w.audit {
            self.0.push(format!("{label}: audit failed: {e}"));
        }
        if let Some(reference) = reference {
            self.require(w.digest == reference, || {
                format!(
                    "{label}: committed-history digest {} differs from {reference}",
                    w.digest
                )
            });
        }
        self.require(w.report.committed > 0, || {
            format!("{label}: nothing committed")
        });
        self.require(w.latencies_ns.len() as u64 == w.histogram_samples, || {
            format!(
                "{label}: {} exact latency samples but the clients' histograms hold {}",
                w.latencies_ns.len(),
                w.histogram_samples
            )
        });
    }
}

const REPLICA_KINDS: [&str; 6] = [
    "Read",
    "St1",
    "St2",
    "Writeback",
    "RtsRelease",
    "ReplicaTimer",
];
const CLIENT_KINDS: [&str; 5] = [
    "ReadReply",
    "St1Reply",
    "St2Reply",
    "Writeback",
    "ClientTimer",
];
const STORE_OPS: [&str; 6] = [
    "read",
    "prepare",
    "commit",
    "abort",
    "remove_rts",
    "gc_before",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("basil-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let host = host::fingerprint();
    println!(
        "host: nproc {}, calibration loop {:.3} ms, two-thread speedup {:.2}x",
        host.nproc, host.calibration_ms, host.two_thread_speedup
    );
    let shape = w.shape();
    println!(
        "workload {} seed {}: {CLIENTS} closed-loop clients, 1 shard n=6 f=1, serial runtime; \
         repetitions of (fresh cluster, warmup {}, window {} simulated) for {} s",
        w.name(),
        args.seed,
        shape.warmup,
        shape.window,
        args.seconds
    );

    // The untraced repetitions, each on its own seed derived from the run's
    // seed (repetition 0 uses the run's seed itself), until `--seconds` of
    // wall time have passed.
    let rep_seed = |i: usize| args.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut build_s = Vec::new();
    let mut untraced = Vec::new();
    let begin = Instant::now();
    while untraced.len() < 2 || begin.elapsed().as_secs_f64() < args.seconds as f64 {
        let (mut cluster, setup_s) = build_timed(w, rep_seed(untraced.len()));
        build_s.push(setup_s);
        untraced.push(measure(&mut cluster, shape, false).0);
    }
    let first = &untraced[0];
    let rates: Vec<f64> = untraced.iter().map(Window::commit_rate).collect();
    let raw_rates: Vec<f64> = untraced
        .iter()
        .map(|u| ratio(u.report.committed as f64, u.wall_s))
        .collect();
    let speeds: Vec<f64> = untraced.iter().map(|u| u.speed).collect();
    let rate = median(&rates);
    let mut latencies_ns: Vec<u64> = untraced
        .iter()
        .flat_map(|u| u.latencies_ns.iter().copied())
        .collect();
    latencies_ns.sort_unstable();
    let sum = |f: fn(&Window) -> u64| untraced.iter().map(f).sum::<u64>();
    let committed = sum(|u| u.report.committed);
    let aborted = sum(|u| u.report.aborted_attempts);
    let fast = sum(|u| u.fast_decisions);
    let slow = sum(|u| u.slow_decisions);
    let attempts = committed + aborted;

    let crypto_probes: Vec<Window> = (0..CRYPTO_PROBES)
        .map(|_| {
            let mut cluster = build::<BasilReplica>(w, args.seed, CryptoMode::Simulated);
            measure(&mut cluster, shape, false).0
        })
        .collect();
    let rss_mb = peak_rss_mb();

    let mut checks = Checks(Vec::new());
    for (i, u) in untraced.iter().enumerate() {
        checks.window(&format!("untraced repetition {i}"), u, None);
    }
    for (i, p) in crypto_probes.iter().enumerate() {
        checks.window(&format!("crypto probe {i}"), p, Some(&first.digest));
    }

    // Undisturbed wall time per commit, against the crypto probes, which
    // rerun repetition 0 with simulated cryptography.
    let us_per_commit = |u: &Window| ratio(1e6, u.commit_rate());
    let wall_us_per_commit = ratio(1e6, rate);
    let probe_us_per_commit = median(&crypto_probes.iter().map(us_per_commit).collect::<Vec<_>>());
    let crypto_us_per_commit = wall_us_per_commit - probe_us_per_commit;
    let charged_us_per_commit = ratio(sum(|u| u.counters.cpu_ns) as f64 / 1e3, committed as f64);
    let measured_s = (shape.window * untraced.len() as u64).as_secs_f64();

    let mut e2e = Metrics::default();
    e2e.add("commits_per_wall_s", rate, "1/s");
    e2e.add("sim_tps", committed as f64 / measured_s, "1/s");
    e2e.add("sim_p50_ms", percentile_ms(&latencies_ns, 0.50), "ms");
    e2e.add("sim_p99_ms", percentile_ms(&latencies_ns, 0.99), "ms");
    e2e.add(
        "commit_rate",
        ratio(committed as f64, attempts as f64),
        "fraction",
    );
    e2e.add(
        "fast_path_fraction",
        ratio(fast as f64, (fast + slow) as f64),
        "fraction",
    );
    e2e.add("setup_s", median(&build_s), "s");
    e2e.add("peak_rss_mb", rss_mb, "MB");

    println!(
        "end-to-end ({} untraced repetitions, {:.3} s of measured windows):",
        untraced.len(),
        untraced.iter().map(|u| u.wall_s).sum::<f64>()
    );
    for (name, value, unit) in &e2e.0 {
        let samples = match name.as_str() {
            "commits_per_wall_s" => format!(
                "median of {} repetitions at host speed 1; unscaled median {:.1} at \
                 median host speed {:.3}",
                rates.len(),
                median(&raw_rates),
                median(&speeds)
            ),
            "sim_p50_ms" | "sim_p99_ms" => format!("{} commits", latencies_ns.len()),
            "setup_s" => format!("median of {} builds at host speed 1", build_s.len()),
            _ => String::new(),
        };
        println!("  {name:<22} {value:>14.6} {unit:<8} {samples}");
    }
    println!(
        "  committed {committed} + aborted attempts {aborted} = {attempts} attempts; \
         abort_fraction {:.6}",
        ratio(aborted as f64, attempts as f64)
    );
    println!(
        "cost model: charged cpu {charged_us_per_commit:.1} us/commit (simulated), wall \
         {wall_us_per_commit:.1} us/commit, crypto {crypto_us_per_commit:.1} us/commit \
         (real-crypto minus simulated-crypto wall per commit)"
    );

    let metrics = if args.trace {
        let mut traced_cluster = build::<TracedReplica>(w, args.seed, CryptoMode::Real);
        let (traced, recording) = measure(&mut traced_cluster, shape, true);
        drop(traced_cluster);
        let recording = recording.expect("traced window records spans");
        checks.window("traced", &traced, Some(&first.digest));
        let mismatches = recording.counter("wire.mismatches");
        checks.require(mismatches == 0, || {
            format!("{mismatches} delivered messages did not survive a wire-codec round trip")
        });
        let per_layer = layer_metrics(
            first,
            us_per_commit(first),
            &traced,
            &recording,
            crypto_us_per_commit,
            charged_us_per_commit,
            &host,
        );
        let path = std::path::Path::new(SPANS_DIR).join(format!("spans-{}.tsv", w.name()));
        match std::fs::create_dir_all(SPANS_DIR).and_then(|_| recording.write_tsv(&path)) {
            Ok(()) => println!(
                "spans: {} written to {}",
                recording.spans.len(),
                path.display()
            ),
            Err(e) => checks
                .0
                .push(format!("writing spans to {}: {e}", path.display())),
        }
        per_layer
    } else {
        e2e
    };

    let correct = checks.0.is_empty();
    for failure in &checks.0 {
        println!("CHECK FAILED: {failure}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempts}, \"failed\": {}, \"metrics\": {}}}",
        if correct { 0 } else { attempts },
        metrics.json()
    );
    ExitCode::SUCCESS
}

/// The per-layer table of a traced run, printed and returned as metrics.
/// `first` is untraced repetition 0, which the traced window reruns; its
/// counters give the simulated and protocol counts.
fn layer_metrics(
    first: &Window,
    untraced_us_per_commit: f64,
    traced: &Window,
    rec: &trace::Recording,
    crypto_us_per_commit: f64,
    charged_us_per_commit: f64,
    host: &host::Host,
) -> Metrics {
    let commits = traced.report.committed as f64;
    let layers = rec.layers();
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let per_commit = |v: f64| ratio(v, commits);
    let us = |ns: u64| ns as f64 / 1e3;
    let mut m = Metrics::default();

    for kind in REPLICA_KINDS {
        let l = get(&format!("replica.{kind}"));
        m.add(
            format!("replica.{kind}.calls_per_commit"),
            per_commit(l.calls as f64),
            "1/commit",
        );
        m.add(
            format!("replica.{kind}.self_us_per_call"),
            ratio(us(l.self_ns), l.calls as f64),
            "us",
        );
    }
    m.add(
        "client.abort_fraction",
        1.0 - traced.report.commit_rate,
        "fraction",
    );
    for kind in CLIENT_KINDS {
        let l = get(&format!("client.{kind}"));
        m.add(
            format!("client.{kind}.calls_per_commit"),
            per_commit(l.calls as f64),
            "1/commit",
        );
        m.add(
            format!("client.{kind}.us_per_call"),
            ratio(us(l.total_ns), l.calls as f64),
            "us",
        );
    }
    for op in STORE_OPS {
        let l = get(&format!("store.{op}"));
        m.add(
            format!("store.{op}.calls_per_commit"),
            per_commit(l.calls as f64),
            "1/commit",
        );
        m.add(
            format!("store.{op}.us_per_call"),
            ratio(us(l.total_ns), l.calls as f64),
            "us",
        );
    }
    let store_ns: u64 = layers
        .iter()
        .filter(|(name, _)| name.starts_with("store."))
        .map(|(_, l)| l.total_ns)
        .sum();
    let prepares = get("store.prepare").calls as f64;
    let commit_votes =
        rec.counter("store.prepare_commit_votes") + rec.counter("store.released_commit_votes");
    m.add("store.us_per_commit", per_commit(us(store_ns)), "us");
    m.add(
        "store.fast_path_hit_rate",
        first.counters.store.fast_path_hit_rate(),
        "fraction",
    );
    m.add(
        "store.prepare_commit_vote_ratio",
        ratio(commit_votes as f64, prepares),
        "fraction",
    );

    let c = &first.counters;
    m.add("crypto.us_per_commit", crypto_us_per_commit, "us");
    m.add(
        "crypto.replies_per_signature",
        ratio(c.replies_batched as f64, c.batches_signed as f64),
        "1/signature",
    );
    m.add(
        "crypto.cert_cache_hit_rate",
        ratio(c.cert_hits as f64, (c.cert_hits + c.cert_misses) as f64),
        "fraction",
    );

    let window_ns = (traced.wall_s * 1e9) as u64;
    let simnet_self_ns = window_ns.saturating_sub(rec.top_level_ns());
    m.add(
        "simnet.self_us_per_commit",
        per_commit(us(simnet_self_ns)),
        "us",
    );
    m.add(
        "simnet.events_per_commit",
        per_commit(c.events as f64),
        "1/commit",
    );
    m.add(
        "simnet.msgs_per_commit",
        per_commit(c.msgs as f64),
        "1/commit",
    );
    m.add(
        "simnet.queue_wait_us_per_commit",
        per_commit(us(c.queue_wait_ns)),
        "us",
    );
    m.add(
        "simnet.charged_cpu_us_per_commit",
        charged_us_per_commit,
        "us",
    );
    m.add(
        "wal.appends_per_commit",
        per_commit(c.wal_appends as f64),
        "1/commit",
    );
    let next_tx = get("workload.next_tx");
    m.add(
        "workload.next_tx_us_per_call",
        ratio(us(next_tx.total_ns), next_tx.calls as f64),
        "us",
    );
    m.add(
        "wire.bytes_per_commit",
        per_commit(rec.counter("wire.bytes") as f64),
        "B/commit",
    );
    m.add(
        "wire.encode_us_per_commit",
        per_commit(us(get("wire.encode").total_ns)),
        "us",
    );
    m.add(
        "wire.decode_us_per_commit",
        per_commit(us(get("wire.decode").total_ns)),
        "us",
    );
    m.add(
        "trace_overhead_pct",
        ratio(
            (ratio(traced.undisturbed_wall_s * 1e6, commits) - untraced_us_per_commit) * 100.0,
            untraced_us_per_commit,
        ),
        "%",
    );
    m.add("host.nproc", host.nproc as f64, "count");
    m.add("host.calibration_ms", host.calibration_ms, "ms");
    m.add("host.two_thread_speedup", host.two_thread_speedup, "x");

    // The accounting table: self time of every span name plus the
    // simulator's own loop adds up to the traced window.
    println!(
        "per-layer (traced window {:.3} s wall, {} commits, {} spans):",
        traced.wall_s,
        traced.report.committed,
        rec.spans.len()
    );
    println!(
        "  {:<26} {:>12} {:>12} {:>14}",
        "span", "calls/commit", "self us/call", "self us/commit"
    );
    let mut accounted_ns = simnet_self_ns;
    let mut groups: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, l) in &layers {
        accounted_ns += l.self_ns;
        *groups
            .entry(name.split('.').next().unwrap_or(name))
            .or_insert(0) += l.self_ns;
        println!(
            "  {:<26} {:>12.3} {:>12.3} {:>14.3}",
            name,
            per_commit(l.calls as f64),
            ratio(us(l.self_ns), l.calls as f64),
            per_commit(us(l.self_ns))
        );
    }
    println!(
        "  {:<26} {:>12} {:>12} {:>14.3}",
        "simnet (loop self)",
        "",
        "",
        per_commit(us(simnet_self_ns))
    );
    for (group, ns) in &groups {
        println!("  sum {group:<22} {:>41.3}", per_commit(us(*ns)));
    }
    println!(
        "  accounted {:.3} us/commit of a {:.3} us/commit window",
        per_commit(us(accounted_ns)),
        per_commit(us(window_ns))
    );
    for (name, value, unit) in &m.0 {
        println!("  {name:<40} {value:>14.6} {unit}");
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil::harness::{BasilCluster, ClusterConfig as StockConfig};

    #[test]
    fn wrapped_clusters_commit_the_stock_history() {
        for w in [Workload::YcsbZ, Workload::TpccNoProofs] {
            let seed = 5;
            let run = Duration::from_millis(80);
            let config = StockConfig::basil_default(CLIENTS)
                .with_basil(w.basil(CryptoMode::Real))
                .with_seed(seed)
                .with_runtime(basil::RuntimeMode::Serial);
            let mut stock = BasilCluster::build(config, |c| w.generator(c, seed));
            stock.run_for(run);
            let mut plain = build::<BasilReplica>(w, seed, CryptoMode::Real);
            plain.run_for(run);
            let mut probe = build::<BasilReplica>(w, seed, CryptoMode::Simulated);
            probe.run_for(run);
            let mut traced = build::<TracedReplica>(w, seed, CryptoMode::Real);
            trace::start();
            traced.run_for(run);
            let rec = trace::stop();

            let digest = stock.committed_history_digest();
            assert!(stock.total_committed() > 0);
            assert_eq!(plain.committed_history_digest(), digest, "{w:?} plain");
            assert_eq!(probe.committed_history_digest(), digest, "{w:?} probe");
            assert_eq!(traced.committed_history_digest(), digest, "{w:?} traced");
            traced.audit().expect("traced history audits");
            let layers = rec.layers();
            assert!(layers["store.prepare"].calls > 0);
            assert!(layers["replica.St1"].calls > 0);
            assert!(rec.counter("wire.messages") > 0);
            assert_eq!(rec.counter("wire.mismatches"), 0);
        }
    }

    #[test]
    fn exact_percentiles_use_the_histogram_rank_rule() {
        let ns = [1_000_000, 2_000_000, 3_000_000, 4_000_000];
        assert_eq!(percentile_ms(&ns, 0.5), 3.0);
        assert_eq!(percentile_ms(&ns, 0.99), 4.0);
        assert_eq!(percentile_ms(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn metrics_render_as_json_with_units() {
        let mut m = Metrics::default();
        m.add("a", 1.5, "ms");
        m.add("b", f64::NAN, "1/s");
        assert_eq!(
            m.json(),
            r#"{"a": {"value": 1.5, "unit": "ms"}, "b": {"value": 0.0, "unit": "1/s"}}"#
        );
    }
}
