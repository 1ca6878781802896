//! Criterion micro-benchmarks for the storage substrates: the MVTSO engine
//! (Algorithm 1) and the baseline OCC store.
//!
//! The `store_contention` group measures the flattened version-array layout
//! where it matters: a wide uniform keyspace (every check resolved by the
//! generation-stamped watermarks — the scan-free fast path), a Zipfian
//! hot-key workload (deep per-key arrays, still append-ordered), and a
//! stale-read Zipfian variant that forces the ordered slow-path scans.
//! `store_contention/gc_sweep` covers the allocation-free prefix-drain GC.
//! CI runs the Zipfian case once per push via
//! `cargo bench --bench store_bench -- --test zipf`.
//!
//! `mvtso_prepare_commit_seam` runs the identical workload through the
//! `TxStore` trait seam (the acceptance bound is ≤5% overhead vs the
//! direct calls).

use basil::workloads::zipf::ZipfSampler;
use basil_common::{ClientId, Duration, Key, SimTime, Timestamp, Value};
use basil_store::occ::OccStore;
use basil_store::{MvtsoStore, Transaction, TransactionBuilder, TxStore};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

const CLOCK: SimTime = SimTime::from_secs(100);
const DELTA: Duration = Duration::from_millis(100);

fn tx(i: u64) -> Arc<Transaction> {
    let mut b = TransactionBuilder::new(Timestamp::from_nanos(1_000 + i * 10, ClientId(i % 16)));
    b.record_read(Key::new(format!("r{}", i % 256)), Timestamp::ZERO);
    b.record_write(Key::new(format!("w{}", i % 256)), Value::from_u64(i));
    b.build_shared()
}

fn bench_mvtso(c: &mut Criterion) {
    c.bench_function("mvtso_prepare_commit", |b| {
        b.iter_batched(
            MvtsoStore::new,
            |mut store| {
                for i in 0..64u64 {
                    let t = tx(i);
                    store.prepare(&t, SimTime::from_secs(1), Duration::from_millis(100));
                    store.commit(&t);
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });

    // The same loop through the `TxStore` seam `BasilReplica` is generic
    // over: with `S = MvtsoStore` every call is statically dispatched, so
    // this must track `mvtso_prepare_commit` within noise (the ≤5% seam
    // bound).
    c.bench_function("mvtso_prepare_commit_seam", |b| {
        fn run_seam<S: TxStore>(store: &mut S) {
            for i in 0..64u64 {
                let t = tx(i);
                store.prepare(&t, SimTime::from_secs(1), Duration::from_millis(100));
                store.commit(&t);
            }
        }
        b.iter_batched(
            MvtsoStore::new,
            |mut store| run_seam(&mut store),
            criterion::BatchSize::SmallInput,
        )
    });

    c.bench_function("mvtso_versioned_read", |b| {
        let mut store = MvtsoStore::new();
        for i in 0..256u64 {
            let t = tx(i);
            store.prepare(&t, SimTime::from_secs(1), Duration::from_millis(100));
            store.commit(&t);
        }
        let key = Key::new("w17");
        b.iter(|| store.read_without_rts(&key, Timestamp::from_nanos(u64::MAX, ClientId(0))))
    });
}

/// Pre-generated transaction batches for the contention cases, built once
/// outside the timed region.
struct ContentionBatch {
    txs: Vec<Arc<Transaction>>,
}

impl ContentionBatch {
    /// 2r2w transactions with monotone timestamps. Keys are drawn by
    /// `pick_key`; reads observe the newest version a sequential execution
    /// would see, shifted back `staleness` versions (0 = fresh, so every
    /// check is watermark-answerable; 1 = one version stale, so every read
    /// check must scan and conflict).
    fn generate(count: u64, staleness: usize, mut pick_key: impl FnMut(u64) -> u64) -> Self {
        let mut history: HashMap<u64, Vec<Timestamp>> = HashMap::new();
        let mut txs = Vec::with_capacity(count as usize);
        for i in 0..count {
            let ts = Timestamp::from_nanos(1_000 + i * 10, ClientId(i % 16));
            let mut b = TransactionBuilder::new(ts);
            for op in 0..4u64 {
                let key_id = pick_key(i * 4 + op);
                let key = Key::new(format!("k{key_id}"));
                if op < 2 {
                    let versions = history.entry(key_id).or_default();
                    let version = if versions.len() > staleness {
                        versions[versions.len() - 1 - staleness]
                    } else {
                        Timestamp::ZERO
                    };
                    b.record_read(key, version);
                } else {
                    b.record_write(key, Value::from_u64(i));
                    history.entry(key_id).or_default().push(ts);
                }
            }
            txs.push(b.build_shared());
        }
        ContentionBatch { txs }
    }

    /// Runs prepare + decision application for every transaction and returns
    /// the store (so the caller can inspect the fast-path counters).
    fn run(&self) -> MvtsoStore {
        let mut store = MvtsoStore::new();
        for t in &self.txs {
            let outcome = store.prepare(t, CLOCK, DELTA);
            match outcome {
                basil_store::CheckOutcome::Decided(v) if v.is_commit() => {
                    store.commit(t);
                }
                _ => {
                    store.abort(t.id());
                }
            }
        }
        store
    }
}

/// Builds the `prepare_stale_writers` scenario: a hot key read heavily in a
/// recent burst (microsecond-spaced, so reader intervals are short and the
/// earlier time range stays uncovered), then 64 write-only transactions
/// whose timestamps land in the quiet gap between the bursts.
fn stale_writer_batch() -> ContentionBatch {
    const US: u64 = 1_000;
    let hot = Key::new("hot");
    let mut txs = Vec::new();
    let mut latest = Timestamp::ZERO;
    let mut seq = 0u64;
    let mut read_write = |t_ns: u64, latest: &mut Timestamp, txs: &mut Vec<Arc<Transaction>>| {
        let ts = Timestamp::from_nanos(t_ns, ClientId(seq % 16));
        seq += 1;
        let mut b = TransactionBuilder::new(ts);
        b.record_read(hot.clone(), *latest);
        b.record_write(hot.clone(), Value::from_u64(t_ns));
        *latest = ts;
        txs.push(b.build_shared());
    };
    // Early burst: 64 fresh sequential 1r1w transactions (≈ one summary
    // bucket wide).
    for i in 0..64u64 {
        read_write(US + 2 * US * i, &mut latest, &mut txs);
    }
    // Recent burst, far above the gap: a write-only bridge (so the first
    // reader's interval starts here, not back at the early burst), then 256
    // fresh readers.
    let bridge = Timestamp::from_nanos(4_500 * US, ClientId(7));
    let mut b = TransactionBuilder::new(bridge);
    b.record_write(hot.clone(), Value::from_u64(0));
    latest = bridge;
    txs.push(b.build_shared());
    for i in 0..256u64 {
        read_write(4_502 * US + 2 * US * i, &mut latest, &mut txs);
    }
    // Stale writers: timestamps inside the [2 ms, 2.64 ms] gap. Each is
    // below the read watermark (slow path) but above every version the
    // recent readers actually read, so none conflicts — the scan over the
    // 257 newer readers is pure overhead the summary removes.
    for i in 0..64u64 {
        let ts = Timestamp::from_nanos(2_000 * US + 10 * US * i, ClientId(i % 16));
        let mut b = TransactionBuilder::new(ts);
        b.record_write(hot.clone(), Value::from_u64(i));
        txs.push(b.build_shared());
    }
    ContentionBatch { txs }
}

fn bench_contention(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_contention");

    // Wide uniform keyspace: almost every key is fresh, the conflict window
    // is empty, and every check should resolve from the watermarks.
    let mut uniform_rng = SmallRng::seed_from_u64(7);
    let uniform = ContentionBatch::generate(512, 0, move |_| {
        use rand::Rng;
        uniform_rng.gen_range(0..65_536u64)
    });
    let sample = uniform.run();
    assert!(
        sample.stats().fast_path_hit_rate() > 0.99,
        "uniform wide keyspace should be scan-free, got {:?}",
        sample.stats()
    );
    group.bench_function("prepare_uniform_wide", |b| b.iter(|| uniform.run()));

    // Zipfian hot keys, fresh reads: per-key arrays grow deep (the hottest
    // key sees a large share of 512 transactions) but stay append-ordered.
    let zipf = ZipfSampler::new(1_024, 0.9);
    let mut zipf_rng = SmallRng::seed_from_u64(11);
    let hot = ContentionBatch::generate(512, 0, move |_| zipf.sample(&mut zipf_rng));
    group.bench_function("prepare_zipf_hot", |b| b.iter(|| hot.run()));

    // Zipfian hot keys, stale reads: every contended read check falls
    // through the watermark to the ordered scan and most prepares abort —
    // the worst case for the flattened layout.
    let zipf2 = ZipfSampler::new(1_024, 0.9);
    let mut stale_rng = SmallRng::seed_from_u64(13);
    let stale = ContentionBatch::generate(512, 1, move |_| zipf2.sample(&mut stale_rng));
    let sample = stale.run();
    assert!(
        sample.stats().slow_path_checks > 0,
        "stale zipfian reads must exercise the slow path, got {:?}",
        sample.stats()
    );
    group.bench_function("prepare_zipf_stale", |b| b.iter(|| stale.run()));

    // Out-of-order writers probing a quiet period. A key accumulates a burst
    // of fresh sequential reads (so its read watermark is high), then stale
    // write-only transactions arrive with timestamps in an earlier gap no
    // reader interval covers. Every such write falls past the watermark —
    // check (5)'s slow path — and without the per-key reader summary each
    // one walks the full suffix of newer readers to prove nobody read over
    // it. The Bloom-style summary answers "gap is clear" in O(1) instead.
    let stale_writers = stale_writer_batch();
    let sample = stale_writers.run();
    assert!(
        sample.stats().reader_scan_skips >= 32,
        "gap writes must skip the reader scan via the summary, got {:?}",
        sample.stats()
    );
    group.bench_function("prepare_stale_writers", |b| b.iter(|| stale_writers.run()));

    // Steady-state periodic GC, as a replica runs it: keep committing hot-key
    // versions (and sprinkling RTS entries) while sweeping a trailing
    // watermark. Each iteration is 64 commits plus one sweep that drains the
    // superseded prefix of every touched key in place — the allocation-free
    // path that replaced the per-key `BTreeMap::split_off` tail copies.
    group.measurement_time(std::time::Duration::from_millis(100));
    group.bench_function("gc_sweep", |b| {
        let mut store = MvtsoStore::new();
        let mut i: u64 = 0;
        b.iter(|| {
            for _ in 0..64 {
                i += 1;
                let ts = Timestamp::from_nanos(1_000 + i * 10, ClientId(i % 16));
                let mut builder = TransactionBuilder::new(ts);
                builder.record_write(Key::new(format!("k{}", i % 256)), Value::from_u64(i));
                let t = builder.build_shared();
                store.prepare(&t, CLOCK, DELTA);
                store.commit(&t);
                if i.is_multiple_of(8) {
                    let probe = Timestamp::from_nanos(1_001 + i * 10, ClientId(17));
                    store.read(&Key::new(format!("k{}", i % 256)), probe);
                }
            }
            // Retain roughly two versions per key behind the watermark.
            let horizon = 256 * 2 * 10;
            store.gc_before(Timestamp::from_nanos(
                (1_000 + i * 10).saturating_sub(horizon),
                ClientId(0),
            ));
        })
    });

    group.finish();
}

fn bench_occ(c: &mut Criterion) {
    c.bench_function("occ_prepare_commit", |b| {
        b.iter_batched(
            OccStore::new,
            |mut store| {
                for i in 0..64u64 {
                    let mut builder =
                        TransactionBuilder::new(Timestamp::from_nanos(1_000 + i, ClientId(1)));
                    builder.record_write(Key::new(format!("k{}", i % 64)), Value::from_u64(i));
                    let t = builder.build_shared();
                    store.prepare(&t);
                    store.commit(&t.id());
                }
            },
            criterion::BatchSize::SmallInput,
        )
    });

    // The bounded per-key history (OccStore::HISTORY_WINDOW newest versions)
    // behind TAPIR-style snapshot reads: a mid-history versioned read over a
    // hot key whose window is full.
    c.bench_function("occ_versioned_read", |b| {
        let mut store = OccStore::new();
        for i in 0..256u64 {
            let mut builder =
                TransactionBuilder::new(Timestamp::from_nanos(1_000 + i, ClientId(1)));
            builder.record_write(Key::new("hot"), Value::from_u64(i));
            let t = builder.build_shared();
            store.prepare(&t);
            store.commit(&t.id());
        }
        let key = Key::new("hot");
        let mid = Timestamp::from_nanos(1_000 + 256 - 16, ClientId(0));
        b.iter(|| store.versioned_read(&key, mid))
    });
}

fn bench_txid(c: &mut Criterion) {
    let t = tx(7);
    c.bench_function("transaction_id_hash", |b| b.iter(|| t.id()));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mvtso, bench_contention, bench_occ, bench_txid
}
criterion_main!(benches);
