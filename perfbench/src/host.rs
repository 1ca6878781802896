//! The host fingerprint printed with every result: how many CPUs the
//! process may use, how fast one of them runs a fixed integer loop, and how
//! much faster two threads finish twice that work. Also the speed probe the
//! wall-clock figures are scaled by.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration loop (tens of milliseconds on a current
/// x86-64 core).
const CALIBRATION_ITERS: u64 = 20_000_000;
/// Repetitions; the fingerprint keeps the median.
const REPEATS: usize = 3;

/// Iterations of the speed probe (about 50 us on an undisturbed core).
const PROBE_ITERS: u64 = 10_000;
/// The speed probe's wall time on an undisturbed core of the host the
/// benchmark was tuned on (2-vCPU KVM guest on a Sapphire Rapids Xeon): the
/// fastest it ran there.
pub const REFERENCE_PROBE_S: f64 = 50e-6;

/// What the benchmark records about the machine it ran on.
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Wall time of the single-threaded calibration loop, in milliseconds.
    pub calibration_ms: f64,
    /// One loop's time divided by the time two threads take to run one
    /// loop each, times two: 2.0 on two idle cores, 1.0 on one.
    pub two_thread_speedup: f64,
}

fn calibration_loop() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..black_box(CALIBRATION_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x)
}

/// Runs the speed probe once and returns its wall time in seconds.
///
/// The probe is eight independent xorshift chains: fixed integer work that,
/// like hashing, keeps several execution ports busy, so it slows down
/// whenever another tenant shares the physical core, which the one-chain
/// calibration loop barely notices. Run between short stretches of a
/// measured window, its time tracks how fast the core is running the
/// benchmark at that moment: across repetitions of the same window on a
/// loaded host, log(commit rate) falls with log(probe time) at a slope of
/// 0.7 to 0.9 (correlation 0.9 to 0.97).
pub fn probe() -> f64 {
    let t = Instant::now();
    let mut s = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..black_box(PROBE_ITERS) {
        for x in s.iter_mut() {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x = x.rotate_left(17).wrapping_add(i);
        }
    }
    black_box(s);
    t.elapsed().as_secs_f64()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Measures the fingerprint (about a quarter of a second).
pub fn fingerprint() -> Host {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut one = Vec::new();
    let mut two = Vec::new();
    for _ in 0..REPEATS {
        let t = Instant::now();
        calibration_loop();
        one.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::thread::scope(|s| {
            let a = s.spawn(calibration_loop);
            let b = s.spawn(calibration_loop);
            black_box(a.join().expect("calibration thread panicked"));
            black_box(b.join().expect("calibration thread panicked"));
        });
        two.push(t.elapsed().as_secs_f64());
    }
    let one = median(one);
    let two = median(two);
    Host {
        nproc,
        calibration_ms: one * 1e3,
        two_thread_speedup: 2.0 * one / two,
    }
}
