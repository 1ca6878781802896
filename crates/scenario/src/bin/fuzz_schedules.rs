//! Schedule-fuzzing driver.
//!
//! Generates seed-derived fault schedules, runs each against a Basil
//! deployment, checks the serializability + decision-agreement audit and the
//! liveness-under-budget property, and delta-debugs any failure down to a
//! minimal spec written to the failure directory.
//!
//! Every `--baseline-every`-th schedule is additionally replayed (with
//! Byzantine clients stripped) against one of the baseline systems,
//! cycling through Tapir / TxHotstuff / TxBftSmart, and checked for
//! serializability-audit failures.
//!
//! ```text
//! fuzz_schedules [--count N] [--seed-base S] [--budget-secs T]
//!                [--baseline-every B] [--out DIR]
//! ```
//!
//! Exit status: `0` all schedules passed; `1` the wall-clock budget ended
//! the campaign early (still clean); `2` at least one failure was found
//! (minimal repros in `--out`, default `target/fuzz-failures/`).

use basil_scenario::fuzz::{fuzz, FuzzOptions};
use std::path::PathBuf;

struct Args {
    opts: FuzzOptions,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut opts = FuzzOptions::default();
    let mut out = PathBuf::from("target/fuzz-failures");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--count" => {
                opts.count = value("--count")?
                    .parse()
                    .map_err(|e| format!("--count: {e}"))?
            }
            "--seed-base" => {
                opts.seed_base = value("--seed-base")?
                    .parse()
                    .map_err(|e| format!("--seed-base: {e}"))?
            }
            "--budget-secs" => {
                let secs: u64 = value("--budget-secs")?
                    .parse()
                    .map_err(|e| format!("--budget-secs: {e}"))?;
                opts.wall_budget = Some(std::time::Duration::from_secs(secs));
            }
            "--baseline-every" => {
                opts.baseline_every = value("--baseline-every")?
                    .parse()
                    .map_err(|e| format!("--baseline-every: {e}"))?
            }
            "--out" => out = PathBuf::from(value("--out")?),
            "--help" | "-h" => {
                println!(
                    "usage: fuzz_schedules [--count N] [--seed-base S] [--budget-secs T] \
                     [--baseline-every B] [--out DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args { opts, out })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fuzz_schedules: {e}");
            std::process::exit(2);
        }
    };
    let started = std::time::Instant::now();
    eprintln!(
        "[fuzz] {} schedules from seed base {:#x} (budget {:?})",
        args.opts.count, args.opts.seed_base, args.opts.wall_budget
    );
    let summary = fuzz(&args.opts, |run, failures| {
        if run % 100 == 0 {
            eprintln!(
                "[fuzz] {run} schedules, {failures} failures, {:.1}s elapsed",
                started.elapsed().as_secs_f64()
            );
        }
    });

    eprintln!(
        "[fuzz] done: {} schedules ({} baseline-replayed) in {:.1}s, {} failures",
        summary.schedules_run,
        summary.baseline_checked,
        started.elapsed().as_secs_f64(),
        summary.failures.len()
    );

    if !summary.failures.is_empty() {
        if let Err(e) = std::fs::create_dir_all(&args.out) {
            eprintln!("[fuzz] cannot create {}: {e}", args.out.display());
        }
        for failure in &summary.failures {
            let system = match failure.baseline {
                Some(kind) => format!("{kind:?}"),
                None => "basil".into(),
            };
            let path = args
                .out
                .join(format!("{}-{}-{}.ron", failure.kind, system, failure.seed));
            eprintln!(
                "[fuzz] seed {} failed ({} on {system}): {} -> {} events after {} shrink runs; repro: {}",
                failure.seed,
                failure.kind,
                failure.original.faults.len(),
                failure.shrunk.faults.len(),
                failure.shrink_runs,
                path.display()
            );
            if let Err(e) = std::fs::write(&path, failure.corpus_entry()) {
                eprintln!("[fuzz] cannot write {}: {e}", path.display());
            }
        }
        std::process::exit(2);
    }
    if summary.budget_exhausted {
        eprintln!(
            "[fuzz] budget exhausted after {} of {} schedules (no failures)",
            summary.schedules_run, args.opts.count
        );
        std::process::exit(1);
    }
}
