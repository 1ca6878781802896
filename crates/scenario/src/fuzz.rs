//! Seed-driven schedule fuzzing: generate → run → check → shrink.
//!
//! Every schedule is a [`ScenarioSpec`] generated *valid by construction*
//! from a single `u64` seed (so a failure report is just a seed plus the
//! shrunk spec). Each schedule runs once and is checked against the safety
//! audit and — when the spec qualifies — the liveness-under-budget check.
//! Failures are minimized with [`crate::shrink::shrink_spec`]
//! using an oracle that reproduces the *same failure class*, and reported
//! with their canonical RON encoding for the corpus.

use crate::ron;
use crate::runner::{run_baseline_spec, run_basil_spec, FailureKind, ScenarioOutcome};
use crate::shrink::shrink_spec;
use crate::spec::{FaultBudget, FaultEvent, RecoveryMode, ScenarioSpec, Selector, WorkloadSpec};
use basil_baselines::SystemKind;
use basil_core::{ClientStrategy, ReplicaBehavior};
use rand::{Rng, SeedableRng};

/// Fuzzing campaign parameters.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Number of schedules to attempt.
    pub count: u64,
    /// Base seed: schedule `i` uses seed `seed_base + i`.
    pub seed_base: u64,
    /// Replay every `n`-th schedule (with Byzantine clients stripped)
    /// against a baseline system, cycling through the baseline kinds, and
    /// flag any serializability-audit failure (0 disables baseline runs).
    pub baseline_every: u64,
    /// Wall-clock budget; the campaign stops early when exceeded.
    pub wall_budget: Option<std::time::Duration>,
    /// Stop after this many distinct failures (each failure costs many
    /// shrink runs; a broken build would otherwise burn the whole budget).
    pub max_failures: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            count: 1_000,
            seed_base: 0xBA51,
            baseline_every: 25,
            wall_budget: None,
            max_failures: 5,
        }
    }
}

/// One minimized failure found by the campaign.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The schedule seed that produced the failure.
    pub seed: u64,
    /// The failure class (audit or liveness).
    pub kind: FailureKind,
    /// `Some(kind)` when the failure came from a baseline-system replay of
    /// the schedule rather than from Basil itself.
    pub baseline: Option<SystemKind>,
    /// The generated spec, before shrinking.
    pub original: ScenarioSpec,
    /// The delta-debugged minimal spec (still fails the same way).
    pub shrunk: ScenarioSpec,
    /// Oracle invocations the shrink spent (each is a simulation).
    pub shrink_runs: u64,
}

impl FuzzFailure {
    /// The shrunk spec in canonical RON, ready to commit to the corpus.
    pub fn corpus_entry(&self) -> String {
        let system = match self.baseline {
            Some(kind) => format!("{kind:?}"),
            None => "Basil".into(),
        };
        let mut header = format!(
            "// fuzz failure: seed {} ({} on {}), shrunk from {} fault events\n",
            self.seed,
            self.kind,
            system,
            self.original.faults.len()
        );
        header.push_str(&ron::encode(&self.shrunk));
        header
    }
}

/// Result of a fuzzing campaign.
#[derive(Clone, Debug, Default)]
pub struct FuzzSummary {
    /// Schedules generated and executed.
    pub schedules_run: u64,
    /// Of those, how many also replayed against a baseline system.
    pub baseline_checked: u64,
    /// Minimized failures, in discovery order.
    pub failures: Vec<FuzzFailure>,
    /// Whether the wall-clock budget stopped the campaign early.
    pub budget_exhausted: bool,
}

/// Deterministically generates schedule `seed`'s scenario. The generator
/// samples deployments (mostly `f = 1`, sometimes `f = 2`), workloads, and
/// 0–3 budget-respecting fault events with windows that close before the
/// quiet tail, so most schedules keep the liveness check armed. Crashes
/// split between warm and amnesia restarts, exercising the WAL-replay and
/// peer catch-up machinery. The result always passes
/// [`ScenarioSpec::validate`].
pub fn generate_spec(seed: u64) -> ScenarioSpec {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0x5eed_5eed_5eed_5eed);
    let clients = rng.gen_range(4..=6u32);
    let byz_clients = rng.gen_range(0..=2u32);
    let byz_strategy = match rng.gen_range(0..3u32) {
        0 => ClientStrategy::StallEarly,
        1 => ClientStrategy::StallLate,
        _ => ClientStrategy::EquivReal,
    };
    let duration_ms = rng.gen_range(120..=160u64);
    let warmup_ms = 30;
    let tail_ms = 50;
    let tail_start = duration_ms - tail_ms;

    let workload = if rng.gen_bool(0.5) {
        WorkloadSpec::RwUniform {
            reads: rng.gen_range(1..=2u32),
            writes: 2,
            keys: rng.gen_range(500..=5_000u64),
        }
    } else {
        WorkloadSpec::RwZipf {
            reads: 2,
            writes: 2,
            keys: rng.gen_range(500..=5_000u64),
            theta: rng.gen_range(1..=9u32) as f64 / 10.0,
        }
    };

    // Mostly the minimal f = 1 deployment; occasionally f = 2 (n = 11),
    // which grows the quorums and the fallback vote thresholds.
    let f = if rng.gen_bool(0.2) { 2u32 } else { 1u32 };
    let n = 5 * f + 1;

    // One benign target, one deceit target. Usually the same replica, so
    // the combined faulty set stays within f and the schedule keeps the
    // liveness check armed; sometimes distinct, which exercises the
    // audit-only regime (validation still holds — budgets are per class).
    let benign_target = rng.gen_range(0..n);
    let deceit_target = if rng.gen_bool(0.3) {
        rng.gen_range(0..n)
    } else {
        benign_target
    };

    let mut faults = Vec::new();
    for _ in 0..rng.gen_range(0..=3u32) {
        // A window that opens after warmup starts and closes before the
        // quiet tail (2 ms minimum width).
        let at_ms = rng.gen_range(32..=tail_start - 10);
        let until_ms = rng.gen_range(at_ms + 2..=tail_start);
        faults.push(match rng.gen_range(0..9u32) {
            0 => FaultEvent::Crash {
                replica: benign_target,
                at_ms,
                restart_ms: Some(until_ms),
                recovery: if rng.gen_bool(0.5) {
                    RecoveryMode::Amnesia
                } else {
                    RecoveryMode::Warm
                },
            },
            1 => FaultEvent::PartitionReplica {
                replica: benign_target,
                at_ms,
                heal_ms: until_ms,
            },
            2 => FaultEvent::DropLink {
                from: Selector::Clients,
                to: Selector::Replica(benign_target),
                at_ms,
                until_ms,
                probability: rng.gen_range(2..=8u32) as f64 / 10.0,
            },
            3 => FaultEvent::DelayLink {
                from: Selector::Any,
                to: Selector::Any,
                at_ms,
                until_ms,
                extra_us: rng.gen_range(100..=500u64),
            },
            4 => FaultEvent::ReplayLink {
                from: Selector::Any,
                to: Selector::Replica(benign_target),
                at_ms,
                until_ms,
                probability: rng.gen_range(1..=5u32) as f64 / 10.0,
            },
            5 => FaultEvent::CorruptLink {
                from: Selector::Replica(deceit_target),
                to: Selector::Any,
                at_ms,
                until_ms,
                probability: rng.gen_range(1..=4u32) as f64 / 10.0,
            },
            6 => FaultEvent::ClockSkew {
                replica: benign_target,
                skew_us: rng.gen_range(-8_000..=8_000i64),
            },
            7 => FaultEvent::SlowReplica {
                replica: benign_target,
                cores: rng.gen_range(1..=4u32),
            },
            _ => FaultEvent::Misbehave {
                replica: deceit_target,
                behavior: match rng.gen_range(0..3u32) {
                    0 => ReplicaBehavior::WithholdVotes,
                    1 => ReplicaBehavior::AlwaysVoteAbort,
                    _ => ReplicaBehavior::IgnoreReads,
                },
                at_ms,
                revert_ms: Some(until_ms),
            },
        });
    }

    let spec = ScenarioSpec {
        name: format!("fuzz-{seed}"),
        seed,
        clients,
        byz_clients,
        byz_strategy,
        byz_fraction: 1.0,
        f,
        batch_size: *[1u32, 8, 16]
            .get(rng.gen_range(0..3usize))
            .expect("in range"),
        relax_st2: false,
        warmup_ms,
        duration_ms,
        tail_ms,
        budget: FaultBudget {
            crash: 1,
            deceit: 1,
        },
        workload,
        faults,
        expect: None,
    };
    spec.validate()
        .unwrap_or_else(|e| panic!("generator produced invalid spec for seed {seed}: {e}"));
    spec
}

/// Runs one schedule and classifies the result.
pub fn check_spec(spec: &ScenarioSpec) -> (ScenarioOutcome, Option<FailureKind>) {
    let outcome = run_basil_spec(spec);
    let verdict = outcome.check(spec);
    (outcome, verdict)
}

/// The baseline kinds the campaign cycles through.
const BASELINE_KINDS: [SystemKind; 3] = [
    SystemKind::Tapir,
    SystemKind::TxHotstuff,
    SystemKind::TxBftSmart,
];

/// The Byzantine-free variant of `spec` that the baseline adapters can
/// run: Byzantine clients and timed `Misbehave` events are stripped (the
/// baselines implement no replica misbehaviour and would refuse the
/// injection); corrupt links stay — garbled traffic is a network fault
/// every baseline must survive.
pub fn baseline_variant(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut base = spec.clone();
    base.byz_clients = 0;
    base.faults
        .retain(|ev| !matches!(ev, FaultEvent::Misbehave { .. }));
    base
}

/// Runs `spec` (which must have no Byzantine clients) against a baseline
/// system and reports a safety-audit failure, if
/// any. Baselines deploy fewer replicas and make no liveness promise under
/// Basil-sized fault schedules, so only the audit applies.
pub fn check_baseline_spec(spec: &ScenarioSpec, kind: SystemKind) -> Option<FailureKind> {
    let outcome = run_baseline_spec(spec, kind);
    outcome
        .audit_failure
        .is_some()
        .then_some(FailureKind::Audit)
}

/// The shrink oracle for a failure class: does `candidate` still fail the
/// same way?
fn reproduces(candidate: &ScenarioSpec, kind: FailureKind) -> bool {
    let (_, verdict) = check_spec(candidate);
    verdict == Some(kind)
}

/// Runs a fuzzing campaign. `progress` is called after every schedule with
/// `(schedules_run, failures_found)` — the CLI uses it for heartbeat
/// output; tests pass a no-op.
pub fn fuzz(opts: &FuzzOptions, mut progress: impl FnMut(u64, usize)) -> FuzzSummary {
    let started = std::time::Instant::now();
    let mut summary = FuzzSummary::default();
    for i in 0..opts.count {
        if let Some(budget) = opts.wall_budget {
            if started.elapsed() >= budget {
                summary.budget_exhausted = true;
                break;
            }
        }
        if summary.failures.len() >= opts.max_failures {
            break;
        }
        let seed = opts.seed_base.wrapping_add(i);
        let spec = generate_spec(seed);
        let (_, verdict) = check_spec(&spec);
        summary.schedules_run += 1;
        if let Some(kind) = verdict {
            let shrunk = shrink_spec(&spec, |candidate| reproduces(candidate, kind));
            summary.failures.push(FuzzFailure {
                seed,
                kind,
                baseline: None,
                original: spec,
                shrunk: shrunk.spec,
                shrink_runs: shrunk.oracle_runs,
            });
        } else if opts.baseline_every != 0 && i % opts.baseline_every == 0 {
            // Replay the Byzantine-free variant of the schedule on a
            // baseline system: the same fault grammar fuzzes Tapir and the
            // ordered 2PC baselines, cycling through the kinds.
            let base = baseline_variant(&spec);
            let kind = BASELINE_KINDS[(i / opts.baseline_every) as usize % BASELINE_KINDS.len()];
            summary.baseline_checked += 1;
            if let Some(failure) = check_baseline_spec(&base, kind) {
                let shrunk = shrink_spec(&base, |candidate| {
                    check_baseline_spec(candidate, kind).is_some()
                });
                summary.failures.push(FuzzFailure {
                    seed,
                    kind: failure,
                    baseline: Some(kind),
                    original: base,
                    shrunk: shrunk.spec,
                    shrink_runs: shrunk.oracle_runs,
                });
            }
        }
        progress(summary.schedules_run, summary.failures.len());
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_variant_of_a_misbehave_schedule_runs_clean() {
        // The baselines refuse replica-misbehaviour injection outright, so
        // the baseline replay must strip `Misbehave` events (alongside
        // Byzantine clients) before running — a generated schedule that
        // contains one must not panic the campaign.
        let with_misbehave = (0..500u64)
            .map(generate_spec)
            .find(|s| {
                s.faults
                    .iter()
                    .any(|ev| matches!(ev, FaultEvent::Misbehave { .. }))
            })
            .expect("the generator produces Misbehave schedules");
        let base = baseline_variant(&with_misbehave);
        base.validate().expect("the stripped variant stays valid");
        assert_eq!(base.byz_clients, 0);
        assert!(base
            .faults
            .iter()
            .all(|ev| !matches!(ev, FaultEvent::Misbehave { .. })));
        assert_eq!(
            check_baseline_spec(&base, SystemKind::Tapir),
            None,
            "the deceit-free schedule passes the baseline audit"
        );
    }

    #[test]
    fn generated_specs_are_valid_and_deterministic() {
        for seed in 0..200u64 {
            let a = generate_spec(seed);
            a.validate().expect("valid");
            assert_eq!(a, generate_spec(seed), "same seed, same spec");
        }
        assert_ne!(generate_spec(1), generate_spec(2), "seeds differ");
    }

    #[test]
    fn generator_covers_the_fault_space() {
        let mut kinds = std::collections::BTreeSet::new();
        let mut liveness_armed = 0u32;
        let mut amnesia_crashes = 0u32;
        let mut warm_crashes = 0u32;
        let mut f2_deployments = 0u32;
        for seed in 0..300u64 {
            let spec = generate_spec(seed);
            if spec.liveness_checkable() {
                liveness_armed += 1;
            }
            if spec.f == 2 {
                f2_deployments += 1;
            }
            for ev in &spec.faults {
                if let FaultEvent::Crash { recovery, .. } = ev {
                    match recovery {
                        crate::spec::RecoveryMode::Amnesia => amnesia_crashes += 1,
                        crate::spec::RecoveryMode::Warm => warm_crashes += 1,
                    }
                }
                // A stable per-variant key (Discriminant is not Ord).
                kinds.insert(match ev {
                    FaultEvent::Crash { .. } => 0,
                    FaultEvent::PartitionReplica { .. } => 1,
                    FaultEvent::DropLink { .. } => 2,
                    FaultEvent::DelayLink { .. } => 3,
                    FaultEvent::ReplayLink { .. } => 4,
                    FaultEvent::CorruptLink { .. } => 5,
                    FaultEvent::ClockSkew { .. } => 6,
                    FaultEvent::SlowReplica { .. } => 7,
                    FaultEvent::Misbehave { .. } => 8,
                    // Not generated: SIGKILL only differs from an amnesia
                    // crash under the real-IO runtime, not the simulator.
                    FaultEvent::ProcessKill { .. } => 9,
                });
            }
        }
        assert_eq!(kinds.len(), 9, "all nine fault kinds appear");
        assert!(
            liveness_armed > 100,
            "liveness armed often: {liveness_armed}"
        );
        assert!(amnesia_crashes > 0, "amnesia crashes are generated");
        assert!(warm_crashes > 0, "warm crashes are generated");
        assert!(
            f2_deployments > 0 && f2_deployments < 150,
            "f = 2 appears as the minority: {f2_deployments}"
        );
    }

    #[test]
    fn small_campaign_passes_clean() {
        let opts = FuzzOptions {
            count: 12,
            seed_base: 0xBA51,
            baseline_every: 5,
            wall_budget: None,
            max_failures: 5,
        };
        let summary = fuzz(&opts, |_, _| {});
        assert_eq!(summary.schedules_run, 12);
        assert!(summary.baseline_checked >= 1, "baselines were fuzzed too");
        assert!(
            summary.failures.is_empty(),
            "clean build has no failures: {:#?}",
            summary
                .failures
                .iter()
                .map(|f| f.corpus_entry())
                .collect::<Vec<_>>()
        );
        assert!(!summary.budget_exhausted);
    }

    #[test]
    fn wall_budget_stops_the_campaign() {
        let opts = FuzzOptions {
            count: 1_000_000,
            wall_budget: Some(std::time::Duration::from_millis(200)),
            ..FuzzOptions::default()
        };
        let summary = fuzz(&opts, |_, _| {});
        assert!(summary.budget_exhausted);
        assert!(summary.schedules_run < 1_000_000);
    }
}
