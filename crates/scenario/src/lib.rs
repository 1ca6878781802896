//! # basil-scenario
//!
//! The adversary matrix as *data*: declarative fault scenarios, a
//! deterministic runner, and a seed-driven schedule fuzzer with
//! delta-debugging shrinking.
//!
//! * [`spec`] — the [`ScenarioSpec`] grammar: fault kinds (crash/restart,
//!   partition+heal, drop/corrupt/replay/delay links, equivocation mixes,
//!   clock skew, slow replicas) × timing windows × target selectors, with
//!   distinct crash/deceit budgets (the benign-vs-deceitful split) enforced
//!   at validation time.
//! * [`ron`] — the hand-rolled RON codec for the committed corpus under
//!   `tests/corpus/`.
//! * [`runner`] — compiles a spec onto the simulator seam (link faults,
//!   crashes, partitions, behaviour switches, node-property overrides) and
//!   executes it on Basil or a baseline, bit-for-bit reproducibly.
//! * [`mod@fuzz`] — seed-driven schedule generation plus the
//!   safety and liveness checks.
//! * [`shrink`] — greedy delta debugging: a failing spec is reduced to a
//!   1-minimal set of fault events before it is reported.
//!
//! ```no_run
//! use basil_scenario::{fuzz, runner};
//!
//! // Run one generated schedule twice: the replay is bit-for-bit identical.
//! let spec = fuzz::generate_spec(0xBA51);
//! let first = runner::run_basil_spec(&spec);
//! let replay = runner::run_basil_spec(&spec);
//! assert!(!first.diverges_from(&replay));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod fuzz;
pub mod ron;
pub mod runner;
pub mod shrink;
pub mod spec;

pub use fuzz::{fuzz, generate_spec, FuzzFailure, FuzzOptions, FuzzSummary};
pub use ron::{decode, encode};
pub use runner::{drive, run_baseline_spec, run_basil_spec, FailureKind, ScenarioOutcome};
pub use shrink::{shrink_spec, ShrinkResult};
pub use spec::{
    Expectation, FaultBudget, FaultEvent, ScenarioSpec, Selector, SpecError, WorkloadSpec,
};
