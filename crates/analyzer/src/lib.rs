//! Static analysis of instrumentation and protocol configurations.
//!
//! The paper's evaluation chapter finds its bugs *dynamically*: E2
//! discovers version 3's undersized pixel queue in a Gantt chart, E3
//! discovers event loss by watching a FIFO overflow. This crate front-
//! loads that work — everything that is decidable from the declared
//! configuration is checked **before** a simulation runs:
//!
//! * [`token_lints`] — lints over the declared instrumentation point
//!   maps ([`raysim::tokens::point_map`], [`suprenum::os_tokens`]):
//!   unmatched begin/end pairs, duplicate and colliding token ids,
//!   kernel-reservation violations, shared-display interleaving
//!   hazards (`AN-TOKEN-*`).
//! * [`protocol`] — the version's wait-for/message-flow graph: deadlock
//!   cycles, pseudo-synchronous mailbox coupling, window-credit
//!   conservation, and the pixel-queue capacity check that catches the
//!   version-3 bug statically (`AN-PROTO-*`).
//! * [`rate`] — worst-case per-channel event rates aggregated per ZM4
//!   event recorder against the 10 000 events/s drain and the 32 K
//!   FIFO: predicted event loss before any event exists (`AN-RATE-*`).
//! * [`model`] — the bounded protocol model checker: deadlock
//!   reachability with counterexample paths, the V3 window collapse as
//!   a reachability verdict, credit conservation over *all* reachable
//!   states, and the effective-synchrony theorem read off the race
//!   explorer's round-robin verdict (`AN-MODEL-*`).
//! * [`hb`] — the vector-clock happens-before engine over recorded
//!   traces, cross-validated against the model checker's proven
//!   orderings (`AN-HB-*`).
//! * [`race`] — the DPOR interleaving explorer (sleep sets over a
//!   persistent-set reduction), the one model of node scheduling and
//!   mailbox accepts: the effective-synchrony predicates SYNC-1/SYNC-2,
//!   with a counterexample under a preemptive-scheduler toggle, and
//!   mailbox receive-races, lost wakeups, lost signals and
//!   nondeterministic monitoring interleavings, each with a replayable
//!   witness interleaving cross-checked against the happens-before
//!   engine (`AN-RACE-*`).
//! * [`structural`] — the place/transition-net layer: P-invariants by
//!   Gaussian elimination over the incidence matrix (credit
//!   conservation as a machine-checkable certificate), siphon/trap
//!   deadlock analysis, and capacity synthesis — polynomial-time
//!   proofs that hold for any shape size, closing the claims the
//!   exhaustive layers leave partial at their state budgets
//!   (`AN-STRUCT-*`).
//!
//! Findings are [`diag::Diagnostic`]s with stable machine-readable
//! codes, severities, and structured locations, collected into
//! [`diag::Report`]s that render in `rustc` style — or as JSON and
//! SARIF via [`render`].
//!
//! # One-call API
//!
//! ```
//! use analyzer::analyze_version;
//! use raysim::config::Version;
//!
//! let report = analyze_version(Version::V3);
//! assert!(report.contains("AN-PROTO-002"), "{}", report.render());
//! ```
//!
//! # Pre-flight wiring
//!
//! [`pipeline::run_workload`] consults a [`pipeline::Preflight`];
//! [`preflight::pipeline_warn`] and [`preflight::pipeline_deny`] supply
//! the ray-tracer analysis hook without a dependency cycle.

pub mod diag;
pub mod hb;
pub mod model;
pub mod preflight;
pub mod protocol;
pub mod race;
pub mod rate;
pub mod render;
pub mod structural;
pub mod token_lints;

pub use diag::{Diagnostic, Finding, Location, Report, Severity};
pub use hb::{analyze_trace, validate_orders, HbStats};
pub use model::{
    check_app, check_app_timed, proven_orders, ModelBudget, ModelTimings, OrderScope, ProvenOrder,
};
pub use preflight::{
    analyze_all_versions, analyze_app, analyze_run, analyze_version, analyze_version_timed,
    pipeline_deny, pipeline_hook, pipeline_warn, workload_deny, workload_hook, workload_warn,
    LayerTimings,
};
pub use protocol::{analyze_protocol, CreditLedger, ProtocolGraph};
pub use race::{
    check_race_model, check_races, hb_crosscheck, scope_of_orders, version_verdict,
    witness_is_concurrent, RaceModel, RaceVerdict, RaceWitness,
};
pub use rate::{analyze_rate, predict, RatePrediction};
pub use render::{report_json, reports_json, reports_json_with_timings, sarif, SubjectTimings};
pub use structural::{
    analyze_structural, check_structural, DeadlockVerdict, PInvariant, PetriNet, ProtocolNet,
    StructuralVerdict,
};
pub use token_lints::{lint_pair, lint_stock_maps, TokenDecl, TokenMap};
