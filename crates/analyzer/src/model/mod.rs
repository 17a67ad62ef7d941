//! The protocol model checker: machine-checked verdicts about a
//! [`raysim`] configuration, produced without executing the simulator.
//!
//! Two bounded models, each exhaustively explored:
//!
//! * [`flow`] — the window/credit/pixel-queue protocol in bundle units
//!   at paper scale (deadlock reachability, peak concurrency / the V3
//!   window collapse, credit conservation);
//! * [`exact`] — a pixel-exact segment model for small configurations
//!   (schedule-dependent *possible* vs schedule-independent
//!   *inevitable* deadlock, differentially tested against the
//!   simulator).
//!
//! The checks are tiered behind the budget-free structural layer
//! ([`crate::structural`]): when its certificates prove a shape
//! deadlock-free, credit- and queue-conserving and free of window
//! collapse, the flow claims are read off the certificates and the
//! flow model is not explored at all. It runs for what the
//! certificates leave open: the window-collapse witness path, and
//! strict write-back shapes whose deadlock verdict is `Starved` or
//! `Unknown`.
//!
//! The effective-synchrony theorem (`AN-MODEL-004`) is read off the
//! round-robin verdict of the interleaving explorer in [`crate::race`],
//! which checks SYNC-1 and SYNC-2 at every mailbox accept; under its
//! preemptive toggle the same explorer yields the counterexample.
//!
//! [`check_app`] runs the layers appropriate for a configuration and
//! folds the verdicts into [`Diagnostic`]s (the `AN-MODEL-*` codes);
//! [`proven_orders`] exports the event orderings the models guarantee,
//! which the happens-before engine ([`crate::hb`]) checks against every
//! recorded trace.

pub mod exact;
pub mod flow;

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use raysim::config::AppConfig;

use crate::diag::{Diagnostic, Location, Report};
use crate::structural::{DeadlockVerdict, StructuralVerdict};
use exact::ExactModel;
use flow::FlowModel;

/// State budgets for the three explorations.
///
/// The pre-flight budget keeps per-run analysis cheap (a bounded
/// exploration reports `AN-MODEL-005` instead of a universal claim);
/// the full budget is what the `analyze` CLI and the CI gate use, and
/// closes every stock V1–V4 state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelBudget {
    /// Max states for the flow model.
    pub flow_states: usize,
    /// Max states for the exact model (`0` disables it).
    pub exact_states: usize,
    /// Max states for the interleaving explorer ([`crate::race`]).
    pub race_states: usize,
}

impl ModelBudget {
    /// The cheap per-run budget used by the pre-flight hook.
    pub fn preflight() -> ModelBudget {
        ModelBudget {
            flow_states: 100_000,
            exact_states: 0,
            race_states: 200_000,
        }
    }

    /// The full budget used by the `analyze` CLI and the CI gate:
    /// closes all four stock paper configurations.
    pub fn full() -> ModelBudget {
        ModelBudget {
            flow_states: 2_000_000,
            exact_states: 1_000_000,
            race_states: 2_000_000,
        }
    }
}

/// Locks `m`, recovering from poisoning: a panic in one thread (say, a
/// failed assertion in a test sharing the process-wide verdict caches)
/// must not cascade `PoisonError` panics into every later analysis.
/// The cached values are read-only once inserted and each insert is a
/// single `HashMap::insert`, so a poisoned guard's data is still
/// consistent.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Largest image (pixels) the exact model is attempted on; beyond this
/// the segment state space is left to the flow abstraction.
const EXACT_MAX_PIXELS: u32 = 64;

/// An event ordering the models prove holds in every legal execution.
///
/// This is the pipeline's [`pipeline::OrderEdge`], re-exported under
/// its historical analyzer name: workloads declare the edges (see
/// [`pipeline::Workload::proven_orders`]), the models here witness the
/// ray tracer's, and the happens-before engine checks any of them.
pub use pipeline::{OrderEdge as ProvenOrder, OrderScope};

/// The orderings guaranteed by message causality and the blocking
/// mailbox protocol, as witnessed by the interleaving explorer: a
/// message is accepted only after its send began (SYNC-1), so each
/// job's instrumentation points are totally ordered across nodes.
/// Delegates to the ray-tracer workload's own declaration
/// ([`raysim::workload::proven_orders`]), which [`crate::race`] is the
/// witness for.
pub fn proven_orders(app: &AppConfig) -> Vec<ProvenOrder> {
    raysim::workload::proven_orders(app)
}

/// Wall time and deterministic work counters for each model-checking
/// phase of [`check_app_timed`], for the per-layer cost breakdown
/// `analyze --json` publishes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelTimings {
    /// The structural (place/transition-net) layer.
    pub structural: Duration,
    /// The exhaustive flow/exact explorations.
    pub model: Duration,
    /// The DPOR interleaving explorer (races and effective synchrony).
    pub race: Duration,
    /// States the flow explorer visited: `0` when the structural
    /// certificates closed the shape and the exploration was skipped.
    pub flow_states: usize,
    /// States the interleaving explorer visited for the round-robin
    /// verdict (the cached count when the shape was explored earlier).
    pub race_states: usize,
}

/// One exhaustive layer that hit its state budget: which universal
/// claims stay partial, and which the structural layer closed anyway.
struct BoundedLayer {
    summary: String,
    partial: Vec<String>,
    closed: Vec<String>,
}

const DEADLOCK_FREE_STRUCTURALLY: &str =
    "deadlock-free: proven structurally for any shape size (siphon/trap analysis, AN-STRUCT-002)";

fn full_concurrency_structurally(intended: u64) -> String {
    format!(
        "full window concurrency is reachable: proven structurally — the queue invariant \
         bounds concurrency at min(credits, capacity) = {intended} and the monotone send \
         sequence attains it (AN-STRUCT-004)"
    )
}

fn conserved_structurally(credits: u64) -> String {
    format!(
        "credit conservation proven: the P-invariant certificate (AN-STRUCT-001) bounds \
         outstanding jobs at {credits} credits in every reachable state, for any budget"
    )
}

/// Explores the flow model for a shape the structural certificates do
/// not close and emits `AN-MODEL-001/002/003` from the enumeration
/// (claims the certificates did prove stay proven when the exploration
/// stops at its budget). Returns the number of states visited.
fn check_flow(
    app: &AppConfig,
    st: &StructuralVerdict,
    budget: &ModelBudget,
    report: &mut Report,
    bounded_layers: &mut Vec<BoundedLayer>,
) -> usize {
    let structurally_deadlock_free = st.deadlock == DeadlockVerdict::Free;
    let has_certificates = st.conservation.is_some() && st.queue_bound.is_some();
    let flow = FlowModel::from_protocol(
        u32::from(app.servants),
        app.window,
        app.bundle_size,
        app.pixel_queue_capacity,
        app.write_chunk,
        app.eager_writeback,
    );
    let fv = flow.explore(budget.flow_states);
    if fv.bounded {
        let mut partial = vec!["completion reachability".to_owned()];
        let mut closed = Vec::new();
        if structurally_deadlock_free {
            closed.push("deadlock freedom (AN-STRUCT-002)".to_owned());
        } else {
            partial.insert(0, "deadlock freedom".to_owned());
        }
        if has_certificates {
            closed.push("credit conservation and the queue bound (AN-STRUCT-001)".to_owned());
            closed.push("peak concurrency / window collapse (AN-STRUCT-004)".to_owned());
        } else {
            partial.push("credit conservation".to_owned());
            partial.push("peak concurrency".to_owned());
        }
        bounded_layers.push(BoundedLayer {
            summary: format!(
                "flow model stopped at {} states (budget {})",
                fv.states, budget.flow_states
            ),
            partial,
            closed,
        });
    }

    if let Some(path) = &fv.deadlock {
        report.push(
            Diagnostic::error(
                "AN-MODEL-001",
                "a reachable protocol state deadlocks: the master can neither send, \
                 receive, nor write",
            )
            .note(format!(
                "found by exhaustive exploration of {} reachable states (bundle-granular \
                 flow model)",
                fv.states
            ))
            .with_path("counterexample (one transition per line)", path.clone()),
        );
    } else if !fv.bounded {
        report.push(
            Diagnostic::info(
                "AN-MODEL-001",
                format!(
                    "deadlock-free: exhaustive exploration of {} reachable protocol states \
                     found no state where the master is stuck",
                    fv.states
                ),
            )
            .locate(Location::Model { path: Vec::new() }),
        );
    } else if structurally_deadlock_free {
        report.push(
            Diagnostic::info(
                "AN-MODEL-001",
                format!(
                    "{DEADLOCK_FREE_STRUCTURALLY}; the bounded exploration of {} states found \
                     no counterexample either",
                    fv.states
                ),
            )
            .locate(Location::Model { path: Vec::new() }),
        );
    }

    // Window collapse: provable structurally (the queue bound caps
    // concurrency below the window total); the exploration supplies the
    // witness path to the observed peak.
    let intended = u64::from(app.servants) * u64::from(app.window);
    if u64::from(flow.capacity_b) < intended {
        report.push(
            Diagnostic::error(
                "AN-MODEL-002",
                format!(
                    "window collapse: flow control intends {intended} concurrent jobs but \
                     no reachable state holds more than {} — the pixel queue bound caps \
                     concurrency",
                    fv.max_outstanding
                ),
            )
            .at_config("app.pixel_queue_capacity", app.pixel_queue_capacity)
            .note(format!(
                "peak of {} outstanding jobs over {} explored states{}",
                fv.max_outstanding,
                fv.states,
                if fv.bounded { " (bounded)" } else { "" }
            ))
            .with_path(
                "witness path to the concurrency ceiling",
                fv.peak_witness.clone(),
            ),
        );
    } else if !fv.bounded {
        report.push(Diagnostic::info(
            "AN-MODEL-002",
            format!(
                "full window concurrency is reachable: {} of {intended} intended jobs \
                 outstanding in some state, over {} explored states",
                fv.max_outstanding, fv.states
            ),
        ));
    } else if has_certificates {
        report.push(Diagnostic::info(
            "AN-MODEL-002",
            format!(
                "{}; the bounded exploration reached {} of {intended}",
                full_concurrency_structurally(intended),
                fv.max_outstanding
            ),
        ));
    }

    // Credit conservation, checked mechanically in every state.
    if !fv.credits_conserved || !fv.capacity_respected {
        report.push(
            Diagnostic::error(
                "AN-MODEL-003",
                if fv.credits_conserved {
                    "the pixel-queue bound is overrun in a reachable state"
                } else {
                    "credit conservation violated: a reachable state holds more \
                     outstanding jobs than window credits"
                },
            )
            .note(format!("over {} explored states", fv.states)),
        );
    } else if !fv.bounded {
        report.push(Diagnostic::info(
            "AN-MODEL-003",
            format!(
                "credit conservation proven: outstanding jobs never exceed {} credits and \
                 in-flight pixels never exceed the queue bound, in all {} reachable states",
                flow.credits, fv.states
            ),
        ));
    } else if has_certificates {
        report.push(Diagnostic::info(
            "AN-MODEL-003",
            format!(
                "{}; the bounded exploration of {} states agreed",
                conserved_structurally(u64::from(flow.credits)),
                fv.states
            ),
        ));
    }
    fv.states
}

/// Model-checks an application configuration and folds the verdicts
/// into diagnostics.
///
/// The analysis is **tiered**. The structural layer runs first
/// (`AN-STRUCT-*`); its P-invariant and siphon proofs hold for any
/// shape size. When they certify the shape — deadlock-free, credit
/// and queue conservation, no window collapse — `AN-MODEL-001/002/003`
/// are emitted from the certificates and the flow exploration is
/// skipped. Otherwise (a window collapse, whose witness path only the
/// exploration supplies, or a `Starved`/`Unknown` deadlock verdict) the
/// flow model is explored, and when it stops at its state budget the
/// properties the structural layer proved are reported closed instead
/// of partial. The rule is the same at every budget.
///
/// Emits `AN-MODEL-001` (deadlock reachability), `AN-MODEL-002`
/// (window collapse), `AN-MODEL-003` (credit conservation),
/// `AN-MODEL-004` (effective synchrony) and `AN-MODEL-005`
/// (budget-bounded exploration, naming the specific properties left
/// partial). Proven properties are reported as `info` diagnostics so a
/// report stays clean for healthy configurations; violated ones are
/// errors carrying a counterexample path.
pub fn check_app(app: &AppConfig, budget: &ModelBudget) -> Report {
    check_app_timed(app, budget).0
}

/// [`check_app`] plus the per-phase wall-time and state-count
/// breakdown.
pub fn check_app_timed(app: &AppConfig, budget: &ModelBudget) -> (Report, ModelTimings) {
    let mut report = Report::new(format!("{} protocol model", app.version));
    let mut timings = ModelTimings::default();
    let mut bounded_layers: Vec<BoundedLayer> = Vec::new();

    // --- Structural layer: certificates that do not depend on any
    // state budget. Runs first so the explicit-state layers below run
    // only for what it leaves open.
    let phase = Instant::now();
    let st = crate::structural::analyze_structural(app);
    report.merge(crate::structural::structural_findings(app, &st));
    timings.structural = phase.elapsed();

    let phase = Instant::now();
    if st.certified() {
        report.push(
            Diagnostic::info("AN-MODEL-001", DEADLOCK_FREE_STRUCTURALLY)
                .locate(Location::Model { path: Vec::new() }),
        );
        report.push(Diagnostic::info(
            "AN-MODEL-002",
            full_concurrency_structurally(st.intended_concurrency),
        ));
        report.push(Diagnostic::info(
            "AN-MODEL-003",
            conserved_structurally(st.net.credits),
        ));
    } else {
        timings.flow_states = check_flow(app, &st, budget, &mut report, &mut bounded_layers);
    }

    // --- Exact model, for configurations small enough to close.
    if budget.exact_states > 0 && app.total_pixels() <= EXACT_MAX_PIXELS {
        let exact = ExactModel {
            total: app.total_pixels(),
            capacity: app.pixel_queue_capacity,
            bundle: app.bundle_size,
            chunk: app.write_chunk,
            credits: u32::from(app.servants) * app.window,
            eager: app.eager_writeback,
        };
        let ev = exact.explore(budget.exact_states);
        if ev.bounded {
            let mut partial = vec!["the possible-vs-inevitable deadlock classification".to_owned()];
            let mut closed = Vec::new();
            if st.deadlock == DeadlockVerdict::Free {
                closed.push("deadlock freedom (AN-STRUCT-002)".to_owned());
            } else {
                partial.insert(0, "deadlock freedom".to_owned());
            }
            bounded_layers.push(BoundedLayer {
                summary: format!(
                    "exact model stopped at {} states (budget {})",
                    ev.states, budget.exact_states
                ),
                partial,
                closed,
            });
        } else if ev.deadlock_inevitable {
            let path = ev.deadlock_possible.clone().unwrap_or_default();
            report.push(
                Diagnostic::error(
                    "AN-MODEL-001",
                    "every scheduling deadlocks: no completion order of the outstanding \
                     jobs lets the master finish writing the image",
                )
                .note(format!(
                    "pixel-exact exploration of {} states found no completed terminal",
                    ev.states
                ))
                .with_path("one deadlocking schedule", path),
            );
        } else if let Some(path) = &ev.deadlock_possible {
            report.push(
                Diagnostic::warning(
                    "AN-MODEL-001",
                    "some schedulings deadlock: an unlucky completion order leaves a \
                     contiguous tail shorter than the write chunk",
                )
                .note(format!(
                    "pixel-exact exploration of {} states; completion is also reachable, \
                     so the outcome depends on the schedule",
                    ev.states
                ))
                .with_path("one deadlocking schedule", path.clone()),
            );
        } else {
            report.push(Diagnostic::info(
                "AN-MODEL-001",
                format!(
                    "pixel-exact check: no scheduling deadlocks ({} reachable states)",
                    ev.states
                ),
            ));
        }
    }

    timings.model = phase.elapsed();

    // --- Interleaving explorer: one round-robin exploration yields
    // both the effective-synchrony theorem and the race verdicts. The
    // preemptive variant is the `analyze --preemptive`/`--races
    // --preemptive` section and stays out of the default report.
    let phase = Instant::now();
    let rv = crate::race::version_verdict(app, budget, false);
    let races = crate::race::version_report(app, &rv, false);
    timings.race = phase.elapsed();
    timings.race_states = rv.states;

    if rv.bounded {
        bounded_layers.push(BoundedLayer {
            summary: format!(
                "interleaving explorer stopped at {} states (budget {})",
                rv.states, budget.race_states
            ),
            partial: vec!["effective synchrony (SYNC-1/SYNC-2)".to_owned()],
            closed: Vec::new(),
        });
    }
    if let Some(w) = rv.sync_violation() {
        report.push(
            Diagnostic::error(
                "AN-MODEL-004",
                "effective synchrony violated: a mailbox send can complete while a user \
                 process still holds its CPU",
            )
            .with_path("counterexample interleaving", w.steps.clone()),
        );
    } else if !rv.bounded {
        report.push(Diagnostic::info(
            "AN-MODEL-004",
            format!(
                "effective synchrony proven for this version's communication shape: in \
                 all {} reachable interleavings ({} mailbox accepts checked), the sender \
                 is blocked at accept time and no user process on the accepting node is \
                 mid-compute",
                rv.states, rv.accepts_checked
            ),
        ));
    }
    report.merge(races);

    if !bounded_layers.is_empty() {
        let mut d = Diagnostic::info(
            "AN-MODEL-005",
            "exploration bounded by the state budget; universal claims that no other \
             layer closes are partial",
        );
        for l in bounded_layers {
            d = d.note(format!(
                "{} — still partial: {}",
                l.summary,
                l.partial.join(", ")
            ));
            if !l.closed.is_empty() {
                d = d.note(format!("  closed structurally: {}", l.closed.join("; ")));
            }
        }
        report.push(d);
    }

    (report, timings)
}

/// Shared assertions over witness paths, used by the race-explorer and
/// module-level tests alike.
#[cfg(test)]
pub(crate) mod testutil {
    /// Asserts a SYNC-2 counterexample is well-formed — non-empty, no
    /// blank steps, every step on one line — *and* tells the SYNC-2
    /// story: a preemption occurs along the way (nothing else takes a
    /// CPU from a process mid-compute) and the final transition is the
    /// mailbox accept that lands mid-compute.
    pub(crate) fn assert_sync2_witness(path: &[String]) {
        assert!(!path.is_empty(), "witness path must not be empty");
        for (i, step) in path.iter().enumerate() {
            assert!(!step.trim().is_empty(), "blank witness step at index {i}");
            assert!(
                !step.contains('\n'),
                "multi-line witness step at index {i}: {step:?}"
            );
        }
        assert!(
            path.iter().any(|l| l.contains("preempts")),
            "a SYNC-2 witness must contain a preemption: {path:?}"
        );
        assert!(
            path.last().unwrap().contains("mailbox accepts"),
            "the final step must be the accept: {path:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raysim::config::Version;

    #[test]
    fn v3_is_flagged_statically_with_a_counterexample() {
        // The certificates prove the collapse, but only the flow
        // exploration yields the witness path, at every budget.
        for budget in [ModelBudget::preflight(), ModelBudget::full()] {
            let (report, timings) = check_app_timed(&AppConfig::version(Version::V3), &budget);
            assert!(report.has_errors());
            assert_eq!(timings.flow_states, 343);
            assert!(!report.contains("AN-MODEL-005"), "{}", report.render());
            let collapse = report
                .findings
                .iter()
                .find(|f| f.code == "AN-MODEL-002")
                .expect("V3 must collapse");
            assert!(collapse.notes.iter().any(|n| n.contains("15 outstanding")));
            assert!(matches!(&collapse.location, Location::Model { path } if !path.is_empty()));
            // The witness path is a reproducible counterexample.
            assert!(collapse
                .notes
                .iter()
                .any(|n| n.contains("witness path to the concurrency ceiling:")));
        }
    }

    #[test]
    fn starved_strict_write_back_still_gets_the_flow_counterexample() {
        // Strict write-back whose chunk exceeds the queue: the siphon
        // analysis says `Starved`, so the flow explorer must still run
        // and supply the deadlock path. Two servants keep the window
        // (6 credits) under the 8-bundle queue, so the deadlock verdict
        // is the only claim the certificates leave open.
        let mut app = AppConfig::version(Version::V4);
        app.servants = 2;
        app.pixel_queue_capacity = 8 * app.bundle_size;
        app.write_chunk = 9 * app.bundle_size;
        app.eager_writeback = false;
        let st = crate::structural::analyze_structural(&app);
        assert!(matches!(st.deadlock, DeadlockVerdict::Starved { .. }));
        assert!(!st.window_collapse);
        assert!(!st.certified());
        let (report, timings) = check_app_timed(&app, &ModelBudget::preflight());
        assert!(timings.flow_states > 0);
        let deadlock = report
            .findings
            .iter()
            .find(|f| f.code == "AN-MODEL-001")
            .expect("the starved shape must deadlock");
        assert_eq!(deadlock.severity, crate::diag::Severity::Error);
        assert!(
            deadlock
                .notes
                .iter()
                .any(|n| n == "counterexample (one transition per line):"),
            "{}",
            report.render()
        );
        assert!(matches!(&deadlock.location, Location::Model { path } if !path.is_empty()));
    }

    #[test]
    fn v4_is_proven_deadlock_free_and_credit_conserving() {
        let report = check_app(&AppConfig::version(Version::V4), &ModelBudget::full());
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(report.warnings(), 0);
        let msgs: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
        assert!(msgs.iter().any(|m| m.starts_with("deadlock-free")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("credit conservation proven")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("effective synchrony proven")));
    }

    #[test]
    fn all_stock_versions_prove_effective_synchrony() {
        for v in Version::ALL {
            let report = check_app(&AppConfig::version(v), &ModelBudget::full());
            assert!(
                report.findings.iter().any(|f| f.code == "AN-MODEL-004"
                    && f.message.contains("effective synchrony proven")),
                "{v}: {}",
                report.render()
            );
        }
    }

    #[test]
    fn preemptive_variant_yields_a_counterexample() {
        let verdict = crate::race::version_verdict(
            &AppConfig::version(Version::V4),
            &ModelBudget::full(),
            true,
        );
        assert!(verdict.sync1_violation.is_none(), "sends still block");
        let w = verdict.sync_violation().expect("preemption breaks SYNC-2");
        assert_eq!(w.code, "AN-RACE-004");
        testutil::assert_sync2_witness(&w.steps);
    }

    #[test]
    fn bounded_race_budget_leaves_effective_synchrony_partial() {
        let budget = ModelBudget {
            race_states: 50,
            ..ModelBudget::preflight()
        };
        let report = check_app(&AppConfig::version(Version::V4), &budget);
        assert!(!report.contains("AN-MODEL-004"), "{}", report.render());
        let bounded = report
            .findings
            .iter()
            .find(|f| f.code == "AN-MODEL-005")
            .expect("the bounded explorer must be noted");
        assert!(
            bounded
                .notes
                .iter()
                .any(|n| n.contains("interleaving explorer stopped")
                    && n.contains("still partial: effective synchrony (SYNC-1/SYNC-2)")),
            "{}",
            report.render()
        );
    }

    #[test]
    fn verdict_cache_survives_mutex_poisoning() {
        // A panic while holding the lock must not cascade into every
        // later analysis sharing the process-wide cache.
        let m = std::sync::Mutex::new(vec![1, 2, 3]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(caught.is_err());
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), vec![1, 2, 3]);
        lock_unpoisoned(&m).push(4);
        assert_eq!(lock_unpoisoned(&m).len(), 4);
    }

    #[test]
    fn stock_versions_add_no_warnings_under_the_preflight_budget() {
        // The pre-flight hook folds these findings into existing
        // warn/deny policies: they must stay info-only for V1/V2/V4 and
        // error-only for V3.
        for v in Version::ALL {
            let report = check_app(&AppConfig::version(v), &ModelBudget::preflight());
            assert_eq!(report.warnings(), 0, "{v}: {}", report.render());
            assert_eq!(report.has_errors(), v == Version::V3, "{v}");
        }
    }

    #[test]
    fn proven_orders_follow_instrumentation() {
        let v1 = proven_orders(&AppConfig::version(Version::V1));
        assert_eq!(v1.len(), 2);
        let v4 = proven_orders(&AppConfig::version(Version::V4));
        assert_eq!(v4.len(), 4);
        assert!(v4.iter().any(|o| o.name == "result-sent-before-received"));
    }
}
