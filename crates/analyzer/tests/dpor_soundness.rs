//! Differential soundness tests for the partial-order reductions.
//!
//! Every reduced explorer in the analyzer ships with an unreduced
//! twin (`explore_full`) that expands every enabled transition from
//! every state. These tests pin the contract that makes the reductions
//! trustworthy: on any configuration small enough to close both ways,
//! the reduced exploration must reach exactly the same verdict as the
//! full one — same deadlock reachability, same peak concurrency, same
//! invariant results, same effective-synchrony outcome, same set of
//! race classes — while visiting no more states.

use analyzer::model::flow::FlowModel;
use analyzer::race::RaceModel;
use analyzer::OrderScope;
use proptest::prelude::*;

/// A witness/counterexample path must be renderable: non-empty steps,
/// one line each.
fn assert_path_well_formed(path: &[String]) {
    for (i, step) in path.iter().enumerate() {
        assert!(!step.trim().is_empty(), "blank step at index {i}");
        assert!(!step.contains('\n'), "multi-line step at index {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flow model's send-priority reduction agrees with full
    /// exploration on every randomized small configuration.
    #[test]
    fn flow_reduction_agrees_with_full_exploration(
        servants in 1u32..=3,
        window in 1u32..=3,
        bundle in 1u32..=5,
        capacity in 1u32..=24,
        chunk in 1u32..=8,
        eager in any::<bool>(),
    ) {
        let model = FlowModel::from_protocol(servants, window, bundle, capacity, chunk, eager);
        let reduced = model.explore(3_000_000);
        let full = model.explore_full(3_000_000);
        prop_assert!(!reduced.bounded, "reduced exploration must close: {} states", reduced.states);
        prop_assert!(!full.bounded, "full exploration must close: {} states", full.states);
        prop_assert_eq!(reduced.deadlock.is_some(), full.deadlock.is_some());
        prop_assert_eq!(reduced.max_outstanding, full.max_outstanding);
        prop_assert_eq!(reduced.credits_conserved, full.credits_conserved);
        prop_assert_eq!(reduced.capacity_respected, full.capacity_respected);
        prop_assert_eq!(reduced.completion_reachable, full.completion_reachable);
        prop_assert!(reduced.states <= full.states,
            "reduction grew the space: {} > {}", reduced.states, full.states);
        if let Some(path) = &reduced.deadlock {
            assert_path_well_formed(path);
        }
        assert_path_well_formed(&reduced.peak_witness);
    }
}

/// The race explorer's sleep sets + ample reduction finds exactly the
/// same race classes and the same SYNC-1 verdict (so the same
/// effective-synchrony outcome) as full exploration on every shape the
/// analyzer ships, and never more states.
#[test]
fn race_reduction_agrees_with_full_exploration() {
    let mut models: Vec<(String, RaceModel)> = Vec::new();
    for (ma, sa) in [(false, false), (true, false), (true, true)] {
        for preemptive in [false, true] {
            models.push((
                format!("version ({ma},{sa}) preemptive={preemptive}"),
                RaceModel::version_shape(ma, sa, preemptive),
            ));
        }
    }
    for preemptive in [false, true] {
        models.push((
            format!("spmd preemptive={preemptive}"),
            RaceModel::spmd_shape(preemptive, OrderScope::Global),
        ));
    }
    for (ctx, model) in models {
        let reduced = model.explore(10_000_000);
        let full = model.explore_full(10_000_000);
        assert!(!reduced.bounded && !full.bounded, "{ctx}");
        let codes = |v: &analyzer::RaceVerdict| {
            let mut c: Vec<&str> = v.witnesses.iter().map(|w| w.code).collect();
            c.sort_unstable();
            c
        };
        assert_eq!(codes(&reduced), codes(&full), "{ctx}");
        assert_eq!(
            reduced.sync1_violation.is_some(),
            full.sync1_violation.is_some(),
            "{ctx}"
        );
        assert_eq!(
            reduced.completion_reachable, full.completion_reachable,
            "{ctx}"
        );
        assert!(reduced.states <= full.states, "{ctx}");
        // Every reduced witness is a real interleaving: its schedule
        // replays and refires the same race class.
        for w in &reduced.witnesses {
            assert_path_well_formed(&w.steps);
            let fired = model
                .replay(&w.schedule)
                .unwrap_or_else(|| panic!("{ctx}: {} witness must replay", w.code));
            assert!(
                fired.contains(&w.code),
                "{ctx}: {} replay fired {fired:?}",
                w.code
            );
        }
    }
}

/// Seeded regression for the V3 witness path: the reduced flow
/// exploration of the paper's version-3 configuration must keep
/// producing the same deterministic, well-formed path to the collapsed
/// concurrency ceiling of 15 jobs.
#[test]
fn v3_peak_witness_path_is_stable() {
    let app = raysim::config::AppConfig::version(raysim::config::Version::V3);
    let model = FlowModel::from_protocol(
        u32::from(app.servants),
        app.window,
        app.bundle_size,
        app.pixel_queue_capacity,
        app.write_chunk,
        app.eager_writeback,
    );
    let first = model.explore(2_000_000);
    let second = model.explore(2_000_000);
    assert!(!first.bounded);
    assert_eq!(first.max_outstanding, 15, "the V3 collapse ceiling");
    assert!(!first.peak_witness.is_empty());
    assert_path_well_formed(&first.peak_witness);
    // BFS over a deterministic successor order: the witness is
    // reproducible run to run.
    assert_eq!(first.peak_witness, second.peak_witness);
    assert_eq!(first.states, second.states);
    // The urgent-send closure leaves its fingerprint: the path reaches
    // the peak through at least one folded send burst.
    assert!(
        first
            .peak_witness
            .iter()
            .any(|l| l.contains("without yielding")),
        "{:?}",
        first.peak_witness
    );
}
