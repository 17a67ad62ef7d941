//! Differential soundness tests for the structural (Petri-net) layer.
//!
//! The structural layer's claims are algebraic — P-invariants,
//! siphon/trap marking, synthesized capacities — and hold for *any*
//! shape size. These tests pin them against the exhaustive layers on
//! configurations small enough to close both ways: whatever the flow
//! and exact explorers observe by enumeration, the structural
//! certificates must predict — in particular on every shape the
//! certificates close, which the analyzer never hands to the flow
//! explorer. And on a shape too large for the flow explorer's
//! pre-flight budget, the structural layer must still deliver full
//! proofs — that scaling gap is the layer's reason to exist.

use analyzer::model::exact::ExactModel;
use analyzer::model::flow::FlowModel;
use analyzer::structural::{analyze_protocol_net, DeadlockVerdict, ProtocolNet};
use analyzer::{analyze_structural, check_app_timed, ModelBudget};
use proptest::prelude::*;
use raysim::config::{AppConfig, Version};

/// Flow-model state budget comfortably above every stock shape's
/// closure point (the pre-flight bound closes all four versions).
const FLOW_BUDGET: usize = 2_000_000;

/// Structural analysis of the protocol constants, same pixel-unit
/// signature as [`FlowModel::from_protocol`].
fn structural(
    servants: u32,
    window: u32,
    bundle: u32,
    capacity: u32,
    chunk: u32,
    eager: bool,
) -> analyzer::StructuralVerdict {
    analyze_protocol_net(ProtocolNet::from_protocol(
        servants, window, bundle, capacity, chunk, eager,
    ))
}

#[test]
fn structural_agrees_with_flow_on_every_stock_shape() {
    for version in Version::ALL {
        let app = AppConfig::version(version);
        let st = analyze_structural(&app);
        let flow = FlowModel::from_protocol(
            u32::from(app.servants),
            app.window,
            app.bundle_size,
            app.pixel_queue_capacity,
            app.write_chunk,
            app.eager_writeback,
        )
        .explore(FLOW_BUDGET);
        assert!(!flow.bounded, "{version}: raise FLOW_BUDGET");

        // The enumerated invariants match the certificates.
        assert!(flow.credits_conserved, "{version}");
        assert!(flow.capacity_respected, "{version}");
        let conservation = st.conservation.as_ref().expect("conservation certificate");
        assert_eq!(conservation.constant, st.net.credits, "{version}");
        assert!(st.queue_bound.is_some(), "{version}");

        // The enumerated peak is exactly the structural bound.
        assert_eq!(
            u64::from(flow.max_outstanding),
            st.peak_concurrency,
            "{version}: flow peak vs structural min(credits, capacity_b)"
        );
        assert_eq!(
            st.window_collapse,
            st.peak_concurrency < st.intended_concurrency,
            "{version}"
        );
        assert_eq!(st.window_collapse, version == Version::V3, "{version}");

        // Stock shapes are eager: both layers agree on deadlock freedom.
        assert_eq!(st.deadlock, DeadlockVerdict::Free, "{version}");
        assert!(flow.deadlock.is_none(), "{version}");
        assert!(flow.completion_reachable, "{version}");
    }
}

#[test]
fn v3_synthesized_minimum_is_2250_and_restores_full_concurrency() {
    let app = AppConfig::version(Version::V3);
    let st = analyze_structural(&app);
    assert!(st.window_collapse);
    assert_eq!(st.min_capacity, 2_250, "15 servants × 3 credits × 50 rays");

    // One pixel short of the synthesized minimum still collapses…
    let short = structural(15, 3, 50, 2_249, 64, true);
    assert!(short.window_collapse, "2249 must still be unsafe");

    // …while the minimum itself restores the full window, confirmed by
    // enumeration: the flow explorer reaches all 45 credits in flight.
    let fixed = structural(15, 3, 50, 2_250, 64, true);
    assert!(!fixed.window_collapse);
    assert_eq!(fixed.peak_concurrency, 45);
    let flow = FlowModel::from_protocol(15, 3, 50, 2_250, 64, true).explore(FLOW_BUDGET);
    assert!(!flow.bounded);
    assert_eq!(flow.max_outstanding, 45);
}

#[test]
fn ladder_shape_past_the_flow_budget_is_fully_proven_structurally() {
    // The scaling sweep's 64-node rung at paper scale: 63 servants ×
    // window 3 = 189 credits, 32-ray bundles, the stock 16 384-pixel
    // queue (512 bundles). The flow explorer cannot close this under
    // the pre-flight budget — its state count grows with
    // credits × capacity — but every structural proof still lands.
    let mut app = AppConfig::version(Version::V4);
    app.servants = 63;
    app.bundle_size = 32;
    app.write_chunk = 64;

    let budget = ModelBudget::preflight();
    let flow = FlowModel::from_protocol(
        u32::from(app.servants),
        app.window,
        app.bundle_size,
        app.pixel_queue_capacity,
        app.write_chunk,
        app.eager_writeback,
    )
    .explore(budget.flow_states);
    assert!(
        flow.bounded,
        "the ladder shape closed under the pre-flight budget ({} states) — \
         grow the shape or the point of this test is gone",
        flow.states
    );

    let st = analyze_structural(&app);
    assert_eq!(st.intended_concurrency, 189);
    assert!(st.conservation.is_some());
    assert!(st.queue_bound.is_some());
    assert_eq!(st.deadlock, DeadlockVerdict::Free);
    assert!(!st.window_collapse);
    assert_eq!(
        st.peak_concurrency, 189,
        "512 bundle slots cover 189 credits"
    );
    assert_eq!(st.min_capacity, 189 * 32);

    // And the tiered report needs no exploration at all: the
    // certificates close the shape, so nothing is left partial (no
    // AN-MODEL-005), deadlock freedom is reported as proven
    // structurally, and the flow explorer never ran.
    assert!(st.certified());
    let (report, timings) = check_app_timed(&app, &budget);
    assert!(!report.contains("AN-MODEL-005"), "{}", report.render());
    assert_eq!(timings.flow_states, 0);
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.code == "AN-MODEL-001" && f.message.contains("proven structurally")),
        "{}",
        report.render()
    );
    assert_eq!(report.errors(), 0, "{}", report.render());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On random small bundle-aligned shapes, the exact (pixel-level)
    /// explorer can never contradict a structural certificate: the
    /// enumerated invariants hold, the enumerated peak respects the
    /// algebraic bound, and the deadlock classification is sound in
    /// both directions the algebra claims.
    ///
    /// Shapes are bundle-aligned (capacity, chunk and image are whole
    /// bundles) because the exact model's short trailing jobs can pack
    /// the queue tighter than bundle-rounded arithmetic — the rounding
    /// is the flow abstraction's, which the structural layer
    /// deliberately mirrors.
    #[test]
    fn exact_exploration_never_contradicts_the_certificates(
        servants in 1u32..=3,
        window in 1u32..=2,
        bundle in 1u32..=4,
        capacity_b in 1u32..=4,
        chunk_b in 1u32..=3,
        total_b in 1u32..=6,
        eager in any::<bool>(),
    ) {
        let capacity = capacity_b * bundle;
        let chunk = chunk_b * bundle;
        let total = total_b * bundle;
        let st = structural(servants, window, bundle, capacity, chunk, eager);
        let exact = ExactModel {
            total,
            capacity,
            bundle,
            chunk,
            credits: servants * window,
            eager,
        }
        .explore(1_000_000);
        prop_assert!(!exact.bounded, "exact exploration must close");

        // Conservation: the certificate's constant is the credit total
        // and the enumeration never exceeds it.
        let conservation = st.conservation.as_ref().expect("conservation certificate");
        prop_assert_eq!(conservation.constant, st.net.credits);
        prop_assert!(exact.invariants_ok);
        prop_assert!(u64::from(exact.max_outstanding) <= st.net.credits);

        // Queue bound: outstanding bundles never exceed the structural
        // peak (bundle-aligned, so pixel packing cannot beat it).
        prop_assert!(u64::from(exact.max_outstanding) <= st.peak_concurrency);

        // Deadlock soundness. `Free` must mean no reachable wedge;
        // `Starved` (strict write-back whose chunk exceeds the queue)
        // must mean completion is unreachable.
        match st.deadlock {
            DeadlockVerdict::Free => {
                prop_assert!(exact.deadlock_possible.is_none(),
                    "structurally-proven freedom contradicted by {:?}",
                    exact.deadlock_possible);
                prop_assert!(exact.completion_reachable);
            }
            DeadlockVerdict::Starved { .. } => {
                prop_assert!(!exact.completion_reachable,
                    "structurally-proven starvation, yet the exact model completes");
            }
            DeadlockVerdict::Unknown => {}
        }

        // And the flow twin (same rounding) lands exactly on the
        // structural peak.
        let flow = FlowModel::from_protocol(servants, window, bundle, capacity, chunk, eager)
            .explore(1_000_000);
        prop_assert!(!flow.bounded);
        prop_assert_eq!(u64::from(flow.max_outstanding), st.peak_concurrency);

        // The analyzer skips the flow exploration on certified shapes,
        // so the closed exploration must confirm every claim the
        // report reads off the certificates instead.
        if st.certified() {
            prop_assert!(flow.deadlock.is_none(), "certified, yet {:?}", flow.deadlock);
            prop_assert!(flow.credits_conserved);
            prop_assert!(flow.capacity_respected);
            prop_assert!(flow.completion_reachable);
            prop_assert_eq!(u64::from(flow.max_outstanding), st.intended_concurrency);
        }
    }
}
