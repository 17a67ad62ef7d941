//! Differential test: the pixel-exact model checker against the
//! simulator.
//!
//! For small randomized configurations the exact model's deadlock
//! verdicts must agree with actually executing the run:
//!
//! * no reachable deadlock (closed exploration) ⟹ the simulation
//!   completes;
//! * every schedule deadlocks (*inevitable*) ⟹ the simulation
//!   deadlocks;
//! * the simulation deadlocks ⟹ the model found a deadlock reachable.
//!
//! The middle ground — deadlock *possible* but not inevitable — is
//! schedule-dependent and either simulator outcome is consistent with
//! it. Bounded explorations make no universal claim, so those cases are
//! skipped (the budget is far above what these shapes need).

use analyzer::model::exact::ExactModel;
use des::time::SimTime;
use pipeline::{run_workload, PipelineConfig};
use proptest::prelude::*;
use raysim::config::{AppConfig, SceneKind, Version};
use suprenum::RunEnd;

fn small_app(
    side: u32,
    servants: u16,
    window: u32,
    bundle: u32,
    chunk: u32,
    capacity: u32,
    eager: bool,
) -> AppConfig {
    let mut app = AppConfig::version(Version::V4);
    app.servants = servants;
    app.window = window;
    app.bundle_size = bundle;
    app.write_chunk = chunk;
    // The queue must hold at least one bundle (config invariant).
    app.pixel_queue_capacity = capacity.max(bundle);
    app.eager_writeback = eager;
    app.scene = SceneKind::Quickstart;
    app.width = side;
    app.height = side;
    app.oversample = 1;
    app
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exact_model_deadlock_verdicts_agree_with_the_simulator(
        side in 2u32..=6,
        servants in 1u16..=2,
        window in 1u32..=2,
        bundle in 1u32..=6,
        chunk in 1u32..=10,
        capacity in 4u32..=40,
        eager in any::<bool>(),
    ) {
        let app = small_app(side, servants, window, bundle, chunk, capacity, eager);
        let model = ExactModel {
            total: app.total_pixels(),
            capacity: app.pixel_queue_capacity,
            bundle: app.bundle_size,
            chunk: app.write_chunk,
            credits: u32::from(app.servants) * app.window,
            eager: app.eager_writeback,
        };
        let verdict = model.explore(500_000);
        prop_assume!(!verdict.bounded);

        let mut cfg = PipelineConfig::new(app);
        cfg.horizon = SimTime::from_secs(3_600);
        let result = run_workload(cfg);
        let reason = result.outcome.reason;
        prop_assert!(
            reason == RunEnd::Completed || reason == RunEnd::Deadlock,
            "unexpected outcome {reason:?} (horizon too small?)"
        );

        if verdict.deadlock_possible.is_none() {
            prop_assert!(
                reason == RunEnd::Completed,
                "model proved deadlock-free but the simulator ended with {reason:?}"
            );
        }
        if verdict.deadlock_inevitable {
            prop_assert!(
                reason == RunEnd::Deadlock,
                "model proved every schedule deadlocks but the simulator ended with \
                 {reason:?}"
            );
        }
        if reason == RunEnd::Deadlock {
            prop_assert!(
                verdict.deadlock_possible.is_some(),
                "the simulator deadlocked but the model found no reachable deadlock \
                 ({} states)",
                verdict.states
            );
        }
    }
}
