//! Satellite: the harness worker count is behaviourally invisible.
//!
//! For every stock workload shape — the four ray-tracer versions, the
//! SPMD Jacobi solver, and a two-cluster Jacobi shape that exercises
//! the per-cluster windowed engine — the per-run trace digest must be
//! bit-identical however many harness worker threads host the runs.
//! Each run executes its kernel and monitor plane in one thread, so a
//! divergence here means some state leaked between runs sharing a
//! worker or a run depended on which thread hosted it.

use harness::{execute, run_sweep, RunSpec, Sweep};
use pipeline::jacobi::JacobiConfig;
use pipeline::{Job, PipelineConfig};
use proptest::prelude::*;
use raysim::config::{AppConfig, SceneKind, Version};

/// A small but complete run of one ray-tracer version: quickstart
/// scene, three servants, per-version queue/bundle shape kept valid.
fn ray_spec(version: Version) -> RunSpec {
    let mut app = AppConfig::version(version);
    app.servants = 3;
    app.scene = SceneKind::Quickstart;
    app.width = 12;
    app.height = 12;
    match version {
        Version::V1 | Version::V2 => {
            app.pixel_queue_capacity = 256;
            app.write_chunk = 4;
        }
        Version::V3 => {
            app.bundle_size = 8;
            app.pixel_queue_capacity = 128;
            app.write_chunk = 8;
        }
        Version::V4 => {
            app.bundle_size = 16;
            app.pixel_queue_capacity = 2_048;
            app.write_chunk = 16;
        }
    }
    let mut cfg = PipelineConfig::new(app.clone());
    cfg.seed = 1992;
    RunSpec {
        label: format!("V{}", version as u8 + 1),
        job: Job::new(cfg),
        version: Some(version),
        app: Some(app),
        paper_percent: None,
        faults: None,
    }
}

/// A small but complete Jacobi run. 18 workers spans two clusters, so
/// the cross-cluster ring traffic of the windowed engine is exercised.
fn jacobi_spec(workers: u16) -> RunSpec {
    let mut cfg = PipelineConfig::new(JacobiConfig {
        workers,
        cells_per_worker: 8,
        iterations: if workers > 8 { 3 } else { 6 },
        ..JacobiConfig::default()
    });
    cfg.seed = 1992;
    RunSpec {
        label: format!("jacobi-w{workers}"),
        job: Job::new(cfg),
        version: None,
        app: None,
        paper_percent: None,
        faults: None,
    }
}

/// The six stock workload shapes: four ray versions, single-cluster
/// Jacobi, two-cluster Jacobi.
fn spec(workload: usize) -> RunSpec {
    match workload {
        0..=3 => ray_spec(Version::ALL[workload]),
        4 => jacobi_spec(4),
        _ => jacobi_spec(18),
    }
}

/// Directed sweep of the whole matrix: every stock shape in one sweep,
/// workers 1..=4, every digest identical to the shape's serially
/// executed run.
#[test]
fn all_stock_shapes_digest_identically_across_worker_counts() {
    let oracles: Vec<_> = (0..6).map(|w| execute(&spec(w))).collect();
    for oracle in &oracles {
        assert!(!oracle.truncated, "{} truncated", oracle.label);
    }
    let sweep = Sweep {
        name: "worker-matrix".into(),
        runs: (0..6).map(spec).collect(),
    };
    for workers in 1..=4 {
        let report = run_sweep(&sweep, workers);
        for (oracle, run) in oracles.iter().zip(&report.records) {
            assert_eq!(
                oracle.trace_digest, run.trace_digest,
                "workload {} diverged on {workers} workers",
                oracle.label
            );
            assert_eq!(oracle.sim_end_ns, run.sim_end_ns);
            assert_eq!(oracle.events_processed, run.events_processed);
            assert_eq!(oracle.trace_events, run.trace_events);
            assert_eq!(oracle.work_units, run.work_units);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (workload, worker count) pair digests the same as the
    /// serially executed run.
    #[test]
    fn workers_never_change_digests(
        workload in 0usize..6,
        workers in 1usize..4,
    ) {
        let oracle = execute(&spec(workload));
        let sweep = Sweep {
            name: "worker-prop".into(),
            runs: vec![spec(workload)],
        };
        let report = run_sweep(&sweep, workers);
        let run = &report.records[0];
        prop_assert_eq!(&oracle.trace_digest, &run.trace_digest);
        prop_assert_eq!(oracle.sim_end_ns, run.sim_end_ns);
        prop_assert_eq!(oracle.events_processed, run.events_processed);
        prop_assert_eq!(oracle.run_end, run.run_end);
    }
}
