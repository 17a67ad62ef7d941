//! Satellite: monitor-plane sharding and engine-thread packing are
//! behaviourally invisible.
//!
//! For every stock workload shape — the four ray-tracer versions, the
//! SPMD Jacobi solver, and a two-cluster Jacobi shape that exercises
//! the parallel per-cluster engine — the per-run trace digest must be
//! bit-identical whether the ZM4 observer runs in the kernel's thread
//! (one shard, the reference) or split across N shards
//! overlapped with it, whether the engine shards run on the calling
//! thread or on K worker threads, and regardless of how many harness
//! worker threads host the runs. A digest divergence here means the
//! sharded monitor plane or the threaded engine changed simulated
//! behaviour — exactly what the conservative-lookahead windows exist
//! to prevent.

use harness::{execute, run_sweep, RunSpec, Sweep};
use pipeline::jacobi::JacobiConfig;
use pipeline::{Job, PipelineConfig};
use proptest::prelude::*;
use raysim::config::{AppConfig, SceneKind, Version};

/// A small but complete run of one ray-tracer version: quickstart
/// scene, three servants, per-version queue/bundle shape kept valid.
fn ray_spec(version: Version, shards: usize) -> RunSpec {
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
    cfg.shards = shards;
    RunSpec {
        label: format!("V{}-s{shards}", version as u8 + 1),
        job: Job::new(cfg),
        version: Some(version),
        app: Some(app),
        paper_percent: None,
        faults: None,
    }
}

/// A small but complete Jacobi run. 18 workers spans two clusters, so
/// the cross-shard ring traffic of the parallel engine is exercised.
fn jacobi_spec(workers: u16, shards: usize) -> RunSpec {
    let mut cfg = PipelineConfig::new(JacobiConfig {
        workers,
        cells_per_worker: 8,
        iterations: if workers > 8 { 3 } else { 6 },
        ..JacobiConfig::default()
    });
    cfg.seed = 1992;
    cfg.shards = shards;
    RunSpec {
        label: format!("jacobi-w{workers}-s{shards}"),
        job: Job::new(cfg),
        version: None,
        app: None,
        paper_percent: None,
        faults: None,
    }
}

/// The six stock workload shapes at a given shard count: four ray
/// versions, single-cluster Jacobi, two-cluster Jacobi.
fn spec(workload: usize, shards: usize) -> RunSpec {
    match workload {
        0..=3 => ray_spec(Version::ALL[workload], shards),
        4 => jacobi_spec(4, shards),
        _ => jacobi_spec(18, shards),
    }
}

/// Directed sweep of the whole matrix: every stock shape, shards 1..=4,
/// every digest identical to the one-shard oracle's.
#[test]
fn all_stock_shapes_digest_identically_across_shard_counts() {
    for workload in 0..6 {
        let oracle = execute(&spec(workload, 1));
        assert!(!oracle.truncated, "{} truncated", oracle.label);
        for shards in 2..=4 {
            let sharded = execute(&spec(workload, shards));
            assert_eq!(sharded.shards, shards);
            assert_eq!(
                oracle.trace_digest, sharded.trace_digest,
                "workload {} diverged at {shards} shards",
                oracle.label
            );
            assert_eq!(oracle.sim_end_ns, sharded.sim_end_ns);
            assert_eq!(oracle.events_processed, sharded.events_processed);
            assert_eq!(oracle.trace_events, sharded.trace_events);
            assert_eq!(oracle.work_units, sharded.work_units);
        }
    }
}

/// Directed: on a multi-cluster shape every engine worker-thread count
/// reproduces the one-thread, one-shard run bit for bit, alone and
/// composed with monitor shards.
#[test]
fn engine_thread_packing_never_changes_multi_cluster_digests() {
    let oracle = execute(&spec(5, 1));
    assert!(!oracle.truncated, "{} truncated", oracle.label);
    for engine_shards in [2, 3, 8] {
        for shards in [1, 3] {
            let mut spec = spec(5, shards);
            spec.job.override_engine_shards(engine_shards);
            let threaded = execute(&spec);
            assert_eq!(threaded.engine_shards, engine_shards);
            assert_eq!(
                oracle.trace_digest, threaded.trace_digest,
                "{} diverged at {engine_shards} engine shards, {shards} monitor shards",
                oracle.label
            );
            assert_eq!(oracle.sim_end_ns, threaded.sim_end_ns);
            assert_eq!(oracle.events_processed, threaded.events_processed);
            assert_eq!(oracle.work_units, threaded.work_units);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (workload, engine-shard count, monitor-shard count, worker
    /// count) tuple digests the same as the serially-executed
    /// single-shard oracle.
    #[test]
    fn shards_and_workers_never_change_digests(
        workload in 0usize..6,
        engine_shards in 1usize..=4,
        shards in 1usize..=5,
        workers in 1usize..4,
    ) {
        let oracle = execute(&spec(workload, 1));
        let mut run_spec = spec(workload, shards);
        run_spec.job.override_engine_shards(engine_shards);
        let sweep = Sweep {
            name: "shard-prop".into(),
            runs: vec![run_spec],
        };
        let report = run_sweep(&sweep, workers);
        let run = &report.records[0];
        prop_assert_eq!(run.engine_shards, engine_shards);
        prop_assert_eq!(&oracle.trace_digest, &run.trace_digest);
        prop_assert_eq!(oracle.sim_end_ns, run.sim_end_ns);
        prop_assert_eq!(oracle.events_processed, run.events_processed);
        prop_assert_eq!(oracle.run_end, run.run_end);
    }
}
