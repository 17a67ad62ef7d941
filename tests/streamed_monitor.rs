//! The streamed monitor plane against the materialized oracle.
//!
//! `pipeline::run_workload` never stores the display log: the kernel
//! records compact emissions and the monitor expands each one straight
//! into the ZM4's detectors while the machine runs. The oracle is the
//! plain path every direct `Machine` user still has — `Machine::run`
//! materializes and sorts the full display log, and `Zm4::observe_iter`
//! reads it back through the same fault layer. The two must agree on
//! every trace record and every recorder and detector counter.

use suprenum_monitor::pipeline::jacobi::JacobiConfig;
use suprenum_monitor::pipeline::trace::probe_sample_iter;
use suprenum_monitor::pipeline::{
    run_workload, to_simple_trace, FaultConfig, PipelineConfig, Workload,
};
use suprenum_monitor::raysim::config::{AppConfig, SceneKind, Version};
use suprenum_monitor::suprenum::sched::DEFAULT_QUANTUM;
use suprenum_monitor::suprenum::{Machine, RunOutcome, SchedulerKind};
use suprenum_monitor::zm4::Measurement;

/// Runs `cfg` the materialized way: full signal log, then one pass of
/// the monitor over it.
fn materialized<W: Workload>(cfg: &PipelineConfig<W>) -> (RunOutcome, Measurement, Machine) {
    let mut machine_cfg = cfg.machine.clone();
    if cfg.workload.wants_kernel_events() {
        machine_cfg.kernel_instrumentation = true;
    }
    let mut machine = Machine::new(machine_cfg, cfg.seed).expect("valid machine");
    let _harvest = cfg.workload.launch(&mut machine);
    let outcome = machine.run(cfg.horizon);
    let monitor = cfg.zm4.build(cfg.workload.channels(&machine), cfg.seed);
    let faults = cfg.faults;
    let measurement =
        monitor.observe_iter(probe_sample_iter(&machine).filter_map(move |s| faults.apply(s)));
    (outcome, measurement, machine)
}

fn assert_matches_oracle<W: Workload>(label: &str, cfg: PipelineConfig<W>) {
    let (outcome, oracle, machine) = materialized(&cfg);
    assert!(
        !machine.signals().display_writes().is_empty(),
        "{label}: the oracle must see display writes"
    );
    assert!(!oracle.trace.is_empty(), "{label}: empty oracle trace");

    let run = run_workload(cfg);
    assert_eq!(run.outcome, outcome, "{label}: outcome");
    assert_eq!(run.measurement.trace, oracle.trace, "{label}: trace");
    assert_eq!(
        run.measurement.recorder_stats, oracle.recorder_stats,
        "{label}: recorder stats"
    );
    assert_eq!(
        run.measurement.detector_stats, oracle.detector_stats,
        "{label}: detector stats"
    );
    assert_eq!(run.trace, to_simple_trace(&oracle), "{label}: SIMPLE trace");
    assert_eq!(run.intrusion, *machine.intrusion(), "{label}: intrusion");
    assert!(
        run.machine.signals().display_writes().is_empty(),
        "{label}: the pipeline must not store the display log"
    );
}

/// The fig10 ladder's quick-scale shape of one version.
fn quick_app(version: Version) -> AppConfig {
    let mut app = AppConfig::version(version);
    app.width = 48;
    app.height = 48;
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
    app
}

/// A small kernel-instrumented shape (the sched sweep's quick rows).
fn kernel_events_app(version: Version) -> AppConfig {
    let mut app = quick_app(version);
    app.servants = 4;
    app.scene = SceneKind::Quickstart;
    app.width = 16;
    app.height = 16;
    app.kernel_events = true;
    app
}

fn preemptive() -> SchedulerKind {
    SchedulerKind::Preemptive {
        quantum: DEFAULT_QUANTUM,
    }
}

#[test]
fn ray_versions_stream_like_the_materialized_log() {
    for version in Version::ALL {
        let cfg = PipelineConfig::new(quick_app(version));
        assert_matches_oracle(&format!("{version:?}"), cfg);
    }
}

#[test]
fn preemptive_kernel_events_stream_like_the_materialized_log() {
    for (label, app) in [
        ("preempt-V2", kernel_events_app(Version::V2)),
        ("preempt-mailbox", {
            let mut app = AppConfig::two_processor();
            app.scene = SceneKind::Quickstart;
            app.width = 16;
            app.height = 16;
            app.kernel_events = true;
            app
        }),
    ] {
        let mut cfg = PipelineConfig::new(app);
        cfg.machine.scheduler = preemptive();
        assert_matches_oracle(label, cfg);
    }
}

#[test]
fn faulted_probes_stream_like_the_materialized_log() {
    let mut cfg = PipelineConfig::new(kernel_events_app(Version::V4));
    cfg.faults = FaultConfig {
        probe_drop_permille: 40,
        probe_corrupt_permille: 20,
        clock_drift_ppm: 1_500,
        seed: 1992,
    };
    assert_matches_oracle("faults-V4", cfg.clone());
    cfg.machine.scheduler = preemptive();
    assert_matches_oracle("preempt-faults-V4", cfg);
}

#[test]
fn multi_cluster_jacobi_streams_like_the_materialized_log() {
    // 20 workers + coordinator span two 16-node clusters.
    let cfg = PipelineConfig::new(JacobiConfig {
        workers: 20,
        iterations: 4,
        ..JacobiConfig::default()
    });
    assert_matches_oracle("jacobi two-cluster", cfg);
}
