//! End-to-end integration: the full pipeline from instrumented
//! application through the hardware monitor to evaluated results, with
//! the monitor's view validated against the simulator's ground truth.

use suprenum_monitor::des::time::SimTime;
use suprenum_monitor::pipeline::{run_workload, PipelineConfig, PipelineResult};
use suprenum_monitor::raysim::analysis::{
    causality_rules, servant_track, servant_utilization, work_phase,
};
use suprenum_monitor::raysim::config::{AppConfig, SceneKind, Version};
use suprenum_monitor::raysim::tokens;
use suprenum_monitor::simple::check_causality;
use suprenum_monitor::suprenum::ProcState;

fn small_run(version: Version, seed: u64) -> PipelineResult<AppConfig> {
    let mut app = AppConfig::version(version);
    app.servants = 4;
    app.scene = SceneKind::Quickstart;
    app.width = 16;
    app.height = 16;
    app.bundle_size = app.bundle_size.min(4);
    app.pixel_queue_capacity = 64;
    app.write_chunk = 4;
    let mut cfg = PipelineConfig::new(app);
    cfg.seed = seed;
    cfg.horizon = SimTime::from_secs(36_000);
    run_workload(cfg)
}

#[test]
fn run_completes_and_renders_the_image() {
    let result = small_run(Version::V2, 9);
    assert!(result.completed());
    // All 256 pixels written with actual scene content.
    assert_eq!(result.output.image.pixel_count(), 256);
    assert!(
        result.output.image.mean_luminance() > 0.05,
        "image is black — pixels lost"
    );
    // Every job produced a result.
    assert_eq!(
        result.output.stats.jobs_sent,
        result.output.stats.results_received
    );
    assert!(result.output.stats.disk_writes > 0);
}

#[test]
fn parallel_render_matches_sequential_render() {
    let result = small_run(Version::V4, 5);
    assert!(result.completed());
    // Render the same image sequentially with the same tracer settings.
    let (scene, camera) = suprenum_monitor::raytracer::scenes::quickstart_scene();
    let tracer = suprenum_monitor::raytracer::Tracer::new(
        &scene,
        suprenum_monitor::raytracer::TraceConfig::default(),
    );
    for y in 0..16 {
        for x in 0..16 {
            let (expected, _) = tracer.render_pixel(&camera, x, y, 16, 16, 1);
            let got = result.output.image.get(x, y);
            assert_eq!(
                got.to_rgb8(),
                expected.to_rgb8(),
                "pixel ({x},{y}) differs from the sequential render"
            );
        }
    }
}

#[test]
fn monitor_trace_is_causally_clean() {
    let result = small_run(Version::V3, 12);
    assert!(result.completed());
    let report = check_causality(&result.trace, &causality_rules());
    assert!(
        report.is_clean(),
        "violations in MTG-synchronized trace: {report:?}"
    );
    assert!(report.pairs_checked > 0);
    assert_eq!(
        result.measurement.total_lost(),
        0,
        "event rate must not overflow the FIFO"
    );
    for d in &result.measurement.detector_stats {
        assert_eq!(d.atomicity_violations, 0, "display protocol violated");
    }
}

#[test]
fn monitor_view_matches_ground_truth() {
    // The Work activity derived from the hybrid-monitoring trace must
    // agree with the kernel's true Running time of the servant process,
    // up to instrumentation granularity. Version 2 is used because its
    // "Send Results Begin" point closes the Work state precisely —
    // version 1's uninstrumented result send is *included* in derived
    // Work, which is exactly the measurement artifact the paper fixed
    // between Figures 7/8 and Figure 9.
    let result = small_run(Version::V2, 3);
    assert!(result.completed());
    let (from, to) = work_phase(&result.trace).unwrap();

    let track = servant_track(&result.trace, 1, to);
    let monitored_work_ns = track.time_in_state_within("Work", from, to);

    // Ground truth: servant-1's Running time over the same window. The
    // monitored "Work" state contains the trace-compute and the emit
    // call itself; tolerance covers instrumentation edges.
    let gt = result.machine.ground_truth();
    let (pid, hist) = gt
        .iter()
        .find(|(_, h)| h.label == "servant-1")
        .expect("servant-1 in ground truth");
    let _ = pid;
    let total_running = hist
        .time_in(SimTime::from_nanos(to), |s| s == ProcState::Running)
        .as_nanos();
    let running_before_phase = hist
        .time_in(SimTime::from_nanos(from), |s| s == ProcState::Running)
        .as_nanos();
    let true_running_ns = total_running - running_before_phase;

    let rel_err =
        (monitored_work_ns as f64 - true_running_ns as f64).abs() / true_running_ns.max(1) as f64;
    assert!(
        rel_err < 0.15,
        "monitored Work {monitored_work_ns} ns vs true Running {true_running_ns} ns \
         (rel err {rel_err:.3})"
    );
}

#[test]
fn runs_are_bit_deterministic() {
    let a = small_run(Version::V2, 77);
    let b = small_run(Version::V2, 77);
    assert_eq!(a.outcome.end, b.outcome.end);
    assert_eq!(a.trace.len(), b.trace.len());
    for (x, y) in a.trace.events().iter().zip(b.trace.events()) {
        assert_eq!(x, y);
    }
    assert_eq!(a.output.image, b.output.image);

    // A different seed still completes but yields a different timeline
    // when stochastic elements exist; with none, the timeline may match —
    // just assert it completes.
    let c = small_run(Version::V2, 78);
    assert!(c.completed());
}

#[test]
fn servant_utilization_is_sane_at_small_scale() {
    let result = small_run(Version::V2, 21);
    let report = servant_utilization(&result.trace, 4);
    assert!(
        report.mean > 0.02 && report.mean < 1.0,
        "utilization {}",
        report.mean
    );
    // Every servant did some work.
    for (name, u) in &report.per_track {
        assert!(*u > 0.0, "{name} never worked");
    }
}

#[test]
fn window_flow_control_is_respected() {
    // With window 2 the master may never have more than 2 outstanding
    // jobs per servant: count via SEND/RECEIVE event interleaving.
    let mut app = AppConfig::version(Version::V2);
    app.servants = 2;
    app.window = 2;
    app.scene = SceneKind::Quickstart;
    app.width = 8;
    app.height = 8;
    app.pixel_queue_capacity = 64;
    let mut cfg = PipelineConfig::new(app);
    cfg.horizon = SimTime::from_secs(36_000);
    let result = run_workload(cfg);
    assert!(result.completed());

    // Outstanding jobs overall never exceed servants x window.
    let mut outstanding: i64 = 0;
    for e in result.trace.events() {
        match e.token.value() {
            t if t == tokens::SEND_JOBS_BEGIN => {
                outstanding += 1;
                assert!(outstanding <= 4, "window flow control violated");
            }
            t if t == tokens::RECEIVE_RESULTS_BEGIN => outstanding -= 1,
            _ => {}
        }
    }
}

#[test]
fn ray_tracer_spans_clusters_over_the_torus() {
    // Two clusters joined by the SUPRENUM token ring: servants 16..20
    // live in the second cluster, so their jobs and results cross the
    // inter-cluster path. Everything must still complete, render
    // correctly and trace cleanly.
    let mut app = AppConfig::version(Version::V3);
    app.servants = 20;
    app.scene = SceneKind::Quickstart;
    app.width = 16;
    app.height = 16;
    app.bundle_size = 4;
    app.pixel_queue_capacity = 256;
    app.write_chunk = 8;
    let mut cfg = PipelineConfig::new(app);
    cfg.machine = suprenum_monitor::suprenum::MachineConfig {
        clusters: 2,
        torus_cols: 1,
        ..suprenum_monitor::suprenum::MachineConfig::single_cluster(16)
    };
    cfg.horizon = SimTime::from_secs(36_000);
    let result = run_workload(cfg);
    assert!(result.completed());
    assert!(result.output.image.mean_luminance() > 0.05);
    // Inter-cluster messages actually flowed.
    let ic = result.machine.interconnect_stats();
    assert!(
        ic.inter_cluster_transfers > 0,
        "no traffic crossed the torus"
    );
    assert!(ic.intra_cluster_transfers > 0);
    // Remote-cluster servants did real work.
    let (_, to) = work_phase(&result.trace).unwrap();
    for servant in [17u32, 20] {
        let track = servant_track(&result.trace, servant, to);
        assert!(
            track.time_in_state("Work") > 0,
            "cluster-1 servant {servant} never worked"
        );
    }
    // And the trace is still causally clean end to end.
    let report = check_causality(&result.trace, &causality_rules());
    assert!(report.is_clean(), "{report:?}");
}

#[test]
fn object_partitioning_renders_the_same_image() {
    use suprenum_monitor::raysim::objpart::{run_object_partitioned, ObjPartConfig};
    let mut app = AppConfig::version(Version::V1);
    app.servants = 3;
    app.scene = SceneKind::Quickstart;
    app.width = 12;
    app.height = 12;
    let cfg = ObjPartConfig::new(app);
    let r = run_object_partitioned(cfg, 7, SimTime::from_secs(36_000));
    assert!(r.completed(), "{:?}", r.outcome);
    assert!(
        r.rounds >= 2,
        "Whitted needs multiple wavefront generations"
    );
    // Memory argument: each servant held about a third of the geometry.
    assert!(
        r.max_objects_per_servant <= 2,
        "quickstart has 4 primitives over 3 partitions"
    );

    // Pixel-exact against the sequential tracer.
    let (scene, camera) = suprenum_monitor::raytracer::scenes::quickstart_scene();
    let tracer = suprenum_monitor::raytracer::Tracer::new(
        &scene,
        suprenum_monitor::raytracer::TraceConfig::default(),
    );
    for y in 0..12 {
        for x in 0..12 {
            let (expected, _) = tracer.render_pixel(&camera, x, y, 12, 12, 1);
            assert_eq!(
                r.image.get(x, y).to_rgb8(),
                expected.to_rgb8(),
                "pixel ({x},{y}) differs under object partitioning"
            );
        }
    }
}

#[test]
fn oversampling_is_organized_by_the_master() {
    // Paper §4.2: "An oversampling scheme, in which more than one ray is
    // computed per pixel ... is also organized by the master." The
    // parallel render with 2x2 oversampling must equal the sequential
    // 2x2-oversampled render, and differ from the non-oversampled one.
    let mut app = AppConfig::version(Version::V4);
    app.servants = 3;
    app.scene = SceneKind::Quickstart;
    app.width = 12;
    app.height = 12;
    app.oversample = 2;
    app.bundle_size = 8;
    app.pixel_queue_capacity = 144;
    app.write_chunk = 16;
    let mut cfg = PipelineConfig::new(app);
    cfg.horizon = SimTime::from_secs(36_000);
    let result = run_workload(cfg);
    assert!(result.completed());

    let (scene, camera) = suprenum_monitor::raytracer::scenes::quickstart_scene();
    let tracer = suprenum_monitor::raytracer::Tracer::new(
        &scene,
        suprenum_monitor::raytracer::TraceConfig::default(),
    );
    let mut any_differs_from_1x = false;
    for y in 0..12 {
        for x in 0..12 {
            let (expected, _) = tracer.render_pixel(&camera, x, y, 12, 12, 2);
            assert_eq!(
                result.output.image.get(x, y).to_rgb8(),
                expected.to_rgb8(),
                "pixel ({x},{y}) differs from sequential 2x2 oversampling"
            );
            let (plain, _) = tracer.render_pixel(&camera, x, y, 12, 12, 1);
            if plain.to_rgb8() != expected.to_rgb8() {
                any_differs_from_1x = true;
            }
        }
    }
    assert!(
        any_differs_from_1x,
        "oversampling had no visible effect anywhere"
    );
}

#[test]
fn servants_render_from_a_scene_description_file() {
    // The servants' initialization reads "the scene description file";
    // feed the pipeline a serialized description and verify the render.
    use suprenum_monitor::raytracer::sdl;
    let (scene, _) = suprenum_monitor::raytracer::scenes::quickstart_scene();
    let spec = sdl::CameraSpec {
        eye: suprenum_monitor::raytracer::Vec3::new(0.0, 1.0, 2.0),
        target: suprenum_monitor::raytracer::Vec3::new(0.0, 0.0, -6.0),
        up: suprenum_monitor::raytracer::Vec3::new(0.0, 1.0, 0.0),
        fov_deg: 55.0,
        aspect: 1.0,
    };
    let text = sdl::serialize(&scene, &spec);

    let mut app = AppConfig::version(Version::V2);
    app.servants = 2;
    app.scene = SceneKind::from_description(text.clone());
    app.width = 10;
    app.height = 10;
    app.pixel_queue_capacity = 100;
    let mut cfg = PipelineConfig::new(app);
    cfg.horizon = SimTime::from_secs(36_000);
    let result = run_workload(cfg);
    assert!(result.completed());

    // Compare against rendering the parsed description sequentially.
    let desc = sdl::parse(&text).unwrap();
    let tracer = suprenum_monitor::raytracer::Tracer::new(
        &desc.scene,
        suprenum_monitor::raytracer::TraceConfig::default(),
    );
    for y in 0..10 {
        for x in 0..10 {
            let (expected, _) = tracer.render_pixel(&desc.camera, x, y, 10, 10, 1);
            assert_eq!(result.output.image.get(x, y).to_rgb8(), expected.to_rgb8());
        }
    }
}

#[test]
fn partial_bundles_cover_ragged_images() {
    // 15x15 = 225 pixels with bundle 16: the last job is a partial
    // bundle of 1 pixel. Nothing may be lost or duplicated.
    let mut app = AppConfig::version(Version::V4);
    app.servants = 3;
    app.scene = SceneKind::Quickstart;
    app.width = 15;
    app.height = 15;
    app.bundle_size = 16;
    app.pixel_queue_capacity = 225;
    app.write_chunk = 16;
    let mut cfg = PipelineConfig::new(app);
    cfg.horizon = SimTime::from_secs(36_000);
    let result = run_workload(cfg);
    assert!(result.completed());
    assert_eq!(
        result.output.stats.jobs_sent,
        225f64.div_euclid(16.0) as u64 + 1
    );
    assert!(result.output.image.mean_luminance() > 0.05);
}

#[test]
fn write_chunk_larger_than_image_still_flushes() {
    // The in-order write trigger never fires on size alone; the final
    // flush (everything computed, nothing writable yet) must handle it.
    let mut app = AppConfig::version(Version::V2);
    app.servants = 2;
    app.scene = SceneKind::Quickstart;
    app.width = 8;
    app.height = 8;
    app.pixel_queue_capacity = 64;
    app.write_chunk = 10_000;
    let mut cfg = PipelineConfig::new(app);
    cfg.horizon = SimTime::from_secs(36_000);
    let result = run_workload(cfg);
    assert!(result.completed());
    assert_eq!(
        result.output.stats.disk_writes, 1,
        "one final flush expected"
    );
    assert!(result.output.image.mean_luminance() > 0.05);
}
