//! Render a real image with the parallel ray tracer on the simulated
//! SUPRENUM, and save both the picture and the measurement artifacts.
//!
//! Run with: `cargo run --release --example render_parallel`
//!
//! Writes `render_parallel.ppm` (the image the master assembled from the
//! servants' results) and `render_parallel_gantt.svg` (a Gantt chart of
//! a steady-state window) to the current directory.

use std::fs;

use suprenum_monitor::des::time::SimTime;
use suprenum_monitor::pipeline::{run_workload, PipelineConfig};
use suprenum_monitor::raysim::analysis::{
    master_track, servant_track, servant_tracks, servant_utilization, work_phase,
};
use suprenum_monitor::raysim::config::{AppConfig, SceneKind, Version};
use suprenum_monitor::simple::Gantt;
use suprenum_monitor::simple::StateTimeline;

fn main() {
    let mut app = AppConfig::version(Version::V4);
    // `--scene whitted` renders the checkerboard homage instead of the
    // paper's moderate scene.
    let whitted = std::env::args().any(|a| a == "whitted");
    app.scene = if whitted {
        let (scene, _) = suprenum_monitor::raytracer::scenes::whitted_scene();
        let spec = suprenum_monitor::raytracer::sdl::CameraSpec {
            eye: suprenum_monitor::raytracer::Vec3::new(0.0, 0.8, 1.5),
            target: suprenum_monitor::raytracer::Vec3::new(0.0, 0.0, -5.5),
            up: suprenum_monitor::raytracer::Vec3::new(0.0, 1.0, 0.0),
            fov_deg: 52.0,
            aspect: 1.0,
        };
        SceneKind::from_description(suprenum_monitor::raytracer::sdl::serialize(&scene, &spec))
    } else {
        SceneKind::Moderate
    };
    app.width = 96;
    app.height = 96;
    app.bundle_size = 32;
    app.write_chunk = 64;
    let servants = app.servants as u32;

    let mut cfg = PipelineConfig::new(app);
    cfg.horizon = SimTime::from_secs(36_000);
    println!(
        "rendering {0}x{0} on 16 simulated processors (version 4)...",
        96
    );
    let result = run_workload(cfg);
    assert!(result.completed(), "run failed: {:?}", result.outcome);

    println!(
        "done at simulated t={} — {} jobs, {} trace events, {} lost",
        result.outcome.end,
        result.output.stats.jobs_sent,
        result.trace.len(),
        result.measurement.total_lost(),
    );

    let report = servant_utilization(&result.trace, servants);
    println!("{report}");

    fs::write("render_parallel.ppm", result.output.image.to_ppm()).expect("write image");
    println!(
        "wrote render_parallel.ppm (mean luminance {:.3})",
        result.output.image.mean_luminance()
    );

    // A Gantt chart of a steady-state window: master plus 3 servants.
    let (from, to) = work_phase(&result.trace).expect("work phase");
    let mid = from + (to - from) / 2;
    let window_end = (mid + 2_000_000_000).min(to);
    let mut tracks = vec![master_track(&result.trace, to)];
    for s in 1..=3 {
        tracks.push(servant_track(&result.trace, s, to));
    }
    let gantt = Gantt::new(tracks, mid, window_end);
    fs::write("render_parallel_gantt.svg", gantt.render_svg()).expect("write svg");
    println!("wrote render_parallel_gantt.svg");
    println!("\n{}", gantt.render_text());

    // Parallelism profile: how many servants work concurrently over the
    // whole phase (SIMPLE's "animation", one strip-chart line).
    let all = servant_tracks(&result.trace, servants, to);
    let timeline = StateTimeline::sample(&all, "Work", from, to, (to - from) / 100);
    println!(
        "concurrent working servants over time (peak {}, mean {:.1}):",
        timeline.peak(),
        timeline.mean()
    );
    println!("{}", timeline.render_strip(servants));
}
