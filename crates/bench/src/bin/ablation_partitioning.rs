//! Ablation: static vs dynamic ray partitioning (paper §4.1).
//!
//! "The performance of static ray partitioning is often quite poor
//! because the computation time for a single ray varies significantly…
//! a load balancing problem which can be at least partly solved by
//! assigning discontinuous subsets of rays."

use suprenum_monitor::des::time::SimTime;
use suprenum_monitor::pipeline::{run_workload, PipelineConfig};
use suprenum_monitor::raysim::analysis::{servant_tracks, servant_utilization, work_phase};
use suprenum_monitor::raysim::config::{AppConfig, Version};
use suprenum_monitor::raysim::static_partition::{run_static, StaticScheme};
use suprenum_monitor::simple::Trace;

fn main() {
    let horizon = SimTime::from_secs(36_000);
    let base = || {
        let mut app = AppConfig::version(Version::V4);
        app.width = 96;
        app.height = 96;
        app
    };
    println!(
        "{:<22} {:>12} {:>9} {:>22} {:>14}",
        "scheme", "utilization", "balance", "work min/max (s)", "simulated end"
    );

    // Balance = mean/max of per-servant Work time: 1.0 is a perfectly
    // even load; low values mean idle servants waiting for stragglers.
    let report = |label: String, trace: &Trace, servants: u32, end: SimTime| {
        let (_, to) = work_phase(trace).unwrap();
        let tracks = servant_tracks(trace, servants, to);
        let works: Vec<f64> = tracks
            .iter()
            .map(|t| t.time_in_state("Work") as f64 / 1e9)
            .collect();
        let max = works.iter().cloned().fold(0.0, f64::max);
        let min = works.iter().cloned().fold(f64::INFINITY, f64::min);
        let mean = works.iter().sum::<f64>() / works.len() as f64;
        let u = servant_utilization(trace, servants);
        println!(
            "{:<22} {:>11.1}% {:>9.2} {:>11.1} /{:>8.1} {:>14}",
            label,
            u.mean_percent(),
            mean / max,
            min,
            max,
            end.to_string()
        );
    };

    for scheme in [StaticScheme::Contiguous, StaticScheme::Interleaved] {
        let app = base();
        let servants = app.servants as u32;
        let r = run_static(app, scheme, 1992, horizon);
        assert!(r.completed(), "{scheme}: run ended by {}", r.outcome.reason);
        report(scheme.to_string(), &r.trace, servants, r.outcome.end);
    }

    let app = base();
    let servants = app.servants as u32;
    let mut cfg = PipelineConfig::new(app);
    cfg.horizon = horizon;
    let r = run_workload(cfg);
    assert!(r.completed(), "dynamic: run ended by {}", r.outcome.reason);
    report(
        "dynamic (version 4)".into(),
        &r.trace,
        servants,
        r.outcome.end,
    );
    println!("\ncontiguous bands idle on cheap sky rows while the center band grinds;");
    println!("interleaving spreads the variance; dynamic partitioning adapts to it.");
}
