//! Static pre-flight analysis of the paper's four program versions —
//! what the analyzer can say about each measurement *before* it runs:
//! version 1's pseudo-synchronous mailbox coupling, version 3's
//! undersized pixel queue, and the worst-case event-rate headroom of
//! every ZM4 recorder.

use suprenum_monitor::analyzer::{analyze_version, predict};
use suprenum_monitor::pipeline::PipelineConfig;
use suprenum_monitor::raysim::config::{AppConfig, Version};

fn main() {
    for version in Version::ALL {
        let report = analyze_version(version);
        println!("== {version} ==");
        print!("{}", report.render());

        let cfg = PipelineConfig::new(AppConfig::version(version));
        let prediction = predict(&cfg.workload, &cfg.machine, &cfg.zm4);
        println!(
            "{:>10} {:>16} {:>12} {:>12}",
            "recorder", "channels", "arrival/s", "drain/s"
        );
        for rec in &prediction.recorders {
            println!(
                "{:>10} {:>16} {:>12.0} {:>12.0}",
                rec.recorder,
                format!(
                    "{}..{}",
                    rec.channels.first().copied().unwrap_or(0),
                    rec.channels.last().copied().unwrap_or(0)
                ),
                rec.arrival_hz,
                rec.drain_hz,
            );
        }
        println!();
    }
}
