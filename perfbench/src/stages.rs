//! The traced passes: the sequential pipeline re-driven stage by stage
//! through its public functions, and the analyzer's layer breakdown.
//!
//! Every span is taken here, around a call into one layer; the layers
//! themselves carry no benchmark code. The stage sequence mirrors the
//! one-shard, one-engine-thread path of `pipeline::try_run_workload`,
//! so its digest must equal the untraced pass's.

use std::hint::black_box;
use std::time::Instant;

use analyzer::preflight::analyze_app_timed;
use analyzer::ModelBudget;
use harness::json::JsonObject;
use pipeline::{PipelineConfig, Workload};
use raysim::config::AppConfig;
use raysim::context::RenderContext;
use suprenum::Machine;

/// Milliseconds elapsed since `start`.
fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs one configuration stage by stage and renders what each stage
/// took and counted.
///
/// # Errors
///
/// Returns a message when the pre-flight analysis refuses the run or
/// the machine configuration is invalid.
pub(crate) fn staged_run<W: Workload>(
    label: &str,
    cfg: &PipelineConfig<W>,
) -> Result<String, String> {
    let start = Instant::now();
    let preflight = pipeline::try_preflight(cfg)
        .map_err(|denied| format!("run '{label}' refused: {denied}"))?
        .unwrap_or_default();
    let preflight_ms = ms_since(start);

    let start = Instant::now();
    let mut machine_cfg = cfg.machine.clone();
    if cfg.workload.wants_kernel_events() {
        machine_cfg.kernel_instrumentation = true;
    }
    let mut machine = Machine::new(machine_cfg, cfg.seed)
        .map_err(|e| format!("run '{label}': invalid machine configuration: {e:?}"))?;
    machine.set_engine_shards(cfg.engine_shards);
    let harvest = cfg.workload.launch(&mut machine);
    let setup_ms = ms_since(start);

    let start = Instant::now();
    let outcome = machine.run(cfg.horizon);
    let run_ms = ms_since(start);

    let start = Instant::now();
    let monitor = cfg.zm4.build(cfg.workload.channels(&machine), cfg.seed);
    let faults = cfg.faults;
    let measurement = monitor.observe_iter(
        pipeline::trace::probe_sample_iter(&machine).filter_map(move |s| faults.apply(s)),
    );
    let observe_ms = ms_since(start);

    let start = Instant::now();
    let trace = pipeline::to_simple_trace(&measurement);
    let convert_ms = ms_since(start);

    let start = Instant::now();
    let output = harvest(&machine);
    let metrics = cfg.workload.metrics(&trace, outcome.truncated(), &output);
    let metrics_ms = ms_since(start);

    let start = Instant::now();
    let digest = harness::trace_digest(
        &trace,
        outcome.end.as_nanos(),
        outcome.reason,
        outcome.events,
    );
    let digest_ms = ms_since(start);

    let kernel = machine.stats();
    let profile = machine.engine_profile();
    let decode = measurement.detector_stats.iter().fold([0u64; 3], |acc, s| {
        [
            acc[0] + s.stray_patterns,
            acc[1] + s.atomicity_violations,
            acc[2] + s.discarded_partials,
        ]
    });
    let mut o = JsonObject::new();
    o.str("label", label)
        .str("digest", &digest)
        .u64("events", outcome.events)
        .u64("sim_end_ns", outcome.end.as_nanos())
        .str("run_end", &outcome.reason.to_string())
        .bool("truncated", outcome.truncated())
        .u64("trace_events", trace.len() as u64)
        .opt_f64("utilization", metrics.utilization_percent)
        .u64("findings_error", preflight.errors as u64)
        .u64("findings_warning", preflight.warnings as u64)
        .u64("findings_info", preflight.infos as u64)
        .f64("preflight_ms", preflight_ms)
        .f64("setup_ms", setup_ms)
        .f64("run_ms", run_ms)
        .f64("observe_ms", observe_ms)
        .f64("convert_ms", convert_ms)
        .f64("metrics_ms", metrics_ms)
        .f64("digest_ms", digest_ms)
        .u64("ctx_switches", kernel.ctx_switches)
        .u64("mailbox_services", kernel.mailbox_services)
        .u64("preemptions", kernel.preemptions)
        .u64("kernel_events", kernel.kernel_events)
        .u64(
            "display_writes",
            machine.signals().display_writes().len() as u64,
        )
        .u64("epochs", profile.as_ref().map_or(0, |p| p.epochs))
        .u64(
            "profiled_events",
            profile.as_ref().map_or(0, |p| p.shard_events.iter().sum()),
        )
        .u64(
            "busiest_shard_events",
            profile
                .as_ref()
                .and_then(|p| p.shard_events.iter().copied().max())
                .unwrap_or(0),
        )
        .u64("recorded", measurement.total_recorded())
        .u64("lost", measurement.total_lost())
        .u64(
            "max_fifo",
            measurement
                .recorder_stats
                .iter()
                .map(|s| s.max_fifo_occupancy as u64)
                .max()
                .unwrap_or(0),
        )
        .u64("stray_patterns", decode[0])
        .u64("atomicity_violations", decode[1])
        .u64("discarded_partials", decode[2]);
    Ok(o.render(2))
}

/// Times the analyzer's layers on one ray-tracer application under the
/// pre-flight budget, and the host cost of tracing every pixel of its
/// scene once outside the machine.
pub(crate) fn analyzer_layers(label: &str, app: &AppConfig) -> String {
    let (report, timings) = analyze_app_timed(app, &ModelBudget::preflight());
    black_box(report);

    let start = Instant::now();
    let ctx = RenderContext::new(app);
    let (width, height) = ctx.dimensions();
    let pixels: Vec<u32> = (0..width * height).collect();
    black_box(ctx.trace_pixels(black_box(&pixels)));
    let raytrace_ms = ms_since(start);

    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let mut o = JsonObject::new();
    o.str("label", label)
        .f64("structural_ms", ms(timings.structural))
        .f64("model_ms", ms(timings.model))
        .f64("race_ms", ms(timings.race))
        .f64("raytrace_ms", raytrace_ms);
    o.render(2)
}
