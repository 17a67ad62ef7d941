//! The four benchmark workloads.
//!
//! The untraced sweep of each workload comes from the harness's own
//! sweep functions wherever one exists, so an untraced pass measures
//! exactly the runs a `harness sweep` user waits for. The traced pass
//! needs the typed [`PipelineConfig`] behind each erased job; it is
//! rebuilt here and checked against the job's configuration
//! fingerprint, so both passes provably run the same configuration.

use des::time::SimTime;
use harness::sweeps::{self, Scale};
use harness::{RunSpec, Sweep};
use pipeline::jacobi::JacobiConfig;
use pipeline::{FaultConfig, Job, PipelineConfig};
use raysim::config::AppConfig;
use suprenum::sched::DEFAULT_QUANTUM;
use suprenum::SchedulerKind;

/// Workload names, in the order the benchmark reports them.
pub(crate) const NAMES: [&str; 4] = [
    "fig10-ladder",
    "jacobi-torus",
    "servant-scaling",
    "preempt-faults",
];

/// The sched sweep rows `preempt-faults` measures.
const PREEMPT_FAULT_ROWS: [&str; 4] = ["preempt-V1", "preempt-V2", "preempt-mailbox", "faults-V4"];

/// Jacobi iterations of `jacobi-torus`: ≈42 k engine epochs, a pass of
/// about a third of a second on the windowed multi-cluster engine.
const JACOBI_ITERATIONS: u32 = 400;

/// Simulated-time budget of the fig10 and sched sweeps' runs.
const EXPERIMENT_HORIZON_SECS: u64 = 36_000;

/// Simulated-time budget of the scaling sweep's runs.
const SCALING_HORIZON_SECS: u64 = 360_000;

/// One configuration with its workload type restored, for the traced
/// pass.
pub(crate) enum Typed {
    /// A ray-tracer run.
    Ray(PipelineConfig<AppConfig>),
    /// An SPMD Jacobi run.
    Jacobi(PipelineConfig<JacobiConfig>),
}

/// The untraced sweep of workload `name` at `seed`.
///
/// # Errors
///
/// Returns a message naming the known workloads when `name` is unknown.
pub(crate) fn sweep(name: &str, seed: u64) -> Result<Sweep, String> {
    let keep = |mut sweep: Sweep, keep: &dyn Fn(&str) -> bool| {
        sweep.runs.retain(|r| keep(&r.label));
        sweep.name = name.to_owned();
        sweep
    };
    match name {
        "fig10-ladder" => Ok(keep(sweeps::fig10(Scale::Paper, seed), &|_| true)),
        "servant-scaling" => Ok(keep(sweeps::scaling(Scale::Paper, seed), &|label| {
            label.starts_with("ray-")
        })),
        "preempt-faults" => Ok(keep(sweeps::sched(Scale::Paper, seed), &|label| {
            PREEMPT_FAULT_ROWS.contains(&label)
        })),
        "jacobi-torus" => Ok(Sweep {
            name: name.to_owned(),
            runs: vec![RunSpec {
                label: "jacobi-n64".to_owned(),
                job: Job::new(jacobi_config(seed)),
                version: None,
                app: None,
                paper_percent: None,
                faults: None,
            }],
        }),
        _ => Err(format!(
            "unknown workload '{name}' (expected one of: {})",
            NAMES.join(", ")
        )),
    }
}

/// The scaling sweep's jacobi-n64 shape (4 clusters, 63 workers, 48
/// cells each), run for [`JACOBI_ITERATIONS`].
fn jacobi_config(seed: u64) -> PipelineConfig<JacobiConfig> {
    let mut cfg = PipelineConfig::new(JacobiConfig {
        workers: 63,
        cells_per_worker: 48,
        iterations: JACOBI_ITERATIONS,
        ..JacobiConfig::default()
    });
    cfg.seed = seed;
    cfg.horizon = SimTime::from_secs(SCALING_HORIZON_SECS);
    cfg.preflight = analyzer::workload_warn();
    cfg
}

/// A ray-tracer run as the harness's sweep functions configure one:
/// warn-but-run pre-flight, the given horizon, scheduler and faults.
fn ray_config(
    app: AppConfig,
    seed: u64,
    horizon_secs: u64,
    scheduler: SchedulerKind,
    faults: FaultConfig,
) -> PipelineConfig<AppConfig> {
    let mut cfg = PipelineConfig::new(app);
    cfg.seed = seed;
    cfg.horizon = SimTime::from_secs(horizon_secs);
    cfg.preflight = analyzer::pipeline_warn();
    cfg.machine.scheduler = scheduler;
    cfg.faults = faults;
    cfg
}

/// The typed configuration of one run of `workload`'s sweep.
fn typed(workload: &str, spec: &RunSpec, seed: u64) -> Result<Typed, String> {
    if workload == "jacobi-torus" {
        return Ok(Typed::Jacobi(jacobi_config(seed)));
    }
    let app = spec
        .app
        .clone()
        .ok_or_else(|| format!("run '{}' carries no application shape", spec.label))?;
    let faults = spec.faults.unwrap_or_default();
    let (horizon, scheduler) = match workload {
        "servant-scaling" => (SCALING_HORIZON_SECS, SchedulerKind::RoundRobin),
        _ if spec.label.starts_with("preempt-") => (
            EXPERIMENT_HORIZON_SECS,
            SchedulerKind::Preemptive {
                quantum: DEFAULT_QUANTUM,
            },
        ),
        _ => (EXPERIMENT_HORIZON_SECS, SchedulerKind::RoundRobin),
    };
    Ok(Typed::Ray(ray_config(
        app, seed, horizon, scheduler, faults,
    )))
}

/// The untraced sweep of `name` together with each run's typed
/// configuration, in run order.
///
/// # Errors
///
/// Returns a message when the workload is unknown or a rebuilt
/// configuration's fingerprint differs from its sweep job's — the
/// traced pass would then measure something else.
pub(crate) fn typed_runs(name: &str, seed: u64) -> Result<Vec<(String, Typed)>, String> {
    let sweep = sweep(name, seed)?;
    let mut runs = Vec::with_capacity(sweep.runs.len());
    for spec in &sweep.runs {
        let cfg = typed(name, spec, seed)?;
        let fingerprint = match &cfg {
            Typed::Ray(cfg) => cfg.fingerprint(),
            Typed::Jacobi(cfg) => cfg.fingerprint(),
        };
        if format!("{fingerprint:016x}") != spec.job.fingerprint() {
            return Err(format!(
                "run '{}': rebuilt configuration fingerprint {fingerprint:016x} differs from \
                 the sweep job's {}",
                spec.label,
                spec.job.fingerprint()
            ));
        }
        runs.push((spec.label.clone(), cfg));
    }
    Ok(runs)
}
