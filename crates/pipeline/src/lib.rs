//! Workload-agnostic measurement pipeline: machine + monitor + trace.
//!
//! The paper's monitoring toolkit (hybrid instrumentation → ZM4 →
//! SIMPLE evaluation) is explicitly *application-independent* — the
//! same probes, recorders, and evaluation revealed the ray tracer's
//! master/servant cycles and would reveal any other instrumented
//! program's structure just as well. This crate makes that independence
//! structural instead of aspirational:
//!
//! * a [`Workload`] is any program that can spawn its root processes
//!   onto a [`suprenum::Machine`], declare its instrumentation (token
//!   map, monitored channels, proven event orderings), and fold its
//!   application-level output back out of the run;
//! * [`run_workload`] owns everything that is *not* the application:
//!   the pre-flight analysis seam, machine sizing and validation, the
//!   streamed monitor plane (compact kernel emissions handed to the
//!   ZM4's detectors as whole events, never stored), SIMPLE trace conversion,
//!   truncation handling, and intrusion accounting;
//! * [`Job`] erases the workload type so a sweep harness can mix
//!   ray-tracer and Jacobi runs (or anything else) in one queue without
//!   being generic itself.
//!
//! The ray tracer (`raysim`) and the SPMD Jacobi solver
//! ([`jacobi`]) are the two stock workloads; `crates/pipeline/README.md`
//! is the guide for writing a third.
//!
//! # Examples
//!
//! Run the bundled Jacobi workload through the full monitor stack:
//!
//! ```
//! use pipeline::jacobi::JacobiConfig;
//! use pipeline::{run_workload, PipelineConfig};
//!
//! let cfg = PipelineConfig::new(JacobiConfig {
//!     workers: 3,
//!     iterations: 8,
//!     ..JacobiConfig::default()
//! });
//! let result = run_workload(cfg);
//! assert!(result.completed());
//! assert_eq!(result.output.max_error, 0.0);
//! assert!(!result.trace.is_empty());
//! ```

use des::time::SimTime;
use hybridmon::IntrusionReport;
use simple::Trace;
use suprenum::{Machine, MachineConfig, RunEnd, RunOutcome};
use zm4::{IngestCounts, Measurement, ProbeSample, Zm4Config};

pub mod fault;
pub mod jacobi;
pub mod job;
pub mod order;
pub mod preflight;
pub mod trace;

pub use fault::FaultConfig;
pub use job::{ExecOverrides, Job, JobRun};
pub use order::{dominant_scope, OrderEdge, OrderScope};
pub use preflight::{
    try_preflight, PolicyMode, Preflight, PreflightDenied, PreflightHook, PreflightSummary,
};
pub use trace::{probe_samples, to_simple_trace};

/// One declared instrumentation point: the raw `(token, activity name,
/// group)` triple a workload registers with the monitor. The analyzer's
/// token lints run over these declarations before any event exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenDecl {
    /// The 16-bit token id (application range: below the kernel base).
    pub token: u16,
    /// Activity name shown on Gantt tracks; names ending in `" End"`
    /// close the activity of the same base name.
    pub name: &'static str,
    /// The role that owns the point (e.g. `Master`, `Worker`).
    pub group: &'static str,
}

impl TokenDecl {
    /// Creates a declaration.
    pub const fn new(token: u16, name: &'static str, group: &'static str) -> Self {
        TokenDecl { token, name, group }
    }
}

/// The workload-agnostic per-run metrics a workload folds out of its
/// trace and output, recorded alongside the pipeline-level statistics
/// in sweep artifacts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunMetrics {
    /// Work units the application completed (jobs sent, strips
    /// relaxed, …) — the workload defines the unit.
    pub work_units: u64,
    /// Mean worker utilization over the productive phase, percent.
    /// `None` when the run truncated or the workload has no notion of
    /// utilization.
    pub utilization_percent: Option<f64>,
    /// Mean worker utilization over the steady (pipeline-full) phase,
    /// where the workload distinguishes one.
    pub steady_percent: Option<f64>,
}

/// A deferred fold from the finished machine back into the workload's
/// output (rendered image, assembled solution, counters). Returned by
/// [`Workload::launch`] and invoked by [`run_workload`] after the
/// machine halts, so the closure may capture the `Rc` handles it shared
/// with its processes.
pub type Harvest<T> = Box<dyn FnOnce(&Machine) -> T>;

/// An instrumented program the measurement pipeline can run.
///
/// A workload owns everything application-specific — process bodies,
/// instrumentation tokens, numerics — and nothing else: machine
/// construction, monitoring, trace evaluation, and artifact recording
/// belong to the pipeline. See `crates/pipeline/README.md` for the
/// step-by-step guide to writing one.
pub trait Workload: std::fmt::Debug + Clone + Send + Sync + 'static {
    /// What the workload folds out of the shared state after the run
    /// (image + counters, solution vector, …).
    type Output;

    /// Stable identifier recorded in `RunRecord`s and sweep artifacts
    /// (e.g. `"raytracer"`, `"jacobi"`).
    fn id(&self) -> &'static str;

    /// Validates the configuration before anything is built.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    fn validate(&self) -> Result<(), String>;

    /// Minimum number of nodes the workload needs (root process plus
    /// workers). [`PipelineConfig::new`] sizes the machine from this.
    fn nodes_required(&self) -> u32;

    /// Number of monitored display channels. Defaults to one channel
    /// per node — the paper's wiring — but a workload monitoring a
    /// subset may narrow it (the ZM4 is built with exactly this count).
    fn channels(&self, machine: &Machine) -> usize {
        machine.topology().total_nodes() as usize
    }

    /// The declared instrumentation point map, for the analyzer's
    /// `AN-TOKEN-*` lints.
    fn token_map(&self) -> Vec<TokenDecl>;

    /// Cross-event orderings every legal execution must respect,
    /// checked against recorded traces by the happens-before engine.
    /// Defaults to none (verification then degenerates to a no-op).
    fn proven_orders(&self) -> Vec<OrderEdge> {
        Vec::new()
    }

    /// Whether the run should switch on the kernel's own
    /// instrumentation (dispatch/block/preempt events through the same
    /// display path as the application) — the paper's stated future
    /// work, and the signal `harness verify` reconciles scheduler
    /// verdicts against. Defaults to `false`; a workload that opts in
    /// gets `kernel_instrumentation` forced on regardless of the
    /// machine configuration (kernel events still require hybrid
    /// monitoring to actually reach the displays — the analyzer's
    /// workload hook warns when the two disagree).
    fn wants_kernel_events(&self) -> bool {
        false
    }

    /// Installs the workload's root process(es) on the machine and
    /// returns the harvest that folds the shared state into
    /// [`Workload::Output`] once the machine has halted.
    fn launch(&self, machine: &mut Machine) -> Harvest<Self::Output>;

    /// Folds workload-level metrics out of the finished run. The
    /// default reports zero work units and no utilization.
    fn metrics(&self, trace: &Trace, truncated: bool, output: &Self::Output) -> RunMetrics {
        let _ = (trace, truncated, output);
        RunMetrics::default()
    }
}

/// Full configuration of one measurement run of workload `W`.
#[derive(Clone)]
pub struct PipelineConfig<W: Workload> {
    /// The application under measurement.
    pub workload: W,
    /// The machine (nodes, buses, scheduler, monitoring mode).
    pub machine: MachineConfig,
    /// The monitor (FIFO, clocks, MTG).
    pub zm4: Zm4Config,
    /// Determinism seed for machine and monitor.
    pub seed: u64,
    /// Simulated-time budget.
    pub horizon: SimTime,
    /// Pre-flight static analysis policy.
    pub preflight: Preflight<W>,
    /// Probe-plane fault injection (drop/corrupt/clock-drift). The
    /// default injects nothing; a non-trivial configuration perturbs
    /// only the monitor's view of the run, never the machine itself,
    /// and is deterministic per fault seed.
    pub faults: FaultConfig,
    /// Accepts only `1`: every run executes in the calling thread,
    /// multi-cluster machines on the windowed per-cluster engine and
    /// single-cluster machines on the sequential event loop.
    /// [`try_run_workload`] refuses any other value. Retained only for
    /// the call in `perfbench/src/stages.rs`; delete it together with
    /// that call.
    pub engine_shards: usize,
}

impl<W: Workload> std::fmt::Debug for PipelineConfig<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineConfig")
            .field("workload", &self.workload)
            .field("machine", &self.machine)
            .field("zm4", &self.zm4)
            .field("seed", &self.seed)
            .field("horizon", &self.horizon)
            .field("preflight", &self.preflight)
            .field("faults", &self.faults)
            .field("engine_shards", &self.engine_shards)
            .finish()
    }
}

/// The machine-sizing policy every workload gets: one cluster of
/// `nodes` (the paper's setup) when they fit, or the minimum number of
/// 16-node clusters otherwise.
pub fn machine_for(nodes: u32) -> MachineConfig {
    if nodes <= 16 {
        MachineConfig::single_cluster(nodes as u8)
    } else {
        let clusters = nodes.div_ceil(16) as u8;
        MachineConfig {
            clusters,
            torus_cols: 1,
            ..MachineConfig::single_cluster(16)
        }
    }
}

impl<W: Workload> PipelineConfig<W> {
    /// A run configuration with a machine sized for the workload (see
    /// [`machine_for`]), the default monitor, the standard seed, and a
    /// one-simulated-hour horizon.
    ///
    /// # Panics
    ///
    /// Panics if the workload configuration is invalid.
    pub fn new(workload: W) -> Self {
        workload.validate().expect("invalid workload configuration");
        let machine = machine_for(workload.nodes_required());
        PipelineConfig {
            workload,
            machine,
            zm4: Zm4Config::default(),
            seed: 1992,
            horizon: SimTime::from_secs(3_600),
            preflight: Preflight::off(),
            faults: FaultConfig::default(),
            engine_shards: 1,
        }
    }

    /// FNV-1a fingerprint of the configuration (workload + machine +
    /// monitor + seed + horizon + any active fault injection), for
    /// artifact provenance. The pre-flight policy is excluded: it
    /// carries function pointers whose addresses vary between builds,
    /// and it does not change the measured behaviour under
    /// `Off`/`Warn`. A no-op fault configuration is excluded too, so
    /// fingerprints of un-faulted runs are stable across versions that
    /// predate the fault layer.
    pub fn fingerprint(&self) -> u64 {
        let mut h = des::digest::Fnv64::new();
        h.write_bytes(self.workload.id().as_bytes());
        h.write_bytes(format!("{:?}", self.workload).as_bytes());
        h.write_bytes(format!("{:?}", self.machine).as_bytes());
        h.write_bytes(format!("{:?}", self.zm4).as_bytes());
        h.write_u64(self.seed);
        h.write_u64(self.horizon.as_nanos());
        if !self.faults.is_noop() {
            h.write_bytes(format!("{:?}", self.faults).as_bytes());
        }
        h.finish()
    }
}

/// Everything a measurement run of workload `W` produced.
#[derive(Debug)]
pub struct PipelineResult<W: Workload> {
    /// Real time spent in pre-flight static analysis, before the
    /// simulation started. Reported separately so wall-clock throughput
    /// comparisons measure the engine, not the analyzer.
    pub analysis: std::time::Duration,
    /// What the pre-flight analysis concluded (`None` when the policy
    /// is `Off` or no hook is configured), so harnesses can record
    /// per-severity finding counts next to the measurement.
    pub preflight: Option<PreflightSummary>,
    /// How the application run ended.
    pub outcome: RunOutcome,
    /// The ZM4 measurement (merged trace + recorder/detector stats).
    pub measurement: Measurement,
    /// How many kernel emissions the monitor plane ingested as whole
    /// events and how many pattern by pattern (see [`IngestCounts`]).
    /// Fault-free runs take the event path for every emission; faulted
    /// runs take the pattern path for every one. Kept apart from the
    /// measurement, which both paths produce bit-identically.
    pub ingest: IngestCounts,
    /// The merged trace as SIMPLE events (channel = node index).
    pub trace: Trace,
    /// The workload's folded output (image, solution, counters, …).
    pub output: W::Output,
    /// The machine after the run (ground truth, kernel stats, terminal
    /// writes). Its signal log holds no display writes: the monitor
    /// plane consumed them as they were emitted. Run a [`Machine`]
    /// directly to keep the display log.
    pub machine: Machine,
    /// Monitoring intrusion accounting (copied out of the machine for
    /// convenience).
    pub intrusion: IntrusionReport,
}

impl<W: Workload> PipelineResult<W> {
    /// Returns `true` if the application ran to completion.
    pub fn completed(&self) -> bool {
        self.outcome.reason == RunEnd::Completed
    }

    /// Returns `true` if the run was cut short by the horizon, an event
    /// budget, the operator's job time limit, or a deadlock.
    pub fn truncated(&self) -> bool {
        self.outcome.truncated()
    }

    /// The workload-level metrics of this run.
    pub fn metrics(&self, workload: &W) -> RunMetrics {
        workload.metrics(&self.trace, self.truncated(), &self.output)
    }
}

/// Why [`try_run_workload`] refused to execute a configuration.
#[derive(Debug)]
pub enum PipelineError {
    /// The pre-flight analysis denied the run.
    Denied(PreflightDenied),
    /// The workload or machine configuration is invalid.
    Invalid(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Denied(d) => d.fmt(f),
            PipelineError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<PreflightDenied> for PipelineError {
    fn from(d: PreflightDenied) -> Self {
        PipelineError::Denied(d)
    }
}

/// Runs one full measurement without panicking: pre-flight analysis
/// (per the configured policy), workload and machine validation, the
/// application on the simulated machine, the ZM4 over the display
/// probe stream, and the SIMPLE trace conversion.
///
/// # Errors
///
/// Returns [`PipelineError::Denied`] when a `Deny` pre-flight policy
/// reports errors and [`PipelineError::Invalid`] for configurations
/// that cannot be built.
pub fn try_run_workload<W: Workload>(
    cfg: PipelineConfig<W>,
) -> Result<PipelineResult<W>, PipelineError> {
    if cfg.engine_shards != 1 {
        return Err(PipelineError::Invalid(format!(
            "engine_shards must be 1, got {}: the threaded engine was removed",
            cfg.engine_shards
        )));
    }
    if let Err(e) = cfg.faults.validate() {
        return Err(PipelineError::Invalid(format!(
            "invalid fault configuration: {e}"
        )));
    }
    let analysis_start = std::time::Instant::now();
    let preflight = try_preflight(&cfg)?;
    let analysis = analysis_start.elapsed();
    cfg.workload
        .validate()
        .map_err(|e| PipelineError::Invalid(format!("invalid workload configuration: {e}")))?;
    if u32::from(cfg.machine.total_nodes()) < cfg.workload.nodes_required() {
        return Err(PipelineError::Invalid(format!(
            "machine has {} nodes but the workload needs {}",
            cfg.machine.total_nodes(),
            cfg.workload.nodes_required()
        )));
    }

    let mut machine_cfg = cfg.machine.clone();
    if cfg.workload.wants_kernel_events() {
        // The workload asked for the kernel's own instrumentation —
        // promote the per-machine toggle so sweeps don't have to plumb
        // machine configuration per run.
        machine_cfg.kernel_instrumentation = true;
    }
    // The kernel records compact emissions; the monitor plane ingests
    // them as they are drained, so no display write is ever stored.
    machine_cfg.deferred_display = true;
    let mut machine = Machine::new(machine_cfg, cfg.seed)
        .map_err(|e| PipelineError::Invalid(format!("invalid machine configuration: {e:?}")))?;

    let harvest = cfg.workload.launch(&mut machine);
    let channels = cfg.workload.channels(&machine);
    let monitor = cfg.zm4.build(channels, cfg.seed);

    let (outcome, measurement, ingest) =
        run_monitored(&mut machine, &monitor, cfg.horizon, cfg.faults);
    let trace = to_simple_trace(&measurement);

    let output = harvest(&machine);
    let intrusion = *machine.intrusion();

    Ok(PipelineResult {
        analysis,
        preflight,
        outcome,
        measurement,
        ingest,
        trace,
        output,
        machine,
        intrusion,
    })
}

/// Kernel events handled between monitor-plane drains. Large enough
/// that the per-window callback is noise; small enough that the
/// emission buffer stays small.
const OBSERVE_WINDOW_EVENTS: u64 = 8_192;

/// The monitor plane, streamed: the kernel defers display
/// materialization into compact emission records, and every window of
/// [`OBSERVE_WINDOW_EVENTS`] kernel events (one epoch on a
/// multi-cluster machine) the drained records go to the ZM4's observer
/// in the calling thread. The display log is never stored or sorted.
///
/// Streaming is bit-identical to observing the materialized, sorted
/// log: the ZM4 needs only per-channel time order (detection is per
/// channel, recording sorts by `(time, channel)`, the CEC merge is
/// global), and the kernel's per-node display serializer hands each
/// node's emissions over in push order with strictly increasing,
/// non-overlapping writes.
///
/// A record reaches the observer on one of two paths, chosen by what
/// the input shows:
///
/// * **Event path**, when the fault layer is inactive: each record goes
///   to [`zm4::Observer::feed_emission`] as `(channel, first write,
///   spacing, event)`. Nothing else writes to a display, so every
///   channel's decoder is idle at each emission and takes the event
///   whole — exactly what its 32 patterns, contiguous on the channel,
///   would decode to, at the last pattern's time, with the same decode
///   counters. A decoder found mid-event expands the patterns instead.
/// * **Pattern path**, when faults are active: each record is expanded
///   into its probe samples, every sample passes through
///   [`FaultConfig::apply`] and the survivors are fed one by one. Fault
///   verdicts are pure per sample, so feed order cannot move a fault.
fn run_monitored(
    machine: &mut Machine,
    monitor: &zm4::Zm4,
    horizon: SimTime,
    faults: FaultConfig,
) -> (RunOutcome, Measurement, IngestCounts) {
    let mut observer = monitor.observer();
    let outcome = machine.run_observed(horizon, OBSERVE_WINDOW_EVENTS, |_now, emissions| {
        if faults.is_noop() {
            for rec in emissions.drain(..) {
                observer.feed_emission(
                    rec.node.index() as usize,
                    rec.first_write_at(),
                    rec.spacing,
                    rec.event(),
                );
            }
            return;
        }
        for rec in emissions.drain(..) {
            observer.feed_expanded_emission(rec.writes().filter_map(|w| {
                faults.apply(ProbeSample {
                    time: w.time,
                    channel: w.node.index() as usize,
                    pattern: w.pattern,
                })
            }));
        }
    });
    let ingest = observer.ingest_counts();
    (outcome, observer.finish(), ingest)
}

/// Runs one full measurement.
///
/// # Panics
///
/// Panics if the configuration is invalid (machine smaller than the
/// workload needs, invalid workload) or a [`PolicyMode::Deny`]
/// pre-flight analysis reports errors. Use [`try_run_workload`] to
/// handle those cases without unwinding.
pub fn run_workload<W: Workload>(cfg: PipelineConfig<W>) -> PipelineResult<W> {
    match try_run_workload(cfg) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_sizing_matches_the_paper_setup() {
        assert_eq!(machine_for(4).total_nodes(), 4);
        assert_eq!(machine_for(16).total_nodes(), 16);
        // 17 nodes spill into two 16-node clusters.
        assert_eq!(machine_for(17).total_nodes(), 32);
    }

    #[test]
    fn fingerprint_distinguishes_seed_and_workload() {
        let a = PipelineConfig::new(jacobi::JacobiConfig::default());
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.seed += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.workload.iterations += 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn undersized_machine_is_refused() {
        let mut cfg = PipelineConfig::new(jacobi::JacobiConfig::default());
        cfg.machine = machine_for(2);
        let err = try_run_workload(cfg).unwrap_err();
        assert!(matches!(err, PipelineError::Invalid(_)));
        assert!(err.to_string().contains("needs"));
    }

    #[test]
    fn zero_engine_shards_is_refused() {
        for engine_shards in [0, 2] {
            let mut cfg = PipelineConfig::new(jacobi::JacobiConfig::default());
            cfg.engine_shards = engine_shards;
            let err = try_run_workload(cfg).unwrap_err();
            assert!(matches!(err, PipelineError::Invalid(_)));
            assert!(
                err.to_string().contains("the threaded engine was removed"),
                "{engine_shards}: {err}"
            );
        }
    }

    #[test]
    fn engine_profile_reports_cross_cluster_balance() {
        // The scaling sweep's jacobi-n64 shape: 63 workers + coordinator
        // over four clusters. The profile is deterministic, so this is a
        // regression gate on the engine's load distribution — the events
        // must actually spread across clusters, or the windowed engine
        // records no available parallelism.
        let cfg = PipelineConfig::new(jacobi::JacobiConfig {
            workers: 63,
            cells_per_worker: 48,
            iterations: 40,
            ..jacobi::JacobiConfig::default()
        });
        let run = run_workload(cfg);
        assert!(run.completed());
        let profile = run.machine.engine_profile().expect("multi-cluster engine");
        assert_eq!(profile.shard_events.len(), 4);
        assert_eq!(
            profile.shard_events.iter().sum::<u64>(),
            run.outcome.events,
            "profile must account for every kernel event"
        );
        assert!(profile.shard_events.iter().all(|&e| e > 0));
        assert!(
            profile.balance_bound() > 1.2,
            "engine parallelism bound {:.2} — the multi-cluster shape \
             concentrated on one cluster",
            profile.balance_bound()
        );
        assert!(profile.epochs > 0);
        println!(
            "jacobi-n64 profile: {} events over {} windows ({:.2} ev/window), \
             shards {:?}, balance bound {:.2}x",
            run.outcome.events,
            profile.epochs,
            profile.events_per_window(),
            profile.shard_events,
            profile.balance_bound()
        );

        // A single-cluster machine runs the sequential loop and has no
        // engine profile.
        let small = PipelineConfig::new(jacobi::JacobiConfig {
            workers: 4,
            iterations: 3,
            ..jacobi::JacobiConfig::default()
        });
        assert!(run_workload(small).machine.engine_profile().is_none());
    }

    #[test]
    fn fault_injection_perturbs_only_the_measurement() {
        let mut base = PipelineConfig::new(jacobi::JacobiConfig {
            workers: 5,
            iterations: 6,
            ..jacobi::JacobiConfig::default()
        });
        base.faults = FaultConfig {
            probe_drop_permille: 100,
            probe_corrupt_permille: 50,
            clock_drift_ppm: 2_000,
            seed: 7,
        };
        let clean = {
            let mut cfg = base.clone();
            cfg.faults = FaultConfig::default();
            run_workload(cfg)
        };
        let faulted = run_workload(base.clone());
        // The machine itself is untouched — same outcome, same
        // application output — only the monitor's view degrades.
        assert_eq!(faulted.outcome, clean.outcome);
        assert_eq!(faulted.output.max_error, clean.output.max_error);
        assert_ne!(
            faulted.measurement.trace, clean.measurement.trace,
            "faults must perturb the measurement"
        );
        // Deterministic per seed.
        assert_eq!(
            run_workload(base.clone()).measurement.trace,
            faulted.measurement.trace
        );
        // A different fault seed moves the fault sites.
        let mut reseeded = base.clone();
        reseeded.faults.seed = 8;
        assert_ne!(
            run_workload(reseeded).measurement.trace,
            faulted.measurement.trace
        );
        // Active faults enter the fingerprint; a no-op layer does not.
        assert_ne!(base.fingerprint(), clean_fingerprint(&base));
        let mut out_of_range = base;
        out_of_range.faults.probe_drop_permille = 2_000;
        let err = try_run_workload(out_of_range).unwrap_err();
        assert!(err.to_string().contains("fault"));
    }

    fn clean_fingerprint(cfg: &PipelineConfig<jacobi::JacobiConfig>) -> u64 {
        let mut clean = cfg.clone();
        clean.faults = FaultConfig::default();
        clean.fingerprint()
    }
}
