//! Type-erased pipeline runs for heterogeneous sweep queues.
//!
//! A sweep harness wants one job queue mixing ray-tracer and Jacobi
//! runs (and whatever workload comes next) without itself being
//! generic over `W`. A [`Job`] freezes a [`PipelineConfig`] behind a
//! plain closure: the harness sees only the workload id, the seed, the
//! configuration fingerprint, and the workload-agnostic [`JobRun`]
//! each execution yields.

use std::sync::Arc;

use des::time::SimTime;
use simple::Trace;
use suprenum::RunOutcome;

use suprenum::SchedulerKind;

use crate::preflight::{PolicyMode, PreflightDenied, PreflightSummary};
use crate::{
    try_run_workload, FaultConfig, OrderEdge, PipelineConfig, PipelineError, RunMetrics, Workload,
};

/// Per-execution overrides a harness may apply without re-building the
/// job (the CLI's `--horizon-secs` flag, `harness verify`'s
/// `ANALYZER_POLICY` environment override).
#[derive(Debug, Clone, Default)]
pub struct ExecOverrides {
    /// Replaces the configured pre-flight mode (the configured hook is
    /// kept — a mode without a hook analyzes nothing).
    pub policy: Option<PolicyMode>,
    /// Replaces the configured simulated-time budget.
    pub horizon: Option<SimTime>,
    /// Replaces the configured kernel scheduling policy (the CLI's
    /// `--scheduler` flag). This changes behaviour; the effective
    /// policy is recorded in [`JobRun::scheduler`] so artifacts stay
    /// honest.
    pub scheduler: Option<SchedulerKind>,
    /// Replaces the configured probe-plane fault injection (the sweep
    /// harness's fuzz dimensions).
    pub faults: Option<FaultConfig>,
}

/// Everything a harness records about one executed job, with the
/// workload type folded away.
#[derive(Debug)]
pub struct JobRun {
    /// How the application run ended.
    pub outcome: RunOutcome,
    /// The merged monitoring trace as SIMPLE events.
    pub trace: Trace,
    /// The workload's folded metrics (work units, utilization).
    pub metrics: RunMetrics,
    /// Fraction of CPU time stolen by instrumentation.
    pub intrusion_ratio: f64,
    /// The workload's proven orderings, for happens-before
    /// verification of `trace`.
    pub orders: Vec<OrderEdge>,
    /// Wall time the pre-flight analysis took, so a harness can report
    /// engine throughput net of the (run-independent) analysis cost.
    pub analysis: std::time::Duration,
    /// What the pre-flight analysis concluded (`None` when the
    /// effective policy was `Off`), so harnesses can record finding
    /// counts per severity next to the measurement.
    pub preflight: Option<PreflightSummary>,
    /// Kernel scheduling policy the run actually executed under.
    pub scheduler: SchedulerKind,
}

type Exec = dyn Fn(ExecOverrides) -> Result<JobRun, PreflightDenied> + Send + Sync;
type Fingerprint = dyn Fn() -> u64 + Send + Sync;

/// One configured measurement run with its workload type erased.
///
/// Cloning is cheap (the configuration lives behind an [`Arc`]); each
/// [`Job::run`] executes a fresh simulation from the frozen
/// configuration, so records stay bit-identical run over run.
#[derive(Clone)]
pub struct Job {
    workload_id: &'static str,
    seed: u64,
    /// Computed when asked for, not when the job is built: it formats
    /// the whole configuration, which costs more than everything else
    /// building a sweep does.
    fingerprint: Arc<Fingerprint>,
    horizon: Option<SimTime>,
    scheduler: Option<SchedulerKind>,
    faults: Option<FaultConfig>,
    exec: Arc<Exec>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("workload_id", &self.workload_id)
            .field("seed", &self.seed)
            .field("fingerprint", &format_args!("{}", self.fingerprint()))
            .field("horizon", &self.horizon)
            .finish_non_exhaustive()
    }
}

impl Job {
    /// Freezes a pipeline configuration into an erased job.
    pub fn new<W: Workload>(cfg: PipelineConfig<W>) -> Job {
        let workload_id = cfg.workload.id();
        let seed = cfg.seed;
        let cfg = Arc::new(cfg);
        let frozen = Arc::clone(&cfg);
        let fingerprint = Arc::new(move || frozen.fingerprint());
        let exec = Arc::new(move |ov: ExecOverrides| {
            let mut cfg = PipelineConfig::clone(&cfg);
            if let Some(mode) = ov.policy {
                cfg.preflight.mode = mode;
            }
            if let Some(horizon) = ov.horizon {
                cfg.horizon = horizon;
            }
            if let Some(scheduler) = ov.scheduler {
                cfg.machine.scheduler = scheduler;
            }
            if let Some(faults) = ov.faults {
                cfg.faults = faults;
            }
            let scheduler = cfg.machine.scheduler.clone();
            let workload = cfg.workload.clone();
            let result = match try_run_workload(cfg) {
                Ok(result) => result,
                Err(PipelineError::Denied(denied)) => return Err(denied),
                // An invalid configuration is a harness bug, not a
                // measurement outcome — fail loudly, like the
                // un-erased path does.
                Err(e @ PipelineError::Invalid(_)) => panic!("{e}"),
            };
            let metrics = result.metrics(&workload);
            Ok(JobRun {
                outcome: result.outcome,
                trace: result.trace,
                metrics,
                intrusion_ratio: result.intrusion.intrusion_ratio(),
                orders: workload.proven_orders(),
                analysis: result.analysis,
                preflight: result.preflight,
                scheduler,
            })
        });
        Job {
            workload_id,
            seed,
            fingerprint,
            horizon: None,
            scheduler: None,
            faults: None,
            exec,
        }
    }

    /// The workload's stable identifier (e.g. `"raytracer"`).
    pub fn workload_id(&self) -> &'static str {
        self.workload_id
    }

    /// The frozen configuration's determinism seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Hex-encoded configuration fingerprint (see
    /// [`PipelineConfig::fingerprint`]).
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", (self.fingerprint)())
    }

    /// Caps this job's simulated-time budget for every subsequent
    /// execution (the CLI's `--horizon-secs`).
    pub fn override_horizon(&mut self, horizon: SimTime) {
        self.horizon = Some(horizon);
    }

    /// Replaces the kernel scheduling policy for every subsequent
    /// execution (the CLI's `--scheduler`). This changes scheduling
    /// behaviour, not just packaging — the effective policy is recorded
    /// in [`JobRun::scheduler`] and in schema-4 artifacts, and
    /// `harness compare` refuses to diff across policies.
    pub fn override_scheduler(&mut self, scheduler: SchedulerKind) {
        self.scheduler = Some(scheduler);
    }

    /// Replaces the probe-plane fault injection for every subsequent
    /// execution (the sweep harness's fuzz dimensions). Faults perturb
    /// only the measurement, never the simulated machine.
    pub fn override_faults(&mut self, faults: FaultConfig) {
        self.faults = Some(faults);
    }

    /// Executes the job with an optional pre-flight mode override.
    ///
    /// # Errors
    ///
    /// Returns [`PreflightDenied`] when the effective policy is
    /// [`PolicyMode::Deny`] and the analysis reports errors.
    pub fn run_with_policy(&self, policy: Option<PolicyMode>) -> Result<JobRun, PreflightDenied> {
        (self.exec)(ExecOverrides {
            policy,
            horizon: self.horizon,
            scheduler: self.scheduler.clone(),
            faults: self.faults,
        })
    }

    /// Executes the job under its configured policy.
    ///
    /// # Panics
    ///
    /// Panics when a `Deny` pre-flight analysis refuses the run — the
    /// non-panicking path is [`Job::run_with_policy`].
    pub fn run(&self) -> JobRun {
        match self.run_with_policy(None) {
            Ok(run) => run,
            Err(denied) => panic!("{denied}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::JacobiConfig;

    #[test]
    fn erased_job_reports_workload_and_determinism() {
        let cfg = PipelineConfig::new(JacobiConfig {
            workers: 2,
            iterations: 5,
            cells_per_worker: 8,
            ..JacobiConfig::default()
        });
        let job = Job::new(cfg);
        assert_eq!(job.workload_id(), "jacobi");
        assert_eq!(job.fingerprint().len(), 16);
        let a = job.run();
        let b = job.run();
        assert_eq!(a.outcome.end, b.outcome.end);
        assert_eq!(a.trace.len(), b.trace.len());
        assert!(a.metrics.work_units > 0);
    }

    #[test]
    fn scheduler_override_is_recorded_and_changes_behaviour() {
        let cfg = PipelineConfig::new(JacobiConfig {
            workers: 3,
            iterations: 4,
            cells_per_worker: 8,
            ..JacobiConfig::default()
        });
        let job = Job::new(cfg);
        let reference = job.run();
        assert_eq!(reference.scheduler, SchedulerKind::RoundRobin);
        let mut preemptive = job.clone();
        preemptive.override_scheduler(SchedulerKind::Preemptive {
            quantum: des::time::SimDuration::from_micros(50),
        });
        let run = preemptive.run();
        assert_eq!(run.scheduler.name(), "preempt:50");
        // Same workload, same outcome class; the policy only reorders
        // node-local CPU multiplexing.
        assert_eq!(reference.outcome.end, run.outcome.end);
    }

    #[test]
    fn faults_override_perturbs_only_the_measurement() {
        let cfg = PipelineConfig::new(JacobiConfig {
            workers: 3,
            iterations: 4,
            cells_per_worker: 8,
            ..JacobiConfig::default()
        });
        let job = Job::new(cfg);
        let clean = job.run();
        let mut faulty = job.clone();
        faulty.override_faults(FaultConfig {
            probe_drop_permille: 200,
            probe_corrupt_permille: 0,
            clock_drift_ppm: 0,
            seed: 11,
        });
        let run = faulty.run();
        assert_eq!(
            clean.outcome, run.outcome,
            "faults must not touch the machine"
        );
        assert!(run.trace.len() < clean.trace.len(), "drops thin the trace");
    }

    #[test]
    fn horizon_override_truncates() {
        let cfg = PipelineConfig::new(JacobiConfig::default());
        let mut job = Job::new(cfg);
        job.override_horizon(SimTime::from_micros(10));
        let run = job.run();
        assert!(run.outcome.truncated());
    }
}
