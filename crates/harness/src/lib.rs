//! Parallel, deterministic experiment-sweep runner.
//!
//! The paper's evaluation is a *sweep* — four program versions, several
//! scenes, plus bundle/window/agent-pool ablations — yet re-running every
//! configuration serially wastes all but one core, and ad-hoc text output
//! loses the one fact monitoring literature insists on: whether each
//! measurement actually *completed*. This crate makes both first-class:
//!
//! * a [`Sweep`] is a named list of [`RunSpec`]s; [`run_sweep`] fans the
//!   runs out over a fixed-size pool of OS threads. Each simulation stays
//!   single-threaded and seed-deterministic, so results are **bit-identical
//!   regardless of worker count** — guaranteed by the per-run
//!   [`RunRecord::trace_digest`] and checked by this crate's tests;
//! * a spec wraps a type-erased [`pipeline::Job`], so one sweep can mix
//!   ray-tracer and Jacobi runs (and any future [`pipeline::Workload`])
//!   in the same queue — the harness never mentions a workload type;
//! * every run yields a [`RunRecord`]: workload id, config fingerprint,
//!   seed, [`RunEnd`], simulated and wall time, events processed,
//!   utilization/intrusion statistics, and the trace digest. A truncated
//!   run (horizon, event budget, operator release, deadlock) is recorded
//!   as such and poisons the sweep's exit code — it can never masquerade
//!   as a valid measurement;
//! * [`SweepReport`] renders the whole sweep as one JSON artifact (written
//!   under `artifacts/` by the CLI) plus a summary table.
//!
//! The `harness` binary exposes the named sweeps of [`sweeps`]:
//!
//! ```text
//! cargo run --release -p harness -- sweep fig10 --workers 4
//! ```

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use des::digest::Fnv64;
use pipeline::Job;
use raysim::config::{AppConfig, Version};
use simple::Trace;
use suprenum::RunEnd;

pub mod json;
pub mod sweeps;
pub mod verify;

pub use sweeps::Scale;
pub use verify::{verify_sweep, verify_sweep_opts, verify_sweep_with, VerifyOptions, VerifyReport};

/// Version of the JSON artifact schema this harness writes (sweep
/// artifacts and bench baselines alike). Bumped whenever a field is
/// removed or changes meaning; artifacts from different schema versions
/// must never be compared — see [`artifact_schema_version`]. Purely
/// additive fields (readers treat absence as the documented default,
/// e.g. `engine_shards` absent = 1) do not bump the schema, so newer
/// binaries stay comparable against committed baselines.
pub const SCHEMA_VERSION: u64 = 4;

/// Extracts the `schema_version` field from an artifact's JSON text.
///
/// # Errors
///
/// Returns a message when the field is absent or malformed — such a
/// file is not a harness artifact at all.
pub fn artifact_schema_version(json_text: &str) -> Result<u64, String> {
    let key = "\"schema_version\":";
    let at = json_text
        .find(key)
        .ok_or_else(|| "artifact has no schema_version field".to_owned())?;
    let rest = json_text[at + key.len()..].trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .map_err(|_| "artifact schema_version is not a number".to_owned())
}

/// Refuses a comparison between this harness and an artifact written at
/// a different schema version.
///
/// Fields change meaning across schemas (schema 4 made `wall_ms`
/// engine-only, for instance), so comparing across versions silently
/// produces nonsense; a hard error with a regeneration hint is better.
///
/// # Errors
///
/// Returns a clear, actionable message when `json_text` was written at
/// a schema other than [`SCHEMA_VERSION`] (or is not an artifact).
pub fn check_artifact_schema(json_text: &str, what: &str) -> Result<(), String> {
    let found = artifact_schema_version(json_text).map_err(|e| format!("{what}: {e}"))?;
    if found == SCHEMA_VERSION {
        Ok(())
    } else {
        Err(format!(
            "{what} was written at schema_version {found}, but this harness writes \
             schema_version {SCHEMA_VERSION} — comparing across schemas is meaningless \
             (fields were added or changed meaning); regenerate the artifact with the \
             current binary"
        ))
    }
}

/// One configured run inside a sweep.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Short row label (e.g. `"V3"`, `"bundle-50"`, `"jacobi-w4"`).
    pub label: String,
    /// The frozen measurement job (workload, machine, monitor, seed,
    /// horizon, pre-flight policy) with its workload type erased.
    pub job: Job,
    /// The program version, where the row corresponds to one.
    pub version: Option<Version>,
    /// The actual application shape the job was built from, where the
    /// row is a ray-tracer run. The job freezes its configuration
    /// behind a closure, so this is the only place the true servant
    /// count / window / queue capacity survive for `harness verify` to
    /// cross-check the structural invariant certificates against the
    /// recorded trace. `None` for non-ray workloads.
    pub app: Option<AppConfig>,
    /// The paper's utilization number for this row, where it has one.
    pub paper_percent: Option<f64>,
    /// The probe-plane fault injection this row runs with, where it is
    /// a fault-study row. `harness verify` skips the measurement-plane
    /// cross-checks for such rows — injected drops, corruptions, and
    /// clock drift are the *subject* of the measurement, so a
    /// happens-before anomaly there is data, not a defect.
    pub faults: Option<pipeline::FaultConfig>,
}

// Run specifications cross worker-thread boundaries; keep that fact
// checked at compile time rather than discovered at the spawn site.
const _: fn() = || {
    fn is_send<T: Send>() {}
    is_send::<RunSpec>();
};

/// A named list of runs executed together.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Sweep name (also the default artifact stem).
    pub name: String,
    /// The runs, in presentation order.
    pub runs: Vec<RunSpec>,
}

/// Everything recorded about one executed run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The spec's label.
    pub label: String,
    /// The workload's stable identifier (e.g. `"raytracer"`,
    /// `"jacobi"`).
    pub workload: String,
    /// FNV-1a fingerprint of the configuration (workload + machine +
    /// monitor + seed + horizon), hex-encoded. Two records with equal
    /// fingerprints measured the same configuration.
    pub fingerprint: String,
    /// Determinism seed.
    pub seed: u64,
    /// How the run ended.
    pub run_end: RunEnd,
    /// `true` when `run_end` is anything but completion — derived
    /// statistics then describe an interrupted execution.
    pub truncated: bool,
    /// Final simulated time, nanoseconds.
    pub sim_end_ns: u64,
    /// Host wall-clock time of the simulation engine (and monitor
    /// plane), milliseconds — pre-flight analysis excluded, see
    /// [`analysis_ms`](Self::analysis_ms). Informational only: never
    /// part of the digest.
    pub wall_ms: f64,
    /// Host wall-clock time the pre-flight analysis took, milliseconds.
    /// Reported separately so engine throughput is not diluted by a
    /// run-independent static-analysis cost. Informational only.
    pub analysis_ms: f64,
    /// Error findings the pre-flight analysis reported (0 when the
    /// policy was `Off`). Additive schema-4 fields — absent in older
    /// artifacts, read back as 0 — so `harness compare` can surface
    /// analysis drift (a proof or defect appearing between commits)
    /// alongside throughput drift.
    pub analysis_errors: u64,
    /// Warning findings the pre-flight analysis reported.
    pub analysis_warnings: u64,
    /// Informational findings (proofs of absence, certificates).
    pub analysis_infos: u64,
    /// Kernel events the simulation loop processed.
    pub events_processed: u64,
    /// Event-loop throughput: `events_processed` per engine wall-clock
    /// second (`wall_ms`). Host-dependent and informational only — never
    /// part of the digest; the benchmark baseline compares this across
    /// commits.
    pub events_per_sec: f64,
    /// Monitor-shard count the run executed with. Sharding is
    /// behaviourally invisible — digests are bit-identical for any
    /// count — so this only contextualizes the wall-clock numbers.
    pub shards: usize,
    /// Engine worker-thread count the run executed with. Like monitor
    /// sharding, behaviourally invisible: a multi-cluster machine
    /// always partitions per cluster, this only packs the shards onto
    /// threads. Additive schema-4 field — absent in older artifacts,
    /// which all ran with 1.
    pub engine_shards: usize,
    /// Canonical name of the kernel scheduling policy the run executed
    /// under (see [`suprenum::SchedulerKind::name`]). Unlike sharding
    /// this *does* change simulated behaviour, so `harness compare`
    /// refuses to diff records across policies. Additive schema-4
    /// field — absent in older artifacts, which all ran round-robin
    /// (`"rr"`).
    pub scheduler: String,
    /// Events in the merged monitoring trace.
    pub trace_events: usize,
    /// FNV-1a digest over the merged trace and the run outcome,
    /// hex-encoded. Bit-identical across worker counts and across runs
    /// of the same configuration.
    pub trace_digest: String,
    /// Work units the application completed (ray jobs sent, Jacobi
    /// strips relaxed, …) — the workload defines the unit.
    pub work_units: u64,
    /// Mean worker utilization over the productive phase, percent.
    /// `None` when the run truncated or the workload has no notion of
    /// utilization.
    pub utilization_percent: Option<f64>,
    /// Mean worker utilization over the steady (pipeline-full) phase,
    /// where the workload distinguishes one.
    pub steady_percent: Option<f64>,
    /// The paper's number for this row, where it has one.
    pub paper_percent: Option<f64>,
    /// Fraction of CPU time stolen by instrumentation.
    pub intrusion_ratio: f64,
    /// The program version, where the row corresponds to one.
    pub version: Option<Version>,
}

/// The result of executing a whole sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The sweep's name.
    pub sweep: String,
    /// Worker threads used.
    pub workers: usize,
    /// One record per spec, in spec order.
    pub records: Vec<RunRecord>,
}

/// One run's comparison-relevant fields, read back from a written
/// artifact (sweep or bench — bench baselines embed sweep reports).
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactRun {
    /// The run's row label (unique within an artifact).
    pub label: String,
    /// The run's trace digest — must match across artifacts of the same
    /// configuration, or the comparison is meaningless.
    pub trace_digest: String,
    /// Engine throughput, events per wall-clock second.
    pub events_per_sec: f64,
    /// Engine wall time, milliseconds.
    pub wall_ms: f64,
    /// Pre-flight finding counts (errors, warnings, infos). Additive
    /// schema-4 fields — `None` (unknown, not zero) when the artifact
    /// predates them — used to flag analysis drift between artifacts
    /// of the same configuration.
    pub analysis_counts: Option<(u64, u64, u64)>,
    /// Kernel scheduling policy the run executed under. Additive
    /// schema-4 field — artifacts written before it exist all ran
    /// round-robin, so absence reads back as `"rr"`.
    pub scheduler: String,
    /// Monitor-shard count, `None` when the artifact does not record it.
    pub shards: Option<usize>,
    /// Engine worker-thread count. Additive schema-4 field — artifacts
    /// written before it exist all ran with 1, so absence reads as 1.
    pub engine_shards: usize,
    /// Worker threads of the sweep the run belongs to, `None` when the
    /// artifact does not record it.
    pub workers: Option<usize>,
}

impl ArtifactRun {
    /// The run layout fields `compare` requires to match, as
    /// `(field, value)`; an unrecorded value renders as `unknown`.
    fn layout(&self) -> [(&'static str, String); 3] {
        let known = |v: Option<usize>| v.map_or_else(|| "unknown".to_owned(), |n| n.to_string());
        [
            ("workers", known(self.workers)),
            ("shards", known(self.shards)),
            ("engine_shards", self.engine_shards.to_string()),
        ]
    }
}

/// Reads the per-run rows back out of an artifact's JSON text.
///
/// The artifact writer emits exactly one field per line and every run
/// object opens with its `label` field, so a line-oriented scan
/// suffices — no general JSON parser is vendored for this.
///
/// # Errors
///
/// Names the run label and the field when a numeric field does not
/// parse, or when `wall_ms`, `events_per_sec` or `trace_digest` is
/// missing — a corrupted artifact must not read back as zero
/// throughput.
pub fn parse_artifact_runs(json_text: &str) -> Result<Vec<ArtifactRun>, String> {
    fn number<T: std::str::FromStr>(label: &str, key: &str, raw: &str) -> Result<T, String> {
        raw.parse()
            .map_err(|_| format!("run '{label}': field '{key}' is not a number: {raw}"))
    }
    const COUNT_KEYS: [&str; 3] = ["analysis_errors", "analysis_warnings", "analysis_infos"];
    const REQUIRED: [&str; 3] = ["wall_ms", "events_per_sec", "trace_digest"];

    let mut runs: Vec<ArtifactRun> = Vec::new();
    // Per run: the finding counts seen (a run carries counts only if
    // all three are present) and which required fields appeared.
    let mut seen: Vec<([Option<u64>; 3], [bool; 3])> = Vec::new();
    // The enclosing sweep's `workers`, which precedes its runs.
    let mut workers: Option<usize> = None;
    for line in json_text.lines() {
        let Some((key, raw)) = line
            .trim_start()
            .strip_prefix('"')
            .and_then(|l| l.split_once("\": "))
        else {
            continue;
        };
        let raw = raw.trim_end_matches(',');
        let text = || raw.trim_matches('"').to_owned();
        if key == "workers" {
            let bad = |_| format!("sweep field 'workers' is not a number: {raw}");
            workers = Some(raw.parse().map_err(bad)?);
        } else if key == "label" {
            runs.push(ArtifactRun {
                label: text(),
                trace_digest: String::new(),
                events_per_sec: 0.0,
                wall_ms: 0.0,
                analysis_counts: None,
                scheduler: "rr".to_owned(),
                shards: None,
                engine_shards: 1,
                workers,
            });
            seen.push(Default::default());
        } else if let (Some(run), Some((counts, present))) = (runs.last_mut(), seen.last_mut()) {
            if let Some(i) = REQUIRED.iter().position(|&k| k == key) {
                present[i] = true;
            }
            match key {
                "trace_digest" => run.trace_digest = text(),
                "events_per_sec" => run.events_per_sec = number(&run.label, key, raw)?,
                "wall_ms" => run.wall_ms = number(&run.label, key, raw)?,
                "scheduler" => run.scheduler = text(),
                "shards" => run.shards = Some(number(&run.label, key, raw)?),
                "engine_shards" => run.engine_shards = number(&run.label, key, raw)?,
                _ => {
                    if let Some(i) = COUNT_KEYS.iter().position(|&k| k == key) {
                        counts[i] = Some(number(&run.label, key, raw)?);
                    }
                }
            }
        }
    }
    for (run, (counts, present)) in runs.iter_mut().zip(seen) {
        if let Some(i) = present.iter().position(|p| !p) {
            let (label, key) = (&run.label, REQUIRED[i]);
            return Err(format!("run '{label}': required field '{key}' is missing"));
        }
        if let [Some(e), Some(w), Some(i)] = counts {
            run.analysis_counts = Some((e, w, i));
        }
    }
    Ok(runs)
}

/// Compares two artifacts run by run: digests must match (same
/// simulated behaviour), then throughput is contrasted.
///
/// Both artifacts must carry the current [`SCHEMA_VERSION`] — fields
/// changed meaning across schemas, so cross-schema comparison is
/// refused outright rather than producing silently wrong deltas.
///
/// # Errors
///
/// One message per problem: schema mismatch, a malformed or missing
/// field, run present in only one artifact, a run recorded under a
/// different scheduler or layout (`workers`, `shards`,
/// `engine_shards`), or digest divergence.
pub fn compare_artifacts(baseline: &str, candidate: &str) -> Result<String, Vec<String>> {
    let mut errors = Vec::new();
    if let Err(e) = check_artifact_schema(baseline, "baseline") {
        errors.push(e);
    }
    if let Err(e) = check_artifact_schema(candidate, "candidate") {
        errors.push(e);
    }
    if !errors.is_empty() {
        return Err(errors);
    }

    let (base_runs, cand_runs) = match (
        parse_artifact_runs(baseline),
        parse_artifact_runs(candidate),
    ) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            let errors = [("baseline", b.err()), ("candidate", c.err())]
                .into_iter()
                .filter_map(|(what, e)| Some(format!("{what}: {}", e?)))
                .collect();
            return Err(errors);
        }
    };
    let mut rows = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        rows,
        "{:<14} {:>14} {:>14} {:>8}",
        "run", "base ev/s", "cand ev/s", "speedup"
    );
    // Aggregates over the digest-matched pairs: total throughput is
    // events over wall time on each side (events reconstructed as
    // ev/s × wall), the summary speedup is the geometric mean of the
    // per-run ratios so no single long run dominates.
    let mut log_speedup_sum = 0.0f64;
    let mut matched = 0u32;
    // Analysis drift is advisory, not an error: the digests already
    // prove the simulated behaviour matched, so a changed finding count
    // means the *analyzer* changed between artifacts (a proof appeared,
    // a lint was added) — worth a line, not a refusal.
    let mut analysis_drift: Vec<String> = Vec::new();
    let (mut base_events, mut base_wall_ms) = (0.0f64, 0.0f64);
    let (mut cand_events, mut cand_wall_ms) = (0.0f64, 0.0f64);
    for b in &base_runs {
        let Some(c) = cand_runs.iter().find(|c| c.label == b.label) else {
            errors.push(format!("run '{}' is missing from the candidate", b.label));
            continue;
        };
        if b.scheduler != c.scheduler {
            // Like cross-schema comparisons: different scheduling
            // policies simulate different behaviour by construction, so
            // a throughput delta between them is meaningless.
            errors.push(format!(
                "run '{}' executed under scheduler '{}' but the baseline ran '{}' — \
                 cross-scheduler comparison is meaningless; re-run both sides under \
                 the same --scheduler",
                b.label, c.scheduler, b.scheduler
            ));
            continue;
        }
        let layout_mismatch: Vec<String> = b
            .layout()
            .into_iter()
            .zip(c.layout())
            .filter(|(bl, cl)| bl != cl)
            .map(|((key, bv), (_, cv))| {
                format!(
                    "run '{}' executed with {key} {cv} but the baseline ran with {bv} — \
                     cross-layout comparison is meaningless; re-run both sides with the \
                     same --{}",
                    b.label,
                    key.replace('_', "-")
                )
            })
            .collect();
        if !layout_mismatch.is_empty() {
            // Wall-clock numbers depend on the run layout, so a delta
            // across layouts measures the layout, not the code.
            errors.extend(layout_mismatch);
            continue;
        }
        if b.trace_digest != c.trace_digest {
            errors.push(format!(
                "run '{}' digest {} != baseline {} — different simulated behaviour, \
                 throughput comparison is invalid",
                b.label, c.trace_digest, b.trace_digest
            ));
            continue;
        }
        // Counts an artifact does not carry are unknown, not zero:
        // drift is reported only when both sides recorded them.
        if let (Some(bc), Some(cc)) = (b.analysis_counts, c.analysis_counts) {
            if bc != cc {
                let fmt =
                    |(e, w, i): (u64, u64, u64)| format!("{e} error(s)/{w} warning(s)/{i} info");
                analysis_drift.push(format!(
                    "run '{}': analysis findings drifted, {} -> {}",
                    b.label,
                    fmt(bc),
                    fmt(cc)
                ));
            }
        }
        let speedup = if b.events_per_sec > 0.0 {
            c.events_per_sec / b.events_per_sec
        } else {
            0.0
        };
        if speedup > 0.0 {
            log_speedup_sum += speedup.ln();
            matched += 1;
        }
        base_events += b.events_per_sec * (b.wall_ms / 1e3);
        base_wall_ms += b.wall_ms;
        cand_events += c.events_per_sec * (c.wall_ms / 1e3);
        cand_wall_ms += c.wall_ms;
        let _ = writeln!(
            rows,
            "{:<14} {:>14.0} {:>14.0} {:>7.2}x",
            b.label, b.events_per_sec, c.events_per_sec, speedup
        );
    }
    if matched > 0 {
        let geo_mean = (log_speedup_sum / f64::from(matched)).exp();
        let total = |events: f64, wall_ms: f64| {
            if wall_ms > 0.0 {
                events / (wall_ms / 1e3)
            } else {
                0.0
            }
        };
        let _ = writeln!(
            rows,
            "{:<14} {:>14.0} {:>14.0} {:>7.2}x  (geometric mean; totals are events/s)",
            "aggregate",
            total(base_events, base_wall_ms),
            total(cand_events, cand_wall_ms),
            geo_mean
        );
    }
    for c in &cand_runs {
        if !base_runs.iter().any(|b| b.label == c.label) {
            errors.push(format!("run '{}' is missing from the baseline", c.label));
        }
    }
    if !analysis_drift.is_empty() {
        rows.push('\n');
        for note in &analysis_drift {
            let _ = writeln!(rows, "note: {note}");
        }
    }
    if errors.is_empty() {
        Ok(rows)
    } else {
        Err(errors)
    }
}

/// The digest of a run: every merged trace event plus the outcome.
/// Wall-clock time and host-side derived floats are deliberately
/// excluded — the digest must depend only on simulated behaviour.
///
/// Public so differential tests can digest traces produced outside the
/// harness (e.g. straight from `pipeline::run_workload`) and compare
/// them against committed goldens.
pub fn trace_digest(trace: &Trace, end_ns: u64, reason: RunEnd, events: u64) -> String {
    let mut h = Fnv64::new();
    for e in trace.events() {
        h.write_u64(e.ts_ns);
        h.write_u64(e.channel as u64);
        h.write_u64(u64::from(e.token.value()));
        h.write_u64(u64::from(e.param.value()));
    }
    h.write_u64(end_ns);
    h.write_u64(reason as u64);
    h.write_u64(events);
    format!("{:016x}", h.finish())
}

/// Executes one spec on the calling thread and derives its record.
/// The workload folds its own metrics (work units, utilization) inside
/// the job — the harness records them without knowing the workload.
pub fn execute(spec: &RunSpec) -> RunRecord {
    let started = Instant::now();
    let run = spec.job.run();
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    let analysis_ms = run.analysis.as_secs_f64() * 1e3;
    // Engine time: the pre-flight analyzer runs once per configuration
    // regardless of scene scale, so folding it into throughput would
    // punish short runs and mask engine regressions.
    let wall_ms = (total_ms - analysis_ms).max(0.0);

    RunRecord {
        label: spec.label.clone(),
        workload: spec.job.workload_id().to_owned(),
        fingerprint: spec.job.fingerprint(),
        seed: spec.job.seed(),
        run_end: run.outcome.reason,
        truncated: run.outcome.truncated(),
        sim_end_ns: run.outcome.end.as_nanos(),
        wall_ms,
        analysis_ms,
        analysis_errors: run.preflight.as_ref().map_or(0, |p| p.errors as u64),
        analysis_warnings: run.preflight.as_ref().map_or(0, |p| p.warnings as u64),
        analysis_infos: run.preflight.as_ref().map_or(0, |p| p.infos as u64),
        events_processed: run.outcome.events,
        events_per_sec: if wall_ms > 0.0 {
            run.outcome.events as f64 / (wall_ms / 1e3)
        } else {
            0.0
        },
        shards: run.shards,
        engine_shards: run.engine_shards,
        scheduler: run.scheduler.name(),
        trace_events: run.trace.len(),
        trace_digest: trace_digest(
            &run.trace,
            run.outcome.end.as_nanos(),
            run.outcome.reason,
            run.outcome.events,
        ),
        work_units: run.metrics.work_units,
        utilization_percent: run.metrics.utilization_percent,
        steady_percent: run.metrics.steady_percent,
        paper_percent: spec.paper_percent,
        intrusion_ratio: run.intrusion_ratio,
        version: spec.version,
    }
}

/// A sensible worker count for this host: the available parallelism,
/// floor 1.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs every spec of `sweep` across `workers` OS threads and collects
/// the records in spec order.
///
/// Each simulation is single-threaded and seed-deterministic; the pool
/// only decides *which thread* hosts a run, never its event order, so
/// the records (and in particular their trace digests) are bit-identical
/// for any `workers >= 1`.
///
/// # Panics
///
/// Panics if `workers` is zero, or if a worker thread panics (a
/// simulation protocol violation — see `raysim::diag`).
pub fn run_sweep(sweep: &Sweep, workers: usize) -> SweepReport {
    assert!(workers > 0, "sweep needs at least one worker thread");
    let workers = workers.min(sweep.runs.len()).max(1);

    let jobs: Mutex<VecDeque<(usize, &RunSpec)>> =
        Mutex::new(sweep.runs.iter().enumerate().collect());
    let results: Mutex<Vec<Option<RunRecord>>> = Mutex::new(vec![None; sweep.runs.len()]);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = jobs.lock().expect("job queue poisoned").pop_front();
                let Some((idx, spec)) = job else { break };
                let record = execute(spec);
                results.lock().expect("result store poisoned")[idx] = Some(record);
            });
        }
    });

    let records = results
        .into_inner()
        .expect("result store poisoned")
        .into_iter()
        .map(|r| r.expect("every job executed"))
        .collect();

    SweepReport {
        sweep: sweep.name.clone(),
        workers,
        records,
    }
}

impl SweepReport {
    /// The records of runs that did not complete.
    pub fn truncated_runs(&self) -> Vec<&RunRecord> {
        self.records.iter().filter(|r| r.truncated).collect()
    }

    /// Process exit code for a CLI wrapping this report: `0` when every
    /// run completed, `2` when any run was truncated.
    pub fn exit_code(&self) -> i32 {
        if self.truncated_runs().is_empty() {
            0
        } else {
            2
        }
    }

    /// Total kernel events processed across all runs.
    pub fn total_events(&self) -> u64 {
        self.records.iter().map(|r| r.events_processed).sum()
    }

    /// Total wall-clock milliseconds across all runs (summed over runs,
    /// so it is worker-count independent — unlike the sweep's elapsed
    /// time).
    pub fn total_wall_ms(&self) -> f64 {
        self.records.iter().map(|r| r.wall_ms).sum()
    }

    /// Aggregate event-loop throughput of the whole sweep: total events
    /// over total per-run wall time. `None` when nothing was measured.
    pub fn aggregate_events_per_sec(&self) -> Option<f64> {
        let wall = self.total_wall_ms();
        (wall > 0.0).then(|| self.total_events() as f64 / (wall / 1e3))
    }

    /// Renders this report as a JSON object at the given indentation
    /// depth (the building block for both the sweep artifact and the
    /// bench baseline).
    fn json_at(&self, indent: usize) -> String {
        let runs: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                let mut o = json::JsonObject::new();
                o.str("label", &r.label)
                    .str("workload", &r.workload)
                    .str("fingerprint", &r.fingerprint)
                    .u64("seed", r.seed)
                    .str("run_end", &r.run_end.to_string())
                    .bool("truncated", r.truncated)
                    .u64("sim_end_ns", r.sim_end_ns)
                    .f64("wall_ms", r.wall_ms)
                    .f64("analysis_ms", r.analysis_ms)
                    .u64("analysis_errors", r.analysis_errors)
                    .u64("analysis_warnings", r.analysis_warnings)
                    .u64("analysis_infos", r.analysis_infos)
                    .u64("events_processed", r.events_processed)
                    .f64("events_per_sec", r.events_per_sec)
                    .u64("shards", r.shards as u64)
                    .u64("engine_shards", r.engine_shards as u64)
                    .str("scheduler", &r.scheduler)
                    .u64("trace_events", r.trace_events as u64)
                    .str("trace_digest", &r.trace_digest)
                    .u64("work_units", r.work_units)
                    .opt_f64("utilization_percent", r.utilization_percent)
                    .opt_f64("steady_percent", r.steady_percent)
                    .opt_f64("paper_percent", r.paper_percent)
                    .f64("intrusion_ratio", r.intrusion_ratio);
                match r.version {
                    Some(v) => o.u64("version", v as u64 + 1),
                    None => o.raw("version", "null"),
                };
                o.render(indent + 2)
            })
            .collect();

        // Schema 4: run objects gained "shards" and "analysis_ms", and
        // "wall_ms"/"events_per_sec" became engine-only (pre-flight
        // analysis time excluded). "engine_shards" and the
        // "analysis_errors"/"analysis_warnings"/"analysis_infos"
        // per-severity finding counts are additive schema-4 fields
        // (absent reads as 1 / 0 / 0 / 0). Schema 3: run objects gained
        // "workload" and renamed "jobs_sent" to the workload-agnostic
        // "work_units".
        let mut root = json::JsonObject::new();
        root.u64("schema_version", SCHEMA_VERSION)
            .str("sweep", &self.sweep)
            .u64("workers", self.workers as u64)
            .bool("all_completed", self.truncated_runs().is_empty())
            .u64("total_events", self.total_events())
            .f64("total_wall_ms", self.total_wall_ms())
            .opt_f64("aggregate_events_per_sec", self.aggregate_events_per_sec())
            .raw("runs", json::array(&runs, indent + 1));
        root.render(indent)
    }

    /// Renders the whole report as a JSON artifact.
    pub fn to_json(&self) -> String {
        let mut out = self.json_at(0);
        out.push('\n');
        out
    }

    /// Renders the summary table shown after a sweep.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "sweep '{}' — {} runs on {} worker(s)",
            self.sweep,
            self.records.len(),
            self.workers
        );
        let _ = writeln!(
            out,
            "{:<14} {:>9} {:>9} {:>12} {:>10} {:>8} {:>7} {:>7} {:>7}  {:<16}",
            "run",
            "workload",
            "end",
            "sim end",
            "events",
            "work",
            "util%",
            "steady%",
            "paper%",
            "digest"
        );
        for r in &self.records {
            let fmt_pct = |v: Option<f64>| v.map_or_else(|| "-".to_owned(), |p| format!("{p:.1}"));
            let _ = writeln!(
                out,
                "{:<14} {:>9} {:>9} {:>11.3}s {:>10} {:>8} {:>7} {:>7} {:>7}  {:<16}",
                r.label,
                r.workload,
                r.run_end.to_string(),
                r.sim_end_ns as f64 / 1e9,
                r.events_processed,
                r.work_units,
                fmt_pct(r.utilization_percent),
                fmt_pct(r.steady_percent),
                fmt_pct(r.paper_percent),
                r.trace_digest,
            );
        }
        if let Some(throughput) = self.aggregate_events_per_sec() {
            let _ = writeln!(
                out,
                "aggregate: {} events in {:.3}s wall — {:.0} events/s",
                self.total_events(),
                self.total_wall_ms() / 1e3,
                throughput
            );
        }
        for r in self.truncated_runs() {
            let _ = writeln!(
                out,
                "TRUNCATED: '{}' ended by {} at {:.3}s — statistics above describe an \
                 interrupted run",
                r.label,
                r.run_end,
                r.sim_end_ns as f64 / 1e9
            );
        }
        out
    }

    /// One `label<space>digest` line per run — the golden-file format
    /// used by the CI determinism check.
    pub fn digest_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.label);
            out.push(' ');
            out.push_str(&r.trace_digest);
            out.push('\n');
        }
        out
    }

    /// Compares this report's digests against golden `label digest`
    /// lines (as produced by [`SweepReport::digest_lines`]).
    ///
    /// # Errors
    ///
    /// Returns one message per mismatching, missing, or extra line.
    pub fn check_digests(&self, golden: &str) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        let golden_lines: Vec<(&str, &str)> = golden
            .lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| l.split_once(' '))
            .collect();
        for r in &self.records {
            match golden_lines.iter().find(|(label, _)| *label == r.label) {
                None => errors.push(format!("run '{}' has no golden digest", r.label)),
                Some((_, expected)) if *expected != r.trace_digest => errors.push(format!(
                    "run '{}' digest {} != golden {expected} — nondeterminism or an \
                     unacknowledged behaviour change",
                    r.label, r.trace_digest
                )),
                Some(_) => {}
            }
        }
        for (label, _) in &golden_lines {
            if !self.records.iter().any(|r| r.label == *label) {
                errors.push(format!("golden digest '{label}' has no matching run"));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Writes the JSON artifact to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_artifact(&self, path: &Path) -> std::io::Result<PathBuf> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())?;
        Ok(path.to_path_buf())
    }
}

/// A benchmark baseline: several sweeps measured together, written as
/// one `BENCH_<date>.json` artifact so event-loop throughput can be
/// compared across commits.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// UTC date of the measurement (`YYYY-MM-DD`), also the artifact
    /// stem.
    pub date: String,
    /// One report per benched sweep, in execution order.
    pub reports: Vec<SweepReport>,
}

impl BenchReport {
    /// All records across all benched sweeps.
    pub fn records(&self) -> impl Iterator<Item = &RunRecord> {
        self.reports.iter().flat_map(|r| r.records.iter())
    }

    /// Process exit code: `0` all runs completed, `2` any truncated.
    pub fn exit_code(&self) -> i32 {
        self.reports
            .iter()
            .map(SweepReport::exit_code)
            .max()
            .unwrap_or(0)
    }

    /// Checks every benched run's digest against golden `label digest`
    /// lines (all sweeps pooled — labels are unique across sweeps).
    ///
    /// # Errors
    ///
    /// Returns one message per mismatching, missing, or extra line.
    pub fn check_digests(&self, golden: &str) -> Result<(), Vec<String>> {
        let pooled = SweepReport {
            sweep: "bench".to_owned(),
            workers: 0,
            records: self.records().cloned().collect(),
        };
        pooled.check_digests(golden)
    }

    /// Renders the baseline as a JSON artifact: per-sweep reports (same
    /// schema as sweep artifacts) plus the date.
    pub fn to_json(&self) -> String {
        let sweeps: Vec<String> = self.reports.iter().map(|r| r.json_at(1)).collect();
        let mut root = json::JsonObject::new();
        root.u64("schema_version", SCHEMA_VERSION)
            .str("kind", "bench")
            .str("date", &self.date)
            .raw("sweeps", json::array(&sweeps, 1));
        let mut out = root.render(0);
        out.push('\n');
        out
    }

    /// Writes the JSON artifact to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_artifact(&self, path: &Path) -> std::io::Result<PathBuf> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())?;
        Ok(path.to_path_buf())
    }
}

/// Today's UTC date as `YYYY-MM-DD`, derived from the system clock (no
/// external dependencies — civil-from-days per Howard Hinnant's
/// algorithm).
pub fn utc_date_string() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Converts days since 1970-01-01 to a (year, month, day) civil date.
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::time::SimTime;
    use pipeline::jacobi::JacobiConfig;
    use pipeline::PipelineConfig;
    use raysim::config::{AppConfig, SceneKind};

    fn tiny_spec(label: &str, seed: u64, horizon_ms: u64) -> RunSpec {
        let mut app = AppConfig::version(Version::V4);
        app.servants = 2;
        app.scene = SceneKind::Quickstart;
        app.width = 8;
        app.height = 8;
        app.bundle_size = 8;
        app.pixel_queue_capacity = 64;
        app.write_chunk = 8;
        let mut cfg = PipelineConfig::new(app.clone());
        cfg.seed = seed;
        cfg.horizon = SimTime::from_millis(horizon_ms);
        RunSpec {
            label: label.to_owned(),
            job: Job::new(cfg),
            version: Some(Version::V4),
            app: Some(app),
            paper_percent: None,
            faults: None,
        }
    }

    #[test]
    fn completed_run_yields_full_record() {
        let rec = execute(&tiny_spec("ok", 7, 600_000));
        assert_eq!(rec.workload, "raytracer");
        assert_eq!(rec.run_end, RunEnd::Completed);
        assert!(!rec.truncated);
        assert!(rec.events_processed > 0);
        assert!(rec.trace_events > 0);
        assert!(rec.work_units > 0);
        assert!(rec.utilization_percent.is_some());
        assert_eq!(rec.trace_digest.len(), 16);
    }

    #[test]
    fn one_sweep_mixes_workloads() {
        // The whole point of the type-erased job queue: ray-tracer and
        // Jacobi specs side by side in one sweep, each folding its own
        // metrics.
        let mut jacobi = PipelineConfig::new(JacobiConfig {
            workers: 2,
            cells_per_worker: 8,
            iterations: 5,
            ..JacobiConfig::default()
        });
        jacobi.seed = 7;
        let sweep = Sweep {
            name: "mixed".into(),
            runs: vec![
                tiny_spec("rays", 7, 600_000),
                RunSpec {
                    label: "strips".into(),
                    job: Job::new(jacobi),
                    version: None,
                    app: None,
                    paper_percent: None,
                    faults: None,
                },
            ],
        };
        let report = run_sweep(&sweep, 2);
        assert_eq!(report.exit_code(), 0);
        assert_eq!(report.records[0].workload, "raytracer");
        assert_eq!(report.records[1].workload, "jacobi");
        assert!(report.records.iter().all(|r| r.work_units > 0));
        let json = report.to_json();
        assert!(json.contains("\"workload\": \"jacobi\""));
        assert!(json.contains("\"work_units\""));
    }

    #[test]
    fn truncated_run_is_marked_and_poisons_exit_code() {
        // A 1 ms horizon cannot even finish initialization.
        let sweep = Sweep {
            name: "trunc".into(),
            runs: vec![tiny_spec("cut", 7, 1)],
        };
        let report = run_sweep(&sweep, 1);
        let rec = &report.records[0];
        assert!(rec.truncated);
        assert_eq!(rec.run_end, RunEnd::Horizon);
        assert_eq!(rec.utilization_percent, None);
        assert_eq!(report.exit_code(), 2);
        assert!(report.to_json().contains("\"truncated\": true"));
        assert!(report.render_table().contains("TRUNCATED"));
    }

    #[test]
    fn worker_count_does_not_change_digests() {
        let sweep = Sweep {
            name: "det".into(),
            runs: (0..4)
                .map(|i| tiny_spec(&format!("s{i}"), 100 + i, 600_000))
                .collect(),
        };
        let serial = run_sweep(&sweep, 1);
        let parallel = run_sweep(&sweep, 4);
        let digests = |r: &SweepReport| {
            r.records
                .iter()
                .map(|x| x.trace_digest.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(digests(&serial), digests(&parallel));
        assert!(serial.check_digests(&parallel.digest_lines()).is_ok());
    }

    #[test]
    fn digest_check_reports_mismatches() {
        let report = run_sweep(
            &Sweep {
                name: "g".into(),
                runs: vec![tiny_spec("a", 1, 600_000)],
            },
            1,
        );
        let errs = report
            .check_digests("a 0000000000000000\nghost 1111111111111111\n")
            .unwrap_err();
        assert_eq!(errs.len(), 2);
        assert!(errs[0].contains("digest"));
        assert!(errs[1].contains("ghost"));
    }

    #[test]
    fn record_separates_engine_and_analysis_time() {
        let rec = execute(&tiny_spec("t", 7, 600_000));
        assert_eq!(rec.shards, 1);
        assert!(rec.analysis_ms >= 0.0);
        assert!(rec.wall_ms >= 0.0);
        assert!(rec.events_per_sec > 0.0);
        let report = run_sweep(
            &Sweep {
                name: "t".into(),
                runs: vec![tiny_spec("t", 7, 600_000)],
            },
            1,
        );
        let json = report.to_json();
        assert!(json.contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
        assert!(json.contains("\"analysis_ms\""));
        assert!(json.contains("\"shards\": 1"));
        assert!(json.contains("\"engine_shards\": 1"));
    }

    #[test]
    fn artifact_roundtrip_and_self_compare() {
        let report = run_sweep(
            &Sweep {
                name: "rt".into(),
                runs: vec![tiny_spec("a", 1, 600_000), tiny_spec("b", 2, 600_000)],
            },
            1,
        );
        let json = report.to_json();
        let runs = parse_artifact_runs(&json).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].label, "a");
        assert_eq!(runs[0].trace_digest, report.records[0].trace_digest);
        assert!(runs[0].events_per_sec > 0.0);
        let table = compare_artifacts(&json, &json).unwrap();
        assert!(table.contains("1.00x"), "{table}");
    }

    #[test]
    fn compare_aggregate_row_summarizes_matched_runs() {
        // Hand-written schema-4 fixtures with round numbers so the
        // aggregate arithmetic is checkable by eye: both sides carry
        // 2 000 events per run (ev/s × wall agrees), run 'a' speeds up
        // 2×, run 'b' not at all.
        let artifact = |a_evs: f64, a_wall: f64, b_evs: f64, b_wall: f64| {
            format!(
                "{{\n\"schema_version\": {SCHEMA_VERSION},\n\
                 \"label\": \"a\",\n\
                 \"trace_digest\": \"aaaaaaaaaaaaaaaa\",\n\
                 \"events_per_sec\": {a_evs},\n\
                 \"wall_ms\": {a_wall},\n\
                 \"label\": \"b\",\n\
                 \"trace_digest\": \"bbbbbbbbbbbbbbbb\",\n\
                 \"events_per_sec\": {b_evs},\n\
                 \"wall_ms\": {b_wall}\n}}\n"
            )
        };
        let baseline = artifact(1000.0, 2000.0, 4000.0, 500.0);
        let candidate = artifact(2000.0, 1000.0, 4000.0, 500.0);
        let table = compare_artifacts(&baseline, &candidate).unwrap();
        let aggregate = table
            .lines()
            .find(|l| l.starts_with("aggregate"))
            .expect("aggregate row");
        // Totals: 4 000 events over 2.5 s vs over 1.5 s; the summary
        // speedup is the geometric mean √(2.0 × 1.0) ≈ 1.41, not the
        // arithmetic mean 1.5.
        assert!(aggregate.contains("1600"), "{aggregate}");
        assert!(aggregate.contains("2667"), "{aggregate}");
        assert!(aggregate.contains("1.41x"), "{aggregate}");
        assert!(aggregate.contains("geometric mean"), "{aggregate}");
    }

    #[test]
    fn summary_table_shows_the_paper_column() {
        let mut ladder = tiny_spec("paper", 1, 600_000);
        ladder.paper_percent = Some(15.0);
        let sweep = Sweep {
            name: "tbl".into(),
            runs: vec![ladder, tiny_spec("none", 2, 600_000)],
        };
        let table = run_sweep(&sweep, 1).render_table();
        // Columns: run workload end sim-end events work util% steady% paper% digest.
        let column = |row: usize| table.lines().nth(row).unwrap().split_whitespace().nth(8);
        assert!(table.lines().nth(1).unwrap().contains("paper%"), "{table}");
        assert_eq!(column(2), Some("15.0"), "{table}");
        assert_eq!(column(3), Some("-"), "{table}");
    }

    #[test]
    fn absent_analysis_counts_read_as_unknown_not_zero() {
        let sweep = Sweep {
            name: "cnt".into(),
            runs: vec![tiny_spec("a", 1, 600_000)],
        };
        let current = run_sweep(&sweep, 1).to_json();
        // An artifact written before the finding counts existed.
        let legacy: String = current
            .lines()
            .filter(|l| {
                !["errors", "warnings", "infos"]
                    .iter()
                    .any(|k| l.contains(&format!("\"analysis_{k}\"")))
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(
            parse_artifact_runs(&legacy).unwrap()[0].analysis_counts,
            None
        );
        let table = compare_artifacts(&legacy, &current).unwrap();
        assert!(!table.contains("drifted"), "{table}");
        // Counts present on both sides still report real drift.
        let drifted = current.replace("\"analysis_infos\": 0", "\"analysis_infos\": 3");
        let table = compare_artifacts(&current, &drifted).unwrap();
        assert!(table.contains("drifted"), "{table}");
    }

    #[test]
    fn malformed_numbers_fail_loudly_with_label_and_field() {
        let sweep = Sweep {
            name: "bad".into(),
            runs: vec![tiny_spec("a", 1, 600_000)],
        };
        let current = run_sweep(&sweep, 1).to_json();
        let wall = current
            .lines()
            .find(|l| l.trim_start().starts_with("\"wall_ms\": "))
            .unwrap();
        let corrupted = current.replacen(wall, "      \"wall_ms\": 12.x5,", 1);
        let err = parse_artifact_runs(&corrupted).unwrap_err();
        assert!(err.contains("run 'a'") && err.contains("wall_ms"), "{err}");
        let errs = compare_artifacts(&current, &corrupted).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].starts_with("candidate: run 'a'"), "{errs:?}");
    }

    #[test]
    fn missing_required_fields_fail_loudly() {
        let sweep = Sweep {
            name: "gap".into(),
            runs: vec![tiny_spec("a", 1, 600_000)],
        };
        let current = run_sweep(&sweep, 1).to_json();
        let gappy: String = current
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"wall_ms\": "))
            .collect::<Vec<_>>()
            .join("\n");
        let err = parse_artifact_runs(&gappy).unwrap_err();
        assert!(
            err.contains("run 'a'") && err.contains("'wall_ms' is missing"),
            "{err}"
        );
        let errs = compare_artifacts(&current, &gappy).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].starts_with("candidate: run 'a'"), "{errs:?}");
    }

    #[test]
    fn committed_bench_baselines_parse_or_are_refused_by_schema() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            seen += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            if check_artifact_schema(&text, &name).is_ok() {
                let runs = parse_artifact_runs(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(!runs.is_empty(), "{name}");
                assert!(runs.iter().all(|r| r.workers.is_some()), "{name}");
            }
        }
        assert!(
            seen > 0,
            "no committed BENCH_*.json under {}",
            dir.display()
        );
    }

    #[test]
    fn mismatched_run_layouts_are_refused() {
        let sweep = Sweep {
            name: "lay".into(),
            runs: vec![tiny_spec("a", 1, 600_000)],
        };
        let baseline = run_sweep(&sweep, 1).to_json();
        assert!(baseline.contains("\"shards\": 1"));
        // Differ only in the monitor-shard count: refused, naming the
        // run and both values.
        let sharded = baseline.replace("\"shards\": 1", "\"shards\": 2");
        let errs = compare_artifacts(&baseline, &sharded).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(
            errs[0].contains("run 'a'")
                && errs[0].contains("shards 2")
                && errs[0].contains("ran with 1"),
            "{errs:?}"
        );
        let threaded = baseline.replace("\"engine_shards\": 1", "\"engine_shards\": 2");
        let errs = compare_artifacts(&baseline, &threaded).unwrap_err();
        assert!(errs[0].contains("engine_shards 2"), "{errs:?}");
        let wider = baseline.replace("\"workers\": 1", "\"workers\": 2");
        let errs = compare_artifacts(&wider, &baseline).unwrap_err();
        assert!(
            errs[0].contains("workers 1") && errs[0].contains("ran with 2"),
            "{errs:?}"
        );
        // An artifact without engine_shards ran with 1 and stays
        // comparable.
        let legacy: String = baseline
            .lines()
            .filter(|l| !l.contains("\"engine_shards\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(parse_artifact_runs(&legacy).unwrap()[0].engine_shards, 1);
        assert!(compare_artifacts(&legacy, &baseline).is_ok());
        assert!(compare_artifacts(&legacy, &threaded).is_err());
    }

    #[test]
    fn cross_schema_compare_is_refused() {
        let report = run_sweep(
            &Sweep {
                name: "old".into(),
                runs: vec![tiny_spec("a", 1, 600_000)],
            },
            1,
        );
        let current = report.to_json();
        assert_eq!(artifact_schema_version(&current).unwrap(), SCHEMA_VERSION);
        let stale = current.replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 3",
        );
        let errs = compare_artifacts(&stale, &current).unwrap_err();
        assert!(errs[0].contains("schema_version 3"), "{errs:?}");
        assert!(errs[0].contains("regenerate"), "{errs:?}");
        let errs = check_artifact_schema("{}", "thing").unwrap_err();
        assert!(errs.contains("no schema_version"), "{errs}");
    }

    #[test]
    fn compare_catches_digest_divergence_and_missing_runs() {
        let a = run_sweep(
            &Sweep {
                name: "x".into(),
                runs: vec![tiny_spec("a", 1, 600_000), tiny_spec("b", 2, 600_000)],
            },
            1,
        );
        let b = run_sweep(
            &Sweep {
                name: "x".into(),
                // A 1 ms horizon truncates 'a' → different digest;
                // 'b' absent, 'c' extra.
                runs: vec![tiny_spec("a", 1, 1), tiny_spec("c", 3, 600_000)],
            },
            1,
        );
        let errs = compare_artifacts(&a.to_json(), &b.to_json()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("digest")), "{errs:?}");
        assert!(
            errs.iter().any(|e| e.contains("'b' is missing")),
            "{errs:?}"
        );
        assert!(
            errs.iter().any(|e| e.contains("'c' is missing")),
            "{errs:?}"
        );
    }

    #[test]
    fn cross_scheduler_compare_is_refused() {
        let mut spec = tiny_spec("a", 1, 600_000);
        let baseline = run_sweep(
            &Sweep {
                name: "sch".into(),
                runs: vec![spec.clone()],
            },
            1,
        );
        assert!(baseline.to_json().contains("\"scheduler\": \"rr\""));
        spec.job
            .override_scheduler(suprenum::SchedulerKind::Preemptive {
                quantum: des::time::SimDuration::from_millis(5),
            });
        let candidate = run_sweep(
            &Sweep {
                name: "sch".into(),
                runs: vec![spec],
            },
            1,
        );
        assert_eq!(candidate.records[0].scheduler, "preempt:5000");
        let errs = compare_artifacts(&baseline.to_json(), &candidate.to_json()).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("cross-scheduler")),
            "{errs:?}"
        );
        // Legacy artifacts (no scheduler field) read back as round-robin
        // and stay comparable against fresh rr artifacts.
        let legacy: String = baseline
            .to_json()
            .lines()
            .filter(|l| !l.contains("\"scheduler\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(parse_artifact_runs(&legacy).unwrap()[0].scheduler, "rr");
        assert!(compare_artifacts(&legacy, &baseline.to_json()).is_ok());
    }

    #[test]
    fn same_seed_same_fingerprint_and_digest() {
        let a = execute(&tiny_spec("x", 42, 600_000));
        let b = execute(&tiny_spec("x", 42, 600_000));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.trace_digest, b.trace_digest);
        let c = execute(&tiny_spec("x", 43, 600_000));
        assert_ne!(a.fingerprint, c.fingerprint);
    }
}
