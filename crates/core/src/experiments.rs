//! One-call reproductions of every evaluation artifact in the paper.
//!
//! Each function runs the full pipeline — instrumented application on
//! the simulated SUPRENUM, probed by the simulated ZM4, evaluated
//! SIMPLE-style — and returns a structured result plus, where the paper
//! shows one, a rendered Gantt chart.
//!
//! Functions take a [`Scale`]: [`Scale::Paper`] uses the calibrated
//! image sizes the reported numbers were produced with; [`Scale::Quick`]
//! shrinks the workload for fast CI runs (the qualitative shape holds,
//! absolute percentages shift a little).

use des::time::{SimDuration, SimTime};
use hybridmon::MonitoringMode;
use pipeline::{run_workload, PipelineConfig, PipelineResult};
use raysim::analysis::{
    agent_tracks, master_track, servant_track, servant_utilization, servant_utilization_steady,
    work_phase,
};
use raysim::config::{AppConfig, SceneKind, Version};
use raysim::tokens;
use simple::{check_causality, state_durations, Gantt, GanttStyle, Trace};
use suprenum::{
    Action, Machine, MachineConfig, Message, NodeId, ProcCtx, Process, ProcessId, Resume, RunEnd,
};
use zm4::{ProbeSample, Zm4, Zm4Config};

pub use harness::sweeps::{self, Scale};
pub use harness::{default_workers, run_sweep, RunRecord, RunSpec, Sweep, SweepReport};

/// The experiments' run configuration: a ten-simulated-hour horizon and
/// the analyzer's pre-flight in warn mode — never deny: the paper's
/// measurements include configurations the analyzer rightly flags
/// (version 3's queue constant), and the bug must execute to be
/// measured.
fn experiment_cfg(app: AppConfig, seed: u64) -> PipelineConfig<AppConfig> {
    let mut cfg = PipelineConfig::new(app);
    cfg.seed = seed;
    cfg.horizon = SimTime::from_secs(36_000);
    cfg.preflight = analyzer::pipeline_warn();
    cfg
}

/// Runs `cfg` and panics unless it completed: statistics from an
/// interrupted run must never be mistaken for a measurement.
fn run_completed(cfg: PipelineConfig<AppConfig>) -> PipelineResult<AppConfig> {
    let result = run_workload(cfg);
    assert!(
        result.completed(),
        "experiment run did not complete: ended by {} at t={} after {} kernel events",
        result.outcome.reason,
        result.outcome.end,
        result.outcome.events
    );
    result
}

fn run_app(app: AppConfig, seed: u64) -> PipelineResult<AppConfig> {
    run_completed(experiment_cfg(app, seed))
}

/// A measured-vs-paper utilization pair.
#[derive(Debug, Clone)]
pub struct UtilizationResult {
    /// Program version measured.
    pub version: Version,
    /// Mean servant utilization over the whole ray-tracing phase, in
    /// percent.
    pub measured_percent: f64,
    /// Mean servant utilization over the steady (pipeline-full) phase.
    pub steady_percent: f64,
    /// The paper's value.
    pub paper_percent: f64,
    /// Jobs processed.
    pub jobs: u64,
    /// Wall (simulated) end time of the run.
    pub end: SimTime,
}

fn utilization_of(result: &PipelineResult<AppConfig>, app: &AppConfig) -> UtilizationResult {
    let servants = app.servants as u32;
    UtilizationResult {
        version: app.version,
        measured_percent: servant_utilization(&result.trace, servants).mean_percent(),
        steady_percent: servant_utilization_steady(&result.trace, servants).mean_percent(),
        paper_percent: app.version.paper_utilization_percent(),
        jobs: result.output.stats.jobs_sent,
        end: result.outcome.end,
    }
}

// ---------------------------------------------------------------------
// F7
// ---------------------------------------------------------------------

/// Result of the Figure 7 reproduction.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// ASCII Gantt chart of one steady-state window (master + servant).
    pub gantt_text: String,
    /// The same chart as SVG.
    pub gantt_svg: String,
    /// Servant utilization (the paper: "very good" on 2 processors).
    pub servant_utilization_percent: f64,
    /// Median gap between the master's Send Jobs→Wait transition and the
    /// servant's Work→Wait transition, in microseconds. Small values
    /// (communication latency, not work-scale) demonstrate the paper's
    /// finding that the two transitions are synchronized.
    pub median_coupling_gap_us: f64,
    /// Mean duration of the servant's Work activity, for comparison.
    pub mean_work_ms: f64,
    /// The merged trace.
    pub trace: Trace,
}

/// F7 — the behaviour of mailbox communication: version 1 on two
/// processors, Gantt chart of master and servant.
pub fn fig7_mailbox_gantt(seed: u64, scale: Scale) -> Fig7Result {
    let mut app = AppConfig::two_processor();
    app.width = scale.image(32, 12);
    app.height = app.width;
    let result = run_app(app.clone(), seed);
    let trace = &result.trace;
    let (from, to) = work_phase(trace).expect("run has a work phase");

    // A mid-run window of about eight master cycles, like the paper's
    // 80 ms excerpt.
    let mid = from + (to - from) / 2;
    let servant = servant_track(trace, 1, to);
    let mean_work_ns = state_durations(&servant, "Work").mean() * 1e9;
    let window = (mean_work_ns as u64 + 10_000_000) * 8;
    let (w0, w1) = (mid, (mid + window).min(to));
    let tracks = vec![master_track(trace, to), servant.clone()];
    let gantt = Gantt::new(tracks, w0, w1).with_style(GanttStyle {
        width: 100,
        ..GanttStyle::default()
    });

    // Coupling: the master leaves its blocked send (Send Jobs End) the
    // moment the servant relinquishes the CPU at the end of Work; the
    // servant's observable Work→Wait-for-Job transition follows after
    // its own (uninstrumented in V1) result send. For every *blocked*
    // send — duration on the scale of the servant's work — measure the
    // distance to the servant's next Work→Wait transition.
    let mut send_begin: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    let mut blocked_ends: Vec<u64> = Vec::new();
    let work_exits: Vec<u64> = trace
        .events()
        .iter()
        .filter(|e| e.channel == 1 && e.token.value() == tokens::WAIT_JOB_BEGIN)
        .map(|e| e.ts_ns)
        .collect();
    for e in trace.events() {
        match e.token.value() {
            t if t == tokens::SEND_JOBS_BEGIN => {
                send_begin.insert(e.param.value(), e.ts_ns);
            }
            t if t == tokens::SEND_JOBS_END => {
                if let Some(&b) = send_begin.get(&e.param.value()) {
                    if e.ts_ns - b > 5_000_000 {
                        blocked_ends.push(e.ts_ns);
                    }
                }
            }
            _ => {}
        }
    }
    let mut gaps: Vec<u64> = blocked_ends
        .iter()
        .filter_map(|&t| {
            let idx = work_exits.partition_point(|&w| w < t);
            work_exits.get(idx).map(|&w| w - t)
        })
        .collect();
    gaps.sort_unstable();
    let median_gap_ns = gaps.get(gaps.len() / 2).copied().unwrap_or(0);

    Fig7Result {
        gantt_text: gantt.render_text(),
        gantt_svg: gantt.render_svg(),
        servant_utilization_percent: servant_utilization(trace, 1).mean_percent(),
        median_coupling_gap_us: median_gap_ns as f64 / 1e3,
        mean_work_ms: mean_work_ns / 1e6,
        trace: result.trace,
    }
}

// ---------------------------------------------------------------------
// F8 / F10 / E1
// ---------------------------------------------------------------------

/// F8 — servant utilization under mailbox communication on 16
/// processors (paper: ≈15 %).
pub fn fig8_mailbox_utilization(seed: u64, scale: Scale) -> UtilizationResult {
    let mut app = AppConfig::version(Version::V1);
    app.width = scale.image(128, 32);
    app.height = app.width;
    let result = run_app(app.clone(), seed);
    utilization_of(&result, &app)
}

/// F10 — the whole version ladder (paper: 15 % / 29 % / 46 % / 60 %).
///
/// Runs through the sweep harness: the four versions execute across the
/// host's cores, and each record is checked for completion before its
/// statistics are surfaced.
///
/// # Panics
///
/// Panics if any run of the ladder is truncated — a truncated run's
/// utilization does not describe a complete execution.
pub fn fig10_versions(seed: u64, scale: Scale) -> Vec<UtilizationResult> {
    let sweep = sweeps::fig10(scale, seed);
    let report = run_sweep(&sweep, default_workers());
    report
        .records
        .iter()
        .map(|rec| {
            assert!(
                !rec.truncated,
                "experiment run '{}' did not complete: ended by {}",
                rec.label, rec.run_end
            );
            UtilizationResult {
                version: rec.version.expect("fig10 rows carry a version"),
                measured_percent: rec
                    .utilization_percent
                    .expect("a completed run has a work phase"),
                steady_percent: rec
                    .steady_percent
                    .expect("a completed run has a steady phase"),
                paper_percent: rec.paper_percent.expect("fig10 rows carry the paper value"),
                jobs: rec.work_units,
                end: SimTime::from_nanos(rec.sim_end_ns),
            }
        })
        .collect()
}

/// E1 — the complex scene (fractal pyramid, >250 primitives): servant
/// utilization reaches >99 % in the steady phase (paper: "over 99 %").
pub fn complex_scene(seed: u64, scale: Scale) -> UtilizationResult {
    let mut app = AppConfig::version(Version::V4);
    app.scene = SceneKind::FractalPyramid(3);
    app.width = scale.image(64, 32);
    app.height = app.width;
    app.bundle_size = match scale {
        Scale::Paper => 16,
        Scale::Quick => 4,
    };
    app.write_chunk = 32;
    let result = run_app(app.clone(), seed);
    utilization_of(&result, &app)
}

// ---------------------------------------------------------------------
// F9
// ---------------------------------------------------------------------

/// Result of the Figure 9 reproduction.
#[derive(Debug, Clone)]
pub struct Fig9Result {
    /// Servant utilization with one-directional agents (paper ≈29 %).
    pub utilization: UtilizationResult,
    /// Agents created in the master's pool (paper: 5).
    pub agent_pool_size: u32,
    /// Mean duration of the agents' "Freed" state — "extremely short" in
    /// the paper.
    pub mean_freed_us: f64,
    /// Mean duration of the agents' "Forward Message" state (dominated
    /// by the blocked mailbox send the agent absorbs for the master).
    pub mean_forward_ms: f64,
    /// ASCII Gantt of a steady window: master, one servant, one agent.
    pub gantt_text: String,
    /// SVG version of the chart.
    pub gantt_svg: String,
}

/// F9 — communication agents (version 2): utilization, pool size, and
/// the agent state cycle Wake Up → Forward → Freed → Sleep.
pub fn fig9_agents(seed: u64, scale: Scale) -> Fig9Result {
    let mut app = AppConfig::version(Version::V2);
    app.width = scale.image(128, 32);
    app.height = app.width;
    let result = run_app(app.clone(), seed);
    let trace = &result.trace;
    let (from, to) = work_phase(trace).expect("run has a work phase");

    let agents = agent_tracks(trace, to);
    assert!(!agents.is_empty(), "version 2 must create agents");
    let freed = agents.iter().map(|t| state_durations(t, "Freed")).fold(
        des::stats::Accumulator::new(),
        |mut acc, a| {
            acc.merge(&a);
            acc
        },
    );
    let forward = agents
        .iter()
        .map(|t| state_durations(t, "Forward Message"))
        .fold(des::stats::Accumulator::new(), |mut acc, a| {
            acc.merge(&a);
            acc
        });

    // A window like the paper's detailed view (bottom of Fig. 9).
    let mid = from + (to - from) / 2;
    let window = 400_000_000u64.min(to - mid);
    let tracks = vec![
        master_track(trace, to),
        servant_track(trace, 1, to),
        agents[0].clone(),
    ];
    let gantt = Gantt::new(tracks, mid, mid + window.max(1));

    Fig9Result {
        utilization: utilization_of(&result, &app),
        agent_pool_size: result.output.stats.master_pool_peak,
        mean_freed_us: freed.mean() * 1e6,
        mean_forward_ms: forward.mean() * 1e3,
        gantt_text: gantt.render_text(),
        gantt_svg: gantt.render_svg(),
    }
}

// ---------------------------------------------------------------------
// E2 — intrusion comparison
// ---------------------------------------------------------------------

/// One row of the intrusion comparison.
#[derive(Debug, Clone)]
pub struct IntrusionRow {
    /// Monitoring technique.
    pub mode: MonitoringMode,
    /// Instrumentation events emitted.
    pub events: u64,
    /// Mean CPU cost per event.
    pub mean_per_event: SimDuration,
    /// Fraction of CPU time stolen by instrumentation.
    pub intrusion_ratio: f64,
    /// Run end time — the observable perturbation of the measured
    /// program.
    pub end: SimTime,
}

/// E2 — §3.2: the same program monitored with each technique. Confirms
/// the paper's anchors: one `hybrid_mon` call costs less than a
/// twentieth of the terminal interface's 2.4 ms, and hybrid perturbation
/// is small.
pub fn intrusion_comparison(seed: u64) -> Vec<IntrusionRow> {
    MonitoringMode::ALL
        .iter()
        .map(|&mode| {
            let mut app = AppConfig::version(Version::V4);
            app.servants = 3;
            app.scene = SceneKind::Quickstart;
            app.width = 16;
            app.height = 16;
            app.bundle_size = 8;
            app.pixel_queue_capacity = 256;
            app.write_chunk = 16;
            let mut cfg = experiment_cfg(app, seed);
            cfg.machine.monitoring = mode;
            let result = run_completed(cfg);
            IntrusionRow {
                mode,
                events: result.intrusion.events,
                mean_per_event: result.intrusion.mean_per_event(),
                intrusion_ratio: result.intrusion.intrusion_ratio(),
                end: result.outcome.end,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// E3 — FIFO stress
// ---------------------------------------------------------------------

/// One row of the event-recorder stress test.
#[derive(Debug, Clone)]
pub struct FifoRow {
    /// Scenario label.
    pub label: &'static str,
    /// Event rate offered, events per second.
    pub rate_per_sec: u64,
    /// Events offered.
    pub offered: u64,
    /// Events recorded.
    pub recorded: u64,
    /// Events lost to FIFO overflow.
    pub lost: u64,
    /// Peak FIFO occupancy.
    pub max_fifo: usize,
}

/// E3 — §3.1: the event recorder sustains ~10 000 events/s to disk and
/// absorbs bursts up to the 32 K FIFO capacity; beyond that it loses
/// events.
pub fn fifo_stress() -> Vec<FifoRow> {
    use hybridmon::{encode::encode, MonEvent};
    let mut rows = Vec::new();
    for &(label, rate, count) in &[
        ("sustained below drain", 9_000u64, 30_000u64),
        ("sustained above drain", 50_000, 30_000),
        ("burst within FIFO", 250_000, 30_000),
        ("burst beyond FIFO", 250_000, 60_000),
    ] {
        let period_ns = 1_000_000_000 / rate;
        let spacing = (period_ns / 40).max(1);
        let mut samples = Vec::new();
        for k in 0..count {
            let base = 1_000 + k * period_ns;
            for (i, p) in encode(MonEvent::new(k as u16, k as u32))
                .into_iter()
                .enumerate()
            {
                samples.push(ProbeSample {
                    time: SimTime::from_nanos(base + i as u64 * spacing),
                    channel: 0,
                    pattern: p,
                });
            }
        }
        let zm4 = Zm4::new(Zm4Config::default(), 1, 1);
        let m = zm4.observe(&samples);
        rows.push(FifoRow {
            label,
            rate_per_sec: rate,
            offered: count,
            recorded: m.total_recorded(),
            lost: m.total_lost(),
            max_fifo: m.recorder_stats[0].max_fifo_occupancy,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// E4 — clock synchronization ablation
// ---------------------------------------------------------------------

/// One arm of the clock ablation.
#[derive(Debug, Clone)]
pub struct ClockSyncRow {
    /// Whether the measure tick generator drove the recorder clocks.
    pub mtg_synchronized: bool,
    /// Events in the merged trace.
    pub events: usize,
    /// Merge-order violations against true time.
    pub merge_violations: u64,
    /// Happens-before violations (job sent after its work began, etc.).
    pub causality_violations: u64,
    /// Worst timestamp error versus true time, in nanoseconds.
    pub max_timestamp_error_ns: u64,
}

/// E4 — why the ZM4 has a global clock: the same program observed with
/// the MTG (globally valid timestamps, causal merge) and with
/// free-running recorder clocks (visible causality violations).
pub fn clock_sync_ablation(seed: u64) -> (ClockSyncRow, ClockSyncRow) {
    // A small 16-processor run; channels spread over recorders so that
    // skew between recorders matters (1 stream per recorder).
    let mut app = AppConfig::version(Version::V3);
    app.width = 24;
    app.height = 24;
    app.bundle_size = 8;
    app.pixel_queue_capacity = 128;
    app.write_chunk = 12;

    // The two arms are two runs of the same machine that differ only in
    // the monitor's clocks: the simulation is deterministic, so both
    // monitors observe the same signals.
    let observe = |synchronized: bool| -> ClockSyncRow {
        let mut cfg = experiment_cfg(app.clone(), seed);
        cfg.zm4 = Zm4Config {
            streams_per_recorder: 1,
            mtg_synchronized: synchronized,
            // Free-running quartz oscillators drift tens of milliseconds
            // apart within minutes of operation — the realistic state of
            // affairs the MTG exists to prevent.
            skew_max_offset: des::time::SimDuration::from_millis(40),
            skew_max_drift_ppm: 100.0,
            ..Zm4Config::default()
        };
        let result = run_completed(cfg);
        let m = &result.measurement;
        let causality = check_causality(&result.trace, &raysim::analysis::causality_rules());
        ClockSyncRow {
            mtg_synchronized: synchronized,
            events: m.trace.len(),
            merge_violations: m.causality_violations(),
            causality_violations: causality.causality_violations,
            max_timestamp_error_ns: m.max_timestamp_error_ns(),
        }
    };
    (observe(true), observe(false))
}

// ---------------------------------------------------------------------
// E6 — operating-system instrumentation (the paper's future work)
// ---------------------------------------------------------------------

/// Result of the OS-instrumentation experiment.
#[derive(Debug, Clone)]
pub struct OsInstrumentationResult {
    /// Scheduler events the kernel emitted.
    pub kernel_events: u64,
    /// Per-node CPU busy fraction derived from the kernel trace
    /// (Running + Mailbox Service states), over the ray-tracing phase.
    pub node_cpu_busy: Vec<(String, f64)>,
    /// Mailbox-service CPU fraction of node 0 (the master's node) —
    /// internode communication cost made visible, as the paper wanted.
    pub master_node_mailbox_fraction: f64,
    /// ASCII Gantt chart of the node CPUs over a steady window.
    pub gantt_text: String,
}

/// E6 — the paper's future work, implemented: "instrumenting SUPRENUM's
/// operating system to find more detailed information about the
/// behaviour of the node scheduling algorithm and internode
/// communication". The kernel emits dispatch/block/mailbox-service/exit
/// events through the same display path; the trace yields per-node CPU
/// timelines.
pub fn os_instrumentation(seed: u64) -> OsInstrumentationResult {
    let mut app = AppConfig::version(Version::V2);
    app.servants = 4;
    app.scene = SceneKind::Quickstart;
    app.width = 16;
    app.height = 16;
    app.pixel_queue_capacity = 64;
    let mut cfg = experiment_cfg(app.clone(), seed);
    cfg.machine.kernel_instrumentation = true;
    let result = run_completed(cfg);
    assert_eq!(
        result
            .measurement
            .detector_stats
            .iter()
            .map(|d| d.atomicity_violations)
            .sum::<u64>(),
        0,
        "kernel events must not corrupt the display protocol"
    );

    let (from, to) = work_phase(&result.trace).expect("work phase");
    let nodes = app.servants as u32 + 1;
    let tracks = raysim::analysis::kernel_tracks(&result.trace, nodes, to);
    let node_cpu_busy = tracks
        .iter()
        .map(|t| {
            let busy = t.time_in_state_within("Running", from, to)
                + t.time_in_state_within("Mailbox Service", from, to);
            (t.name().to_owned(), busy as f64 / (to - from) as f64)
        })
        .collect();
    let master_node_mailbox_fraction =
        tracks[0].time_in_state_within("Mailbox Service", from, to) as f64 / (to - from) as f64;

    let mid = from + (to - from) / 2;
    let window_end = (mid + 500_000_000).min(to);
    let gantt = Gantt::new(tracks, mid, window_end.max(mid + 1));

    OsInstrumentationResult {
        kernel_events: result.machine.stats().kernel_events,
        node_cpu_busy,
        master_node_mailbox_fraction,
        gantt_text: gantt.render_text(),
    }
}

// ---------------------------------------------------------------------
// E5 — mailbox anatomy
// ---------------------------------------------------------------------

/// Result of the mailbox microbenchmark.
#[derive(Debug, Clone, Copy)]
pub struct MailboxAnatomy {
    /// How long a mailbox send blocks when the receiver is mid-compute.
    pub busy_receiver_block: SimDuration,
    /// How long it blocks when the receiver is already waiting.
    pub idle_receiver_block: SimDuration,
    /// The receiver's compute phase, for reference.
    pub receiver_work: SimDuration,
}

/// E5 — §4.3's discovery in isolation: SUPRENUM's "asynchronous"
/// mailbox send behaves synchronously when the receiver is busy, because
/// the mailbox LWP is only scheduled once the receiver relinquishes the
/// CPU.
pub fn mailbox_anatomy(seed: u64) -> MailboxAnatomy {
    struct Receiver {
        work: SimDuration,
        step: u8,
    }
    impl Process for Receiver {
        fn resume(&mut self, _ctx: &ProcCtx, _why: Resume) -> Action {
            self.step += 1;
            match self.step {
                1 => Action::Compute(self.work),
                2 => Action::MailboxRecv,
                3 => Action::MailboxRecv,
                _ => Action::Exit,
            }
        }
        fn label(&self) -> String {
            "receiver".into()
        }
    }

    struct Sender {
        peer: Option<ProcessId>,
        work: SimDuration,
        step: u8,
        block_busy: std::sync::Arc<std::sync::Mutex<(u64, u64)>>,
        t0: u64,
    }
    impl Process for Sender {
        fn resume(&mut self, ctx: &ProcCtx, why: Resume) -> Action {
            if let Resume::Spawned(pid) = &why {
                self.peer = Some(*pid);
            }
            self.step += 1;
            match self.step {
                1 => Action::Spawn {
                    node: NodeId::new(1),
                    body: Box::new(Receiver {
                        work: self.work,
                        step: 0,
                    }),
                },
                // Send while the receiver is mid-compute.
                2 => Action::Sleep(SimDuration::from_millis(5)),
                3 => {
                    self.t0 = ctx.now.as_nanos();
                    Action::MailboxSend {
                        to: self.peer.unwrap(),
                        msg: Message::new(ctx.pid, 64, "busy"),
                    }
                }
                4 => {
                    let busy = ctx.now.as_nanos() - self.t0;
                    *self.block_busy.lock().unwrap() = (busy, 0);
                    // Now the receiver is blocked in MailboxRecv: an
                    // idle-receiver send for comparison.
                    Action::Sleep(SimDuration::from_millis(5))
                }
                5 => {
                    self.t0 = ctx.now.as_nanos();
                    Action::MailboxSend {
                        to: self.peer.unwrap(),
                        msg: Message::new(ctx.pid, 64, "idle"),
                    }
                }
                6 => {
                    let busy = self.block_busy.lock().unwrap().0;
                    *self.block_busy.lock().unwrap() = (busy, ctx.now.as_nanos() - self.t0);
                    Action::Sleep(SimDuration::from_millis(5))
                }
                _ => Action::Exit,
            }
        }
        fn label(&self) -> String {
            "sender".into()
        }
    }

    let work = SimDuration::from_millis(80);
    let cell = std::sync::Arc::new(std::sync::Mutex::new((0u64, 0u64)));
    let mut machine = Machine::new(MachineConfig::single_cluster(2), seed).unwrap();
    machine.add_process(
        NodeId::new(0),
        Box::new(Sender {
            peer: None,
            work,
            step: 0,
            block_busy: cell.clone(),
            t0: 0,
        }),
    );
    let outcome = machine.run(SimTime::from_secs(60));
    assert_eq!(
        outcome.reason,
        RunEnd::Completed,
        "microbenchmark must complete"
    );
    let (busy, idle) = *cell.lock().unwrap();
    MailboxAnatomy {
        busy_receiver_block: SimDuration::from_nanos(busy),
        idle_receiver_block: SimDuration::from_nanos(idle),
        receiver_work: work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_instrumentation_exposes_node_schedules() {
        let r = os_instrumentation(13);
        assert!(
            r.kernel_events > 100,
            "only {} kernel events",
            r.kernel_events
        );
        assert_eq!(r.node_cpu_busy.len(), 5);
        // Every servant node shows CPU activity; the master node shows
        // visible mailbox-service time (internode communication).
        for (name, busy) in &r.node_cpu_busy[1..] {
            assert!(*busy > 0.05, "{name} busy only {busy:.2}");
        }
        // The master's node is the communication hot-spot: busiest CPU.
        let master_busy = r.node_cpu_busy[0].1;
        assert!(
            r.node_cpu_busy[1..]
                .iter()
                .all(|(_, b)| *b <= master_busy + 0.05),
            "master node should be the hot-spot: {:?}",
            r.node_cpu_busy
        );
        assert!(r.master_node_mailbox_fraction > 0.001);
        assert!(r.gantt_text.contains("Node 0 CPU"));
        assert!(r.gantt_text.contains("Mailbox Service"));
    }

    #[test]
    fn mailbox_anatomy_shows_synchrony() {
        let r = mailbox_anatomy(3);
        // Sent at t≈5ms into an 80ms compute: blocked ~75ms.
        assert!(r.busy_receiver_block > SimDuration::from_millis(60));
        assert!(r.idle_receiver_block < SimDuration::from_millis(5));
        assert!(r.busy_receiver_block.as_nanos() > 10 * r.idle_receiver_block.as_nanos());
    }

    #[test]
    fn fifo_stress_rows_behave() {
        let rows = fifo_stress();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].lost, 0, "sustained sub-drain load loses nothing");
        // Above-drain sustained load of 30k events fits the 32K FIFO.
        assert_eq!(rows[1].lost, 0);
        assert!(rows[1].max_fifo > rows[0].max_fifo);
        assert_eq!(rows[2].lost, 0, "burst within FIFO capacity survives");
        assert!(rows[3].lost > 0, "burst beyond FIFO capacity loses events");
        for r in &rows {
            assert_eq!(r.recorded + r.lost, r.offered);
        }
    }

    #[test]
    fn intrusion_ranks_modes() {
        let rows = intrusion_comparison(11);
        let get = |m: MonitoringMode| rows.iter().find(|r| r.mode == m).unwrap().clone();
        let hybrid = get(MonitoringMode::Hybrid);
        let terminal = get(MonitoringMode::Terminal);
        let software = get(MonitoringMode::Software);
        let off = get(MonitoringMode::Off);
        // Paper §3.2 anchor: terminal is >20x hybrid.
        assert!(terminal.mean_per_event.as_nanos() >= 20 * hybrid.mean_per_event.as_nanos());
        assert!(hybrid.mean_per_event < SimDuration::from_micros(120));
        assert_eq!(off.mean_per_event, SimDuration::ZERO);
        // Perturbation ordering: off <= software <= hybrid <= terminal.
        assert!(off.end <= software.end);
        assert!(software.end <= hybrid.end);
        assert!(hybrid.end <= terminal.end);
        assert!(hybrid.events > 0);
    }

    #[test]
    fn clock_ablation_separates_cleanly() {
        let (sync, free) = clock_sync_ablation(5);
        assert!(sync.mtg_synchronized && !free.mtg_synchronized);
        assert_eq!(sync.events, free.events, "same signals observed");
        assert_eq!(sync.merge_violations, 0);
        assert_eq!(sync.causality_violations, 0);
        assert!(sync.max_timestamp_error_ns <= 100);
        assert!(
            free.merge_violations > 0,
            "free-running clocks mis-order the merge"
        );
        assert!(free.max_timestamp_error_ns > 100_000);
    }
}
