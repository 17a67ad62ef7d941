//! Integration of the monitoring chain itself: instrumentation →
//! display signals → detector → recorder → CEC merge → evaluation.

use suprenum_monitor::des::time::{SimDuration, SimTime};
use suprenum_monitor::hybridmon::MonitoringMode;
use suprenum_monitor::suprenum::{
    Action, Machine, MachineConfig, NodeId, ProcCtx, Process, Resume, RunEnd,
};
use suprenum_monitor::zm4::{ProbeSample, Zm4, Zm4Config};

/// A process that emits `count` events with its node id in the token and
/// a sequence number in the parameter, separated by compute phases.
struct Beeper {
    node: u16,
    count: u32,
    sent: u32,
    emitting: bool,
}

impl Process for Beeper {
    fn resume(&mut self, _ctx: &ProcCtx, _why: Resume) -> Action {
        if self.emitting {
            self.emitting = false;
            Action::Compute(SimDuration::from_millis(2))
        } else if self.sent < self.count {
            self.emitting = true;
            let param = self.sent;
            self.sent += 1;
            Action::Emit {
                token: 0x0100 | self.node,
                param,
            }
        } else {
            Action::Exit
        }
    }

    fn label(&self) -> String {
        format!("beeper-{}", self.node)
    }
}

/// A root process that spawns beepers on every other node, then beeps
/// itself.
struct Root {
    nodes: u16,
    spawned: u16,
    inner: Beeper,
}

impl Process for Root {
    fn resume(&mut self, ctx: &ProcCtx, why: Resume) -> Action {
        if self.spawned + 1 < self.nodes {
            self.spawned += 1;
            return Action::Spawn {
                node: NodeId::new(self.spawned),
                body: Box::new(Beeper {
                    node: self.spawned,
                    count: self.inner.count,
                    sent: 0,
                    emitting: false,
                }),
            };
        }
        // Give remote beepers time to finish before the initial process
        // exits and terminates the application.
        if self.inner.sent == self.inner.count && !self.inner.emitting {
            self.inner.sent += 1; // run the grace sleep only once
            return Action::Sleep(SimDuration::from_secs(1));
        }
        if self.inner.sent > self.inner.count {
            return Action::Exit;
        }
        self.inner.resume(ctx, why)
    }

    fn label(&self) -> String {
        "root".into()
    }
}

fn run_beepers(nodes: u16, events_per_node: u32, seed: u64) -> (Machine, Vec<ProbeSample>) {
    let mut machine = Machine::new(MachineConfig::single_cluster(nodes as u8), seed).unwrap();
    machine.add_process(
        NodeId::new(0),
        Box::new(Root {
            nodes,
            spawned: 0,
            inner: Beeper {
                node: 0,
                count: events_per_node,
                sent: 0,
                emitting: false,
            },
        }),
    );
    let outcome = machine.run(SimTime::from_secs(60));
    assert_eq!(outcome.reason, RunEnd::Completed);
    let samples = machine
        .signals()
        .display_writes()
        .iter()
        .map(|w| ProbeSample {
            time: w.time,
            channel: w.node.index() as usize,
            pattern: w.pattern,
        })
        .collect();
    (machine, samples)
}

#[test]
fn every_emitted_event_is_recorded_exactly_once() {
    let (machine, samples) = run_beepers(8, 25, 4);
    assert_eq!(machine.stats().events_emitted, 8 * 25);
    let m = Zm4::new(Zm4Config::default(), 8, 4).observe(&samples);
    assert_eq!(m.total_recorded(), 8 * 25);
    assert_eq!(m.total_lost(), 0);
    // Per channel: 25 events with sequential parameters.
    for ch in 0..8usize {
        let params: Vec<u32> = m
            .trace
            .iter()
            .filter(|r| r.channel == ch)
            .map(|r| r.event.param.value())
            .collect();
        assert_eq!(
            params,
            (0..25).collect::<Vec<_>>(),
            "channel {ch} events broken"
        );
    }
}

#[test]
fn merged_trace_is_globally_ordered_with_mtg() {
    let (_machine, samples) = run_beepers(6, 20, 1);
    let m = Zm4::new(Zm4Config::default(), 6, 1).observe(&samples);
    assert_eq!(m.causality_violations(), 0);
    assert!(m.trace.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    // Timestamps track true global time to the clock resolution.
    assert!(m.max_timestamp_error_ns() <= 100);
}

#[test]
fn recorder_assignment_spreads_channels() {
    let zm4 = Zm4::new(Zm4Config::default(), 16, 1);
    assert_eq!(zm4.recorders(), 4);
    assert_eq!(zm4.agents(), 1);
    // The paper's full 256-node machine needs 64 recorders on 16 agents.
    let big = Zm4::new(Zm4Config::default(), 256, 1);
    assert_eq!(big.recorders(), 64);
    assert_eq!(big.agents(), 16);
}

#[test]
fn event_detectors_tolerate_interleaved_nodes() {
    // Concurrent nodes interleave in the global signal log; the per-node
    // detectors must not interfere.
    let (_machine, samples) = run_beepers(4, 50, 2);
    // Shuffle the global order (channels interleave arbitrarily) — the
    // monitor sorts per channel internally.
    let mut shuffled = samples.clone();
    shuffled.reverse();
    let a = Zm4::new(Zm4Config::default(), 4, 2).observe(&samples);
    let b = Zm4::new(Zm4Config::default(), 4, 2).observe(&shuffled);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.total_recorded(), 200);
    for d in &a.detector_stats {
        assert_eq!(d.atomicity_violations, 0);
    }
}

#[test]
fn software_monitoring_vs_hybrid_timestamp_quality() {
    // The same program observed via hybrid monitoring (global clock) and
    // via software monitoring (skewed node clocks): only the former
    // merges causally.
    let seed = 99;
    let (machine, samples) = run_beepers(6, 20, seed);
    let hybrid = Zm4::new(Zm4Config::default(), 6, seed).observe(&samples);
    assert_eq!(hybrid.causality_violations(), 0);

    // Software monitoring run of the same program.
    let mut cfg = MachineConfig::single_cluster(6);
    cfg.monitoring = MonitoringMode::Software;
    let mut sw_machine = Machine::new(cfg, seed).unwrap();
    sw_machine.add_process(
        NodeId::new(0),
        Box::new(Root {
            nodes: 6,
            spawned: 0,
            inner: Beeper {
                node: 0,
                count: 20,
                sent: 0,
                emitting: false,
            },
        }),
    );
    assert_eq!(
        sw_machine.run(SimTime::from_secs(60)).reason,
        RunEnd::Completed
    );
    let logs: Vec<_> = sw_machine
        .software_monitors()
        .iter()
        .map(|m| m.records().to_vec())
        .collect();
    let merged = suprenum_monitor::hybridmon::software::merge_by_local_ts(&logs);
    let inversions = suprenum_monitor::hybridmon::software::count_order_inversions(&merged);
    assert!(
        inversions > 0,
        "software monitoring with skewed node clocks should mis-order the merge"
    );
    let _ = machine;
}

#[test]
fn terminal_interface_monitoring_also_works_but_slower() {
    // The rejected alternative: the same program monitored over the V.24
    // serial interface. The trace is equally decodable — the cost is the
    // perturbation of the measured program.
    let seed = 21;
    let run_with = |mode: MonitoringMode| {
        let mut cfg = MachineConfig::single_cluster(4);
        cfg.monitoring = mode;
        let mut m = Machine::new(cfg, seed).unwrap();
        m.add_process(
            NodeId::new(0),
            Box::new(Root {
                nodes: 4,
                spawned: 0,
                inner: Beeper {
                    node: 0,
                    count: 15,
                    sent: 0,
                    emitting: false,
                },
            }),
        );
        let out = m.run(SimTime::from_secs(60));
        assert_eq!(out.reason, RunEnd::Completed);
        (m, out.end)
    };

    let (hybrid_machine, hybrid_end) = run_with(MonitoringMode::Hybrid);
    let (terminal_machine, terminal_end) = run_with(MonitoringMode::Terminal);

    // Decode the serial streams.
    let serial_samples: Vec<suprenum_monitor::zm4::SerialSample> = terminal_machine
        .signals()
        .terminal_writes()
        .iter()
        .map(|w| suprenum_monitor::zm4::SerialSample {
            time: w.time,
            channel: w.node.index() as usize,
            byte: w.byte,
        })
        .collect();
    let serial_events = suprenum_monitor::zm4::detect_serial(&serial_samples, 4);
    assert_eq!(
        serial_events.len(),
        4 * 15,
        "every event decodes from the serial stream"
    );

    // Same logical events as the hybrid path.
    let hybrid_samples: Vec<ProbeSample> = hybrid_machine
        .signals()
        .display_writes()
        .iter()
        .map(|w| ProbeSample {
            time: w.time,
            channel: w.node.index() as usize,
            pattern: w.pattern,
        })
        .collect();
    let hybrid_events = Zm4::new(Zm4Config::default(), 4, seed).observe(&hybrid_samples);
    let mut a: Vec<(usize, u16, u32)> = serial_events
        .iter()
        .map(|e| (e.channel, e.event.token.value(), e.event.param.value()))
        .collect();
    let mut b: Vec<(usize, u16, u32)> = hybrid_events
        .trace
        .iter()
        .map(|r| (r.channel, r.event.token.value(), r.event.param.value()))
        .collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "both channels carry the same logical events");

    // But the terminal path perturbs the program measurably: the root
    // emits 15 events on its critical path, each ~2.8 ms more expensive
    // over the serial line than via the display.
    let extra_ns = terminal_end.as_nanos() - hybrid_end.as_nanos();
    assert!(
        extra_ns > 35_000_000,
        "terminal monitoring should cost ≥35 ms extra on the critical path \
         (hybrid {hybrid_end}, terminal {terminal_end})"
    );
}

#[test]
fn analysis_survives_fifo_event_loss() {
    // Failure injection: an undersized recorder FIFO loses events under
    // load. The evaluation pipeline must degrade gracefully — derived
    // activities and utilization still compute, and the causality check
    // reports the instrumentation gaps instead of panicking.
    use suprenum_monitor::pipeline::{run_workload, PipelineConfig};
    use suprenum_monitor::raysim::analysis::{causality_rules, servant_utilization};
    use suprenum_monitor::raysim::config::{AppConfig, SceneKind, Version};
    use suprenum_monitor::simple::check_causality;

    let mut app = AppConfig::version(Version::V2);
    app.servants = 4;
    app.scene = SceneKind::Quickstart;
    app.width = 16;
    app.height = 16;
    app.pixel_queue_capacity = 64;
    let mut cfg = PipelineConfig::new(app);
    cfg.horizon = SimTime::from_secs(36_000);
    // Starve the recorder: tiny FIFO, glacial drain.
    cfg.zm4.fifo_capacity = 8;
    cfg.zm4.disk_drain_rate = 200;
    let result = run_workload(cfg);
    assert!(
        result.completed(),
        "the *application* is unaffected by monitor loss"
    );
    assert!(
        result.measurement.total_lost() > 0,
        "the stress must actually lose events"
    );

    // The trace still analyzes.
    let report = servant_utilization(&result.trace, 4);
    assert!(report.mean > 0.0 && report.mean <= 1.0);
    let causality = check_causality(&result.trace, &causality_rules());
    assert_eq!(
        causality.causality_violations, 0,
        "loss must not fake causality errors"
    );
    assert!(
        causality.unmatched_effects > 0 || !result.trace.is_empty(),
        "lost causes surface as unmatched effects"
    );
}

/// The streamed monitor plane ingests every emission of a fault-free
/// run as one detected event and never expands its patterns; with the
/// probe fault layer active, every emission goes pattern by pattern
/// through the faults instead. The counts are deterministic.
#[test]
fn fault_free_runs_ingest_every_emission_as_one_event() {
    use suprenum_monitor::pipeline::jacobi::JacobiConfig;
    use suprenum_monitor::pipeline::{run_workload, FaultConfig, PipelineConfig};
    use suprenum_monitor::raysim::config::{AppConfig, Version};

    let detected = |m: &suprenum_monitor::zm4::Measurement| -> u64 {
        m.detector_stats.iter().map(|s| s.events).sum()
    };

    let mut v1 = AppConfig::version(Version::V1);
    v1.width = 32;
    v1.height = 32;
    v1.pixel_queue_capacity = 256;
    v1.write_chunk = 4;
    let ray = run_workload(PipelineConfig::new(v1));
    assert!(ray.completed());
    assert_eq!(ray.ingest.pattern_path, 0, "V1: {:?}", ray.ingest);
    assert_eq!(ray.ingest.event_path, detected(&ray.measurement));
    assert!(ray.ingest.event_path > 0);

    // The config of the pipeline's `fault_injection_perturbs_only_the_measurement`.
    let mut cfg = PipelineConfig::new(JacobiConfig {
        workers: 5,
        iterations: 6,
        ..JacobiConfig::default()
    });
    let clean = run_workload(cfg.clone());
    assert_eq!(clean.ingest.pattern_path, 0, "jacobi: {:?}", clean.ingest);
    assert_eq!(clean.ingest.event_path, detected(&clean.measurement));
    assert!(clean.ingest.event_path > 0);

    cfg.faults = FaultConfig {
        probe_drop_permille: 100,
        probe_corrupt_permille: 50,
        clock_drift_ppm: 2_000,
        seed: 7,
    };
    let faulted = run_workload(cfg);
    assert_eq!(
        faulted.ingest.event_path, 0,
        "faulted: {:?}",
        faulted.ingest
    );
    // The machine is untouched by the faults, so it emits the same.
    assert_eq!(faulted.ingest.pattern_path, clean.ingest.event_path);
}
