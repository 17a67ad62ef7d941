//! Cross-validation of the happens-before engine against real runs —
//! and against a seeded fault.
//!
//! Every ordering the model checker proves must hold in every trace the
//! monitor records: small V1 and V4 measurements are executed and
//! validated (zero violations expected). Then a violation is *injected*
//! — one `WORK_BEGIN` event is retimed to precede the `SEND_JOBS_BEGIN`
//! of its own job — and the engine must catch exactly that class of
//! corruption with `AN-HB-001`.

use analyzer::{proven_orders, validate_orders};
use des::time::SimTime;
use pipeline::{run_workload, PipelineConfig};
use raysim::config::{AppConfig, SceneKind, Version};
use raysim::tokens;
use simple::{Event, Trace};

fn measured_trace(version: Version) -> (Trace, AppConfig) {
    let mut app = AppConfig::version(version);
    app.servants = 3;
    app.scene = SceneKind::Quickstart;
    app.width = 8;
    app.height = 8;
    let mut cfg = PipelineConfig::new(app.clone());
    cfg.horizon = SimTime::from_secs(3_600);
    let result = run_workload(cfg);
    assert!(result.completed(), "fixture run must complete");
    (result.trace, app)
}

#[test]
fn recorded_traces_respect_every_proven_order() {
    for version in [Version::V1, Version::V4] {
        let (trace, app) = measured_trace(version);
        let report = validate_orders(&trace, &proven_orders(&app));
        assert!(!report.has_errors(), "{version}: {}", report.render());
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.message.contains("all proven orderings hold")),
            "{version}: {}",
            report.render()
        );
    }
}

#[test]
fn injected_ordering_inversion_is_caught() {
    let (trace, app) = measured_trace(Version::V4);
    let orders = proven_orders(&app);

    // Find one (SEND_JOBS_BEGIN, WORK_BEGIN) pair of the same job and
    // retime the work start to precede the send — the corruption a
    // recorder with a miscalibrated clock would produce.
    let events: Vec<Event> = trace.events().to_vec();
    let send = events
        .iter()
        .find(|e| e.token.value() == tokens::SEND_JOBS_BEGIN)
        .copied()
        .expect("trace has job sends");
    let victim = events
        .iter()
        .position(|e| e.token.value() == tokens::WORK_BEGIN && e.param == send.param)
        .expect("the sent job starts work");

    let mut corrupted = events;
    let e = corrupted[victim];
    corrupted[victim] = Event::new(
        send.ts_ns.saturating_sub(1_000),
        e.channel,
        e.token.value(),
        e.param.value(),
    );

    let report = validate_orders(&Trace::from_unsorted(corrupted), &orders);
    assert!(report.has_errors(), "{}", report.render());
    let finding = report
        .findings
        .iter()
        .find(|f| f.code == "AN-HB-001")
        .expect("ordering violation diagnosed");
    assert!(
        finding.message.contains("job-sent-before-work"),
        "{}",
        finding.message
    );
}
