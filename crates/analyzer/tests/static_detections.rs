//! Acceptance tests: the three headline static detections.
//!
//! Each reproduces, without executing any simulation, a defect the
//! paper (or its reproduction) could only observe dynamically.

use analyzer::token_lints::{MapKind, TokenMap};
use analyzer::{analyze_run, analyze_version, Severity};
use pipeline::PipelineConfig;
use raysim::config::{AppConfig, Version};

/// (a) The version-3 pixel-queue bug, in the stock configuration.
#[test]
fn v3_pixel_queue_bug_is_found_statically() {
    let report = analyze_version(Version::V3);
    let finding = report
        .with_code("AN-PROTO-002")
        .next()
        .unwrap_or_else(|| panic!("AN-PROTO-002 missing:\n{}", report.render()));
    assert_eq!(finding.severity, Severity::Error);
    assert!(finding.span.contains("pixel_queue_capacity = 768"));
    assert!(finding.notes.iter().any(|n| n.contains("2250")));
    // The fixed version 4 does not trigger it.
    assert!(!analyze_version(Version::V4).contains("AN-PROTO-002"));
}

/// (b) An unbalanced begin/end token map.
#[test]
fn unbalanced_token_map_is_found() {
    let mut map = TokenMap::raysim_application();
    // Delete the "Send Jobs" begin declaration, leaving its end token
    // orphaned — the registry itself accepts this silently.
    map.decls.retain(|d| d.name != "Send Jobs");
    let report = map.lint();
    let finding = report
        .with_code("AN-TOKEN-001")
        .next()
        .unwrap_or_else(|| panic!("AN-TOKEN-001 missing:\n{}", report.render()));
    assert_eq!(finding.severity, Severity::Error);
    assert!(finding.message.contains("Send Jobs End"));
    // The intact map is balanced.
    assert!(!TokenMap::raysim_application()
        .lint()
        .contains("AN-TOKEN-001"));
}

/// (c) Predicted FIFO overload for an over-instrumented configuration.
#[test]
fn over_instrumented_config_predicts_event_loss() {
    let mut app = AppConfig::version(Version::V1);
    app.instrument_send_results = true;
    app.oversample = 2;
    let mut cfg = PipelineConfig::new(app);
    // All sixteen display channels multiplexed onto one event recorder.
    cfg.zm4.streams_per_recorder = 16;
    let report = analyze_run(&cfg);
    let finding = report
        .with_code("AN-RATE-001")
        .next()
        .unwrap_or_else(|| panic!("AN-RATE-001 missing:\n{}", report.render()));
    assert_eq!(finding.severity, Severity::Error);
    assert!(finding.message.contains("loss"));
    // The stock recorder assignment absorbs the same application.
    let stock = analyze_run(&PipelineConfig::new(AppConfig::version(Version::V1)));
    assert!(!stock.contains("AN-RATE-001"), "{}", stock.render());
}

/// The report renders rustc-style and the CLI-facing summary counts add
/// up across all four stock versions.
#[test]
fn stock_version_reports_render() {
    for version in Version::ALL {
        let report = analyze_version(version);
        let rendered = report.render();
        assert!(rendered.contains("analysis of"), "{rendered}");
        for finding in &report.findings {
            assert!(rendered.contains(finding.code));
        }
        // Only V3 carries an error in stock form.
        assert_eq!(report.has_errors(), version == Version::V3, "{rendered}");
    }
}

/// A synthetic kernel map below the reserved base is caught next to an
/// application map that strays above it.
#[test]
fn reserved_range_violations_in_both_directions() {
    let app = TokenMap::from_points("app", MapKind::Application, &[(0xF123, "Work", "Servant")]);
    assert!(app.lint().has_errors());
    let kernel = TokenMap::from_points("k", MapKind::Kernel, &[(0x0042, "Dispatch", "Kernel")]);
    let report = kernel.lint();
    assert!(report.contains("AN-TOKEN-003"));
    assert!(!report.has_errors());
}
