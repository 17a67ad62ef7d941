//! Pre-flight static analysis of the paper's measurement setups.
//!
//! ```text
//! analyze [v1|v2|v3|v4 ...] [options]
//!
//! options:
//!   --deep             close the model state spaces (full budget)
//!                      instead of the cheap pre-flight bound
//!   --fail-on LEVEL    exit nonzero when any diagnostic is at or
//!                      above LEVEL (info|warning|error)
//!   --strict           shorthand for --fail-on error
//!   --json PATH        write all reports as JSON ("-" for stdout)
//!   --sarif PATH       write all reports as SARIF 2.1.0 ("-" for
//!                      stdout)
//!   --preemptive       also explore the preemptive-scheduler variant
//!                      and print its effective-synchrony
//!                      counterexample (the AN-RACE-004 witness)
//!   --races            run the DPOR message-race explorer and append
//!                      a race report per version (uses the scheduler
//!                      selected by --preemptive; round-robin by
//!                      default). Race warnings stay warnings unless
//!                      --strict, which denies them (escalates
//!                      AN-RACE-* warnings to errors)
//!   --structural       run the place/transition-net layer on its own
//!                      and append a structural report per version:
//!                      P-invariant certificates, siphon/trap deadlock
//!                      analysis, and the synthesized minimal safe
//!                      pixel-queue capacity (AN-STRUCT-*). These
//!                      proofs are polynomial-time and hold for any
//!                      shape size — no state budget involved
//! ```
//!
//! `--json` reports also carry a `timings` array with per-layer wall
//! time (token/protocol/rate/structural/model/race, milliseconds) for
//! each analyzed version, so regressions in analysis cost are visible
//! in CI artifacts.
//!
//! With no version arguments, analyzes all four.

use std::process::ExitCode;

use analyzer::{
    reports_json_with_timings, sarif, version_verdict, ModelBudget, Report, Severity,
    SubjectTimings,
};
use raysim::config::{AppConfig, Version};

fn parse_version(arg: &str) -> Option<Version> {
    match arg.to_ascii_lowercase().as_str() {
        "v1" | "1" => Some(Version::V1),
        "v2" | "2" => Some(Version::V2),
        "v3" | "3" => Some(Version::V3),
        "v4" | "4" => Some(Version::V4),
        _ => None,
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!(
        "usage: analyze [v1|v2|v3|v4 ...] [--deep] [--fail-on info|warning|error] \
         [--strict] [--json PATH] [--sarif PATH] [--preemptive] [--races] [--structural]"
    );
    ExitCode::from(2)
}

fn write_out(path: &str, contents: &str) -> std::io::Result<()> {
    if path == "-" {
        print!("{contents}");
        Ok(())
    } else {
        std::fs::write(path, contents)
    }
}

fn main() -> ExitCode {
    let mut versions: Vec<Version> = Vec::new();
    let mut fail_on: Option<Severity> = None;
    let mut deep = false;
    let mut strict = false;
    let mut preemptive = false;
    let mut races = false;
    let mut structural = false;
    let mut json_path: Option<String> = None;
    let mut sarif_path: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--strict" => {
                strict = true;
                fail_on = Some(Severity::Error);
            }
            "--deep" => deep = true,
            "--preemptive" => preemptive = true,
            "--races" => races = true,
            "--structural" => structural = true,
            "--fail-on" => match args.next().as_deref().map(Severity::parse) {
                Some(Some(level)) => fail_on = Some(level),
                _ => return usage("--fail-on needs a level: info|warning|error"),
            },
            "--json" => match args.next() {
                Some(path) => json_path = Some(path),
                None => return usage("--json needs a path (or `-`)"),
            },
            "--sarif" => match args.next() {
                Some(path) => sarif_path = Some(path),
                None => return usage("--sarif needs a path (or `-`)"),
            },
            other => match parse_version(other) {
                Some(v) => versions.push(v),
                None => return usage(&format!("unknown argument `{other}`")),
            },
        }
    }
    if versions.is_empty() {
        versions = Version::ALL.to_vec();
    }

    let budget = if deep {
        ModelBudget::full()
    } else {
        ModelBudget::preflight()
    };

    let mut reports: Vec<Report> = Vec::new();
    let mut timings: Vec<SubjectTimings> = Vec::new();
    let mut worst: Option<Severity> = None;
    for &version in &versions {
        let (report, layers) = analyzer::analyze_version_timed(version, &budget);
        println!("== {version} ==");
        print!("{}", report.render());
        println!();
        worst = worst.max(report.max_severity());
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        timings.push((
            report.subject.clone(),
            vec![
                ("token_ms", ms(layers.token)),
                ("protocol_ms", ms(layers.protocol)),
                ("rate_ms", ms(layers.rate)),
                ("structural_ms", ms(layers.structural)),
                ("model_ms", ms(layers.model)),
                ("race_ms", ms(layers.race)),
            ],
        ));
        reports.push(report);
    }

    if preemptive {
        for &version in &versions {
            let app = AppConfig::version(version);
            let verdict = version_verdict(&app, &budget, true);
            println!("== {version}, preemptive scheduler variant ==");
            match verdict.sync_violation() {
                Some(w) => {
                    println!(
                        "effective synchrony BREAKS under preemption; counterexample \
                         interleaving:"
                    );
                    for (i, step) in w.steps.iter().enumerate() {
                        println!("  {:>3}. {step}", i + 1);
                    }
                    println!(
                        "  the final accept violates {}",
                        if w.code == analyzer::race::SYNC1 {
                            "SYNC-1: its sender is not blocked in the send"
                        } else {
                            "SYNC-2 (AN-RACE-004): a user process on its node is mid-compute"
                        }
                    );
                }
                None => println!(
                    "no violation found ({} states explored{})",
                    verdict.states,
                    if verdict.bounded { ", bounded" } else { "" }
                ),
            }
            println!();
        }
    }

    if races {
        for &version in &versions {
            let app = AppConfig::version(version);
            let mut report = analyzer::check_races(&app, &budget, preemptive);
            if strict {
                let raised = report.escalate_warnings("AN-RACE-");
                if raised > 0 {
                    eprintln!("strict mode: {raised} race warning(s) denied for {version}");
                }
            }
            println!("== {} ==", report.subject);
            print!("{}", report.render());
            println!();
            worst = worst.max(report.max_severity());
            reports.push(report);
        }
    }

    if structural {
        for &version in &versions {
            let report = analyzer::check_structural(&AppConfig::version(version));
            println!("== {} ==", report.subject);
            print!("{}", report.render());
            println!();
            worst = worst.max(report.max_severity());
            reports.push(report);
        }
    }

    if let Some(path) = &json_path {
        if let Err(e) = write_out(path, &reports_json_with_timings(&reports, &timings)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(3);
        }
    }
    if let Some(path) = &sarif_path {
        if let Err(e) = write_out(path, &sarif(&reports)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(3);
        }
    }

    if let (Some(threshold), Some(worst)) = (fail_on, worst) {
        if worst >= threshold {
            let total: usize = reports.iter().map(|r| r.count_at_least(threshold)).sum();
            eprintln!("analysis failed: {total} diagnostic(s) at or above {threshold}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
