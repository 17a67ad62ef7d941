//! Differential gate for the workload-pipeline refactor: sweeps now
//! execute through type-erased `pipeline::Job`s instead of calling the
//! ray tracer's former dedicated runner, and the committed golden
//! digests were recorded *before* that refactor — so matching them
//! proves the generic pipeline reproduces the legacy path bit for bit
//! (every trace event, the end time, the end reason, and the event
//! count).

use std::collections::HashMap;

use harness::{run_sweep, sweeps, Scale};

/// The smoke sweep through the job queue must reproduce the
/// pre-refactor goldens exactly — labels, digest recipe, and digest
/// values all unchanged.
#[test]
fn smoke_digests_match_the_pre_refactor_goldens() {
    let sweep = sweeps::by_name("smoke", Scale::Quick, 1992).unwrap();
    let report = run_sweep(&sweep, 2);
    assert_eq!(report.exit_code(), 0);
    report
        .check_digests(include_str!("golden/smoke_digests.txt"))
        .unwrap_or_else(|errors| {
            panic!(
                "the generic pipeline diverged from the legacy run path:\n{}",
                errors.join("\n")
            )
        });
}

/// The paper-scale fig10 ladder (128×128, 15 servants) must also
/// reproduce its pre-refactor digests, recorded in the bench baseline
/// goldens. Checked by hand here because `check_digests` rejects golden
/// lines without a matching run, and the bench golden file pools fig10
/// with the smoke sweep.
#[test]
fn fig10_digests_match_the_bench_goldens() {
    let golden: HashMap<&str, &str> = include_str!("golden/bench_digests.txt")
        .lines()
        .filter_map(|l| l.split_once(' '))
        .collect();
    let sweep = sweeps::by_name("fig10", Scale::Paper, 1992).unwrap();
    let report = run_sweep(&sweep, 2);
    assert_eq!(report.exit_code(), 0);
    for rec in &report.records {
        assert_eq!(
            golden.get(rec.label.as_str()),
            Some(&rec.trace_digest.as_str()),
            "run '{}' diverged from its pre-refactor digest",
            rec.label
        );
    }
}

/// The Jacobi sweep — the second workload through the same pipeline —
/// gets the same determinism treatment: committed goldens, checked on
/// every run.
#[test]
fn jacobi_digests_match_the_committed_goldens() {
    let sweep = sweeps::by_name("jacobi", Scale::Quick, 1992).unwrap();
    let report = run_sweep(&sweep, 2);
    assert_eq!(report.exit_code(), 0);
    report
        .check_digests(include_str!("golden/jacobi_digests.txt"))
        .unwrap_or_else(|errors| panic!("jacobi sweep digests drifted:\n{}", errors.join("\n")));
}

/// The scaling sweep — 16/32/64-node ladders spanning one to four
/// clusters — is the differential oracle for the parallel per-cluster
/// engine: the committed goldens were recorded sequentially
/// (`engine_shards = 1`), and the sweep must reproduce them with the
/// engine threaded across workers.
#[test]
fn scaling_digests_match_the_sequential_goldens_when_threaded() {
    let mut sweep = sweeps::by_name("scaling", Scale::Quick, 1992).unwrap();
    for spec in &mut sweep.runs {
        spec.job.override_engine_shards(2);
    }
    let report = run_sweep(&sweep, 2);
    assert_eq!(report.exit_code(), 0);
    report
        .check_digests(include_str!("golden/scaling_digests.txt"))
        .unwrap_or_else(|errors| {
            panic!(
                "threaded engine diverged from the sequential goldens:\n{}",
                errors.join("\n")
            )
        });
}
