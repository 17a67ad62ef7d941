//! One benchmark pass in a fresh process.
//!
//! ```text
//! perfbench <workload> --seed N --mode untraced|stages|layers|setup|probe
//! ```
//!
//! * `untraced` runs the workload's sweep through `harness::run_sweep`
//!   on one worker thread, exactly as `harness sweep --workers 1` does;
//! * `stages` re-drives every run stage by stage (see [`stages`]);
//! * `layers` times the analyzer's layers and the ray tracer per run;
//! * `setup` builds the sweep and stops where a pass would start its
//!   first run, so the caller can sample process set-up cheaply;
//! * `probe` runs the fixed host-speed probe (see [`host_speed_probe`]).
//!
//! Each pass prints one JSON object on stdout. Pre-flight findings go
//! to stderr, as they do for a sweep user; `run.py` captures them.
//! `run.py` spawns a fresh process per pass (see `README.md`, "Cold
//! process caches").

mod stages;
mod workloads;

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use harness::json::{self, JsonObject};
use workloads::Typed;

/// Host wall-clock time, nanoseconds since the Unix epoch — the clock
/// the spawning process reads, so the two can be subtracted.
fn unix_ns() -> u64 {
    let since = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("host clock is set after 1970");
    u64::try_from(since.as_nanos()).expect("host clock fits 64-bit nanoseconds")
}

/// Peak resident set of this process, KiB (`VmHWM`), or 0 where the
/// kernel does not report it.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Host-speed probe: a fixed amount of work shaped like the
/// simulator's host work, none of it from the repository's crates, so
/// no change to the program moves it. A compute half drives a bounded
/// event heap and a hashed state table (the kernel's and the analyzer's
/// profile); a memory half fills fresh pages with a 64 MiB log and reads
/// it back scattered (the display-signal log's profile). Returns its
/// wall time in nanoseconds. `run.py` runs it in its own process before
/// and after every untraced pass and divides pass times by it, to
/// cancel the host's speed drift; see README.md, "Host-speed
/// normalization".
fn host_speed_probe() -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BinaryHeap, HashMap};
    use std::hash::BuildHasherDefault;

    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };

    let mut heap = BinaryHeap::with_capacity(4_097);
    let mut table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..1_000_000_u64 {
        let r = next();
        heap.push(std::cmp::Reverse(r % 1_000_000_007));
        if heap.len() > 4_096 {
            heap.pop();
        }
        *table.entry(r % 100_003).or_insert(0) += i;
    }
    std::hint::black_box((&heap, &table));

    let len = 8 << 20;
    let log: Vec<u64> = (0..len as u64).map(|i| next() ^ i).collect();
    let (mut at, mut sum) = (0_usize, 0_u64);
    for _ in 0..1_000_000 {
        at = (at + (log[at] & 0xFFFF) as usize + 4_099) % len;
        sum = sum.wrapping_add(log[at]);
    }
    std::hint::black_box((sum, &log));
    start.elapsed().as_nanos() as u64
}

/// An untraced pass: the user's `harness sweep --workers 1`.
fn untraced(workload: &str, seed: u64) -> Result<String, String> {
    let sweep = workloads::sweep(workload, seed)?;
    let run_start_unix_ns = unix_ns();
    let start = Instant::now();
    let report = harness::run_sweep(&sweep, 1);
    let run_ns = start.elapsed().as_nanos() as u64;
    let peak_rss_kib = peak_rss_kib();

    let runs: Vec<String> = report
        .records
        .iter()
        .map(|r| {
            let mut o = JsonObject::new();
            o.str("label", &r.label)
                .str("digest", &r.trace_digest)
                .u64("events", r.events_processed)
                .u64("sim_end_ns", r.sim_end_ns)
                .str("run_end", &r.run_end.to_string())
                .bool("truncated", r.truncated)
                .u64("trace_events", r.trace_events as u64)
                .opt_f64("utilization", r.utilization_percent)
                .u64("findings_error", r.analysis_errors)
                .u64("findings_warning", r.analysis_warnings)
                .u64("findings_info", r.analysis_infos)
                .f64("analysis_ms", r.analysis_ms)
                .f64("wall_ms", r.wall_ms);
            o.render(2)
        })
        .collect();
    let mut o = JsonObject::new();
    o.str("mode", "untraced")
        .u64("run_start_unix_ns", run_start_unix_ns)
        .u64("run_ns", run_ns)
        .u64("peak_rss_kib", peak_rss_kib)
        .raw("runs", json::array(&runs, 1));
    Ok(o.render(0))
}

/// A stage-traced pass over every run of the workload.
fn staged(workload: &str, seed: u64) -> Result<String, String> {
    let typed = workloads::typed_runs(workload, seed)?;
    let start = Instant::now();
    let mut runs = Vec::with_capacity(typed.len());
    for (label, cfg) in &typed {
        runs.push(match cfg {
            Typed::Ray(cfg) => stages::staged_run(label, cfg)?,
            Typed::Jacobi(cfg) => stages::staged_run(label, cfg)?,
        });
    }
    let pass_ns = start.elapsed().as_nanos() as u64;
    let mut o = JsonObject::new();
    o.str("mode", "stages")
        .u64("pass_ns", pass_ns)
        .raw("runs", json::array(&runs, 1));
    Ok(o.render(0))
}

/// The analyzer-layer pass. Only ray-tracer runs have the model layers;
/// other workloads report none.
fn layers(workload: &str, seed: u64) -> Result<String, String> {
    let runs: Vec<String> = workloads::typed_runs(workload, seed)?
        .iter()
        .filter_map(|(label, cfg)| match cfg {
            Typed::Ray(cfg) => Some(stages::analyzer_layers(label, &cfg.workload)),
            Typed::Jacobi(_) => None,
        })
        .collect();
    let mut o = JsonObject::new();
    o.str("mode", "layers").raw("runs", json::array(&runs, 1));
    Ok(o.render(0))
}

/// Process set-up only: everything an untraced pass does before its
/// first run starts.
fn setup(workload: &str, seed: u64) -> Result<String, String> {
    let _sweep = workloads::sweep(workload, seed)?;
    let mut o = JsonObject::new();
    o.str("mode", "setup").u64("run_start_unix_ns", unix_ns());
    Ok(o.render(0))
}

/// The host-speed probe on its own.
fn probe() -> String {
    let mut o = JsonObject::new();
    o.str("mode", "probe").u64("probe_ns", host_speed_probe());
    o.render(0)
}

const USAGE: &str =
    "usage: perfbench <workload> --seed N --mode untraced|stages|layers|setup|probe";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|(workload, seed, mode)| match mode.as_str() {
        "untraced" => untraced(&workload, seed),
        "stages" => staged(&workload, seed),
        "layers" => layers(&workload, seed),
        "setup" => setup(&workload, seed),
        "probe" => Ok(probe()),
        other => Err(format!("unknown mode '{other}'\n{USAGE}")),
    });
    match result {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Parses `<workload> --seed N --mode M`.
fn parse(args: &[String]) -> Result<(String, u64, String), String> {
    let [workload, rest @ ..] = args else {
        return Err(USAGE.to_owned());
    };
    let (mut seed, mut mode) = (None, None);
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed {value}: not a whole number"))?,
                );
            }
            "--mode" => mode = Some(value.clone()),
            _ => return Err(format!("unknown flag '{flag}'\n{USAGE}")),
        }
    }
    match (seed, mode) {
        (Some(seed), Some(mode)) => Ok((workload.clone(), seed, mode)),
        _ => Err(USAGE.to_owned()),
    }
}
