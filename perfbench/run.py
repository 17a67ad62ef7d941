#!/usr/bin/env python3
"""Repository benchmark: end-to-end and per-layer metrics of the simulator.

Run from the repository root:

    python3 perfbench/run.py --workload fig10-ladder --seed 1992 --seconds 20 --trace 0

The script builds the `perfbench` pass executable (its own cargo package
in this directory, target directory `$CARGO_TARGET_DIR`, default
`.bench_build`), then runs passes of the workload, each in a fresh
process, until `--seconds` are used up:

* `--trace 0` runs untraced passes (`harness::run_sweep`, one worker)
  and reports the end-to-end metrics;
* `--trace 1` alternates an untraced pass, a stage-traced pass and an
  analyzer-layer pass, and reports the per-layer metrics.

Every run of every pass is checked against `expected.tsv` and against
the other passes of the same invocation. The last line of stdout is one
JSON object: `{"correct", "attempted", "failed", "metrics"}`. Pass
stderr (the analyzer's pre-flight findings) is captured, not printed.
See README.md for the metric table and the reasons behind each rule.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.tsv")
WORKLOADS = ("fig10-ladder", "jacobi-torus", "servant-scaling", "preempt-faults")

# The seed every expected value in expected.tsv was recorded at. Rows
# marked `seed-1992` there depend on the seed (probe-fault sites), so
# their digest, trace length and utilization are only checked at it.
REFERENCE_SEED = 1992

# Set-up is a few milliseconds of process start, so it is sampled this
# many extra times per invocation (spawn, build the sweep, stop) and
# reported as the median of those samples and every pass's set-up.
SETUP_SAMPLES = 15

# Host-speed normalization (README.md): a fixed probe workload runs in a
# process of its own before and after every untraced pass. Host times
# are scaled by PROBE_REFERENCE_S / probe time, i.e. reported in seconds
# of a host on which the probe takes PROBE_REFERENCE_S (about its median
# on the host where the bounds were set).
PROBE_REFERENCE_S = 0.165

# An untraced invocation never reports a median of fewer passes, and
# no invocation runs more (a pass that keeps failing fast must not spin).
MIN_PASSES = 3
MAX_PASSES = 200

END_TO_END = {
    "run_s": "s",
    "sim_events_per_s": "events/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "fraction",
}

# Per-layer metric -> unit. Timings are medians over the invocation's
# traced passes; counts must repeat exactly in every pass.
PER_LAYER = {
    "analyzer.preflight_ms": "ms",
    "analyzer.model_ms": "ms",
    "analyzer.structural_ms": "ms",
    "analyzer.race_ms": "ms",
    "analyzer.findings_error": "count",
    "analyzer.findings_warning": "count",
    "analyzer.findings_info": "count",
    "suprenum.setup_ms": "ms",
    "suprenum.run_ms": "ms",
    "suprenum.ns_per_event": "ns",
    "suprenum.events": "count",
    "suprenum.ctx_switches": "count",
    "suprenum.mailbox_services": "count",
    "suprenum.preemptions": "count",
    "suprenum.kernel_events": "count",
    "suprenum.display_writes": "count",
    "des.epochs": "count",
    "des.events_per_epoch": "ratio",
    "des.balance_bound": "ratio",
    "raytracer.trace_ms": "ms",
    "zm4.observe_ms": "ms",
    "zm4.ns_per_sample": "ns",
    "zm4.recorded": "count",
    "zm4.lost": "count",
    "zm4.max_fifo": "count",
    "hybridmon.stray_patterns": "count",
    "hybridmon.atomicity_violations": "count",
    "hybridmon.discarded_partials": "count",
    "simple.convert_ms": "ms",
    "simple.trace_records": "count",
    "pipeline.metrics_ms": "ms",
    "harness.digest_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Per-layer metrics that are timings (or derived from timings); the
# rest are exact counts.
TIMED = {name for name, unit in PER_LAYER.items() if unit in ("ms", "ns")} | {
    "trace.overhead_ratio"
}

# Fields a stage-traced run sums into an exact per-layer count.
STAGE_COUNTS = {
    "analyzer.findings_error": "findings_error",
    "analyzer.findings_warning": "findings_warning",
    "analyzer.findings_info": "findings_info",
    "suprenum.events": "events",
    "suprenum.ctx_switches": "ctx_switches",
    "suprenum.mailbox_services": "mailbox_services",
    "suprenum.preemptions": "preemptions",
    "suprenum.kernel_events": "kernel_events",
    "suprenum.display_writes": "display_writes",
    "des.epochs": "epochs",
    "zm4.recorded": "recorded",
    "zm4.lost": "lost",
    "hybridmon.stray_patterns": "stray_patterns",
    "hybridmon.atomicity_violations": "atomicity_violations",
    "hybridmon.discarded_partials": "discarded_partials",
    "simple.trace_records": "trace_events",
}

# Fields a stage-traced run sums into a per-layer timing.
STAGE_TIMES = {
    "analyzer.preflight_ms": "preflight_ms",
    "suprenum.setup_ms": "setup_ms",
    "suprenum.run_ms": "run_ms",
    "zm4.observe_ms": "observe_ms",
    "simple.convert_ms": "convert_ms",
    "pipeline.metrics_ms": "metrics_ms",
    "harness.digest_ms": "digest_ms",
}

# Fields an analyzer-layer run sums into a per-layer timing.
LAYER_TIMES = {
    "analyzer.model_ms": "model_ms",
    "analyzer.structural_ms": "structural_ms",
    "analyzer.race_ms": "race_ms",
    "raytracer.trace_ms": "raytrace_ms",
}


def load_expected(path=EXPECTED):
    """workload -> label -> expected outputs, from expected.tsv."""
    table = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            workload, label, scope, digest, events, sim_end_ns, trace_events, util = line.split()
            table.setdefault(workload, {})[label] = {
                "scope": scope,
                "digest": digest,
                "events": int(events),
                "sim_end_ns": int(sim_end_ns),
                "trace_events": int(trace_events),
                "utilization": None if util == "-" else float(util),
            }
    return table


class Checker:
    """Checks every run of every pass of one invocation.

    A run must complete, match expected.tsv, and repeat the digest,
    trace length, utilization and finding counts of the first pass of
    the same invocation (so a traced pass must equal the untraced one).
    """

    def __init__(self, workload, seed, expected):
        self.seed = seed
        self.expected = expected[workload]
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.failed_labels = set()
        self.problems = []

    def _fail(self, label, why):
        self.failed_labels.add(label)
        self.problems.append(f"{label}: {why}")

    def crashed(self, why):
        """A pass that produced no output fails every run it held."""
        self.attempted += len(self.expected)
        self.failed += len(self.expected)
        for label in self.expected:
            self._fail(label, why)

    def check_pass(self, runs, what):
        """Checks one pass's runs."""
        seen = {r["label"] for r in runs}
        missing = [label for label in self.expected if label not in seen]
        for label in missing:
            self.attempted += 1
            self.failed += 1
            self._fail(label, f"missing from the {what} pass")
        for run in runs:
            self.attempted += 1
            problems = self._problems(run)
            if problems:
                self.failed += 1
                for p in problems:
                    self._fail(run["label"], f"{what} pass: {p}")

    def _problems(self, run):
        exp = self.expected.get(run["label"])
        if exp is None:
            return ["not in expected.tsv"]
        out = []
        if run["truncated"] or run["run_end"] != "completed":
            out.append(f"ended '{run['run_end']}', not completed")
        for key in ("events", "sim_end_ns"):
            if run[key] != exp[key]:
                out.append(f"{key} {run[key]} != expected {exp[key]}")
        if exp["scope"] == "any-seed" or self.seed == REFERENCE_SEED:
            for key in ("digest", "trace_events"):
                if run[key] != exp[key]:
                    out.append(f"{key} {run[key]} != expected {exp[key]}")
            if not same_utilization(run["utilization"], exp["utilization"]):
                out.append(f"utilization {run['utilization']} != expected {exp['utilization']}")
        key = (
            run["digest"],
            run["trace_events"],
            run["utilization"],
            run["findings_error"],
            run["findings_warning"],
            run["findings_info"],
        )
        first = self.reference.setdefault(run["label"], key)
        if key != first:
            out.append(f"(digest, trace, util, findings) {key} != first pass {first}")
        return out

    def failed_ratio(self):
        """Rule-of-succession estimate of a run's failure probability,
        over the workload's runs: (failed + 1) / (runs + 2). Never 0,
        and independent of how many passes fit into the time budget."""
        return (len(self.failed_labels) + 1) / (len(self.expected) + 2)


def same_utilization(measured, expected):
    if measured is None or expected is None:
        return measured is expected
    return abs(measured - expected) <= 1e-9 * max(1.0, abs(expected))


def build():
    """Builds the pass executable; returns its path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    proc = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: building the pass executable failed ({proc.returncode})")
    return os.path.join(target, "release", "perfbench")


def spawn(binary, workload, seed, mode):
    """Runs one pass in a fresh process.

    Returns (output or None, spawn time in Unix ns, error text)."""
    spawned = time.time_ns()
    proc = subprocess.run(
        [binary, workload, "--seed", str(seed), "--mode", mode],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, spawned, f"{mode} pass exited {proc.returncode}: {' | '.join(tail)}"
    return json.loads(proc.stdout), spawned, ""


def untraced_pass(binary, workload, seed, checker):
    """One checked untraced pass; returns its numbers or None."""
    out, spawned, err = spawn(binary, workload, seed, "untraced")
    if out is None:
        checker.crashed(err)
        return None
    checker.check_pass(out["runs"], "untraced")
    runs = out["runs"]
    wall_s = sum(r["wall_ms"] for r in runs) / 1e3
    return {
        "run_s": out["run_ns"] / 1e9,
        "sim_events_per_s": sum(r["events"] for r in runs) / wall_s,
        "setup_s": (out["run_start_unix_ns"] - spawned) / 1e9,
        "peak_rss_mb": out["peak_rss_kib"] / 1024,
    }


def spawn_or_exit(binary, workload, seed, mode):
    """spawn() for the set-up and host-speed samples, which must work."""
    out, spawned, err = spawn(binary, workload, seed, mode)
    if out is None:
        raise SystemExit(f"perfbench: {err}")
    return out, spawned


def setup_sample(binary, workload, seed):
    """Seconds from spawning a pass process to where its first run
    would start."""
    out, spawned = spawn_or_exit(binary, workload, seed, "setup")
    return (out["run_start_unix_ns"] - spawned) / 1e9


def host_probe(binary, workload, seed):
    """Seconds the fixed host-speed probe takes right now."""
    out, _ = spawn_or_exit(binary, workload, seed, "probe")
    return out["probe_ns"] / 1e9


def measure_end_to_end(binary, workload, seed, seconds, checker):
    setups = [setup_sample(binary, workload, seed) for _ in range(SETUP_SAMPLES)]
    probes = [host_probe(binary, workload, seed)]
    passes = []
    deadline = time.monotonic() + seconds
    for tried in range(1, MAX_PASSES + 1):
        pass_started = time.monotonic()
        numbers = untraced_pass(binary, workload, seed, checker)
        probes.append(host_probe(binary, workload, seed))
        if numbers is not None:
            # The host's speed during the pass: the mean of the probes
            # right before and right after it.
            numbers["speed"] = 2 * PROBE_REFERENCE_S / (probes[-2] + probes[-1])
            passes.append(numbers)
        if tried >= MIN_PASSES and out_of_time(pass_started, deadline):
            break
    if not passes:
        return None
    setups += [p["setup_s"] for p in passes]
    print(
        f"perfbench: {len(passes)} passes; unnormalized median run_s "
        f"{statistics.median(p['run_s'] for p in passes):.4f} s, median probe "
        f"{statistics.median(probes):.4f} s",
        file=sys.stderr,
    )
    # Pass times scale with the host's slowness, rates with its speed.
    # Set-up is process start (exec, page faults), not the simulator's
    # host work the probe models, so it is reported unnormalized.
    return {
        "run_s": statistics.median(p["run_s"] * p["speed"] for p in passes),
        "sim_events_per_s": statistics.median(p["sim_events_per_s"] / p["speed"] for p in passes),
        "setup_s": statistics.median(setups),
        # Mean, not median: a pass's peak resident set lands in one of a
        # few allocator-dependent modes ~10 % apart, and a median flips
        # between them from one invocation to the next.
        "peak_rss_mb": statistics.mean(p["peak_rss_mb"] for p in passes),
        "failed_ratio": checker.failed_ratio(),
    }


def out_of_time(pass_started, deadline):
    """True when another pass as long as the last would end past the
    deadline."""
    now = time.monotonic()
    return now + (now - pass_started) > deadline


def layer_numbers(stages, layers, run_s):
    """One traced cycle's per-layer numbers."""
    runs = stages["runs"]

    def total(field, rows=runs):
        return sum(r[field] for r in rows)

    m = {name: total(field) for name, field in STAGE_COUNTS.items()}
    m.update({name: total(field) for name, field in STAGE_TIMES.items()})
    m.update({name: total(field, layers["runs"]) for name, field in LAYER_TIMES.items()})
    m["zm4.max_fifo"] = max(r["max_fifo"] for r in runs)
    m["suprenum.ns_per_event"] = m["suprenum.run_ms"] * 1e6 / max(1, m["suprenum.events"])
    m["zm4.ns_per_sample"] = m["zm4.observe_ms"] * 1e6 / max(1, m["suprenum.display_writes"])
    epochs, profiled = m["des.epochs"], total("profiled_events")
    busiest = total("busiest_shard_events")
    # Single-cluster runs bypass the windowed engine: no epochs, and no
    # parallelism available (bound 1).
    m["des.events_per_epoch"] = profiled / epochs if epochs else 0.0
    m["des.balance_bound"] = profiled / busiest if busiest else 1.0
    m["trace.overhead_ratio"] = stages["pass_ns"] / 1e9 / run_s
    return m


def measure_layers(binary, workload, seed, seconds, checker):
    cycles = []
    deadline = time.monotonic() + seconds
    for _ in range(MAX_PASSES):
        cycle_started = time.monotonic()
        numbers = untraced_pass(binary, workload, seed, checker)
        stages, _, err = spawn(binary, workload, seed, "stages")
        if stages is None:
            checker.crashed(err)
        else:
            checker.check_pass(stages["runs"], "traced")
        layers, _, err = spawn(binary, workload, seed, "layers")
        if layers is None:
            checker.problems.append(err)
        if numbers is not None and stages is not None and layers is not None:
            cycles.append(layer_numbers(stages, layers, numbers["run_s"]))
        if cycles and out_of_time(cycle_started, deadline):
            break
    if not cycles:
        return None
    metrics = {}
    for name in PER_LAYER:
        values = [c[name] for c in cycles]
        if name in TIMED:
            metrics[name] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                checker.problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a whole number >= 0")

    expected = load_expected()
    binary = build()
    checker = Checker(args.workload, args.seed, expected)
    if args.trace:
        metrics = measure_layers(binary, args.workload, args.seed, args.seconds, checker)
        units = PER_LAYER
    else:
        metrics = measure_end_to_end(binary, args.workload, args.seed, args.seconds, checker)
        units = END_TO_END
    for problem in checker.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if metrics is None:
        raise SystemExit("perfbench: no pass completed; nothing to report")
    result = {
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
