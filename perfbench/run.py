#!/usr/bin/env python3
"""encdns benchmark: builds the benchmark binary from source, runs one workload
for a while, checks its outputs and prints every metric.

    python3 perfbench/run.py --workload study_full --seed 1 --seconds 10 --trace 0

Run from the repository root. The last stdout line is a JSON object with
"correct", "attempted", "failed" and "metrics"; --trace 0 gives the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones. The lines
before it are the human-readable report. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Worlds with recorded reference outputs; --seed picks one of them, and the
# query loop also draws its names from --seed itself.
WORLD_SEEDS = [2019, 2020, 2021, 2022]

WORKLOADS = {
    # The user's `encdns_study --full` path on the task graph.
    "study_full": {"binary": "study", "faults": "off", "journal": False, "scale": "full"},
    # The same study on its failure and write paths. At quick scale: at full
    # scale one journaled repetition holds 2.4 GB of memory and writes a
    # 1.8 GB journal, more than a shared host can be asked for; quick scale
    # runs the same fault, retry, failover, breaker, serve-stale and journal
    # paths in 160 MiB with a 29 MB journal.
    "campaign_faults_journal": {"binary": "study", "faults": "canonical", "journal": True,
                                "scale": "quick"},
    # One thread, one World: the query hot path without the scheduler.
    "query_loop": {"binary": "query_loop", "faults": "off", "journal": False, "scale": "full"},
}

# Per-layer metrics a workload's layers do not exercise, by name prefix: the
# traced run reports them as 0. Every other metric BENCHMARK.json names must
# come from the run itself, or the run fails.
IDLE_LAYERS = {
    "study_full": ("checkpoint.", "client.", "dns.", "tls.", "http.", "query."),
    "campaign_faults_journal": ("client.", "dns.", "tls.", "http.", "query."),
    "query_loop": ("core.", "checkpoint.", "exec.tasks", "exec.jobs", "exec.steals", "scan.",
                   "measure.", "fault.", "proxy.", "traffic."),
}

# Set-up (Study or World construction) takes about 12 ms, too short to time
# once. A run samples it in set-up-only processes (`--setup-only 1`) spread
# through it: a group of SETUP_GROUP after each repetition, at least
# SETUP_GROUPS groups in all. setup_s is the median of the group means, which
# a few slow processes move less than they move a median over single ones.
SETUP_GROUP = 8
SETUP_GROUPS = 6

# A traced study run repeats the untraced task-graph study this many times
# and counts the distinct obs-JSON digests among them.
OBS_REPS = 3

# No run starts a repetition that would end past this many seconds.
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0


def log(*parts):
    print(*parts, flush=True)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    sys.exit(1)


def world_seed(seed):
    return WORLD_SEEDS[(seed - WORLD_SEEDS[0]) % len(WORLD_SEEDS)]


def threads():
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no encdns sources under {ROOT}/src: run from a full checkout")
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(threads()), "--target", "encdns_perfbench"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "encdns_perfbench")


def child_env(faults):
    env = {k: v for k, v in os.environ.items() if not k.startswith("ENCDNS_")}
    env["ENCDNS_FAULTS"] = faults
    return env


def run_rep(binary, spec, seed, scale, traced=False, journal=None, trace_out=None, serial=False,
            setup_only=False, cpu=None):
    """One repetition in a fresh process, pinned to `cpu` if given; returns
    its JSON record."""
    args = [binary, "--workload", spec["binary"], "--seed", str(world_seed(seed)),
            "--input-seed", str(seed), "--scale", scale, "--threads", str(threads()),
            "--trace", "1" if traced else "0", "--serial-phases", "1" if serial else "0",
            "--setup-only", "1" if setup_only else "0"]
    if journal:
        args += ["--journal-dir", journal]
    if trace_out:
        args += ["--trace-out", trace_out]
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=child_env(spec["faults"]), timeout=CHILD_TIMEOUT_S,
                              preexec_fn=None if cpu is None else
                              lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        fail(f"{spec['binary']} took more than {CHILD_TIMEOUT_S:.0f} s")
    finally:
        if journal:
            shutil.rmtree(journal, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        fail(f"{spec['binary']} exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        log(line)
    return json.loads(lines[-1])


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as f:
        return json.load(f)


def schedule(serial):
    return "serial" if serial else "graph"


def check_rep(rep, workload, seed, scale, reference, serial=False):
    """Output checks against the recorded reference for the schedule the
    repetition ran. Returns (attempted, failed, failure messages), the
    checks made here included."""
    attempted, failed = rep["attempted"], rep["failed"]
    failures = list(rep["failures"])
    if WORKLOADS[workload]["binary"] == "study":
        faults = WORKLOADS[workload]["faults"]
        ref = reference[scale][faults][schedule(serial)][str(world_seed(seed))]
        for name, want in ref["tables"].items():
            attempted += 1
            got = rep["digests"].get("table." + name)
            if got != want:
                failures.append(f"table {name} digest {got} != reference {want}")
        for name, want in ref["counts"].items():
            attempted += 1
            got = rep["counts"].get(name)
            if got != want:
                failures.append(f"{name} = {got}, reference {want}")
        failed += len(failures) - len(rep["failures"])
    return attempted, failed, failures


class Checks:
    """Runs repetitions of one workload and totals their output checks."""

    def __init__(self, binary, workload, seed, scale, reference):
        self.binary, self.workload, self.seed, self.scale = binary, workload, seed, scale
        self.reference = reference
        self.attempted, self.failed, self.failures = 0, 0, []
        self.cpus, self.turns = sorted(os.sched_getaffinity(0)), 0

    def next_cpu(self):
        """Single-threaded processes are pinned to the CPUs in turn: the host
        runs a VM's CPUs at speeds that differ by up to a third, so a run
        samples each of them equally instead of where the scheduler puts it."""
        self.turns += 1
        return self.cpus[self.turns % len(self.cpus)]

    def rep(self, traced=False, serial=False, journal=False, trace_out=None, cpu=None):
        """One checked repetition; `journal` writes one into a fresh dir."""
        spec = WORKLOADS[self.workload]
        path = journal_path("traced" if traced else "plain") if journal else None
        if cpu is None and spec["binary"] == "query_loop":
            cpu = self.next_cpu()
        rep = run_rep(self.binary, spec, self.seed, self.scale, traced=traced, serial=serial,
                      journal=path, trace_out=trace_out, cpu=cpu)
        a, n, f = check_rep(rep, self.workload, self.seed, self.scale, self.reference, serial)
        self.attempted, self.failed, self.failures = self.attempted + a, self.failed + n, \
            self.failures + f
        values = rep["values"]
        if "checkpoint.journal_bytes" in values:
            values["checkpoint.journal_mib"] = values["checkpoint.journal_bytes"] / 2**20
        return rep

    def setup_group(self):
        """Mean set-up seconds over SETUP_GROUP set-up-only processes."""
        spec = WORKLOADS[self.workload]
        return statistics.fmean(
            run_rep(self.binary, spec, self.seed, self.scale, setup_only=True,
                    cpu=self.next_cpu())["values"]["setup_s"]
            for _ in range(SETUP_GROUP))


def journal_path(tag):
    path = os.path.join(build_dir(), "perfbench-out", f"journal-{os.getpid()}-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    return path


def require(values, name, workload):
    if name not in values:
        fail(f"{workload} did not report the metric {name}")
    return values[name]


def median(reps, name, workload):
    return statistics.median(require(rep["values"], name, workload) for rep in reps)


def mean(reps, name, workload):
    return statistics.fmean(require(rep["values"], name, workload) for rep in reps)


def distinct_obs(reps):
    return len({rep["digests"]["obs"] for rep in reps})


def untraced_run(checks, seconds):
    """Repetitions until the window is spent, a set-up group after each;
    returns (repetitions, set-up group means)."""
    journal = WORKLOADS[checks.workload]["journal"]
    reps, groups = [], []
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        reps.append(checks.rep(journal=journal))
        groups.append(checks.setup_group())
        # Start another repetition only if it should end inside the window.
        now = time.monotonic()
        if now - start + (now - rep_start) > min(seconds, RUN_BUDGET_S):
            break
    while len(groups) < SETUP_GROUPS:
        groups.append(checks.setup_group())
    return reps, groups


def describe(workload, reps):
    """The human-readable end-to-end report of an untraced run."""
    log(f"== {workload}: {len(reps)} repetition(s), means ==")
    rows = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mib", "MiB"), ("setup_wall_s", "s")]
    if WORKLOADS[workload]["journal"]:
        rows.append(("checkpoint.journal_mib", "MiB"))
    if workload == "query_loop":
        rows += [("query.qps", "1/s"), ("query.p50_us", "us"), ("query.p99_us", "us"),
                 ("query.failed_share", "share"), ("query.modelled_loss_share", "share")]
    for name, unit in rows:
        log(f"  {name:<28} {mean(reps, name, workload):>14.6g} {unit}")
    log("  wall_s of each repetition: " + " ".join(f"{rep['values']['wall_s']:.4g}" for rep in reps))
    if workload == "query_loop":
        log(f"  latency percentiles over {int(median(reps, 'query.samples', workload))} "
            f"queries per repetition")
    else:
        log(f"  obs digests: {distinct_obs(reps)} distinct in {len(reps)} repetition(s)")


def traced_run(checks, workload):
    """The per-layer values: untraced repetitions for the baselines, then
    traced ones."""
    spec = WORKLOADS[workload]
    study = spec["binary"] == "study"
    out = os.path.join(build_dir(), "perfbench-out")
    os.makedirs(out, exist_ok=True)
    prefix = os.path.join(out, f"{workload}-{checks.scale}")

    if not study:
        # Both on one CPU, so that the overhead is not a difference of CPUs.
        cpu = checks.next_cpu()
        base = checks.rep(cpu=cpu)["values"]
        values = checks.rep(traced=True, trace_out=prefix, cpu=cpu)["values"]
        values["trace.overhead_s"] = values["wall_s"] - base["wall_s"]
        for name in ("query.qps", "query.p50_us", "query.p99_us", "query.failed_share"):
            values[name] = require(base, name, workload)
    else:
        # Untraced task-graph repetitions without a journal: the obs-digest
        # count, the exec figures and the wall time the phases overlap in.
        graph = [checks.rep() for _ in range(OBS_REPS)]
        graph_wall = median(graph, "wall_s", workload)
        if not spec["journal"]:
            # The traced repetition forces the phases serially, one span
            # each; its overhead is taken against the same schedule untraced.
            serial = checks.rep(serial=True)["values"]
            phases = checks.rep(traced=True, serial=True, trace_out=prefix)
            values = dict(phases["values"])
            values["trace.overhead_s"] = values["wall_s"] - serial["wall_s"]
            exec_reps = graph
        else:
            # A journaled study must run on the task graph: the journal's
            # figures come from a journaled repetition, its cost against the
            # graph repetitions without it, and the phase split from a
            # serial repetition without it.
            journaled = checks.rep(journal=True)
            values = dict(checks.rep(traced=True, journal=True, trace_out=prefix)["values"])
            values["trace.overhead_s"] = values["wall_s"] - journaled["values"]["wall_s"]
            phases = checks.rep(traced=True, serial=True, trace_out=prefix + "-phases")
            values.update({k: v for k, v in phases["values"].items() if k not in values})
            for name in ("checkpoint.journal_bytes", "checkpoint.journal_mib",
                         "checkpoint.records"):
                values[name] = require(journaled["values"], name, workload)
            values["checkpoint.s"] = journaled["values"]["wall_s"] - graph_wall
            exec_reps = [journaled]
        values["core.overlap"] = require(phases["values"], "core.phase_sum_s", workload) / graph_wall
        values["core.obs_digests_distinct"] = distinct_obs(graph)
        values["core.obs_digest_runs"] = len(graph)
        # Known defect: under faults at full scale the serial schedule renders
        # some tables differently from the task graph. Count them, this run.
        values["core.schedule_divergent_tables"] = sum(
            1 for name, digest in phases["digests"].items()
            if name.startswith("table.") and graph[0]["digests"].get(name) != digest)
        for name in ("exec.tasks", "exec.jobs", "exec.steals", "exec.busy_share"):
            values[name] = median(exec_reps, name, workload)
        log(f"obs digests: {values['core.obs_digests_distinct']} distinct in {len(graph)} "
            f"untraced task-graph repetitions")
    log(f"tracing overhead: {values['trace.overhead_s']:.4f} s (traced wall_s - untraced "
        f"wall_s on the same schedule)")
    log(f"trace coverage: {values['trace.coverage']:.4f} of the traced wall time is in spans")
    log(f"spans and layer tables: {prefix}*.spans.tsv, {prefix}*.layers.txt")
    return values


def layer_values(values, workload, wanted):
    """The per-layer metrics `wanted` names: 0 on the workload's idle
    layers, the run's own value for every other one; fails without it."""
    idle = IDLE_LAYERS[workload]
    return {m["name"]: 0.0 if m["name"].startswith(idle) else require(values, m["name"], workload)
            for m in wanted}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=WORLD_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "quick"),
                        help="the workload's own scale by default; quick is the smoke mode "
                             "the benchmark's own tests run")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    reference = load_reference()
    binary = build()
    workload = args.workload
    scale = args.scale or WORKLOADS[workload]["scale"]
    checks = Checks(binary, workload, args.seed, scale, reference)

    if args.trace == 0:
        reps, groups = untraced_run(checks, args.seconds)
        describe(workload, reps)
        values = {m["name"]: mean(reps, m["name"], workload)
                  for m in bench["end_to_end"] if m["name"] != "setup_s"}
        values["setup_s"] = statistics.median(groups)
        log(f"  setup_s: median of {len(groups)} means of {SETUP_GROUP} set-up-only processes "
            f"= {values['setup_s']:.6g} CPU s")
        wanted = bench["end_to_end"]
    else:
        wanted = bench["per_layer"]
        values = layer_values(traced_run(checks, workload), workload, wanted)

    for failure in checks.failures:
        log(f"CHECK FAILED: {failure}")
    log(f"output checks: {checks.attempted - checks.failed}/{checks.attempted} passed")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for m in wanted:
        log(f"  {m['name']:<40} {values[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
