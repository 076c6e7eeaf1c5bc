"""Benchmark harness for the emergent engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (see BENCHMARK.json for why
each exists):

    cli-27       seven CLI runs on fixtures/s3x3x3.json, each a fresh process
    check-small  `check` on the small theories and the invalid fixtures,
                 plus `quantum`
    pmcat-audit  check_partially_monoidal on three extracted instances and
                 on seeded corruptions of them, in one process

The loop is closed with one client: each operation starts after the last
one ended, and at most one child process exists at a time.  A run repeats
whole passes over the workload while at least half of the next pass
should fit in --seconds (always at least one).  The seed only picks
pmcat-audit's corruptions.

Every operation is checked: the exit code and stdout digest against
golden.json (recorded by record_golden.py), the shape counts against the
same file, and each planted corruption must be flagged with its kind.
A failed operation makes `correct` false.

wall_s and setup_s are scaled to a reference speed (workloads.SpeedGauge):
a fixed pure-Python loop is timed on the operation's CPU between
operations and, while a child runs, every SAMPLE_EVERY_S, and each
operation's time is scaled by REFERENCE_S over the loop's mean time, so
the host's CPU speed drift does not read as a change of the engine.  The
harness and its children share one CPU for this.  The pmcat-audit worker
gauges its checks itself.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates an
untraced pass with a traced one, in which probe.py calls each layer's
public functions in the CLI's order and times every call; it prints the
per-layer metrics and writes the spans (name, start, end, parent,
operation) to .perfbench/trace-WORKLOAD-seedN.json.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
PROBE = str(HERE / "probe.py")
CLI = (sys.executable, "-m", "emergent.cli")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_TIMES = (
    "cli.startup",
    "catalog.load",
    "lattice.enumerate",
    "states.scan",
    "systems.enumerate",
    "systems.compat",
    "checks.lattice",
    "checks.states",
    "checks.systems",
    "checks.processes",
    "checks.pmcat",
    "pmcat.extract",
    "pmcat.check",
    "sectors.quantum",
    "cli.render",
)
LAYER_COUNTS = (
    "lattice.nodes",
    "states.product_tests",
    "systems.count",
    "systems.compat_probes",
    "processes.objects",
    "processes.classes",
    "pmcat.instances",
    "pmcat.violations",
    "cache.hits",
    "cache.misses",
)
# ratio metric -> (useful outcomes, attempts)
LAYER_RATIOS = {
    "states.pure_ratio": ("states.pure", "states.product_tests"),
    "systems.compat_ratio": ("systems.compatible", "systems.compat_probes"),
    "pmcat.flagged_ratio": ("pmcat.flagged", "pmcat.corrupted"),
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    **{name: "ratio" for name in LAYER_RATIOS},
    "trace.overhead_s": "s",
}
SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0
NPROC = len(os.sched_getaffinity(0))


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_child(argv, timeout: float, gauge: wl.SpeedGauge | None = None) -> tuple[float, float, int, bytes, bytes]:
    """Run one child to completion: (start, end, exit code, stdout, stderr).

    With a gauge, the reference loop is timed every SAMPLE_EVERY_S while
    the child runs.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        while True:
            # A communicate() that times out keeps the output read so far.
            try:
                out, err = proc.communicate(timeout=wl.SAMPLE_EVERY_S if gauge else timeout)
                break
            except subprocess.TimeoutExpired:
                if gauge is None or time.perf_counter() - start > timeout:
                    raise
                gauge.sample()
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return start, time.perf_counter(), proc.returncode, out, err


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": NPROC,
        "cpus": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def summary(values) -> tuple[float, float, float, int]:
    """Median, first and third quartile, and sample count."""
    values = sorted(values)
    median = statistics.median(values)
    if len(values) == 1:
        return median, median, median, 1
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


class Bench:
    """One benchmark run: children, verification, spans and failure counts."""

    def __init__(self, golden: dict) -> None:
        self.golden = golden
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.ops = 0
        self.gauge = wl.SpeedGauge()

    def new_op(self) -> int:
        self.ops += 1
        return self.ops - 1

    def cli(self, argv) -> tuple[float, float, int, bytes]:
        """One gauged CLI operation within the run's time limit."""
        return run_child([*CLI, *argv], max(1.0, self.deadline - time.perf_counter()), self.gauge)[:4]

    def probe(self, *args, gauged: bool = False) -> tuple[float, float, int, bytes]:
        """One probe.py child; its stderr is shown when it fails."""
        argv = [sys.executable, PROBE, *args]
        gauge = self.gauge if gauged else None
        start, end, code, out, err = run_child(argv, max(1.0, self.deadline - time.perf_counter()), gauge)
        if code != 0:
            sys.stderr.write(err.decode(errors="replace"))
        return start, end, code, out

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {op}: {problem}", file=sys.stderr)

    def span(self, name: str, start: float, end: float, parent: int | None, op: int) -> int:
        self.spans.append((name, start, end, parent, op))
        return len(self.spans) - 1

    def check_op(self, argv, code: int, digest: str, shapes: dict) -> list[str]:
        want = self.golden["ops"][wl.op_id(argv)]
        problems = []
        if code != want["exit"]:
            problems.append(f"exit code {code}, expected {want['exit']}")
        if digest != want["sha256"]:
            problems.append(f"stdout sha256 {digest}, expected {want['sha256']}")
        if shapes != want["shapes"]:
            problems.append(f"shapes {shapes}, expected {want['shapes']}")
        return problems

    def check_setup(self, result: dict) -> list[str]:
        problems = []
        for name, order in result["orders"].items():
            if order != self.golden["theories"][name]:
                problems.append(f"{name} has order {order}")
        for name, sizes in result.get("extracted", {}).items():
            if sizes != self.golden["extracted"][name]:
                problems.append(f"{name} extracts to {sizes} objects, classes")
        return problems

    def setup(self, workload: str, seed: int) -> tuple[float, float]:
        """One fresh set-up process; returns its set-up time, scaled and not."""
        start, _, code, out = self.probe("setup", workload, str(seed), gauged=True)
        if code != 0:
            self.record(f"setup {workload}", [f"probe exit code {code}"])
            return float("nan"), float("nan")
        result = json.loads(out)
        self.record(f"setup {workload}", self.check_setup(result))
        return self.gauge.scale(start, result["ready"])

    # -- CLI workloads --------------------------------------------------

    def cli_pass(self, ops) -> tuple[float, float]:
        """One untraced pass: its operations' summed time, scaled and not."""
        runs = []
        scaled = raw = 0.0
        for argv in ops:
            start, end, code, out = self.cli(argv)
            op_scaled, op_raw = self.gauge.scale(start, end)
            scaled += op_scaled
            raw += op_raw
            runs.append((argv, code, out))
        for argv, code, out in runs:
            try:
                shapes = wl.shapes(argv, out.decode())
            except (ValueError, KeyError, TypeError) as exc:
                shapes = {"unreadable": str(exc)}
            digest = hashlib.sha256(out).hexdigest()
            self.record(wl.op_id(argv), self.check_op(argv, code, digest, shapes))
        return scaled, raw

    def cli_traced_pass(self, ops) -> tuple[float, dict]:
        first = len(self.spans)
        counts = collections.Counter()
        wall = 0.0
        for argv in ops:
            start, end, code, out = self.probe("traced", *argv)
            wall += end - start
            op = wl.op_id(argv)
            if code != 0:
                self.record(op, [f"traced probe exit code {code}"])
                continue
            result = json.loads(out)
            op_number = self.new_op()
            root = self.span(op, start, end, None, op_number)
            self.span("cli.startup", start, result["imported"], root, op_number)
            for name, s, e in result["spans"]:
                self.span(name, s, e, root, op_number)
            counts.update(result["counts"])
            counts.update({"cache.hits": result["cache"][0], "cache.misses": result["cache"][1]})
            self.record(op, self.check_op(argv, result["exit"], result["sha256"], result["shapes"]))
        return wall, layer_row(self.spans[first:], counts)

    def cli_workload(self, workload: str, seconds: float, traced: bool):
        ops = wl.CLI_OPS[workload]
        walls, raw_walls, traced_walls, rows = [], [], [], []
        started, last = time.perf_counter(), 0.0
        while not walls or wl.another_round(started, time.perf_counter(), last, seconds):
            round_start = time.perf_counter()
            scaled, raw = self.cli_pass(ops)
            walls.append(scaled)
            raw_walls.append(raw)
            if traced:
                wall, row = self.cli_traced_pass(ops)
                traced_walls.append(wall)
                rows.append(row)
            last = time.perf_counter() - round_start
        return walls, raw_walls, traced_walls, rows

    # -- pmcat-audit ----------------------------------------------------

    def check_audit_pass(self, results, clean, planted, altered, reference) -> None:
        n_clean = len(clean)
        labels = [f"clean {name}" for name in clean]
        labels += [f"{name} {kind} {key}" for name, kind, key, _ in planted]
        for i, (label, (count, kinds)) in enumerate(zip(labels, results)):
            problems = []
            if i < n_clean:
                if count:
                    problems.append(f"{count} violations on a clean instance")
            else:
                kind = planted[i - n_clean][1]
                if not altered[i - n_clean]:
                    problems.append("the planted change left the instance unchanged")
                if wl.CORRUPTIONS[kind] not in kinds:
                    problems.append(f"not flagged as {wl.CORRUPTIONS[kind]} (got {kinds})")
            if reference is not None and [count, kinds] != reference[i]:
                problems.append(f"result {[count, kinds]} differs from the first pass")
            self.record(f"pmcat-audit {label}", problems)
        if len(results) != len(labels):
            self.record("pmcat-audit", [f"{len(results)} results for {len(labels)} instances"])

    def audit_workload(self, seed: int, seconds: float, traced: bool):
        start, end, code, out = self.probe("audit", str(seed), str(seconds), str(int(traced)))
        if code != 0:
            self.record("pmcat-audit worker", [f"exit code {code}"])
            return [], [], [], []
        result = json.loads(out)
        self.record("setup pmcat-audit", self.check_setup(result))
        clean, planted, altered = list(result["extracted"]), result["planted"], result["altered"]
        op = self.new_op()
        setup_root = self.span("pmcat-audit setup", start, result["ready"], None, op)
        self.span("cli.startup", start, result["imported"], setup_root, op)
        for name, s, e in result["setup_spans"]:
            self.span(name, s, e, setup_root, op)
        setup_spans = self.spans[setup_root:]
        walls, raw_walls, traced_walls, rows = [], [], [], []
        for p in result["passes"]:
            self.check_audit_pass(p["results"], clean, planted, altered, result["passes"][0]["results"])
            if not p["traced"]:
                walls.append(p["scaled"])
                raw_walls.append(p["raw"])
                continue
            op = self.new_op()
            root = self.span("pmcat-audit pass", p["start"], p["end"], None, op)
            for name, s, e in p["spans"]:
                self.span(name, s, e, root, op)
            pass_spans = self.spans[root:]
            counts = collections.Counter(result["counts"])
            counts.update(
                {
                    "pmcat.instances": len(p["results"]),
                    "pmcat.violations": sum(r[0] for r in p["results"]),
                    "pmcat.corrupted": len(planted),
                    "pmcat.flagged": sum(
                        wl.CORRUPTIONS[kind] in r[1]
                        for (_, kind, _, _), r in zip(planted, p["results"][len(clean):])
                    ),
                    "cache.hits": result["cache"][0],
                    "cache.misses": result["cache"][1],
                }
            )
            traced_walls.append(p["raw"])
            rows.append(layer_row(setup_spans + pass_spans, counts))
        return walls, raw_walls, traced_walls, rows


def layer_row(spans, counts) -> dict:
    """Per-layer values of one traced pass: summed span times and counts."""
    row = {f"{name}_s": 0.0 for name in LAYER_TIMES}
    for name, start, end, _, _ in spans:
        if name in LAYER_TIMES:
            row[f"{name}_s"] += end - start
    row.update({name: counts.get(name, 0) for name in LAYER_COUNTS})
    for name, (useful, attempts) in LAYER_RATIOS.items():
        row[name] = counts.get(useful, 0) / counts[attempts] if counts.get(attempts) else 0.0
    return row


def run(workload: str, seed: int, seconds: float, traced: bool, golden: dict, out=sys.stdout) -> dict:
    """Run one workload and print its report; returns the result object."""
    stamp = env_stamp(workload, seed, traced)
    print(f"# env {json.dumps(stamp, sort_keys=True)}", file=out)
    bench = Bench(golden)
    setups = [bench.setup(workload, seed) for _ in range(SETUP_REPEATS)]
    if workload == "pmcat-audit":
        walls, raw_walls, traced_walls, rows = bench.audit_workload(seed, seconds, traced)
    else:
        walls, raw_walls, traced_walls, rows = bench.cli_workload(workload, seconds, traced)
    samples: dict[str, list[float]] = {}
    if traced:
        for name in PER_LAYER:
            if name != "trace.overhead_s":
                samples[name] = [row[name] for row in rows]
        samples["trace.overhead_s"] = [t - u for t, u in zip(traced_walls, raw_walls)]
        trace_path = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.json"
        trace_path.parent.mkdir(exist_ok=True)
        trace_path.write_text(
            json.dumps({"env": stamp, "fields": ["name", "start", "end", "parent", "op"], "spans": bench.spans})
        )
        units = PER_LAYER
    else:
        samples["wall_s"] = walls
        samples["setup_s"] = [scaled for scaled, _ in setups]
        if walls:
            print(
                f"# unscaled: wall_s {statistics.median(raw_walls):.10g} s, "
                f"setup_s {statistics.median(raw for _, raw in setups):.10g} s",
                file=out,
            )
        samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024]
        units = END_TO_END
    metrics = {}
    for name, unit in units.items():
        if not samples[name] or any(v != v for v in samples[name]):
            bench.record(name, ["no valid sample"])
            continue
        median, q1, q3, n = summary(samples[name])
        print(f"{name:22s} {median:.10g} {unit}  (median; q1 {q1:.10g}, q3 {q3:.10g}; n={n})", file=out)
        metrics[name] = {"value": median, "unit": unit}
    fail_frac = bench.failed / max(bench.attempted, 1)
    print(f"{'fail_frac':22s} {fail_frac:.6g} ratio  ({bench.failed} of {bench.attempted} operations failed)", file=out)
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), file=out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/emergent/cli.py", "fixtures/s3x3x3.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a checkout of the engine (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    # The harness and its children (which inherit this) share one CPU, so
    # that the reference loop timed in the harness runs where the
    # operations run: the two vCPUs of a shared host were seen to differ
    # in speed by up to a factor of two, and to drift apart.  One child
    # runs at a time, so one CPU is all the workloads use anyway.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace), json.loads(GOLDEN.read_text()))
    except subprocess.TimeoutExpired as exc:
        print(f"error: run exceeded {RUN_LIMIT_S:.0f} s: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
