"""Cold-process benchmark of ncbell: verify-all, bell-deep and cli-cold.

    python3 perfbench/run.py --workload bell-deep --seed 1 --seconds 40 --trace 0

Run from anywhere; the checkout is the parent of this directory and ncbell
is imported from its ``src/`` (nothing needs installing). Every pass runs in
a fresh interpreter (worker.py, or ncbell.cli run as ``python -m`` does for cli-cold),
one child at a time, so module caches start empty as in every ``ncbell``
call. Outputs are checked against references outside ncbell (checks.py).

Pass times are reported in yardsticks (yardstick.py), a fixed kernel timed
in the same process between the ops, because the shared host's speed
drifts by up to 2x over minutes.

--trace 0 prints the end-to-end metrics; --trace 1 alternates two untraced
and two traced passes and prints the per-layer metrics. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it is the
environment record. README.md lists the metrics and what should move them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
from tracer import COUNTED, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

DEADLINE = time.perf_counter() + 170  # children still running then are killed
SETUP_SAMPLES = 9  # set-up-only workers per run, on top of one per pass
BARE_SAMPLES = 5
TRACE_PAIRS = 2  # untraced and traced passes of a --trace 1 run, alternating
TAIL = 0.75  # cli.call_p75_s; two rounds of the pool leave >= 10 calls above it
MIN_PASSES = {"verify-all": 3, "bell-deep": 3, "cli-cold": 2}
PASS_TIMES = ("wall_s", "cpu_s", "wall_ref", "cpu_ref")  # raw seconds, then in yardsticks

# cli-cold: every verb and all three formats, outputs from 48 B to 98 KB;
# verify --suite mobius exits 1 by design of the nc d-alphabet bialgebra.
CLI_POOL = {
    "bell-nc12-json": ["bell", "--nc", "-n", "12", "--format", "json"],
    "bell-c10-latex": ["bell", "--c", "-n", "10", "--format", "latex"],
    "bell-8": ["bell", "-n", "8"],
    "bell-scaled": ["bell", "-n", "7", "-k", "3", "--scaled", "--format", "latex"],
    "bell-q": ["bell", "-n", "6", "-k", "3", "--q"],
    "partial-json": ["partial", "-n", "10", "-k", "4", "--format", "json"],
    "partial-c-latex": ["partial", "--c", "-n", "12", "-k", "5", "--format", "latex"],
    "qbell-grouped": ["qbell", "-n", "6", "-k", "3", "--grouped"],
    "qbell-json": ["qbell", "-n", "5", "-k", "2", "--format", "json"],
    "trees-5": ["trees", "-n", "5"],
    "trees-nonplanar-json": ["trees", "-n", "5", "--nonplanar", "--format", "json"],
    "quasidet-bell-latex": ["quasidet", "--bell-matrix", "-n", "7", "--format", "latex"],
    "quasidet-file": ["quasidet", "--file", "perfbench/inputs/matrix.json", "--row", "2"],
    "hopf-coproduct-json": ["hopf", "--fdb", "--coproduct", "-n", "5", "--format", "json"],
    "hopf-antipode-qdet": ["hopf", "--dfdb", "--antipode", "--method", "qdet", "-n", "5"],
    "hopf-antipode-left-latex": ["hopf", "--antipode", "--side", "left", "-n", "4",
                                 "--format", "latex"],
    "mobius-invert-json": ["mobius", "--invert", "-n", "6", "--format", "json"],
    "mobius-nc-antipode": ["mobius", "--nc", "--antipode", "--side", "left", "-n", "4"],
    "series-compose-latex": ["series", "--compose", "--order", "8", "--file",
                             "perfbench/inputs/pair.json", "--format", "latex"],
    "series-reversion-json": ["series", "--reversion", "--order", "8", "--file",
                              "perfbench/inputs/series.json", "--format", "json"],
    "series-flow": ["series", "--flow-check", "--order", "4"],
    "verify-mobius": ["verify", "--suite", "mobius"],
    "verify-partition-oracle": ["verify", "--suite", "partition-oracle", "--max-degree", "6"],
}
CLI_VERBS = ("bell", "partial", "qbell", "trees", "quasidet", "hopf", "mobius", "series",
             "verify")
SUITES = checks.SUITE_NAMES
BELL_OPS = {"bell.bell_nc_s": "bell_nc", "bell.bell_c_s": "bell_c",
            "bell.scaled_s": "scaled", "quasidet.bell_qdet_s": "qdet"}

# per-layer metric stems, with the workloads on which they must record calls
KERNEL = ("algebra.ncpoly_mul", "algebra.ncpoly_add", "algebra.ncpoly_derive",
          "algebra.ncpoly_substitute", "algebra.cpoly_mul", "algebra.cpoly_add",
          "algebra.cpoly_derive", "bell.partial", "quasidet.hessenberg")
EXPECTED = {stem: ("verify-all",) for stem in LAYERS}
EXPECTED.update({stem: ("verify-all", "bell-deep") for stem in KERNEL})
EXPECTED.update({"algebra.render": ("cli-cold",), "algebra.parse": ("verify-all", "cli-cold")})
KEEP_RATIOS = {"algebra.ncpoly_mul_keep_ratio": "algebra.ncpoly_mul",
               "bell.partial_keep_ratio": "bell.partial",
               "partitions.qcount_keep_ratio": "partitions.qcount",
               "hopf.tensor_keep_ratio": "hopf.tensor_mul"}


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


# ---------------------------------------------------------------------------
# children


class Child:
    def __init__(self, argv: list, handshake: bool):
        """Run argv to completion in its own process and record its timing.

        With handshake, the child writes "ready" once set up; the time to
        it is the set-up time. Resource use comes from os.wait4.
        """
        self.start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=ENV)
        timer = threading.Timer(max(0.0, DEADLINE - self.start), proc.kill)
        timer.start()
        try:
            self.ready = None
            if handshake:
                line = proc.stdout.readline()
                self.ready = time.perf_counter()
                if line != b"ready\n":
                    raise BenchError(f"{argv[1:4]} did not get ready: {line[:200]!r}")
            self.stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            self.end = time.perf_counter()
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.wall = self.end - self.start


def worker(workload: str, seed: int, mode: str, *extra: str) -> tuple:
    child = Child([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                   "--seed", str(seed), "--mode", mode, *extra], handshake=True)
    if child.code != 0:
        raise BenchError(f"{workload} {mode} worker exited with {child.code}")
    return child, json.loads(child.stdout.splitlines()[-1])


# `python -m ncbell.cli`, plus an exit hook that records the call's VmHWM
# (ru_maxrss from wait4 would also count this process's pages at the fork)
# and then times the yardstick; the hook's own time and CPU are taken off.
CLI_MAIN = """\
import atexit, runpy, sys, time
def hook(path, perfbench):
    start, cpu = time.perf_counter(), time.process_time()
    with open("/proc/self/status") as status:
        peak = next(line for line in status if line.startswith("VmHWM:")).split()[1]
    sys.path.append(perfbench)
    from yardstick import yardstick
    yard = yardstick()
    with open(path, "w") as out:
        out.write(f"{peak} {yard} {time.perf_counter() - start} {time.process_time() - cpu}")
atexit.register(hook, sys.argv.pop(1), sys.argv.pop(1))
runpy.run_module("ncbell.cli", run_name="__main__", alter_sys=True)
"""


def cli_call(argv: list) -> tuple:
    """One CLI call in its own interpreter: (child, its times and peak memory)."""
    OUT.mkdir(exist_ok=True)
    hook_file = OUT / "cli-hook"
    hook_file.unlink(missing_ok=True)
    child = Child([sys.executable, "-c", CLI_MAIN, str(hook_file), str(HERE), *argv],
                  handshake=False)
    if not hook_file.exists():
        raise BenchError(f"{argv} ended before its exit hook ran (exit {child.code})")
    peak_kb, yard, hook_s, hook_cpu = (float(x) for x in hook_file.read_text().split())
    wall, cpu = child.wall - hook_s, child.cpu_s - hook_cpu
    return child, {"wall_s": wall, "cpu_s": cpu, "wall_ref": wall / yard, "cpu_ref": cpu / yard,
                   "yardstick_s": yard, "peak_rss_mb": peak_kb / 1024}


# ---------------------------------------------------------------------------
# statistics


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile; fails unless >= 10 samples lie above it."""
    ordered = sorted(values)
    rank = math.ceil(p * len(ordered))
    if len(ordered) - rank < 10:
        raise BenchError(f"{len(ordered)} samples leave fewer than 10 above p{p * 100:g}")
    return ordered[rank - 1]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Samples(dict):
    def add(self, name: str, value: float) -> None:
        self.setdefault(name, []).append(value)

    def median(self, name: str) -> float:
        return statistics.median(self[name])


# ---------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.samples = Samples()
        self.attempted = 0
        self.failures: list = []  # (where, op, reason)
        self.controls: dict = {}
        self.cli_golden = checks.load_golden("cli_cold.json")
        rng = random.Random(seed)
        self.cli_order = list(CLI_POOL)
        rng.shuffle(self.cli_order)

    def spans_path(self, label: str) -> Path:
        OUT.mkdir(exist_ok=True)
        return OUT / f"spans-{label}.jsonl"

    def record(self, bad: dict, attempted: int, label: str) -> None:
        self.attempted += attempted
        self.failures += [(label, op, reason) for op, reason in bad.items()]

    def prelude(self) -> None:
        """Interpreter floor and set-up samples, after one untimed warm-up
        (it byte-compiles src/ in a fresh checkout)."""
        worker(self.workload, self.seed, "setup")
        for _ in range(BARE_SAMPLES):
            self.samples.add("bare", Child([sys.executable, "-c", "pass"], False).wall)
        for _ in range(SETUP_SAMPLES):
            child, result = worker(self.workload, self.seed, "setup")
            self.samples.add("setup_s", child.ready - child.start)
            self.samples.add("import_s", result["import_s"])

    # -- passes ----------------------------------------------------------------

    def check(self, result: dict) -> dict:
        errors = {op: f"raised {exc}" for op, exc in result.get("errors", {}).items()}
        if self.workload == "verify-all":
            return {**checks.check_verify(result["observed"]), **errors}
        return {**checks.check_bell(result["observed"]), **errors}

    def worker_pass(self, mode: str, control: bool = False) -> dict:
        """One worker pass, checked; with control, the workload's positive
        control runs on its outputs too."""
        extra = ["--control"] if control and self.workload == "bell-deep" else []
        if mode == "trace":
            extra += ["--spans", str(self.spans_path(self.workload))]
        child, result = worker(self.workload, self.seed, mode, *extra)
        self.record(self.check(result), len(result["op_s"]), mode)
        if control and self.workload == "bell-deep":
            planted = checks.check_bell({"bell_nc": result["control"]})
            self.controls["planted coefficient"] = bool(planted)
        elif control:
            flipped = {name: dict(obs) for name, obs in result["observed"].items()}
            first = SUITES[0]
            flipped[first]["ok"] = not flipped[first]["ok"]
            self.controls["flipped verdict"] = first in checks.check_verify(flipped)
        result["setup_s"] = child.ready - child.start
        return result

    def cli_round(self, traced: bool, control: bool = False) -> dict:
        """Every pool call once, in the seeded order; one interpreter each.
        With control, one altered stdout byte must fail the check."""
        calls = {}
        for call_id in self.cli_order:
            argv = CLI_POOL[call_id]
            if traced:
                child, result = worker("cli-cold", self.seed, "trace",
                                       "--argv", json.dumps(argv),
                                       "--spans", str(self.spans_path(call_id)))
                call = result["call"]
                call["layers"] = result["layers"]
                call["wall_s"] = child.wall
            else:
                child, timing = cli_call(argv)
                call = {**checks.cli_result(child.stdout, child.code), **timing,
                        "stdout": child.stdout}
            call["verb"] = argv[0]
            self.record(checks.check_cli(call_id, call, self.cli_golden), 1,
                        "trace" if traced else "pass")
            calls[call_id] = call
        if control:
            call_id = self.cli_order[0]
            data = bytearray(calls[call_id]["stdout"])
            data[len(data) // 2] ^= 0x01
            altered = checks.cli_result(bytes(data), calls[call_id]["exit"])
            self.controls["altered CLI byte"] = bool(
                checks.check_cli(call_id, altered, self.cli_golden))
        return calls

    def untraced(self) -> None:
        """Passes until the next one would overrun --seconds, and at least
        MIN_PASSES of them."""
        begin = time.perf_counter()
        durations: list = []
        while len(durations) < MIN_PASSES[self.workload] or (
                time.perf_counter() - begin + statistics.median(durations) <= self.seconds):
            started = time.perf_counter()
            if self.workload == "cli-cold":
                calls = self.cli_round(traced=False, control=not durations).values()
                result = {name: sum(c[name] for c in calls) for name in PASS_TIMES}
                result["yardstick_s"] = statistics.median(c["yardstick_s"] for c in calls)
                self.samples.add("peak_rss_mb", max(c["peak_rss_mb"] for c in calls))
            else:
                result = self.worker_pass("pass", control=not durations)
                self.samples.add("setup_s", result["setup_s"])
                self.samples.add("peak_rss_mb", result["peak_rss_mb"])
                for name, seconds in result["op_s"].items():
                    self.samples.add(f"op.{name}", seconds)
            for name in (*PASS_TIMES, "yardstick_s"):
                self.samples.add(name, result[name])
            durations.append(time.perf_counter() - started)

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self) -> dict:
        s = self.samples
        return {"setup_s": metric(s.median("setup_s"), "s"),
                "wall_ref": metric(s.median("wall_ref"), "ref"),
                "cpu_ref": metric(s.median("cpu_ref"), "ref"),
                "peak_rss_mb": metric(s.median("peak_rss_mb"), "MB")}

    def trace_pass(self, traced: bool, control: bool) -> tuple:
        """One pass (a round for cli-cold): (wall, output digests, layers)."""
        if self.workload == "cli-cold":
            calls = self.cli_round(traced, control)
            if not traced:
                for c in calls.values():
                    self.samples.add("call_s", c["wall_s"])
                    self.samples.add(f"cli.{c['verb']}_s", c["wall_s"])
            layers = merge_layers([c["layers"] for c in calls.values()]) if traced else None
            return (sum(c["wall_s"] for c in calls.values()),
                    {i: c["sha256"] for i, c in calls.items()}, layers)
        result = self.worker_pass("trace" if traced else "pass", control)
        if not traced:
            for name, seconds in result["op_s"].items():
                self.samples.add(f"op.{name}", seconds)
        return result["wall_s"], result["observed"], result.get("layers")

    def traced(self) -> dict:
        """TRACE_PAIRS untraced and traced passes, alternating. Per-layer
        metrics are medians over the traced passes; op times and the
        tracing overhead compare them with the untraced ones."""
        plain, traced = [], []
        for i in range(TRACE_PAIRS):
            plain.append(self.trace_pass(False, control=i == 0))
            traced.append(self.trace_pass(True, control=False))
        self.controls["traced outputs identical"] = all(
            out == plain[0][1] for _, out, _ in plain + traced)
        untraced_wall = statistics.median(wall for wall, _, _ in plain)
        traced_wall = statistics.median(wall for wall, _, _ in traced)
        overhead = (traced_wall - untraced_wall) / untraced_wall
        reports = [self.per_layer(layers, overhead) for _, _, layers in traced]
        return {name: metric(statistics.median(r[name]["value"] for r in reports),
                             reports[0][name]["unit"]) for name in reports[0]}

    def op_median(self, name: str) -> float:
        return statistics.median(self.samples[name]) if name in self.samples else 0.0

    def per_layer(self, layers: dict, overhead: float) -> dict:
        """Every per-layer metric. One that the workload should exercise but
        that recorded no calls (say, after a rename) is an error, not a 0."""
        w = self.workload
        rows = []  # (name, value, unit, must be nonzero on this workload)
        for stem in LAYERS:
            if w in EXPECTED[stem] and not layers["calls"][stem]:
                raise BenchError(f"{stem} recorded no calls on {w}; was it renamed?")
            rows.append((f"{stem}_s", layers["self_s"][stem], "s", False))
        for stem in COUNTED:
            rows.append((f"{stem}_calls", layers["calls"][stem], "count", False))
        for name, stem in KEEP_RATIOS.items():
            scanned = layers["scanned"][stem]
            rows.append((name, layers["kept"][stem] / scanned if scanned else 0.0, "ratio",
                         w in EXPECTED[stem]))
        rows.append(("partitions.partitions_out", layers["partitions_out"], "count",
                     w in EXPECTED["partitions.enumerate"]))
        rows += [(name, self.op_median(f"op.{op}"), "s", w == "bell-deep")
                 for name, op in BELL_OPS.items()]
        rows += [(f"verify.{suite}_s", self.op_median(f"op.{suite}"), "s", w == "verify-all")
                 for suite in SUITES]
        rows += [(f"cli.{verb}_s", self.op_median(f"cli.{verb}_s"), "s", w == "cli-cold")
                 for verb in CLI_VERBS]
        cli = w == "cli-cold"
        rows += [("cli.call_p50_s", self.op_median("call_s"), "s", cli),
                 ("cli.call_p75_s", percentile(self.samples["call_s"], TAIL) if cli else 0.0,
                  "s", cli),
                 ("cli.import_s", self.samples.median("import_s"), "s", True),
                 ("cli.bare_python_s", self.samples.median("bare"), "s", True),
                 ("trace.overhead_frac", overhead, "ratio", False)]
        for name, value, _, required in rows:
            if required and not value:
                raise BenchError(f"{name} recorded nothing on {w}")
        return {name: metric(value, unit) for name, value, unit, _ in rows}


def merge_layers(reports: list) -> dict:
    merged = {"self_s": {}, "calls": {}, "kept": {}, "scanned": {}, "partitions_out": 0}
    for report in reports:
        for key in ("self_s", "calls", "kept", "scanned"):
            for name, value in report[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["partitions_out"] += report["partitions_out"]
    return merged


# ---------------------------------------------------------------------------
# environment record


def environment(run: Run) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit(), "workload": run.workload, "seed": run.seed,
            "samples": {name: len(values) for name, values in sorted(run.samples.items())},
            "cli.bare_python_s": run.samples.median("bare"),
            **{name: run.samples.median(name) for name in ("wall_s", "cpu_s", "yardstick_s")
               if name in run.samples},
            "fail_frac": len(run.failures) / run.attempted if run.attempted else None,
            "controls": run.controls}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    in an exported checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(MIN_PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ncbell" / "__init__.py").is_file():
        print(f"no ncbell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    try:
        run.prelude()
        if args.trace:
            metrics = run.traced()
        else:
            run.untraced()
            metrics = run.end_to_end()
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        kind = "per_layer" if args.trace else "end_to_end"
        if [m["name"] for m in declared[kind]] != list(metrics):
            raise BenchError(f"the metrics differ from the {kind} list of BENCHMARK.json")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    for where, op, reason in run.failures:
        print(f"FAILED {where} {op}: {reason}")
    record = environment(run)
    print(json.dumps({"environment": record}))
    correct = not run.failures and all(run.controls.values())
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
