"""One cold worker process of the benchmark.

run.py starts this script with a fresh interpreter for every pass, so every
pass sees the library's module caches empty, as each ``ncbell`` command
does. The worker imports ncbell from the checkout's ``src/``, prepares the
workload's inputs from the seed, writes ``ready`` on stdout, runs the
workload's ops under a timer, and then (outside the timed region) derives
the observations that run.py checks against its references. The last
stdout line is one JSON object.

    python perfbench/worker.py --workload bell-deep --seed 3 --mode pass

Modes: ``setup`` stops after ``ready``; ``pass`` runs the ops; ``trace``
runs them with tracer.Tracer installed. For cli-cold the ops are one CLI
call given by ``--argv`` (only setup and trace run here; untraced calls
run ncbell.cli the way ``python -m ncbell.cli`` does; see run.CLI_MAIN).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import references
from checks import BELL_C_N, BELL_N, QDET_N, SCALED_N
from yardstick import yardstick

ROOT = Path(__file__).resolve().parent.parent

# Suites whose random inputs come from the run's seed. hopf-axioms and
# analytic also take a seed, but how much work they do depends on it
# (over seeds 0..15, analytic took 1.1 to 15 s and hopf-axioms 2.6 to
# 4.1 s), so they run at verify's default seed 0, the one the tier-1
# acceptance gate and a bare `ncbell verify` use.
VERIFY_SEEDED = ("quasidet", "characters")

SPOT_WORDS = 64
SEGMENT_S = 0.5  # op time between two yardstick timings


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def load_ncbell() -> dict:
    """Import ncbell and every submodule; refuse a copy from elsewhere."""
    import ncbell

    src = (ROOT / "src").resolve()
    if not Path(ncbell.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"ncbell was imported from {ncbell.__file__}, not from {src}")
    # ncbell.bell is the function; the module is only reachable by its full name
    from tracer import MODULES
    return {name: importlib.import_module(f"ncbell.{name}") for name in MODULES}


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, the ops, and what is observed of each output


def verify_ops(mods, seed):
    suites = mods["verify"].SUITES
    return [(name, lambda name=name: suites[name](None, seed if name in VERIFY_SEEDED else 0))
            for name in suites]


def verify_observe(mods, outputs, inputs):
    return {name: {"ok": ok, "detail": detail} for name, (ok, detail) in outputs.items()}


def bell_inputs(seed):
    rng = random.Random(seed)
    return {"words": [references.random_composition(rng, BELL_N) for _ in range(SPOT_WORDS)],
            "scaled_words": [references.random_composition(rng, SCALED_N)
                             for _ in range(SPOT_WORDS)]}


def bell_ops(mods, seed):
    bell, quasidet = mods["bell"], mods["quasidet"]
    ops = [("bell_nc", lambda: bell.bell(BELL_N, "nc"))]
    ops += [(f"partial_{k}", lambda k=k: bell.bell_partial(BELL_N, k, "nc"))
            for k in range(1, BELL_N + 1)]
    ops += [("bell_c", lambda: bell.bell(BELL_C_N, "c")),
            ("qdet", lambda: quasidet.bell_via_quasidet(QDET_N, "nc")),
            ("scaled", lambda: bell.bell_scaled(SCALED_N))]
    return ops


def observe_nc(mods, p, words, digest_json=True) -> dict:
    terms = p.terms
    obs = {"words": len(terms),
           "lengths": sorted({len(w) for w in terms}),
           "weights": sorted({sum(w) for w in terms}),
           "coeff_sum": str(sum(terms.values())),
           "spot": [[list(w), str(terms.get(w, 0))] for w in words]}
    if digest_json:
        obs["digest"] = digest(mods["algebra"].to_json_dict(p))
    return obs


def bell_observe(mods, outputs, inputs):
    obs = {}
    for name, p in outputs.items():
        if name == "bell_c":
            by_length: dict = {}
            for mono, c in p.terms.items():
                length = sum(e for _, e in mono)
                by_length[length] = by_length.get(length, 0) + c
            obs[name] = {"monomials": len(p.terms),
                         "weights": sorted({sum(i * e for i, e in mono) for mono in p.terms}),
                         "ones_by_k": {str(k): str(v) for k, v in sorted(by_length.items())},
                         "digest": digest(mods["algebra"].to_json_dict(p))}
        elif name.startswith("partial_"):
            k = int(name.split("_")[1])
            whole = outputs["bell_nc"].terms if "bell_nc" in outputs else {}
            obs[name] = {**observe_nc(mods, p, [], digest_json=False),
                         "equals_restriction": p.terms == {w: c for w, c in whole.items()
                                                           if len(w) == k}}
        elif name == "qdet":
            obs[name] = {"equals_recursion": p.terms == mods["bell"].bell(QDET_N, "nc").terms,
                         "digest": digest(mods["algebra"].to_json_dict(p))}
        else:
            words = inputs["words"] if name == "bell_nc" else inputs["scaled_words"]
            obs[name] = observe_nc(mods, p, words)
    return obs


def bell_control(mods, outputs, inputs):
    """The observation of B_n with one seeded coefficient planted wrong."""
    p = outputs["bell_nc"]
    planted = type(p)(dict(p.terms))
    word = inputs["words"][0]
    planted.terms[word] = planted.terms[word] + 1
    return observe_nc(mods, planted, inputs["words"])


WORKLOADS = {
    "verify-all": (lambda seed: {}, verify_ops, verify_observe, None),
    "bell-deep": (bell_inputs, bell_ops, bell_observe, bell_control),
}


# ---------------------------------------------------------------------------


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """High-water resident set of this process so far. Unlike ru_maxrss it
    does not include the parent's pages at fork."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_ops(ops, tracer, result):
    """Time each op; an op that raises is recorded and the pass goes on.

    The yardstick is timed before the first op and after each SEGMENT_S of
    op time; each segment's wall and CPU time is divided by the mean of the
    two yardsticks around it, and the sums are the pass's *_ref times."""
    outputs, times, errors = {}, {}, {}
    totals = dict.fromkeys(("wall_s", "cpu_s", "wall_ref", "cpu_ref"), 0.0)
    yards = [yardstick()]
    segment_wall = segment_cpu = 0.0
    for i, (name, fn) in enumerate(ops):
        root = tracer.root(f"op.{name}") if tracer else contextlib.nullcontext()
        with root:
            cpu = cpu_seconds()
            start = time.perf_counter()
            try:
                outputs[name] = fn()
            except Exception as exc:  # counted as a failed op by run.py
                traceback.print_exc()
                errors[name] = repr(exc)
            times[name] = time.perf_counter() - start
            segment_cpu += cpu_seconds() - cpu
        segment_wall += times[name]
        if segment_wall >= SEGMENT_S or i == len(ops) - 1:
            yards.append(yardstick())
            unit = (yards[-2] + yards[-1]) / 2
            for key, value in (("wall", segment_wall), ("cpu", segment_cpu)):
                totals[f"{key}_s"] += value
                totals[f"{key}_ref"] += value / unit
            segment_wall = segment_cpu = 0.0
    result.update(op_s=times, errors=errors, yardstick_s=statistics.median(yards),
                  peak_rss_mb=peak_rss_mb(), **totals)
    return outputs


def layer_report(tracer) -> dict:
    selfs, calls = tracer.self_times()
    return {"self_s": selfs, "calls": calls, "kept": dict(tracer.kept),
            "scanned": dict(tracer.scanned), "partitions_out": tracer.partitions_out}


def run_cli(mods, argv, tracer) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), tracer.root(f"cli.{argv[0]}"):
        try:
            code = mods["cli"].main(argv)
        except SystemExit as exc:  # argparse rejects a call this way
            code = exc.code
    data = out.getvalue().encode()
    return {"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--argv", default=None, help="JSON list: the CLI call of cli-cold")
    parser.add_argument("--spans", default=None, help="write the trace's spans here")
    parser.add_argument("--control", action="store_true",
                        help="also observe a planted wrong output (positive control)")
    args = parser.parse_args()
    proto = sys.stdout
    sys.stdout = sys.stderr  # anything the library prints stays off the protocol channel

    start = time.perf_counter()
    mods = load_ncbell()
    import_s = time.perf_counter() - start
    if args.workload == "cli-cold":
        mods["cli"].build_parser()  # every CLI call builds it before its verb runs
        inputs = {"argv": json.loads(args.argv) if args.argv else None}
    else:
        make_inputs, make_ops, observe, control = WORKLOADS[args.workload]
        inputs = make_inputs(args.seed)
        ops = make_ops(mods, args.seed)
    proto.write("ready\n")
    proto.flush()
    result = {"import_s": import_s}
    if args.mode == "setup":
        proto.write(json.dumps(result) + "\n")
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if args.workload == "cli-cold":
        result["call"] = run_cli(mods, inputs["argv"], tracer)
    else:
        outputs = run_ops(ops, tracer, result)
    if tracer:
        # snapshot before observing, so that checking the outputs is not traced
        result["layers"] = layer_report(tracer)
        if args.spans:
            tracer.dump(args.spans)
    if args.workload != "cli-cold":
        result["observed"] = observe(mods, outputs, inputs)
        if args.control and control:
            result["control"] = control(mods, outputs, inputs)
    proto.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
