"""Checks of the workloads' outputs against references outside ncbell.

Each check takes what worker.py observed and returns {op: reason} for the
ops whose output is wrong; an empty dict means every op is right. The
references are the integer recurrences of references.py, the verdicts
pinned below, and golden digests recorded from the seed commit of the
benchmark in golden/.
"""

from __future__ import annotations

import hashlib
import json
import re
from math import comb
from pathlib import Path

import references

GOLDEN = Path(__file__).resolve().parent / "golden"

# bell-deep sizes: B_n and its partials, commutative B_c_n, quasidet B_qdet_n, Q_scaled_n
BELL_N, BELL_C_N, QDET_N, SCALED_N = 16, 25, 14, 13

# verify.SUITES order; three suites fail by design of the free-variant objects
VERDICTS = "PPPPPPPFPFPFPP"
SUITE_NAMES = ("bell-tables", "term-count", "constructions", "partition-oracle",
               "stirling", "quasidet", "hopf-tables", "antipode-cross",
               "coproduct-oracle", "hopf-axioms", "characters", "mobius",
               "q-statistics", "analytic")
# the first failure of each failing suite: (pattern, the groups it must give)
FIRST_FAILURE = {
    "antipode-cross": (r"X_(\d+) \((\w+)\)", ("5", "dfdb")),
    "hopf-axioms": (r"^(\w+): .*'d(\d+)'", ("dfdb", "5")),
    "mobius": (r"d_(\d+) \((\w+)\)", ("4", "nc")),
}


def load_golden(name: str) -> dict:
    with open(GOLDEN / name, encoding="utf-8") as fh:
        return json.load(fh)


def check_verify(observed: dict) -> dict:
    bad = {}
    if tuple(observed) != SUITE_NAMES:
        bad["suites"] = f"suite list is {list(observed)}"
    for name, verdict in zip(SUITE_NAMES, VERDICTS):
        got = observed.get(name)
        if got is None:
            bad[name] = "missing"
            continue
        if ("P" if got["ok"] else "F") != verdict:
            bad[name] = f"verdict flipped: {got['detail'][:120]}"
        elif name in FIRST_FAILURE:
            pattern, want = FIRST_FAILURE[name]
            match = re.search(pattern, got["detail"].split(";")[0])
            if match is None or match.groups() != want:
                bad[name] = f"first failure moved: {got['detail'][:120]}"
    return bad


def _check_nc(obs: dict, n: int, lengths, coeff_sum, spot_ref, golden: str) -> list:
    errors = []
    words = sum(comb(n - 1, k - 1) for k in lengths)
    if obs["words"] != words:
        errors.append(f"{obs['words']} words, want {words}")
    if obs["lengths"] != list(lengths) or obs["weights"] != [n]:
        errors.append(f"word lengths {obs['lengths']} or weights {obs['weights']} are wrong")
    if obs["coeff_sum"] != str(coeff_sum):
        errors.append(f"coefficient sum {obs['coeff_sum']}, want {coeff_sum}")
    for word, coeff in obs["spot"]:
        if coeff != str(spot_ref(word)):
            errors.append(f"coefficient of {word} is {coeff}, want {spot_ref(word)}")
            break
    if golden is not None and obs["digest"] != golden:
        errors.append("to_json_dict digest differs from the golden one")
    return errors


def check_bell(observed: dict) -> dict:
    golden = load_golden("bell_deep.json")
    bad = {}
    for op, obs in observed.items():
        if op == "bell_nc":
            errors = _check_nc(obs, BELL_N, range(1, BELL_N + 1),
                               references.bell_number(BELL_N),
                               references.word_coefficient, golden[op])
        elif op.startswith("partial_"):
            # B_{n,k} must be the length-k part of B_n, whose digest is checked
            k = int(op.split("_")[1])
            errors = _check_nc(obs, BELL_N, [k], references.stirling2(BELL_N, k), None, None)
            if not obs["equals_restriction"]:
                errors.append("differs from the length-k words of B_n")
        elif op == "scaled":
            errors = _check_nc(obs, SCALED_N, range(1, SCALED_N + 1),
                               references.scaled_sum(SCALED_N),
                               references.scaled_coefficient, golden[op])
        elif op == "bell_c":
            errors = []
            if (obs["monomials"] != references.partition_count(BELL_C_N)
                    or obs["weights"] != [BELL_C_N]):
                errors.append(f"{obs['monomials']} monomials of weights {obs['weights']}")
            want = {str(k): str(references.stirling2(BELL_C_N, k))
                    for k in range(1, BELL_C_N + 1)}
            if obs["ones_by_k"] != want:
                errors.append("B_{n,k}(1,...,1) differs from S(n,k)")
            if obs["digest"] != golden[op]:
                errors.append("to_json_dict digest differs from the golden one")
        elif op == "qdet":
            errors = [] if obs["equals_recursion"] else ["quasideterminant != recursion"]
            if obs["digest"] != golden[op]:
                errors.append("to_json_dict digest differs from the golden one")
        else:
            errors = [f"unknown op {op}"]
        if errors:
            bad[op] = "; ".join(errors)
    return bad


def cli_result(stdout: bytes, code) -> dict:
    return {"exit": code, "sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout)}


def check_cli(call_id: str, result: dict, golden: dict) -> dict:
    want = golden[call_id]
    if result["exit"] != want["exit"] or result["sha256"] != want["sha256"]:
        return {call_id: (f"exit {result['exit']} and {result['bytes']} bytes, "
                          f"want exit {want['exit']} and {want['bytes']} golden bytes")}
    return {}
