"""Record the golden outputs that checks.py compares against.

    python3 perfbench/record_golden.py

Writes golden/bell_deep.json (sha256 of to_json_dict of the bell-deep
outputs; each B_{n,k} is checked against B_n instead) and
golden/cli_cold.json (exit code, stdout sha256 and size of every
cli-cold call). Run it only on a commit whose outputs are trusted;
the files in the repository were recorded on the commit that added the
benchmark, before any optimisation.
"""

from __future__ import annotations

import json

import checks
import run


def main() -> None:
    _, result = run.worker("bell-deep", 0, "pass")
    if result["errors"]:
        raise SystemExit(f"bell-deep ops raised: {result['errors']}")
    bell = {op: obs["digest"] for op, obs in result["observed"].items() if "digest" in obs}
    cli = {}
    for call_id, argv in run.CLI_POOL.items():
        child = run.cli_call(argv)
        cli[call_id] = checks.cli_result(child.stdout, child.code)
    for name, data in (("bell_deep.json", bell), ("cli_cold.json", cli)):
        with open(checks.GOLDEN / name, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
