"""Record golden.json, the reference every benchmark run is checked against.

    python3 perfbench/record_golden.py

It stores each CLI operation's exit code, stdout SHA-256 and shape counts,
each workload theory's group order, and the object and class counts of the
extracted pmcat instances, together with the commit they were taken at.
A change that is meant to keep CLI output bytes must leave this file as it
is; re-record only for a reviewed change of output.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads as wl


def main() -> int:
    golden = {"commit": run.git_commit(), "theories": {}, "extracted": {}, "ops": {}}
    for workload in wl.WORKLOADS:
        _, _, code, out, _ = run.run_child([sys.executable, run.PROBE, "setup", workload, "0"], 600)
        if code != 0:
            raise SystemExit(f"setup probe for {workload} exited with {code}")
        result = json.loads(out)
        golden["theories"].update(result["orders"])
        golden["extracted"].update(result.get("extracted", {}))
    for ops in wl.CLI_OPS.values():
        for argv in ops:
            _, _, code, out, _ = run.run_child([*run.CLI, *argv], 600)
            golden["ops"][wl.op_id(argv)] = {
                "exit": code,
                "sha256": hashlib.sha256(out).hexdigest(),
                "shapes": wl.shapes(argv, out.decode()),
            }
    run.GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
