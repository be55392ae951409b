"""Freeze the seed-0 outputs that the benchmark compares byte for byte.

    PYTHONPATH=src python3 perfbench/freeze_goldens.py

Run it only on a commit whose outputs are known to be right, and only when a
change to the report is intended and written up; it rewrites goldens.json.
"""

import json
import sys

from oracles import GOLDENS
from worker import run_pass
from workloads import WORKLOADS


def main() -> int:
    requests = [req for reqs in WORKLOADS.values() for req in reqs]
    doc = run_pass([req.argv() for req in requests])
    goldens = {}
    for req, res in zip(requests, doc["requests"]):
        if res["code"] != 0:
            print(f"{req.key} exited with {res['code']}: {res['stderr']}", file=sys.stderr)
            return 1
        goldens[req.key] = res["stdout"]
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
