#!/usr/bin/env python3
"""Run every bundled example through the reproduce pipeline and summarize.

Run it with the package importable, for example
`PYTHONPATH=src python3 scripts/reproduce_all.py`.

Exit status is the number of examples whose expected results did not
reproduce (0 when everything matches).
"""
from __future__ import annotations

import json
import subprocess
import sys

from proxigraph.corpus import EXAMPLE_IDS


def main() -> int:
    failures = 0
    for example_id in EXAMPLE_IDS:
        cmd = [sys.executable, "-m", "proxigraph.cli", "reproduce", example_id]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        status = "ok" if proc.returncode == 0 else "FAIL"
        detail = ""
        if proc.stdout:
            try:
                doc = json.loads(proc.stdout)
                n = len(doc.get("checks", []))
                good = sum(1 for c in doc.get("checks", []) if c.get("pass"))
                detail = f"{good}/{n} checks"
            except json.JSONDecodeError:
                detail = "unreadable report"
        print(f"{example_id:<20} {status:>4}  {detail}")
        if proc.returncode != 0:
            failures += 1
            sys.stderr.write(proc.stderr)
    return failures


if __name__ == "__main__":
    sys.exit(main())
