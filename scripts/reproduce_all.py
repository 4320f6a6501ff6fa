#!/usr/bin/env python3
"""Run every bundled example through the reproduce pipeline and summarize.

Run it from anywhere, as `python3 scripts/reproduce_all.py`: it imports
proxigraph from the `src` directory of its own checkout, and so do the
subprocesses it starts.

Exit status is the number of examples whose expected results did not
reproduce (0 when everything matches).
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

from proxigraph.corpus import EXAMPLE_IDS  # noqa: E402


def main() -> int:
    failures = 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    for example_id in EXAMPLE_IDS:
        cmd = [sys.executable, "-m", "proxigraph.cli", "reproduce", example_id]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
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
