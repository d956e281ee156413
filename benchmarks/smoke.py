"""Smoke run of the benchmark at tiny sizes: every workload, untraced and
traced, with its output checks and every nonzero metric with its unit.
Takes a few seconds.

    python3 benchmarks/smoke.py

Exits nonzero if any run fails a check or prints a malformed result.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run


def main() -> int:
    failures = 0
    expected = {0: {n for n, *_ in run.END_TO_END}, 1: {n for n, *_ in run.PER_LAYER}}
    for workload in run.WORKLOAD_WHY:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.2",
                                 "--trace", str(trace), "--tiny"])
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            ok = (code == 0 and result["correct"] and result["failed"] == 0
                  and set(result["metrics"]) == expected[trace])
            failures += not ok
            print(f"{workload:<20} trace={trace}  {'ok' if ok else 'FAILED'}  "
                  f"ops={result['attempted']}")
            for name, m in result["metrics"].items():
                if m["value"]:
                    print(f"    {name} = {m['value']:.4g} {m['unit']}")
            if not ok:
                print(out.getvalue())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
