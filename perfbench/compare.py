"""Compare benchmark results of two commits, metric by metric.

    python3 perfbench/compare.py --base OLD1.json OLD2.json --new NEW1.json NEW2.json

Each file is a perfbench/out/result-*.json written by run.py.  For every
end-to-end metric it prints the median of each side, the change and
whether the change is worse than the bound in BENCHMARK.json.  Results
computed with different mpmath backends are not comparable (the python and
gmpy backends differ several-fold in big-number speed), so a mix of
backends, or of workloads, is refused with exit code 4.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXIT_REFUSED = 4


def load(paths):
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def refusal(base, new):
    """Why these results must not be compared, or None."""
    backends = {r["provenance"]["mpmath_backend"] for r in base + new}
    if len(backends) != 1:
        return f"mpmath backends differ: {sorted(backends)}"
    workloads = {r["workload"] for r in base + new}
    if len(workloads) != 1:
        return f"workloads differ: {sorted(workloads)}"
    return None


def compare(base, new, spec) -> list:
    rows = []
    for m in spec["end_to_end"]:
        name = m["name"]
        b = statistics.median(r["e2e"][name] for r in base)
        n = statistics.median(r["e2e"][name] for r in new)
        worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
        rows.append((name, m["unit"], b, n, worse, m["bound"], worse > m["bound"]))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare perfbench results")
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    why = refusal(base, new)
    if why:
        print(f"refused: {why}", file=sys.stderr)
        return EXIT_REFUSED
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for name, unit, b, n, worse, bound, regressed in compare(base, new, spec):
        flag = "REGRESSED" if regressed else "ok"
        print(f"{name:14s} {b:12.6g} -> {n:12.6g} {unit:4s} worse by {worse:+.1%} "
              f"(bound {bound:.0%}) {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
