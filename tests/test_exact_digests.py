"""Exact outputs stay bit-identical: the first cycle of the benchmark's
exact-algebra workload, seed 1, must give the recorded digest for every op.

Each op runs one user-level call (closures, the binomial transform,
singularity classes, exact and float guessing, the CLI) with its own
checks, and returns a canonical string of its output; the digest is the
first 16 hex digits of its SHA-256, as `perfbench/worker.py` reports it.
`exact_algebra_digests.json` holds the (label, digest) pairs of that cycle
in order.  A change that alters any exact output fails here.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
GOLDEN = Path(__file__).resolve().parent / "exact_algebra_digests.json"


def _workloads():
    spec = importlib.util.spec_from_file_location("holoseq_bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_exact_algebra_first_cycle_digests(tmp_path):
    ops = _workloads().build("exact-algebra", 1, str(tmp_path))
    got = [[op.label, hashlib.sha256(op.run().encode()).hexdigest()[:16]]
           for op in ops]
    want = json.loads(GOLDEN.read_text())
    assert [g[0] for g in got] == [w[0] for w in want]
    assert [g for g, w in zip(got, want) if g != w] == []
