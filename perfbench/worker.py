"""The benchmark's worker process: one per set-up, one op at a time.

It builds the workload (imports, seeded inputs, oracles, b-files), says it
is ready, and then serves JSON-line commands from the client on stdin:

    {"cmd": "op", "i": 3}        run op 3 of the cycle and its checks
    {"cmd": "trace", "on": true} swap the tracing wrappers in
    {"cmd": "trace", "on": false, "spans": path}
                                 restore the originals, write the spans,
                                 reply with the per-layer metrics
    {"cmd": "quit"}              reply with peak RSS and provenance, exit

Usage: python3 perfbench/worker.py --workload NAME --seed N
(run from the repository root with src on PYTHONPATH; run.py does this).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def provenance() -> dict:
    import mpmath
    import numpy
    return {
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "holo_precision_cap": os.environ.get("HOLO_PRECISION_CAP"),
    }


class Worker:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.ops = workloads.build(workload, seed, workdir)
        self.tracer = None
        self.originals = None

    def run_op(self, i: int) -> dict:
        op = self.ops[i]
        span = self.tracer.begin_op(i, op.label) if self.tracer else None
        error = None
        digest = None
        c0 = time.process_time()
        try:
            digest = op.run()
        except workloads.CheckFailed as e:
            error = f"check failed: {e}"
        except Exception:  # an op that raises is a failed op; keep serving
            error = traceback.format_exc(limit=3)
        cpu = time.process_time() - c0
        if span is not None:
            self.tracer.end_op(span)
        out = {"ok": error is None, "cpu": cpu, "error": error}
        if digest is not None:
            out["digest"] = hashlib.sha256(digest.encode()).hexdigest()[:16]
        return out

    def trace(self, on: bool, spans_path=None) -> dict:
        if on:
            self.originals = tracing.originals()
            self.tracer = tracing.Tracer()
            self.tracer.install()
            return {"tracing": True}
        t = self.tracer
        t.uninstall()
        self.tracer = None
        restored = tracing.originals() == self.originals
        n_ops = sum(1 for s in t.spans if s[tracing.NAME].startswith("op:"))
        if spans_path:
            with open(spans_path, "w") as f:
                json.dump({"fields": ["id", "parent", "op", "name", "t0", "t1", "counters"],
                           "spans": t.spans}, f)
        return {"tracing": False, "restored": restored, "spans": len(t.spans),
                "missing_targets": t.missing,
                "layers": tracing.layer_metrics(t.spans, n_ops),
                "self_s": tracing.self_time_by_layer(t.spans)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    # the protocol owns stdout; anything else printed goes to stderr
    proto = sys.stdout
    sys.stdout = sys.stderr

    def send(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir)
    try:
        w = Worker(args.workload, args.seed, workdir)
        send({"ready": True, "labels": [op.label for op in w.ops],
              "kinds": [op.kind for op in w.ops]})
        for line in sys.stdin:
            cmd = json.loads(line)
            if cmd["cmd"] == "op":
                send(w.run_op(cmd["i"]))
            elif cmd["cmd"] == "trace":
                send(w.trace(cmd["on"], cmd.get("spans")))
            elif cmd["cmd"] == "quit":
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                send({"peak_rss_mb": peak, "provenance": provenance()})
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
