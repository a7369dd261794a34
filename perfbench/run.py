"""holoseq benchmark: one workload, closed loop, end to end or per layer.

    python3 perfbench/run.py --workload witness-dense --seed 1 --seconds 30 --trace 0

Run it from the repository root.  The client starts one worker process at
a time (perfbench/worker.py) and sends it one op at a time, waiting for
each reply.  The worker repeats the workload's seeded cycle of ops; the
timed window is the fewest whole cycles that last at least --seconds.

--trace 0 measures the end-to-end metrics: set-up three times in fresh
processes (median reported), then the timed window with tracing off.
--trace 1 gives the per-layer metrics: one warm-up cycle, half the window
untraced, then half traced with spans around every call into holoseq's
layers; the ratio of the two throughputs is the tracing overhead.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the lines before it, and perfbench/out/result-*.json, carry the
provenance, the tail percentile and its sample count, failed_frac, the
per-kind latencies and the layer self times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYER_UNITS  # noqa: E402

SETUPS = 3
EXIT_NO_PROGRAM = 2
EXIT_WORKER = 3

E2E_UNITS = {"ops_per_s": "1/s", "op_s_p50": "s", "op_s_tail": "s",
             "cpu_s_per_op": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerDied(Exception):
    pass


class WorkerProc:
    """One worker process and its JSON-line pipe."""

    def __init__(self, workload: str, seed: int):
        env = dict(os.environ)
        # every op runs in the worker's main thread; no idle BLAS pool either
        env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.ready = self._read()
        self.setup_s = time.perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise WorkerDied(f"worker exited with code {self.proc.returncode}")
        return json.loads(line)

    def call(self, cmd: dict) -> dict:
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def quit(self) -> dict:
        try:
            return self.call({"cmd": "quit"})
        finally:
            self.close()

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


def tail(latencies):
    """(value, percentile, samples beyond it): the highest percentile with
    at least 10 samples beyond it, never below the median."""
    xs = sorted(latencies)
    n = len(xs)
    rank = max(n - 10, n // 2 + 1)
    return xs[rank - 1], 100.0 * rank / n, n - rank


def timed_window(worker: WorkerProc, seconds: float, max_cycles=None) -> dict:
    """Repeat the cycle, one op at a time, for the fewest whole cycles
    that last at least `seconds`."""
    n_ops = len(worker.ready["labels"])
    lat, cpu, kinds, errors, digests = [], [], [], [], []
    t_start = time.perf_counter()
    cycles = 0
    while True:
        for i in range(n_ops):
            t0 = time.perf_counter()
            r = worker.call({"cmd": "op", "i": i})
            lat.append(time.perf_counter() - t0)
            cpu.append(r["cpu"])
            kinds.append(worker.ready["kinds"][i])
            if cycles == 0:
                digests.append(r.get("digest"))
            if not r["ok"]:
                errors.append(f"{worker.ready['labels'][i]}: {r['error']}")
        cycles += 1
        if max_cycles is not None and cycles >= max_cycles:
            break
        if time.perf_counter() - t_start >= seconds:
            break
    wall = time.perf_counter() - t_start
    return {"lat": lat, "cpu": cpu, "kinds": kinds, "errors": errors,
            "wall": wall, "cycles": cycles, "digests": digests}


def e2e_metrics(win: dict):
    """(metrics, tail details) of one timed window."""
    n = len(win["lat"])
    value, pct, beyond = tail(win["lat"])
    metrics = {
        "ops_per_s": n / win["wall"],
        "op_s_p50": statistics.median(win["lat"]),
        "op_s_tail": value,
        "cpu_s_per_op": sum(win["cpu"]) / n,
    }
    return metrics, {"percentile": pct, "beyond": beyond, "samples": n}


def per_kind(win: dict) -> dict:
    out = {}
    for k, t in zip(win["kinds"], win["lat"]):
        out.setdefault(k, []).append(t)
    return {k: {"n": len(v), "p50_s": statistics.median(v)} for k, v in sorted(out.items())}


def git_revision():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    base = os.path.join(ROOT, "src", "holoseq")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or platform.machine()


def client_provenance() -> dict:
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    setups = []
    worker = None
    n_setups = 1 if (trace or smoke) else SETUPS
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    try:
        for k in range(n_setups):
            worker = WorkerProc(workload, seed)
            setups.append(worker.setup_s)
            if k < n_setups - 1:
                worker.quit()
                worker = None
        max_cycles = 1 if smoke else None
        if not trace:
            win = timed_window(worker, seconds, max_cycles)
            e2e, tail_info = e2e_metrics(win)
            e2e["setup_s"] = statistics.median(setups)
            windows = {"untraced": win}
        else:
            # one untimed cycle first: mpmath fills its per-precision caches
            # on first use, which would otherwise land in the untraced half
            warm = timed_window(worker, 0.0, 1)
            win = timed_window(worker, seconds / 2, max_cycles)
            e2e, tail_info = e2e_metrics(win)
            spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
            worker.call({"cmd": "trace", "on": True})
            twin = timed_window(worker, seconds / 2, max_cycles)
            traced = worker.call({"cmd": "trace", "on": False, "spans": spans_path})
            layers = traced["layers"]
            layers["trace_overhead_frac"] = \
                e2e["ops_per_s"] / e2e_metrics(twin)[0]["ops_per_s"] - 1.0
            result.update(layers=layers, self_s=traced["self_s"], restored=traced["restored"],
                          missing_targets=traced["missing_targets"],
                          spans_file=os.path.relpath(spans_path, ROOT))
            windows = {"warm-up": warm, "untraced": win, "traced": twin}
        bye = worker.quit()
        worker = None
    finally:
        if worker is not None:
            worker.close()
    e2e["peak_rss_mb"] = bye["peak_rss_mb"]
    errors = [e for w in windows.values() for e in w["errors"]]
    attempted = sum(len(w["lat"]) for w in windows.values())
    result.update(
        provenance={**client_provenance(), **bye["provenance"]},
        e2e=e2e, tail=tail_info, setups_s=setups, errors=errors[:20], attempted=attempted,
        failed=len(errors), failed_frac=len(errors) / attempted,
        cycles={k: w["cycles"] for k, w in windows.items()},
        per_kind=per_kind(win), digests=win["digests"])
    result["correct"] = not errors and result.get("restored", True)
    return result


def report(result: dict, trace: bool) -> dict:
    e2e = result["e2e"]
    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="holoseq benchmark (see module docstring)")
    ap.add_argument("--workload", required=True,
                    choices=["witness-dense", "witness-sparse", "exact-algebra"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one set-up and one cycle, for tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "holoseq", "__init__.py")):
        print(f"no holoseq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except WorkerDied as e:
        print(f"benchmark worker failed: {e}", file=sys.stderr)
        return EXIT_WORKER

    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(HERE, "out", name), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    t = result["tail"]
    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} ops in "
          f"{result['cycles']} cycles, failed_frac {result['failed_frac']:.4g}, "
          f"op_s_tail is p{t['percentile']:.1f} of {t['samples']} samples "
          f"({t['beyond']} beyond)")
    for err in result["errors"]:
        print("FAILED " + err.replace("\n", " | "))
    for kind, row in result["per_kind"].items():
        print(f"  {kind:24s} n={row['n']:4d} p50={row['p50_s']:.4f} s")
    if args.trace:
        if result["missing_targets"]:
            print("not traced (gone from holoseq): " + ", ".join(result["missing_targets"]))
        for layer, s in sorted(result["self_s"].items(), key=lambda kv: -kv[1]):
            print(f"  self {layer:34s} {s:9.4f} s")
    print(json.dumps(report(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
