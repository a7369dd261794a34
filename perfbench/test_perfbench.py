"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py

The smoke tests start run.py as a subprocess, one workload at a time; the
whole file takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return str(tmp_path)


def _run_ops(ops, kinds=None):
    return [op.run() for op in ops if kinds is None or op.kind in kinds]


def test_same_seed_same_ops_and_outputs(workdir):
    a = workloads.build("exact-algebra", 5, workdir)
    b = workloads.build("exact-algebra", 5, workdir)
    assert [op.label for op in a] == [op.label for op in b]
    assert _run_ops(a[:30]) == _run_ops(b[:30])
    cheap = {"diff_seq_exact", "diff_seq_float", "witness_primes", "witness_misc"}
    for name in ("witness-dense", "witness-sparse"):
        a = workloads.build(name, 5, workdir)
        b = workloads.build(name, 5, workdir)
        assert [op.label for op in a] == [op.label for op in b]
        assert _run_ops(a, cheap) == _run_ops(b, cheap)


def test_other_seed_other_inputs(workdir):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 1, workdir)
        b = workloads.build(name, 2, workdir)
        assert [op.label for op in a] != [op.label for op in b]


def test_strata_cover_the_range():
    import random
    rng = random.Random(0)
    for _ in range(50):
        xs = workloads.strata(rng, 100, 200, 4)
        assert all(100 + 25 * i <= x <= 100 + 25 * (i + 1) for i, x in enumerate(xs))


def test_direct_oracle_identity():
    from fractions import Fraction
    from mpmath import mpf
    # sum_k binom(n,k) (-1)^k / (k+1) = 1/(n+1)
    for n in (5, 40, 300):
        got = workloads.direct_alternating_sum(lambda k: mpf(1) / (k + 1), n, 0)
        assert abs(got - float(Fraction(1, n + 1))) <= 1e-15


def test_wrapped_functions_restored_by_identity(workdir):
    import holoseq
    from holoseq import cli, closure, guess
    before = tracing.originals()
    assert before[("holoseq", "closure_sum")] is closure.closure_sum
    ops = workloads.build("exact-algebra", 3, workdir)
    t = tracing.Tracer()
    t.install()
    try:
        assert holoseq.closure_sum is not before[("holoseq", "closure_sum")]
        assert cli.guess_exact is not before[("holoseq.cli", "guess_exact")]
        assert guess.nullspace is not before[("holoseq.guess", "nullspace")]
        with pytest.raises(ValueError):
            closure.binomial_diff_seq([1, 2], 5)  # a traced call that raises
        for op in ops[:5]:
            op.run()
    finally:
        t.uninstall()
    after = tracing.originals()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not t._stack


def test_spans_nest_and_self_times(workdir):
    ops = workloads.build("exact-algebra", 4, workdir)[:40]
    t = tracing.Tracer()
    t.install()
    try:
        for i, op in enumerate(ops):
            span = t.begin_op(i, op.label)
            op.run()
            t.end_op(span)
    finally:
        t.uninstall()
    spans = t.spans
    by_id = {s[tracing.ID]: s for s in spans}
    roots = [s for s in spans if s[tracing.PARENT] is None]
    assert len(roots) == len(ops)
    assert all(s[tracing.NAME].startswith("op:") for s in roots)
    assert len(spans) > 2 * len(ops)
    for s in spans:
        assert s[tracing.T1] >= s[tracing.T0]
        if s[tracing.PARENT] is not None:
            p = by_id[s[tracing.PARENT]]
            assert p[tracing.T0] <= s[tracing.T0] and s[tracing.T1] <= p[tracing.T1]
            assert s[tracing.OP] == p[tracing.OP]
    self_s = tracing.self_times(spans)
    assert min(self_s.values()) >= -1e-9
    for r in roots:
        kids = sum(s[tracing.T1] - s[tracing.T0] for s in spans if s[tracing.PARENT] == r[tracing.ID])
        assert kids <= r[tracing.T1] - r[tracing.T0] + 1e-9
    layers = tracing.layer_metrics(spans, len(ops))
    assert set(layers) | {"trace_overhead_frac"} == set(tracing.LAYER_UNITS)
    assert layers["hpeval.grid.busy_s"] == 0 and layers["hpeval.stream.busy_s"] == 0
    assert layers["closure.hadamard.busy_s"] > 0 and layers["guess.exact.calls"] > 0


def test_tail_rule():
    xs = list(range(1, 31))
    value, pct, beyond = bench.tail(xs)
    assert (value, beyond) == (20, 10)
    value, pct, beyond = bench.tail(list(range(1, 11)))
    assert value == 6 and pct == 60.0  # short samples: never below the median


def test_compare_refuses_mixed_backends():
    base = [{"workload": "w", "provenance": {"mpmath_backend": "python"}, "e2e": {}}]
    new = [{"workload": "w", "provenance": {"mpmath_backend": "gmpy"}, "e2e": {}}]
    assert "backends" in compare.refusal(base, new)
    assert compare.refusal(base, base) is None


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_each_workload_once(workload):
    out = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0", "--smoke")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert "failed_frac 0," in out.stdout
    assert set(res["metrics"]) == set(bench.E2E_UNITS)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_smoke_traced_run():
    out = _bench("--workload", "exact-algebra", "--seed", "7", "--seconds", "1", "--trace", "1",
                 "--smoke")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == set(tracing.LAYER_UNITS)
    assert res["metrics"]["hpeval.grid.busy_s"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _bench("--workload", "witness-dense", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert out.returncode != 0
    assert not out.stdout.strip()


def test_missing_target_is_skipped(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + [("guess", "_no_such_function", "guess.none")])
    before = tracing.originals()
    t = tracing.Tracer()
    t.install()
    try:
        assert t.missing == ["guess._no_such_function"]
    finally:
        t.uninstall()
    after = tracing.originals()
    assert all(after[k] is before[k] for k in before)
