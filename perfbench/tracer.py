"""Spans around calls into holoseq's layers, recorded from outside the package.

`Tracer.install` swaps each target function at every attribute of every
loaded ``holoseq`` module that holds it (``closure``, ``guess``,
``singclass``, ``cli``, ``witness`` and the package ``__init__`` bind names
at import, so patching the defining module alone would miss most calls) and
`Tracer.uninstall` puts every original back.  Each benchmark op is a root
span; wrapped calls become child spans that carry the op id and the id of
their parent span.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

# (defining module, attribute, span name); the span name is the layer
TARGETS = [
    ("hpeval", "binomial_diff_grid", "hpeval.grid"),
    ("hpeval", "binomial_diff_stream_eval", "hpeval.stream"),
    ("hpeval", "gamma", "hpeval.gamma"),
    ("hpeval", "lambert_w", "hpeval.lambert_w"),
    ("kernel", "nullspace", "kernel.nullspace"),
    ("kernel", "rational_roots_and_cofactor", "kernel.rational_roots"),
    ("guess", "guess_exact", "guess.exact"),
    ("guess", "_certify_exact", "guess.certify"),
    ("guess", "guess_float", "guess.float"),
    ("closure", "closure_sum", "closure.sum"),
    ("closure", "closure_hadamard", "closure.hadamard"),
    ("closure", "binomial_transform_op", "closure.transform_op"),
    ("closure", "binomial_diff_seq", "closure.diff_seq"),
    ("singclass", "classify_point", "singclass.classify"),
    ("annihilators", "unroll", "annihilators.unroll"),
    ("annihilators", "apply", "annihilators.apply"),
    ("annihilators", "rec_to_ode", "annihilators.convert"),
    ("annihilators", "ode_to_rec", "annihilators.convert"),
    ("annihilators", "singular_points", "annihilators.singular_points"),
    ("formats", "operator_to_dict", "formats"),
    ("formats", "operator_from_dict", "formats"),
    ("formats", "dump_operator", "formats"),
    ("formats", "load_operator", "formats"),
    ("formats", "parse_bfile", "formats"),
    ("formats", "load_bfile", "formats"),
    ("formats", "load_stream", "formats"),
    ("cli", "main", "cli.main"),
    ("primes", "sieve", "primes.sieve"),
    ("abelian", "verify_transfer", "abelian.verify"),
    ("witness", "witness_log", "witness"),
    ("witness", "witness_powers", "witness"),
    ("witness", "witness_primes", "witness"),
    ("witness", "witness_misc", "witness"),
]

# per-layer metrics and their units; times and counts are per op of the
# traced window, rates, ratios and maxima are over the whole window
LAYER_UNITS = {
    "hpeval.grid.calls": "count/op",
    "hpeval.grid.busy_s": "s/op",
    "hpeval.grid.f_table_s": "s/op",
    "hpeval.grid.sum_s": "s/op",
    "hpeval.grid.attempts": "ratio",
    "hpeval.grid.terms": "count/op",
    "hpeval.grid.terms_per_s": "1/s",
    "hpeval.grid.working_bits": "bits",
    "hpeval.stream.calls": "count/op",
    "hpeval.stream.busy_s": "s/op",
    "hpeval.gamma.busy_s": "s/op",
    "hpeval.lambert_w.busy_s": "s/op",
    "kernel.nullspace.scalar.calls": "count/op",
    "kernel.nullspace.scalar.busy_s": "s/op",
    "kernel.nullspace.scalar.cells": "count/op",
    "kernel.nullspace.scalar.entry_bits_max": "bits",
    "kernel.nullspace.ratfun.calls": "count/op",
    "kernel.nullspace.ratfun.busy_s": "s/op",
    "kernel.nullspace.ratfun.cells": "count/op",
    "kernel.rational_roots.calls": "count/op",
    "kernel.rational_roots.busy_s": "s/op",
    "kernel.rational_roots.coeff_bits_max": "bits",
    "guess.exact.calls": "count/op",
    "guess.exact.busy_s": "s/op",
    "guess.exact.boxes": "count/op",
    "guess.exact.filter_pass": "count/op",
    "guess.exact.found": "count/op",
    "guess.certify.busy_s": "s/op",
    "guess.float.calls": "count/op",
    "guess.float.busy_s": "s/op",
    "closure.sum.busy_s": "s/op",
    "closure.hadamard.busy_s": "s/op",
    "closure.transform_op.busy_s": "s/op",
    "closure.diff_seq.busy_s": "s/op",
    "closure.out_coeff_bits": "bits",
    "singclass.classify.calls": "count/op",
    "singclass.classify.busy_s": "s/op",
    "annihilators.unroll.busy_s": "s/op",
    "annihilators.apply.busy_s": "s/op",
    "annihilators.convert.busy_s": "s/op",
    "annihilators.singular_points.busy_s": "s/op",
    "formats.busy_s": "s/op",
    "cli.main.busy_s": "s/op",
    "primes.sieve.busy_s": "s/op",
    "primes.sieve.numbers_per_s": "1/s",
    "abelian.verify.busy_s": "s/op",
    "abelian.verify.terms": "count/op",
    "witness.busy_s": "s/op",
    "trace_overhead_frac": "ratio",
}

# index of each field in a span record
ID, PARENT, OP, NAME, T0, T1, COUNTERS = range(7)


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(x).bit_length()


def operator_bits(op) -> int:
    """Largest coefficient size, in bits, of a Recurrence or DiffOp."""
    return max((_bits(c) for p in op.coeffs for c in p.coeffs), default=0)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._swapped = []  # (module, attribute, original)
        self.missing = []

    # -- spans ---------------------------------------------------------

    def _open(self, name, counters=None):
        parent = self._stack[-1][ID] if self._stack else None
        span = [len(self.spans), parent, self._op, name,
                time.perf_counter(), None, counters or {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span[T1] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id, label):
        self._op = op_id
        return self._open("op:" + label)

    def end_op(self, span):
        self._close(span)
        self._op = None

    # -- wrapping ------------------------------------------------------

    def _wrapper(self, fn, name):
        probe = _PROBES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            counters = {}
            span_name = name
            if probe is not None:
                span_name, args, kwargs = probe.before(name, counters, args, kwargs)
            span = tracer._open(span_name, counters)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if probe is not None:
                probe.after(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self):
        """Swap the wrappers in; a target the package no longer has is
        listed in `missing` and its metrics read 0."""
        if self._swapped:
            raise RuntimeError("tracer already installed")
        mods = holoseq_modules()
        self.missing = []
        for mod_name, attr, name in TARGETS:
            original = getattr(mods["holoseq." + mod_name], attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrapper(original, name)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._swapped.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._swapped):
            setattr(mod, key, original)
        self._swapped = []


def holoseq_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "holoseq" or name.startswith("holoseq."))}


def originals() -> dict:
    """{(module name, attribute): object} for every attribute that holds a
    traced function, read while no tracer is installed."""
    mods = holoseq_modules()
    targets = {id(getattr(mods["holoseq." + m], a)) for m, a, _ in TARGETS
               if hasattr(mods["holoseq." + m], a)}
    return {(name, key): value for name, mod in mods.items()
            for key, value in vars(mod).items() if id(value) in targets}


# ---------------------------------------------------------------------------
# Counters taken at the layer boundary
# ---------------------------------------------------------------------------

class _Probe:
    def before(self, name, counters, args, kwargs):
        return name, args, kwargs

    def after(self, counters, args, kwargs, result):
        pass


class _GridProbe(_Probe):
    """Times the f argument, which is the f-table; the rest is the
    binomial-row sweep and summation."""

    def before(self, name, counters, args, kwargs):
        args = list(args)
        f = args[0]
        ns = sorted(set(int(n) for n in args[1]))
        args[1] = ns
        start = args[3] if len(args) > 3 else kwargs.get("start", 1)
        counters.update(f_s=0.0, f_calls=0, bits=0,
                        table_len=max(ns[-1] - start + 1, 1) if ns else 1,
                        terms=sum(n + 1 for n in ns))

        def timed_f(k, prec):
            t0 = time.perf_counter()
            try:
                return f(k, prec)
            finally:
                counters["f_s"] += time.perf_counter() - t0
                counters["f_calls"] += 1
                if prec > counters["bits"]:
                    counters["bits"] = prec

        args[0] = timed_f
        return name, tuple(args), kwargs


class _NullspaceProbe(_Probe):
    """Splits the nullspace by the eliminator it dispatches to."""

    def before(self, name, counters, args, kwargs):
        rows = [list(r) for r in args[0]]
        scalar = all(isinstance(x, (int, Fraction)) for r in rows for x in r)
        counters["cells"] = len(rows) * (len(rows[0]) if rows else 0)
        if scalar:
            counters["entry_bits"] = max((_bits(x) for r in rows for x in r), default=0)
        return name + (".scalar" if scalar else ".ratfun"), (rows,), kwargs


class _RootsProbe(_Probe):
    def before(self, name, counters, args, kwargs):
        counters["coeff_bits"] = max((_bits(c) for c in args[0].coeffs), default=0)
        return name, args, kwargs


class _GuessProbe(_Probe):
    def after(self, counters, args, kwargs, result):
        counters["boxes"] = len(result.provenance.get("searched", ()))
        counters["found"] = int(bool(result.found))


class _ClosureProbe(_Probe):
    def after(self, counters, args, kwargs, result):
        counters["out_bits"] = operator_bits(result)


class _SieveProbe(_Probe):
    def before(self, name, counters, args, kwargs):
        counters["numbers"] = int(args[0])
        return name, args, kwargs


class _VerifyProbe(_Probe):
    def before(self, name, counters, args, kwargs):
        from holoseq.abelian import truncation_depth
        params = dict(zip(("u", "scale", "sector_angle", "kmax", "kmin"), args))
        params.update(kwargs)
        kmax, kmin = params.get("kmax", 12), params.get("kmin", 4)
        counters["terms"] = sum(truncation_depth(k) + 1 for k in range(kmin, kmax + 1))
        return name, args, kwargs


_PROBES = {
    "hpeval.grid": _GridProbe(),
    "kernel.nullspace": _NullspaceProbe(),
    "kernel.rational_roots": _RootsProbe(),
    "guess.exact": _GuessProbe(),
    "closure.sum": _ClosureProbe(),
    "closure.hadamard": _ClosureProbe(),
    "closure.transform_op": _ClosureProbe(),
    "primes.sieve": _SieveProbe(),
    "abelian.verify": _VerifyProbe(),
}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------

def self_times(spans) -> dict:
    """{span id: duration minus the time its direct children cover}.
    Calls are sequential, so children never overlap one another."""
    child = {}
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] = child.get(s[PARENT], 0.0) + (s[T1] - s[T0])
    return {s[ID]: (s[T1] - s[T0]) - child.get(s[ID], 0.0) for s in spans}


def layer_metrics(spans, n_ops: int) -> dict:
    """Every LAYER_UNITS metric except trace_overhead_frac, which needs
    the untraced window too."""
    by_id = {s[ID]: s for s in spans}

    def outermost(s):
        p = s[PARENT]
        while p is not None:
            if by_id[p][NAME] == s[NAME]:
                return False
            p = by_id[p][PARENT]
        return True

    busy, calls = {}, {}
    sums = {}
    maxima = {}
    filter_pass = 0
    for s in spans:
        name = s[NAME]
        if name.startswith("op:"):
            continue
        c = s[COUNTERS]
        for key, value in c.items():
            if key in ("bits", "entry_bits", "coeff_bits", "out_bits"):
                maxima[(name, key)] = max(maxima.get((name, key), 0), value)
            else:
                sums[(name, key)] = sums.get((name, key), 0) + value
        if name.startswith("kernel.nullspace") and s[PARENT] is not None \
                and by_id[s[PARENT]][NAME] == "guess.exact":
            filter_pass += 1
        if outermost(s):
            busy[name] = busy.get(name, 0.0) + (s[T1] - s[T0])
            calls[name] = calls.get(name, 0) + 1

    per = 1.0 / max(n_ops, 1)

    def b(name):
        return busy.get(name, 0.0) * per

    def n(name):
        return calls.get(name, 0) * per

    def total(name, key):
        return sums.get((name, key), 0) * per

    grid_busy = busy.get("hpeval.grid", 0.0)
    f_s = sums.get(("hpeval.grid", "f_s"), 0.0)
    sum_s = grid_busy - f_s
    table = sums.get(("hpeval.grid", "table_len"), 0)
    terms = sums.get(("hpeval.grid", "terms"), 0)
    sieve_s = busy.get("primes.sieve", 0.0)
    out = {
        "hpeval.grid.calls": n("hpeval.grid"),
        "hpeval.grid.busy_s": b("hpeval.grid"),
        "hpeval.grid.f_table_s": f_s * per,
        "hpeval.grid.sum_s": sum_s * per,
        "hpeval.grid.attempts": (sums.get(("hpeval.grid", "f_calls"), 0) / table
                                 if table else 0.0),
        "hpeval.grid.terms": terms * per,
        "hpeval.grid.terms_per_s": terms / sum_s if sum_s > 0 else 0.0,
        "hpeval.grid.working_bits": maxima.get(("hpeval.grid", "bits"), 0),
        "hpeval.stream.calls": n("hpeval.stream"),
        "hpeval.stream.busy_s": b("hpeval.stream"),
        "hpeval.gamma.busy_s": b("hpeval.gamma"),
        "hpeval.lambert_w.busy_s": b("hpeval.lambert_w"),
        "kernel.nullspace.scalar.calls": n("kernel.nullspace.scalar"),
        "kernel.nullspace.scalar.busy_s": b("kernel.nullspace.scalar"),
        "kernel.nullspace.scalar.cells": total("kernel.nullspace.scalar", "cells"),
        "kernel.nullspace.scalar.entry_bits_max":
            maxima.get(("kernel.nullspace.scalar", "entry_bits"), 0),
        "kernel.nullspace.ratfun.calls": n("kernel.nullspace.ratfun"),
        "kernel.nullspace.ratfun.busy_s": b("kernel.nullspace.ratfun"),
        "kernel.nullspace.ratfun.cells": total("kernel.nullspace.ratfun", "cells"),
        "kernel.rational_roots.calls": n("kernel.rational_roots"),
        "kernel.rational_roots.busy_s": b("kernel.rational_roots"),
        "kernel.rational_roots.coeff_bits_max":
            maxima.get(("kernel.rational_roots", "coeff_bits"), 0),
        "guess.exact.calls": n("guess.exact"),
        "guess.exact.busy_s": b("guess.exact"),
        "guess.exact.boxes": total("guess.exact", "boxes"),
        "guess.exact.filter_pass": filter_pass * per,
        "guess.exact.found": total("guess.exact", "found"),
        "guess.certify.busy_s": b("guess.certify"),
        "guess.float.calls": n("guess.float"),
        "guess.float.busy_s": b("guess.float"),
        "closure.sum.busy_s": b("closure.sum"),
        "closure.hadamard.busy_s": b("closure.hadamard"),
        "closure.transform_op.busy_s": b("closure.transform_op"),
        "closure.diff_seq.busy_s": b("closure.diff_seq"),
        "closure.out_coeff_bits": max(
            (maxima.get((k, "out_bits"), 0)
             for k in ("closure.sum", "closure.hadamard", "closure.transform_op")),
            default=0),
        "singclass.classify.calls": n("singclass.classify"),
        "singclass.classify.busy_s": b("singclass.classify"),
        "annihilators.unroll.busy_s": b("annihilators.unroll"),
        "annihilators.apply.busy_s": b("annihilators.apply"),
        "annihilators.convert.busy_s": b("annihilators.convert"),
        "annihilators.singular_points.busy_s": b("annihilators.singular_points"),
        "formats.busy_s": b("formats"),
        "cli.main.busy_s": b("cli.main"),
        "primes.sieve.busy_s": b("primes.sieve"),
        "primes.sieve.numbers_per_s": (sums.get(("primes.sieve", "numbers"), 0) / sieve_s
                                       if sieve_s > 0 else 0.0),
        "abelian.verify.busy_s": b("abelian.verify"),
        "abelian.verify.terms": total("abelian.verify", "terms"),
        "witness.busy_s": b("witness"),
    }
    return out


def self_time_by_layer(spans) -> dict:
    st = self_times(spans)
    out = {}
    for s in spans:
        key = "op" if s[NAME].startswith("op:") else s[NAME]
        out[key] = out.get(key, 0.0) + st[s[ID]]
    return out
