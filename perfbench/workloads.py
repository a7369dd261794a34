"""Seeded inputs, oracles and ops of the three holoseq workloads.

An op is one user-level call together with the checks on its result; it
raises `CheckFailed` when a check does not hold.  `build` does all of a
workload's set-up: it draws the inputs from the seed, computes the oracles
and writes the b-files, and returns one cycle of ops in a seeded order.  A
run repeats that cycle.

Sizes are drawn by antithetic stratified sampling (`strata`): every cycle
holds each op kind at the same spread of sizes, so the cost of a cycle, and
with it every end-to-end metric, depends little on the seed, while each
seed still gives different inputs.  The size ranges are narrow, about +-5%
(+-1% on witness-sparse), because the cost of the alternating sum grows like
n^3 and a 30 s run holds only 18 to 40 ops of the witness workloads: with
wider ranges the figures depend on the seed more than on the code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List

import mpmath
from mpmath import mp, mpf

# modules, not names: the tracer swaps functions at module attributes, so
# every call below goes through an attribute lookup it can intercept
from holoseq import annihilators, cli, closure, formats, guess, singclass, witness
from holoseq.annihilators import DiffOp, Recurrence, SequenceStream
from holoseq.kernel import Poly

WORKLOADS = ("witness-dense", "witness-sparse", "exact-algebra")

ORACLE_TOL = 1e-12
# witness oracles sample grid points up to this n: the direct sum costs
# about n^3 bit operations, and every grid value is computed at the
# working precision of the largest n anyway
ORACLE_NMAX = 1200

# witness-dense: the dense grid 100..N makes the binomial-row sweep and the
# summation almost all of the alternating-sum time.  With four witness_log
# ops a cycle, a window of three or more cycles has at least 12 of them,
# so op_s_tail always falls among them whatever the number of cycles.
DENSE_LOG_N = (640, 700, 4)        # (lo, hi, ops per cycle)
DENSE_FLOAT_N = (280, 320, 4)
DENSE_EXACT_N = (330, 370, 4)
# witness-sparse: above ~2400 bits mpmath's log leaves its cached Taylor
# range for AGM, so the f-table dominates the sparse grids; one log op, one
# powers op with alpha in SPARSE_ALPHAS and two with alpha = 1/2, whose cost
# is the row sweep instead, make a cycle of about 10 s
SPARSE_N = (2430, 2470)
SPARSE_ALPHAS = (1 / 3, 2 / 3, 3 / 2)
# exact-algebra: PAIRS_PER_SHAPE recurrence pairs of each (order of a,
# order of b).  Every coefficient has full degree (2 at order 1, else 1):
# with random degrees, and with order 3 x 2 pairs, one pair's closure or
# classification took from 0.03 s to 14 s, which no 30 s run averages out.
PAIR_SHAPES = ((2, 1), (3, 1), (1, 2), (2, 2))
PAIRS_PER_SHAPE = 6
CERT_TERMS = 100
UNROLL_TERMS = 140


class CheckFailed(Exception):
    """An op's result is wrong."""


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], str]  # returns a digest of the op's output


def check(cond, what):
    if not cond:
        raise CheckFailed(what)


def strata(rng: random.Random, lo: int, hi: int, k: int) -> List[int]:
    """k integers in [lo, hi], one per equal-width stratum; consecutive
    strata use mirrored offsets u and 1 - u, so the sum of a smooth cost
    over the k values varies little with the seed."""
    u = rng.random()
    w = (hi - lo) / k
    return [int(round(lo + w * (i + (u if i % 2 == 0 else 1 - u)))) for i in range(k)]


def direct_alternating_sum(f, n: int, start: int) -> float:
    """sum_{k=start}^{n} binom(n,k) (-1)^k f(k) with exact binomials and
    mpmath at n + 128 bits; shares no code with holoseq.hpeval."""
    with mp.workprec(n + 128):
        s = mpf(0)
        for k in range(start, n + 1):
            t = math.comb(n, k) * f(k)
            s = s - t if k % 2 else s + t
        return float(s)


def _check_oracle(values: dict, oracle: dict, what: str):
    for n, ref in oracle.items():
        check(abs(values[n] - ref) <= ORACLE_TOL,
              f"{what}: n={n} gives {values[n]!r}, direct sum {ref!r}")


def _oracle_points(rng, grid, count=3):
    """One seeded grid point n <= ORACLE_NMAX from each of `count` equal
    slices of those points, so the oracle's set-up cost hardly varies."""
    pts = [n for n in grid if n <= ORACLE_NMAX]
    count = min(count, len(pts))
    return [rng.choice(pts[len(pts) * i // count:len(pts) * (i + 1) // count])
            for i in range(count)]


def _samples_digest(rep) -> str:
    return json.dumps([s["value"] for s in rep.samples])


# ---------------------------------------------------------------------------
# witness-dense
# ---------------------------------------------------------------------------

def _witness_log_op(rng, N, grid=None) -> Op:
    ns = grid if grid is not None else list(range(100, N + 1))
    oracle = {n: direct_alternating_sum(lambda k: mpmath.log(k), n, 1)
              for n in _oracle_points(rng, ns)}

    def run():
        rep = witness.witness_log(nmax=N, grid=grid)
        check(rep.passed(), f"witness_log verdicts {rep.verdicts}")
        check([s["x"] for s in rep.samples] == ns, "witness_log grid")
        _check_oracle({s["x"]: s["value"] for s in rep.samples}, oracle, "witness_log")
        return _samples_digest(rep)
    kind = "witness_log" if grid is None else "witness_log_sparse"
    return Op(kind, f"{kind}[N={N}]", run)


def _float_stream_op(rng, N) -> Op:
    prec = N + 160
    with mp.workprec(prec):
        terms = [mpmath.log(k + 1) for k in range(N + 1)]
        bounds = [mpf(2) ** (-(N + 140))] * (N + 1)
    stream = SequenceStream(terms, "float", bounds)
    oracle = {n: direct_alternating_sum(lambda k: mpmath.log(k + 1), n, 0)
              for n in _oracle_points(rng, range(N + 1))}

    def run():
        out = closure.binomial_diff_seq(stream, N)
        check(out.mode == "float" and len(out.terms) == N + 1, "float stream shape")
        values = {n: float(out.terms[n]) for n in oracle}
        _check_oracle(values, oracle, "binomial_diff_seq(log(k+1))")
        return json.dumps([float(t) for t in out.terms])
    return Op("diff_seq_float", f"diff_seq_float[N={N}]", run)


def _exact_stream_op(N) -> Op:
    terms = [Fraction(1, k + 1) for k in range(N + 1)]

    def run():
        out = closure.binomial_diff_seq(terms, N)
        # sum_k binom(n,k) (-1)^k / (k+1) = 1/(n+1)
        check(out.terms == [Fraction(1, n + 1) for n in range(N + 1)],
              "binomial_diff_seq(1/(k+1)) != 1/(n+1)")
        return str(len(out.terms))
    return Op("diff_seq_exact", f"diff_seq_exact[N={N}]", run)


def _build_dense(rng, workdir) -> List[Op]:
    ops = [_witness_log_op(rng, N) for N in strata(rng, *DENSE_LOG_N)]
    ops += [_float_stream_op(rng, N) for N in strata(rng, *DENSE_FLOAT_N)]
    ops += [_exact_stream_op(N) for N in strata(rng, *DENSE_EXACT_N)]
    return ops


# ---------------------------------------------------------------------------
# witness-sparse
# ---------------------------------------------------------------------------

def _powers_op(rng, alpha, N) -> Op:
    grid = witness.log_grid(500, N, 48)
    if alpha == 0.5:
        f = mpmath.sqrt
    else:
        def f(k):
            return mpf(k) ** mpf(alpha)
    oracle = {n: direct_alternating_sum(f, n, 1) for n in _oracle_points(rng, grid)}

    def run():
        rep = witness.witness_powers(alpha, nmax=N)
        check(rep.passed(), f"witness_powers verdicts {rep.verdicts}")
        check([s["x"] for s in rep.samples] == grid, "witness_powers grid")
        _check_oracle({s["x"]: s["value"] for s in rep.samples}, oracle, "witness_powers")
        return _samples_digest(rep)
    return Op("witness_powers", f"witness_powers[a={alpha:.4g},N={N}]", run)


def _primes_op() -> Op:
    def run():
        rep = witness.witness_primes()
        check(rep.passed(), f"witness_primes verdicts {rep.verdicts}")
        check(len(rep.samples) == rep.params["grid_size"], "witness_primes samples")
        return _samples_digest(rep)
    return Op("witness_primes", "witness_primes", run)


def _misc_op() -> Op:
    def run():
        rep = witness.witness_misc()
        check(rep.passed(), f"witness_misc verdicts {rep.verdicts}")
        return _samples_digest(rep)
    return Op("witness_misc", "witness_misc", run)


def _build_sparse(rng, workdir) -> List[Op]:
    n_log, n_other = strata(rng, *SPARSE_N, 2)
    ops = [_witness_log_op(rng, n_log, witness.log_grid(100, n_log, 24)),
           _powers_op(rng, rng.choice(SPARSE_ALPHAS), n_other)]
    ops += [_powers_op(rng, 0.5, N) for N in strata(rng, *SPARSE_N, 2)]
    ops += [_primes_op(), _misc_op()]
    return ops


# ---------------------------------------------------------------------------
# exact-algebra
# ---------------------------------------------------------------------------

def random_recurrence(rng, order: int) -> Recurrence:
    """Recurrence with full-degree coefficients whose leading one has
    positive coefficients, so it is positive on n >= 0 and unrolling never
    divides by zero."""
    degree = 2 if order == 1 else 1

    def poly(lead):
        c = [rng.randint(1, 3) if lead else rng.randint(-3, 3) for _ in range(degree + 1)]
        if c[-1] == 0:
            c[-1] = rng.choice((-1, 1))
        return Poly(c)
    init = [Fraction(rng.randint(-3, 3)) for _ in range(order)]
    return Recurrence([poly(True)] + [poly(False) for _ in range(order)], initial_terms=init)


def unroll_terms(coeffs, init, count: int) -> List[Fraction]:
    """f_0 .. f_{count-1} from p_0(n) f_{n+d} + ... + p_d(n) f_n = 0,
    written out independently of holoseq.annihilators.unroll."""
    d = len(coeffs) - 1
    terms = [Fraction(t) for t in init]
    while len(terms) < count:
        n = len(terms) - d
        s = sum(p(Fraction(n)) * terms[n + d - i] for i, p in enumerate(coeffs) if i)
        terms.append(-s / coeffs[0](Fraction(n)))
    return terms


def _certify(rec, terms, count, what):
    check(rec.order + count <= len(terms), f"{what}: order {rec.order} too high")
    res = annihilators.apply(rec, terms, range(count))
    check(all(r == 0 for r in res), f"{what}: nonzero residual")


def _round_trip(rec, what):
    back = formats.operator_from_dict(json.loads(json.dumps(formats.operator_to_dict(rec))))
    check(back == rec and back.initial_terms == rec.initial_terms, f"{what}: JSON round trip")


def _run_cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    check(code == 0, f"holoseq {' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue())


def write_bfile(path, terms):
    with open(path, "w") as f:
        for n, t in enumerate(terms):
            t = Fraction(t)
            f.write(f"{n} {t.numerator}" + (f"/{t.denominator}\n" if t.denominator != 1 else "\n"))


def _pair_ops(rng, idx, shape, workdir) -> List[Op]:
    a = random_recurrence(rng, shape[0])
    b = random_recurrence(rng, shape[1])
    u = unroll_terms(a.coeffs, a.initial_terms, UNROLL_TERMS)
    v = unroll_terms(b.coeffs, b.initial_terms, UNROLL_TERMS)
    sums = [x + y for x, y in zip(u, v)]
    prods = [x * y for x, y in zip(u, v)]
    tag = f"{shape[0]}x{shape[1]}#{idx}"
    # input of the classify and guess ops, sized here once
    had = closure.closure_hadamard(a, b)

    def op_sum():
        rec = closure.closure_sum(a, b)
        check(rec.order <= a.order + b.order, "closure_sum order bound")
        _certify(rec, sums, CERT_TERMS, "closure_sum")
        _round_trip(rec, "closure_sum")
        return json.dumps(formats.operator_to_dict(rec))

    def op_hadamard():
        rec = closure.closure_hadamard(a, b)
        check(rec.order <= max(a.order, 1) * max(b.order, 1), "closure_hadamard order bound")
        _certify(rec, prods, CERT_TERMS, "closure_hadamard")
        _round_trip(rec, "closure_hadamard")
        return json.dumps(formats.operator_to_dict(rec))

    def op_transform():
        rec = closure.binomial_transform_op(a)
        check(rec.order + CERT_TERMS <= UNROLL_TERMS, "transform order too high")
        g = closure.binomial_diff_seq(u, CERT_TERMS + rec.order)
        _certify(rec, g.terms, CERT_TERMS, "binomial_transform_op")
        return json.dumps(formats.operator_to_dict(rec))

    def op_classify():
        ode = annihilators.rec_to_ode(had)
        points = annihilators.singular_points(ode)
        out = []
        for z, _ in points.rational:
            rep = singclass.classify_point(ode, z)
            check(rep.kind != "ordinary", f"singular point {z} classified ordinary")
            out.append(rep)
        out.append(singclass.classify_point(ode, "infinity"))
        for rep in out:
            check(rep.kind in ("ordinary", "regular_singular", "irregular"), "kind")
            degree = (sum(m for _, m in rep.indicial_exponents)
                      + sum(d for _, d in rep.nonrational_indicial))
            check(degree <= rep.operator_order, "indicial degree above the order")
        return json.dumps([rep.to_dict() for rep in out], sort_keys=True)

    ops = [Op("closure_sum", f"closure_sum[{tag}]", op_sum),
           Op("closure_hadamard", f"closure_hadamard[{tag}]", op_hadamard),
           Op("transform_op", f"transform_op[{tag}]", op_transform),
           Op("classify", f"classify[{tag}]", op_classify)]

    if shape[0] * shape[1] <= 2:
        # the guess must find the product's recurrence in the closure's box;
        # order-3 boxes cost 0.01 s to 0.8 s by seed, so they are left out
        r, d = had.order, had.degree
        count = (r + 1) * (d + 1) + 30
        path = os.path.join(workdir, f"product-{idx}.bfile")
        write_bfile(path, prods[:count])

        def op_guess():
            payload = _run_cli(["guess", "--input", path, "--max-order", str(r),
                                "--max-degree", str(d), "--json"])
            check(payload["found"], f"guess_exact missed the product of pair {tag}")
            rec = formats.operator_from_dict(payload["operator"])
            check(rec.order <= r, "guessed order above the box")
            _certify(rec, prods, count - rec.order, "guess_exact")
            return json.dumps(payload["operator"])
        ops.append(Op("guess_found", f"guess_found[{tag},box={r}x{d}]", op_guess))
    return ops


def _guess_not_found_op(name, terms, workdir) -> Op:
    path = os.path.join(workdir, f"{name}.bfile")
    write_bfile(path, terms)

    def run():
        payload = _run_cli(["guess", "--input", path, "--max-order", "4",
                            "--max-degree", "4", "--json"])
        check(not payload["found"], f"guess_exact found a recurrence for {name}")
        return json.dumps(payload["provenance"], sort_keys=True)
    return Op("guess_not_found", f"guess_not_found[{name}]", run)


def _first_primes(count):
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes if p * p <= k):
            primes.append(k)
        k += 1
    return primes


def _hypergeometric_op(rng) -> Op:
    a, b, c, d = (rng.randint(1, 9) for _ in range(4))
    exact = [Fraction(1)]
    for n in range(59):
        exact.append(exact[-1] * Fraction(a * n + b, c * n + d))
    with mp.workprec(192):
        terms = [mpf(t.numerator) / t.denominator for t in exact]

    def run():
        res = guess.guess_float(terms, 1, 1, residual_tol=1e-30, precision_bits=192)
        check(res.found, "guess_float missed a hypergeometric sequence")
        _certify(res.recurrence, exact, len(exact) - res.recurrence.order, "guess_float")
        return repr([[str(c) for c in p.coeffs] for p in res.recurrence.coeffs])
    return Op("guess_float_found", f"guess_float_found[({a}n+{b})/({c}n+{d})]", run)


def _log_float_op(rng) -> Op:
    count = rng.randint(66, 74)
    with mp.workprec(192):
        terms = [mpf(0)] + [mpmath.log(k) for k in range(1, count)]

    def run():
        res = guess.guess_float(terms, 3, 3, residual_tol=1e-10, precision_bits=192)
        check(not res.found, "guess_float found a recurrence for log n")
        return str(len(res.provenance["searched"]))
    return Op("guess_float_not_found", f"guess_float_not_found[log,{count}]", run)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _semiprime_op(rng) -> Op:
    def prime32():
        while True:
            c = rng.getrandbits(32) | (1 << 31) | 1
            if _is_prime(c):
                return c
    N = prime32() * prime32()
    ode = DiffOp([Poly([0, 0, 1]), Poly([0, 1]), Poly([N])])

    def run():
        # indicial polynomial r^2 + N: no rational roots
        rep = singclass.classify_point(ode, 0)
        check(rep.kind == "regular_singular", "semiprime operator kind")
        check(rep.indicial_exponents == [], "semiprime operator has rational exponents")
        check(sum(d for _, d in rep.nonrational_indicial) == 2, "semiprime indicial degree")
        return json.dumps(rep.to_dict(), sort_keys=True)
    return Op("classify_semiprime", f"classify_semiprime[{N.bit_length()}b]", run)


def _build_exact(rng, workdir) -> List[Op]:
    ops = []
    for k in range(PAIRS_PER_SHAPE):
        for shape in PAIR_SHAPES:
            ops += _pair_ops(rng, len(ops), shape, workdir)
    ops.append(_guess_not_found_op("bell", witness.bell_numbers(300), workdir))
    ops.append(_guess_not_found_op("children-rounds", witness.children_rounds_coefficients(120), workdir))
    ops.append(_guess_not_found_op("primes", _first_primes(300), workdir))
    ops += [_hypergeometric_op(rng) for _ in range(2)]
    ops += [_log_float_op(rng) for _ in range(3)]
    ops += [_semiprime_op(rng) for _ in range(4)]
    return ops


_CYCLE_MAKERS = {
    "witness-dense": _build_dense,
    "witness-sparse": _build_sparse,
    "exact-algebra": _build_exact,
}


def build(workload: str, seed: int, workdir: str) -> List[Op]:
    """One cycle of the workload's ops, inputs and oracles drawn from seed."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _CYCLE_MAKERS[workload](rng, workdir)
    rng.shuffle(ops)
    return ops
