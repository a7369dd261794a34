"""Float-mode guessing in fixed-point integers: agreement with the mpf
reference, input checks, and the mpf work left after the terms are split."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpf

from holoseq import guess
from holoseq.annihilators import Recurrence, unroll
from holoseq.cli import main
from holoseq.guess import InsufficientTerms, guess_float
from holoseq.kernel import Poly
from seqlib import full_degree_rec, mpf_guess_float, mpmath_calls


def _mpf_terms(exact, prec):
    with mp.workprec(prec):
        return [mpf(t.numerator) / t.denominator for t in exact]


def hypergeometric_case(rng):
    a, b, c, d = (rng.randint(1, 9) for _ in range(4))
    exact = [Fraction(1)]
    for n in range(59):
        exact.append(exact[-1] * Fraction(a * n + b, c * n + d))
    return _mpf_terms(exact, 192), (1, 1), 1e-30, 192


def holonomic_order2_case(rng):
    rec = full_degree_rec(rng, 2)
    init = rec.initial_terms
    if all(t == 0 for t in init):
        init = [Fraction(1), Fraction(0)]
    return _mpf_terms(unroll(rec, init, 69).terms, 256), (2, 1), 1e-30, 256


_NON_HOLONOMIC = {
    "log": lambda k: mpmath.log(k + 1),
    "sqrt": mpmath.sqrt,
    "cbrt": mpmath.cbrt,
    "log^2": lambda k: mpmath.log(k + 1) ** 2,
}


def non_holonomic_case(rng):
    f = _NON_HOLONOMIC[rng.choice(sorted(_NON_HOLONOMIC))]
    with mp.workprec(192):
        terms = [f(k) for k in range(rng.randint(50, 70))]
    return terms, (2, 2), 1e-10, 192


_CASES = [hypergeometric_case, holonomic_order2_case, non_holonomic_case]


@pytest.mark.parametrize("seed", range(48))
def test_agrees_with_mpf_reference(seed):
    rng = random.Random(seed)
    terms, (r, d), tol, prec = _CASES[seed % 3](rng)
    found, rec, searched = mpf_guess_float(terms, r, d, tol, prec)
    res = guess_float(terms, r, d, residual_tol=tol, precision_bits=prec)
    assert res.found == found
    assert res.recurrence == rec
    assert res.provenance["searched"] == searched
    assert found == (seed % 3 != 2)


class TestNonFiniteTerms:
    @pytest.mark.parametrize("index", [5, 30])
    @pytest.mark.parametrize("bad", [mpmath.inf, mpmath.nan, math.inf])
    def test_rejected_with_index(self, index, bad):
        terms = [mpf(n + 1) for n in range(40)]
        terms[index] = bad
        with pytest.raises(ValueError, match=f"term {index} is not finite"):
            guess_float(terms, 1, 1, residual_tol=1e-20, precision_bits=128)


class TestEveryBoxEliminated:
    # box (1,0) holds f_{n+1} = 2 f_n; it needs ncols + 2 = 4 training
    # rows, that is 20 held-out + 1 + 4 = 25 terms, and (1,1) needs 27
    def test_too_few_terms_for_the_largest_box(self):
        terms = [mpf(2) ** n for n in range(26)]
        with pytest.raises(InsufficientTerms, match="need at least 27"):
            guess_float(terms, 1, 1, residual_tol=1e-20, precision_bits=128)

    def test_just_enough_terms(self):
        terms = [mpf(2) ** n for n in range(27)]
        res = guess_float(terms, 1, 1, residual_tol=1e-20, precision_bits=128)
        assert res.found
        assert res.recurrence == Recurrence([Poly([1]), Poly([-2])])
        assert res.provenance["searched"] == [(0, 0), (0, 1), (1, 0)]

    def test_cli_exit_2(self, tmp_path, capsys):
        bf = tmp_path / "pow2.bfile"
        bf.write_text("".join(f"{n} {2 ** n}\n" for n in range(24)))
        code = main(["guess", "--float", "--input", str(bf),
                     "--max-order", "1", "--max-degree", "1"])
        assert code == 2
        assert "need at least 27 terms" in capsys.readouterr().err


def _arithmetic(calls):
    # mpf_mul is python_mpf_mul on mpmath's python backend
    return {op: sum(n for name, n in calls.items() if name.endswith(op))
            for op in ("mpf_add", "mpf_sub", "mpf_mul", "mpf_div")}


def test_not_found_elimination_calls_no_mpf_arithmetic():
    with mp.workprec(192):
        terms = [mpf(0)] + [mpmath.log(k) for k in range(1, 70)]

    def run(fn):
        return lambda: fn(terms, 3, 3, 1e-10, 192)
    calls = mpmath_calls(run(guess_float), after=guess._float_terms)
    assert set(_arithmetic(calls).values()) == {0}
    # the mpf reference on the same data does its elimination in mpf
    ref = _arithmetic(mpmath_calls(run(mpf_guess_float), after=guess._float_terms))
    assert ref["mpf_add"] > 1000 and ref["mpf_mul"] > 1000
