import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from holoseq import cli
from holoseq.abelian import AsymptoticScale, verify_transfer
from holoseq.annihilators import DiffOp, Recurrence
from holoseq.cli import main
from holoseq.formats import (
    FormatError,
    dump_operator,
    fraction_to_str,
    load_operator,
    operator_from_dict,
    operator_to_dict,
    parse_bfile,
    str_to_fraction,
    to_json,
)
from holoseq.kernel import Poly


def P(*coeffs):
    return Poly(coeffs)


class TestRationalStrings:
    def test_roundtrip(self):
        for x in [Fraction(3), Fraction(-7, 2), Fraction(0), Fraction(22, 7)]:
            assert str_to_fraction(fraction_to_str(x)) == x

    def test_bad_rational(self):
        with pytest.raises(FormatError):
            str_to_fraction("3/0")
        with pytest.raises(FormatError):
            str_to_fraction("a/b")

    def test_above_the_int_str_digit_limit(self):
        # CPython refuses int <-> str above 4300 digits by default
        rng = random.Random(43)
        for digits in (4000, 4001, 4301, 8001, 20000):
            num = rng.randrange(10 ** (digits - 1), 10 ** digits)
            assert len(fraction_to_str(Fraction(num))) == digits
            for x in (Fraction(num), Fraction(-num, 7), Fraction(3, num + 1)):
                assert str_to_fraction(fraction_to_str(x)) == x
        assert fraction_to_str(Fraction(10 ** 5000)) == "1" + "0" * 5000
        assert fraction_to_str(Fraction(-(10 ** 8000) + 1)) == "-" + "9" * 8000
        assert str_to_fraction("+" + "0" * 4990 + "12/-" + "0" * 4500 + "4") == Fraction(-3)

    def test_bad_long_rational_quoted_short(self):
        with pytest.raises(FormatError) as e:
            str_to_fraction("1" * 5000 + "x")
        assert len(str(e.value)) < 100 and "5001 characters" in str(e.value)


class TestOperatorJson:
    def test_recurrence_roundtrip(self):
        rec = Recurrence([P(2, 1), P(-2, -4)], initial_terms=[1])
        d = operator_to_dict(rec)
        assert d["kind"] == "recurrence" and d["order"] == 1
        back = operator_from_dict(d)
        assert back == rec and back.initial_terms == rec.initial_terms

    def test_coefficient_above_the_digit_limit_roundtrips(self, tmp_path):
        big = 7 ** 5916
        assert 10 ** 4999 < big < 10 ** 5000
        rec = Recurrence([P(1), P(-big, 1)], initial_terms=[Fraction(1, big)])
        path = str(tmp_path / "big.json")
        dump_operator(rec, path)
        back = load_operator(path)
        assert back == rec and back.initial_terms == rec.initial_terms

    def test_ode_roundtrip(self):
        ode = DiffOp([P(1, -1), P(-1)])
        back = operator_from_dict(operator_to_dict(ode))
        assert back == ode

    def test_random_normalized_roundtrips(self):
        rng = random.Random(19)
        for _ in range(20):
            d = rng.randint(1, 3)
            coeffs = [Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                            for _ in range(rng.randint(1, 3))])
                      for _ in range(d + 1)]
            if coeffs[0].is_zero():
                coeffs[0] = P(1)
            if coeffs[-1].is_zero():
                coeffs[-1] = P(1)
            rec = Recurrence(coeffs)
            assert operator_from_dict(operator_to_dict(rec)) == rec

    def test_malformed(self):
        with pytest.raises(FormatError):
            operator_from_dict({"kind": "weird", "coefficients": [["1"]]})
        with pytest.raises(FormatError):
            operator_from_dict({"kind": "recurrence"})


class TestToJson:
    def test_nested_values(self):
        @dataclass
        class Inner:
            z: complex
            r: Fraction

        @dataclass
        class Outer:
            b: tuple
            a: dict
            inner: Inner
            flag: bool = True

        x = Outer(((Fraction(-1, 3), 2), None), {"k": [Fraction(10 ** 5000)]},
                  Inner(1 - 2j, Fraction(7)))
        assert to_json(x) == {
            "b": [["-1/3", 2], None], "a": {"k": ["1" + "0" * 5000]},
            "inner": {"z": [1.0, -2.0], "r": "7"}, "flag": True}
        assert list(to_json(x)) == ["b", "a", "inner", "flag"]


class TestBFile:
    def test_basic(self):
        start, values = parse_bfile("# primes\n1 2\n2 3\n3 5\n")
        assert start == 1 and values == [2, 3, 5]

    def test_load_stream_alignment(self, tmp_path):
        from holoseq.formats import load_stream
        path = tmp_path / "s.bfile"
        path.write_text("2 7\n3 9\n")
        stream = load_stream(str(path))
        assert stream.mode == "exact"
        assert stream.terms == [0, 0, 7, 9]

    def test_gap_rejected(self):
        with pytest.raises(FormatError):
            parse_bfile("0 1\n2 4\n")

    def test_comments_and_blanks(self):
        start, values = parse_bfile("\n# header\n0 1  # one\n1 1\n2 2\n")
        assert start == 0 and values == [1, 1, 2]

    def test_rational_values(self):
        _, values = parse_bfile("0 1\n1 1/2\n2 1/3\n")
        assert values == [1, Fraction(1, 2), Fraction(1, 3)]

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            parse_bfile("# nothing\n")


def write(path, text):
    path.write_text(text)
    return str(path)


class TestCli:
    def test_guess_catalan(self, tmp_path, capsys):
        lines = "\n".join(f"{n} {math.comb(2 * n, n) // (n + 1)}"
                          for n in range(30))
        bf = write(tmp_path / "catalan.bfile", lines + "\n")
        code = main(["--json", "guess", "--input", bf,
                     "--max-order", "2", "--max-degree", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["found"] is True
        assert payload["operator"]["order"] == 1

    def test_guess_primes_not_found(self, tmp_path, capsys):
        from holoseq.primes import sieve
        primes = sieve(3000)[:300]
        lines = "\n".join(f"{n + 1} {p}" for n, p in enumerate(primes.tolist()))
        bf = write(tmp_path / "primes.bfile", lines + "\n")
        code = main(["--json", "guess", "--input", bf,
                     "--max-order", "4", "--max-degree", "4"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["found"] is False

    def test_classify(self, tmp_path, capsys):
        ode = DiffOp([P(1, -1), P(-1), Poly()])
        path = tmp_path / "ode.json"
        path.write_text(json.dumps(operator_to_dict(ode)))
        code = main(["--json", "classify", "--ode", str(path), "--point", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "regular_singular"
        assert payload["indicial_exponents"] == [["0", 2]]

    def test_classify_exponent_beyond_the_str_limit(self, tmp_path, capsys):
        # z y' = N y with N = 10^5000 + 7 has the exponent N at 0; the
        # report's encoder used str(), which refuses 4300+ digits (exit 2)
        N = 10 ** 5000 + 7
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"kind": "ode", "coefficients": [
            ["0", "1"], [fraction_to_str(Fraction(-N))]]}))
        assert main(["--json", "classify", "--ode", str(path), "--point", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (exponent, mult), = payload["indicial_exponents"]
        assert (str_to_fraction(exponent), mult) == (N, 1)

    def test_witness_primes_nmax_below_grid_exit_2(self, capsys):
        # nmax = 50 exited 0 with samples up to n = 100
        assert main(["witness", "primes", "--nmax", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: need 100 <= nmax" in captured.err

    def test_witness_log_writes_schema(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["witness", "log", "--nmax", "150", "--out", str(out),
                     "--json"])
        assert code == 0
        payload = json.loads(out.read_text())
        for key in ["experiment", "params", "samples", "verdicts",
                    "precision_bits", "runtime_ms"]:
            assert key in payload
        assert payload["experiment"] == "log"

    def test_witness_powers_rational_alpha(self, capsys):
        # the float is read as the fraction 1/3, so both give one report
        reports = []
        for alpha in ("1/3", "0.3333333333333333"):
            code = main(["--json", "witness", "powers", "--alpha", alpha,
                         "--nmax", "800"])
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["params"]["alpha"] == 1 / 3
            assert payload["verdicts"] and all(payload["verdicts"].values())
            reports.append(payload)
        a, b = reports
        assert a["samples"] == b["samples"] and a["verdicts"] == b["verdicts"]

    def test_witness_nmax_below_default_grid_exit_2(self, capsys):
        assert main(["witness", "log", "--nmax", "50"]) == 2
        assert "lower end of the default grid" in capsys.readouterr().err
        assert main(["witness", "powers", "--nmax", "300"]) == 2

    def test_witness_nmax_above_cap_exit_2(self, capsys, monkeypatch):
        from holoseq import hpeval

        def never(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(hpeval, "_f_tables", never)
        assert main(["witness", "powers", "--nmax", "5001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: nmax = 5001 is above the cap 5000\n"

    @pytest.mark.parametrize("extra", [["--nmax", "9999999"], ["--nmax", "100"]],
                             ids=["huge", "small"])
    def test_witness_integer_alpha_refuses_nmax(self, extra, capsys):
        # the integer branch guesses from 100 terms; --nmax was dropped
        assert main(["witness", "powers", "--alpha", "2"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: alpha = 2 is an integer")

    def test_witness_near_integer_alpha_refuses_nmax(self, capsys):
        # 2.0000000001 is read as 2, so it takes the integer branch; it used
        # to take the fractional one and end in a traceback at Gamma(-1)
        argv = ["witness", "powers", "--alpha", "2.0000000001", "--nmax", "600"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "usage error: alpha = 2.0000000001 is an integer as read (2)")

    @pytest.mark.parametrize("argv", [
        ["witness", "primes", "--nmax", "0"],
        ["witness", "log", "--nmax", "0"],
        ["witness", "powers", "--nmax", "-5"],
    ], ids=["primes-0", "log-0", "powers-negative"])
    def test_nonpositive_nmax_exit_2(self, argv, capsys):
        # 0 used to be read as "not given" and ran the default nmax
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "--nmax" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--precision-bits", "0", "transfer", "--alpha", "1/2"],
        ["transfer", "--alpha", "1/2", "--precision-bits", "-5"],
        ["primes", "li", "1000", "--precision-bits", "0"],
        ["verify", "--input", "f.bfile", "--precision-bits", "-1"],
    ], ids=["transfer-0", "transfer-negative", "li-0", "verify-negative"])
    def test_nonpositive_precision_bits_exit_2(self, argv, capsys):
        # 0 used to mean the default and -5 gave Gamma(3/2) off by 1.6e-6
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "--precision-bits" in capsys.readouterr().err

    def test_given_precision_bits_is_used(self, capsys):
        assert main(["--json", "transfer", "--alpha", "1/2",
                     "--precision-bits", "80"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["gamma_factor"] - math.sqrt(math.pi) / 2) < 1e-15

    def test_closure_sum(self, tmp_path, capsys):
        a = Recurrence([P(1), P(-1)], initial_terms=[1])
        b = Recurrence([P(1), P(-2)], initial_terms=[1])
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(operator_to_dict(a)))
        pb.write_text(json.dumps(operator_to_dict(b)))
        code = main(["--json", "closure", "sum", "--a", str(pa), "--b", str(pb)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] <= 2

    @pytest.mark.parametrize("op", ["sum", "hadamard"])
    def test_closure_order_zero_operand_with_a_root_exit_2(self, tmp_path, capsys, op):
        # n (n + 2) v_n = 0 leaves v_0 free, with or without initial terms
        a = Recurrence([P(2), P(-9, 10, -3)])
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(operator_to_dict(a)))
        for init in (None, []):
            pb.write_text(json.dumps(operator_to_dict(Recurrence([P(0, 2, 1)], init))))
            assert main(["closure", op, "--a", str(pa), "--b", str(pb)]) == 2
            err = capsys.readouterr().err
            assert err == "usage error: leading coefficient vanishes at n = 0\n"

    @pytest.mark.parametrize("fields", [
        {"initial_terms": [1]},
        {"initial_terms": 5},
        {"initial_terms": "7"},
        {"coefficients": ["12", "3"]},
        {"coefficients": [["1"], [-1]]},
        {"coefficients": "ab"},
    ], ids=["initial-numbers", "initial-number", "initial-string",
            "coefficient-strings", "coefficient-number", "coefficients-string"])
    def test_closure_operator_not_lists_exit_3(self, tmp_path, capsys, fields):
        d = {"kind": "recurrence", "order": 1,
             "coefficients": [["1"], ["-1"]], **fields}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(d))
        code = main(["closure", "sum", "--a", str(path), "--b", str(path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "input error" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind,coefficients", [
        ("recurrence", [["0"], ["0"]]),
        ("recurrence", []),
        ("ode", [[], []]),
        ("ode", []),
    ], ids=["recurrence-zero", "recurrence-empty", "ode-zero", "ode-empty"])
    def test_no_operator_exit_3(self, tmp_path, capsys, kind, coefficients):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"kind": kind, "order": 1,
                                    "coefficients": coefficients}))
        if kind == "recurrence":
            argv = ["closure", "sum", "--a", str(path), "--b", str(path)]
        else:
            argv = ["classify", "--ode", str(path), "--point", "0"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("input error: malformed operator JSON")
        assert err.count("\n") == 1

    def test_transform_terms(self, tmp_path, capsys):
        bf = write(tmp_path / "ones.bfile",
                   "\n".join(f"{n} 1" for n in range(10)) + "\n")
        code = main(["--json", "transform", "--input", bf])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["terms"] == ["1"] + ["0"] * 9

    def big_bfile(self, tmp_path):
        # 3^(9500+n) has 4533+ digits, above CPython's default int <-> str
        # limit of 4300
        return write(tmp_path / "big.bfile", "".join(
            f"{n} {fraction_to_str(Fraction(3 ** (9500 + n)))}\n"
            for n in range(30)))

    def test_guess_terms_above_the_digit_limit(self, tmp_path, capsys):
        code = main(["--json", "guess", "--input", self.big_bfile(tmp_path),
                     "--max-order", "1", "--max-degree", "0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["found"] is True
        assert payload["operator"]["coefficients"] == [["1"], ["-3"]]

    def test_transform_terms_above_the_digit_limit(self, tmp_path, capsys):
        code = main(["--json", "transform", "--input", self.big_bfile(tmp_path),
                     "--count", "6"])
        assert code == 0
        terms = [str_to_fraction(t)
                 for t in json.loads(capsys.readouterr().out)["terms"]]
        # sum_k binom(n,k) (-1)^k 3^(9500+k) = 3^9500 (-2)^n
        assert terms == [3 ** 9500 * (-2) ** n for n in range(7)]

    def test_transfer(self, capsys):
        code = main(["--json", "transfer", "--alpha", "1", "--beta", "-1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pole_order"] == "2"

    def test_primes_nth(self, capsys):
        code = main(["--json", "primes", "nth", "100"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["nth_prime"] == 541

    def test_verify(self, tmp_path, capsys):
        N = math.ceil(2 ** 8 * 64) + 1
        bf = write(tmp_path / "ones.bfile",
                   "\n".join(f"{n} 1" for n in range(N + 2)) + "\n")
        code = main(["--json", "verify", "--input", bf, "--kmax", "8"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["final_ratio"] - 1) < 1e-5

    @pytest.fixture
    def verify_inputs(self, monkeypatch):
        """The sequences `cmd_verify` hands to `verify_transfer`."""
        seen = []
        real = cli.verify_transfer

        def spy(u, *args, **kw):
            seen.append(u)
            return real(u, *args, **kw)
        monkeypatch.setattr(cli, "verify_transfer", spy)
        return seen

    def test_verify_above_53_bits_sums_exact_terms(self, tmp_path, capsys,
                                                   verify_inputs):
        # 2^60 + 1 and 1/3 have no float64 form; k = 4 needs 257 terms
        terms = [Fraction(2 ** 60 + 1) if n % 2 else Fraction(1, 3) for n in range(260)]
        bf = write(tmp_path / "exact.bfile", "".join(
            f"{n} {fraction_to_str(t)}\n" for n, t in enumerate(terms)))
        argv = ["--json", "verify", "--input", bf, "--kmin", "4", "--kmax", "4"]
        assert main(argv + ["--precision-bits", "80"]) == 0
        (u,) = verify_inputs
        assert u == terms and all(isinstance(t, Fraction) for t in u)
        payload = json.loads(capsys.readouterr().out)
        want = verify_transfer(terms, AsymptoticScale(0, 0, 0), kmin=4, kmax=4,
                               precision_bits=80)
        assert payload == json.loads(json.dumps(want.to_dict()))

    def test_verify_at_53_bits_sums_floats(self, tmp_path, capsys, verify_inputs):
        N = math.ceil(2 ** 8 * 64) + 1
        bf = write(tmp_path / "ones.bfile",
                   "\n".join(f"{n} 1" for n in range(N + 2)) + "\n")
        for extra in ([], ["--precision-bits", "53"]):
            assert main(["--json", "verify", "--input", bf, "--kmax", "8"] + extra) == 0
        u = verify_inputs[0]
        assert isinstance(u, np.ndarray) and u.dtype == np.float64
        assert np.array_equal(u, verify_inputs[1]) and np.all(u == 1.0)
        first, second = capsys.readouterr().out.split("\n}\n", 1)
        assert json.loads(first + "}") == json.loads(second)

    @pytest.mark.parametrize("kmin,kmax", [("5", "4"), ("0", "4")])
    def test_verify_bad_k_range_exit_2(self, tmp_path, capsys, kmin, kmax):
        bf = write(tmp_path / "ones.bfile",
                   "\n".join(f"{n} 1" for n in range(300)) + "\n")
        code = main(["verify", "--input", bf, "--kmin", kmin, "--kmax", kmax])
        assert code == 2
        err = capsys.readouterr().err
        assert "1 <= kmin <= kmax" in err and "Traceback" not in err

    def test_verify_nan_theta_exit_2(self, tmp_path, capsys):
        # used to exit 0 and print bare NaN tokens, which are not JSON
        bf = write(tmp_path / "ones.bfile",
                   "\n".join(f"{n} 1" for n in range(300)) + "\n")
        code = main(["--json", "verify", "--input", bf, "--kmax", "4",
                     "--theta", "nan"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sector_angle" in captured.err and "Traceback" not in captured.err

    def test_bad_bfile_exit_3(self, tmp_path, capsys):
        bf = write(tmp_path / "gap.bfile", "0 1\n2 2\n")
        code = main(["guess", "--input", bf])
        assert code == 3

    def test_missing_file_exit_3(self):
        assert main(["guess", "--input", "/nonexistent.bfile"]) == 3

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["transfer", "--alpha", "1/0"],
        ["witness", "powers", "--alpha", "1/0"],
    ], ids=["transfer", "witness-powers"])
    def test_zero_denominator_alpha_exit_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: zero denominator")
        assert err.count("\n") == 1

    def test_zero_denominator_point_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ode.json"
        path.write_text(json.dumps(operator_to_dict(DiffOp([P(0, 1), P(1)]))))
        assert main(["classify", "--ode", str(path), "--point", "1/0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: zero denominator")
        assert err.count("\n") == 1

    def test_decimal_point_read_exactly(self, tmp_path, capsys):
        path = tmp_path / "ode.json"
        path.write_text(json.dumps(operator_to_dict(DiffOp([P(-3, 2), P(1)]))))
        reports = []
        for point in ("1.5", "3/2", "0.1", "1/10"):
            assert main(["--json", "classify", "--ode", str(path),
                         "--point", point]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and reports[2] == reports[3]
        assert json.loads(reports[0])["kind"] == "regular_singular"
        assert json.loads(reports[2])["location"] == "1/10"

    @pytest.mark.parametrize("point", ["abc", "nan", "1.5.2", "1e5"])
    def test_not_a_point_exit_3(self, tmp_path, capsys, point):
        # an exponent is refused: read exactly, 1e999999999 would be a
        # billion-digit integer
        path = tmp_path / "ode.json"
        path.write_text(json.dumps(operator_to_dict(DiffOp([P(0, 1), P(1)]))))
        assert main(["classify", "--ode", str(path), "--point", point]) == 3
        assert capsys.readouterr().err.startswith("input error: point")

    def test_guess_negative_box_exit_2(self, tmp_path, capsys):
        bf = write(tmp_path / "ones.bfile",
                   "\n".join(f"{n} 1" for n in range(40)) + "\n")
        assert main(["guess", "--input", bf, "--max-order", "-1"]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_transform_negative_count_exit_2(self, tmp_path, capsys):
        bf = write(tmp_path / "ones.bfile",
                   "\n".join(f"{n} 1" for n in range(10)) + "\n")
        assert main(["transform", "--input", bf, "--count", "-2"]) == 2
        assert capsys.readouterr().err.startswith("usage error: transform index -2")

    @pytest.mark.parametrize("argv", [
        ["transform"],
        ["transform", "--rec", "r.json", "--input", "f.bfile"],
    ], ids=["neither", "both"])
    def test_transform_needs_one_source(self, argv, capsys):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "--rec" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, value", [
        (["witness", "powers", "--alpha", "inf"], "'inf'"),
        (["transfer", "--alpha", "nan"], "'nan'"),
        (["transfer", "--beta", "1e400"], "'1e400'"),
    ], ids=["witness-inf", "transfer-nan", "transfer-overflow"])
    def test_non_finite_value_exit_2(self, argv, value, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and value in err
        assert "not a finite number" in err

    def test_cap_exhausted_exit_4(self, monkeypatch):
        monkeypatch.setenv("HOLO_PRECISION_CAP", "64")
        code = main(["witness", "log", "--nmax", "500"])
        assert code == 4

    def test_deterministic_sorted_output(self, capsys):
        main(["--json", "transfer", "--alpha", "0", "--gamma", "1"])
        out1 = capsys.readouterr().out
        main(["--json", "transfer", "--alpha", "0", "--gamma", "1"])
        out2 = capsys.readouterr().out
        assert out1 == out2
        payload = json.loads(out1)
        assert list(payload) == sorted(payload)


class TestClosedStdout:
    def test_reader_closing_early_exits_0_quietly(self, tmp_path):
        # the transform of 3000 terms prints megabytes; the reader keeps 100
        # bytes, as `| head -c 100` does, and closes the pipe
        bf = write(tmp_path / "big.bfile",
                   "".join(f"{n} {n * 7919 % 1000}\n" for n in range(3000)))
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "holoseq.cli", "--json", "transform", "--input", bf],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0
        assert head.startswith(b"{") and err == b""

