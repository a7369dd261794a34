"""Command-line surface.

Exit codes: 0 success (a well-formed NotFound included, and a stdout
closed by its reader, such as `| head`: the output stops quietly), 2 usage
error, 3 malformed input file, 4 precision or cap exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .abelian import AlphaNegative, AsymptoticScale, transfer, verify_transfer
from .annihilators import LeadingCoefficientZero, Recurrence
from .closure import binomial_diff_seq, binomial_transform_op, closure_hadamard, closure_sum
from .formats import (
    FormatError,
    dump_operator,
    fraction_to_str,
    load_bfile,
    load_operator,
    load_stream,
    operator_to_dict,
)
from .guess import InsufficientTerms, guess_exact, guess_float
from .hpeval import PrecisionExhausted
from .primes import CapExceeded, li, nth_prime, prime_pi
from .singclass import NonRationalPoint, classify_point
from .witness import witness_log, witness_misc, witness_powers, witness_primes

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_EXHAUSTED = 4


def _emit(payload: dict, args):
    text = json.dumps(payload, sort_keys=True, indent=1)
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(text + "\n")
    if getattr(args, "json", False) or not getattr(args, "out", None):
        print(text if getattr(args, "json", False) else _summary(payload))


def _summary(payload: dict) -> str:
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
            if len(value) > 100:
                value = value[:97] + "..."
        lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _parse_point(s: str):
    if s in ("infinity", "inf", "oo"):
        return "infinity"
    num, sep, den = s.partition("/")
    try:
        if "e" in s.lower():
            # read exactly, 1e999999999 would be a billion-digit integer
            raise ValueError
        if not sep:
            return Fraction(s)  # a decimal exactly: 0.1 is 1/10
        num, den = int(num), int(den)
    except ValueError:
        raise NonRationalPoint(f"point {s!r} is not p/q, a decimal without "
                               "an exponent, or infinity")
    return _ratio(num, den)


def _ratio(num: int, den: int) -> Fraction:
    """num/den from the command line; a zero denominator is a usage error."""
    if den == 0:
        raise ValueError(f"zero denominator in {num}/{den}")
    return Fraction(num, den)


def cmd_guess(args) -> int:
    start, terms = load_bfile(args.input)
    if args.float:
        res = guess_float(terms, args.max_order, args.max_degree,
                          residual_tol=args.tol,
                          precision_bits=_given(args.precision_bits, 192))
    else:
        res = guess_exact(terms, args.max_order, args.max_degree)
    res.provenance["index_offset"] = start
    payload = {"found": res.found, "provenance": res.provenance}
    if res.found:
        payload["operator"] = operator_to_dict(res.recurrence)
    _emit(payload, args)
    return EXIT_OK


def cmd_closure(args) -> int:
    a = load_operator(args.a)
    b = load_operator(args.b)
    if not isinstance(a, Recurrence) or not isinstance(b, Recurrence):
        raise FormatError("closure operates on recurrence operators")
    rec = closure_sum(a, b) if args.op == "sum" else closure_hadamard(a, b)
    payload = {"operator": operator_to_dict(rec), "order": rec.order}
    if args.out:
        dump_operator(rec, args.out)
        args.out = None
    _emit(payload, args)
    return EXIT_OK


def cmd_transform(args) -> int:
    if args.rec:
        rec = load_operator(args.rec)
        if not isinstance(rec, Recurrence):
            raise FormatError("--rec must name a recurrence operator")
        out = binomial_transform_op(rec)
        payload = {"operator": operator_to_dict(out), "order": out.order}
    else:
        seq = load_stream(args.input)
        count = args.count if args.count is not None else len(seq) - 1
        stream = binomial_diff_seq(seq, count,
                                   include_zero_term=not args.from_one)
        payload = {"terms": [fraction_to_str(t) for t in stream.terms]}
    _emit(payload, args)
    return EXIT_OK


def cmd_classify(args) -> int:
    ode = load_operator(args.ode)
    if isinstance(ode, Recurrence):
        raise FormatError("--ode must name a differential operator")
    report = classify_point(ode, _parse_point(args.point))
    _emit(report.to_dict(), args)
    return EXIT_OK


def cmd_transfer(args) -> int:
    scale = AsymptoticScale(_maybe_fraction(args.alpha),
                            _maybe_fraction(args.beta),
                            _maybe_fraction(args.gamma))
    el = transfer(scale, bits=_given(args.precision_bits, 64))
    payload = {
        "scale": scale.describe(),
        "singular_element": el.describe(),
        "gamma_factor": float(el.gamma_factor.value),
        "pole_order": str(el.pole_order),
        "log_power": str(el.log_power),
        "loglog_power": str(el.loglog_power),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    seq = load_stream(args.input)
    scale = AsymptoticScale(_maybe_fraction(args.alpha),
                            _maybe_fraction(args.beta),
                            _maybe_fraction(args.gamma))
    bits = _given(args.precision_bits, 53)
    # above float64 the exact terms are summed at the requested precision
    u = seq.terms if bits > 53 else np.array([float(t) for t in seq])
    rep = verify_transfer(u, scale, sector_angle=args.theta, kmax=args.kmax,
                          kmin=args.kmin, precision_bits=bits)
    _emit(rep.to_dict(), args)
    return EXIT_OK


def cmd_primes(args) -> int:
    if args.what == "nth":
        payload = {"n": args.value, "nth_prime": nth_prime(args.value)}
    elif args.what == "pi":
        payload = {"x": args.value, "prime_pi": prime_pi(args.value)}
    else:
        r = li(args.value, bits=_given(args.precision_bits, 64))
        payload = {"x": args.value, "li": float(r.value),
                   "bound": float(r.bound)}
    _emit(payload, args)
    return EXIT_OK


def cmd_witness(args) -> int:
    if args.experiment == "log":
        rep = witness_log(nmax=_given(args.nmax, 2000))
    elif args.experiment == "powers":
        rep = witness_powers(alpha=_maybe_fraction(_given(args.alpha, 0.5)),
                             nmax=args.nmax)
    elif args.experiment == "primes":
        rep = witness_primes(nmax=_given(args.nmax, 10 ** 6))
    else:
        rep = witness_misc()
    _emit(rep.to_dict(), args)
    return EXIT_OK


def _given(value, default):
    """An option's value, or `default` when it was not given."""
    return default if value is None else value


def _positive_int(s: str) -> int:
    """argparse type of --nmax and --precision-bits: a nonpositive value is
    a usage error, not the default."""
    try:
        value = int(s)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{s!r} is not a positive integer")
    return value


def _maybe_fraction(s):
    if s is None:
        return 0
    if isinstance(s, (int, float, Fraction)):
        return s
    if "/" in s:
        num, den = s.split("/")
        return _ratio(int(num), int(den))
    try:
        return int(s)
    except ValueError:
        x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"{s!r} is not a finite number")
    return x


def _add_common(parser: argparse.ArgumentParser, suppress: bool):
    # the same options are accepted before and after the subcommand; the
    # subparser copies SUPPRESS their defaults so they never clobber a
    # value the main parser already set
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    parser.add_argument("--json", action="store_true",
                        default=d(False),
                        help="machine-readable output on stdout")
    parser.add_argument("--out", default=d(None),
                        help="write the JSON payload to a file")
    parser.add_argument("--precision-bits", type=_positive_int, default=d(None))
    parser.add_argument("--tol", type=float, default=d(1e-10))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="holoseq",
        description="holonomic sequence laboratory: guessing, closure, "
                    "singularity classification, Abelian transfer, witnesses")
    _add_common(p, suppress=False)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        child = sub.add_parser(name, **kw)
        _add_common(child, suppress=True)
        return child

    g = add_parser("guess", help="find a recurrence from b-file terms")
    g.add_argument("--input", required=True)
    g.add_argument("--max-order", type=int, default=4)
    g.add_argument("--max-degree", type=int, default=4)
    g.add_argument("--float", action="store_true",
                   help="float-mode guessing with held-out certification")
    g.set_defaults(func=cmd_guess)

    c = add_parser("closure", help="combine two recurrence operators")
    c.add_argument("op", choices=["sum", "hadamard"])
    c.add_argument("--a", required=True)
    c.add_argument("--b", required=True)
    c.set_defaults(func=cmd_closure)

    t = add_parser("transform",
                       help="binomial difference transform of an operator "
                            "or a term file")
    source = t.add_mutually_exclusive_group(required=True)
    source.add_argument("--rec", help="recurrence JSON (operator transform)")
    source.add_argument("--input", help="b-file (term transform)")
    t.add_argument("--count", type=int, default=None)
    t.add_argument("--from-one", action="store_true",
                   help="start the sum at k = 1 for display parity")
    t.set_defaults(func=cmd_transform)

    k = add_parser("classify", help="singular-point report of an operator")
    k.add_argument("--ode", required=True)
    k.add_argument("--point", required=True,
                   help="p/q, a decimal without an exponent, or infinity")
    k.set_defaults(func=cmd_classify)

    tr = add_parser("transfer", help="singular element of a scale")
    tr.add_argument("--alpha", default="0")
    tr.add_argument("--beta", default="0")
    tr.add_argument("--gamma", default="0")
    tr.set_defaults(func=cmd_transfer)

    v = add_parser("verify", help="sector verification of a transfer")
    v.add_argument("--input", required=True)
    v.add_argument("--alpha", default="0")
    v.add_argument("--beta", default="0")
    v.add_argument("--gamma", default="0")
    v.add_argument("--theta", type=float, default=0.0)
    v.add_argument("--kmin", type=int, default=4)
    v.add_argument("--kmax", type=int, default=10)
    v.set_defaults(func=cmd_verify)

    pr = add_parser("primes", help="prime infrastructure queries")
    pr.add_argument("what", choices=["nth", "pi", "li"])
    pr.add_argument("value", type=int)
    pr.set_defaults(func=cmd_primes)

    w = add_parser("witness", help="run a witness experiment")
    w.add_argument("experiment", choices=["log", "powers", "primes", "misc"])
    w.add_argument("--nmax", type=_positive_int, default=None)
    w.add_argument("--alpha", default=None)
    w.set_defaults(func=cmd_witness)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call, not at import; argparse keeps no state
    # between parse_args calls, so every call shares it
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at the null device so the
        # flush at interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (FormatError, FileNotFoundError, NonRationalPoint) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (PrecisionExhausted, CapExceeded) as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except (InsufficientTerms, AlphaNegative, LeadingCoefficientZero, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
