"""Operator JSON format, b-file ingestion, and `to_json`, the one encoder
of reports.

Operator JSON: {"kind": "recurrence"|"ode", "order": d,
"coefficients": [[rational strings, ascending powers], ...]} where
coefficient list i multiplies f_{n+d-i} (recurrences) or y^(e-i)
(differential operators); rationals are serialized "p/q".

b-files: lines "n value" with '#' comments; the index column must advance
by exactly 1 (gaps are a format error).
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from .annihilators import DiffOp, Recurrence, SequenceStream
from .kernel import Poly


class FormatError(Exception):
    """Malformed operator JSON or b-file."""


# CPython refuses int <-> str conversions above 4300 digits by default
# (sys.get_int_max_str_digits).  Longer integers go through in pieces of
# _PIECE digits, split in halves by the powers 10^(_PIECE 2^j) so that the
# products and divisions stay balanced.
_PIECE = 4000
_POW = 10 ** _PIECE


def _int_to_str(x: int) -> str:
    if x < 0:
        return "-" + _int_to_str(-x)
    if x < _POW:
        return str(x)
    pows = [_POW]
    while pows[-1] <= x:
        pows.append(pows[-1] ** 2)
    return _padded(x, pows, len(pows) - 1).lstrip("0")


def _padded(x: int, pows, j: int) -> str:
    """The _PIECE 2^j digits of 0 <= x < pows[j], with leading zeros."""
    if j == 0:
        return str(x).rjust(_PIECE, "0")
    hi, lo = divmod(x, pows[j - 1])
    return _padded(hi, pows, j - 1) + _padded(lo, pows, j - 1)


def _str_to_int(s: str) -> int:
    if len(s) <= _PIECE:
        return int(s)
    s = s.strip()
    digits = s[1:] if s[:1] in "+-" else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer literal of {len(s)} characters")
    pows = [_POW]
    while _PIECE << len(pows) < len(digits):
        pows.append(pows[-1] ** 2)
    x = _from_digits(digits, pows)
    return -x if s[0] == "-" else x


def _from_digits(s: str, pows) -> int:
    """The integer of the decimal digits s, split below the top _PIECE 2^j
    digits for the largest j with _PIECE 2^j < len(s)."""
    if len(s) <= _PIECE:
        return int(s)
    j = 0
    while _PIECE << (j + 1) < len(s):
        j += 1
    k = _PIECE << j
    return _from_digits(s[:-k], pows) * pows[j] + _from_digits(s[-k:], pows)


def _quoted(s: str, keep: int = 20) -> str:
    """repr of s, cut to its ends and its length when long."""
    if len(s) <= 2 * keep + 3:
        return repr(s)
    return f"{s[:keep] + '...' + s[-keep:]!r} ({len(s)} characters)"


def fraction_to_str(x: Fraction) -> str:
    x = x if isinstance(x, Fraction) else Fraction(x)
    if x.denominator == 1:
        return _int_to_str(x.numerator)
    return f"{_int_to_str(x.numerator)}/{_int_to_str(x.denominator)}"


def to_json(x):
    """x as a value `json.dumps` writes: a list or a tuple as a list, a
    dict as a dict, a Fraction through `fraction_to_str` (any length), a
    complex as [re, im] and a dataclass as the dict of its fields in field
    order, each recursively; anything else as it is.  Every report's
    `to_dict` is this encoder."""
    if isinstance(x, (list, tuple)):
        return [to_json(v) for v in x]
    if isinstance(x, dict):
        return {k: to_json(v) for k, v in x.items()}
    if isinstance(x, Fraction):
        return fraction_to_str(x)
    if isinstance(x, complex):
        return [x.real, x.imag]
    if is_dataclass(x):
        return {f.name: to_json(getattr(x, f.name)) for f in fields(x)}
    return x


def str_to_fraction(s: str) -> Fraction:
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(_str_to_int(num), _str_to_int(den))
        return Fraction(_str_to_int(s))
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"bad rational {_quoted(s)}") from e


def operator_to_dict(op: Union[Recurrence, DiffOp]) -> dict:
    d = {
        "kind": "recurrence" if isinstance(op, Recurrence) else "ode",
        "order": op.order,
        "coefficients": [[fraction_to_str(c) for c in p.coeffs]
                         for p in op.coeffs],
    }
    if isinstance(op, Recurrence) and op.initial_terms is not None:
        d["initial_terms"] = [fraction_to_str(t) for t in op.initial_terms]
    return d


def _strings(x, what: str) -> list:
    """x, checked to be a JSON list of strings: a string where a list
    belongs would otherwise be read as the list of its characters."""
    if not isinstance(x, list) or not all(isinstance(s, str) for s in x):
        raise FormatError(
            f"malformed operator JSON: {what} must be a list of rational "
            f"strings")
    return x


def operator_from_dict(d: dict) -> Union[Recurrence, DiffOp]:
    try:
        kind = d["kind"]
        rows = d["coefficients"]
    except (KeyError, TypeError) as e:
        raise FormatError(f"malformed operator JSON: {e}") from e
    if not isinstance(rows, list):
        raise FormatError("malformed operator JSON: coefficients must be a "
                          "list of coefficient lists")
    coeffs = [Poly([str_to_fraction(c) for c in _strings(p, "a coefficient")])
              for p in rows]
    try:
        if kind == "recurrence":
            init = d.get("initial_terms")
            if init is not None:
                init = [str_to_fraction(t)
                        for t in _strings(init, "initial_terms")]
            return Recurrence(coeffs, initial_terms=init)
        if kind == "ode":
            return DiffOp(coeffs)
    except ValueError as e:
        # an all-zero or empty coefficient list is no operator
        raise FormatError(f"malformed operator JSON: {e}") from e
    raise FormatError(f"unknown operator kind {kind!r}")


def dump_operator(op, path: str):
    with open(path, "w") as f:
        json.dump(operator_to_dict(op), f, sort_keys=True, indent=1)
        f.write("\n")


def load_operator(path: str):
    try:
        with open(path) as f:
            return operator_from_dict(json.load(f))
    except json.JSONDecodeError as e:
        raise FormatError(f"bad JSON in {path}: {e}") from e


def parse_bfile(text: str) -> Tuple[int, List[Fraction]]:
    """(start index, values) from b-file text; '#' starts a comment."""
    start = None
    prev = None
    values = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'n value'")
        try:
            n = int(parts[0])
        except ValueError:
            raise FormatError(f"line {lineno}: bad index {parts[0]!r}")
        value = str_to_fraction(parts[1])
        if prev is None:
            start = n
        elif n != prev + 1:
            raise FormatError(f"line {lineno}: index gap ({prev} -> {n})")
        prev = n
        values.append(value)
    if not values:
        raise FormatError("empty b-file")
    return start, values


def load_bfile(path: str) -> Tuple[int, List[Fraction]]:
    with open(path) as f:
        return parse_bfile(f.read())


def load_stream(path: str) -> SequenceStream:
    """b-file as an exact SequenceStream, aligned to index 0 (a positive
    start index contributes leading zeros)."""
    start, values = load_bfile(path)
    if start < 0:
        raise FormatError("streams need a nonnegative start index")
    return SequenceStream.exact([Fraction(0)] * start + values)
