"""Operator JSON format and b-file ingestion.

Operator JSON: {"kind": "recurrence"|"ode", "order": d,
"coefficients": [[rational strings, ascending powers], ...]} where
coefficient list i multiplies f_{n+d-i} (recurrences) or y^(e-i)
(differential operators); rationals are serialized "p/q".

b-files: lines "n value" with '#' comments; the index column must advance
by exactly 1 (gaps are a format error).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List, Tuple, Union

from .annihilators import DiffOp, Recurrence, SequenceStream
from .kernel import Poly


class FormatError(Exception):
    """Malformed operator JSON or b-file."""


def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def str_to_fraction(s: str) -> Fraction:
    try:
        if "/" in s:
            num, den = s.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as e:
        raise FormatError(f"bad rational {s!r}") from e


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


def operator_from_dict(d: dict) -> Union[Recurrence, DiffOp]:
    try:
        kind = d["kind"]
        coeffs = [Poly([str_to_fraction(c) for c in p])
                  for p in d["coefficients"]]
    except (KeyError, TypeError) as e:
        raise FormatError(f"malformed operator JSON: {e}") from e
    if kind == "recurrence":
        init = d.get("initial_terms")
        init = [str_to_fraction(t) for t in init] if init is not None else None
        return Recurrence(coeffs, initial_terms=init)
    if kind == "ode":
        return DiffOp(coeffs)
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
