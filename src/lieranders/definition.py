"""Reading algebra definition files.

A definition file is JSON with exact rational scalars written as strings
("p/q" or plain integers):

    {
      "dim": 4,
      "labels": ["X", "Y", "Z", "W"],
      "brackets": [{"i": 0, "j": 2, "coeffs": ["1", "0", "0", "0"]}, ...],
      "metric":  [["1", "0", ...], ...],        # optional, identity if absent
      "Q":       ["0", "0", "1/2", "0"],        # optional
      "hypercomplex": [J1, J2, J3]              # optional, three matrices
    }

Unspecified bracket pairs are zero.  The labels name the basis vectors in
every report, so they must be distinct identifiers (``str.isidentifier``):
no whitespace, no leading digit and none of the characters ``+ - * / , ( ) =``
that evidence is written with.  Parse errors name the offending field (and
the line for JSON syntax errors) and quote at most an excerpt of its value:
a JSON integer too long for int() (over 4300 digits) is kept as text, which
that field then refuses as it refuses any literal with such a run of digits.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import exactlinalg as xl
from .algebra import AlgebraVector, LieAlgebra
from .errors import DefinitionError, LieRandersError
from .hypercomplex import ComplexStructureTriple
from .riemann import MetricTensor, identity_metric


@dataclass
class DefinitionFile:
    algebra: LieAlgebra
    metric: MetricTensor
    q_field: AlgebraVector | None
    hypercomplex: ComplexStructureTriple | None


def _json_int(text: str) -> int | str:
    """A JSON integer, or its text when int() refuses it (over 4300 digits)."""
    try:
        return int(text)
    except ValueError:
        return text


def _scalar(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise DefinitionError(
            f"{where}: expected integer or 'p/q' string, got {reprlib.repr(value)}"
        )
    return xl.parse_rational(str(value), where)


def _vector(values, dim: int, where: str) -> AlgebraVector:
    if not isinstance(values, list) or len(values) != dim:
        raise DefinitionError(f"{where}: expected a list of {dim} scalars")
    return tuple(_scalar(v, f"{where}[{k}]") for k, v in enumerate(values))


def _matrix(rows, dim: int, where: str):
    if not isinstance(rows, list) or len(rows) != dim:
        raise DefinitionError(f"{where}: expected {dim} rows")
    return tuple(_vector(row, dim, f"{where}[{k}]") for k, row in enumerate(rows))


def parse_definition(text: str) -> DefinitionFile:
    try:
        raw = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise DefinitionError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise DefinitionError("top level must be a JSON object")

    dim = raw.get("dim")
    if type(dim) is not int or dim < 1:  # JSON true/false are bools, not integers
        raise DefinitionError(f"dim: expected a positive integer, got {reprlib.repr(dim)}")
    labels = raw.get("labels", [f"e{i}" for i in range(dim)])
    if (
        not isinstance(labels, list)
        or len(labels) != dim
        or not all(isinstance(s, str) and s for s in labels)
        or len(set(labels)) != dim
    ):
        raise DefinitionError(f"labels: expected {dim} distinct non-empty strings")
    for k, label in enumerate(labels):
        if not label.isidentifier():
            raise DefinitionError(f"labels[{k}]: {label!r} is not an identifier")

    brackets: dict[tuple[int, int], AlgebraVector] = {}
    entries = raw.get("brackets", [])
    if not isinstance(entries, list):
        raise DefinitionError("brackets: expected a list")
    for n, entry in enumerate(entries):
        where = f"brackets[{n}]"
        if not isinstance(entry, dict):
            raise DefinitionError(f"{where}: expected an object")
        i, j = entry.get("i"), entry.get("j")
        for name, idx in (("i", i), ("j", j)):
            if type(idx) is not int or not 0 <= idx < dim:
                raise DefinitionError(
                    f"{where}.{name}: {reprlib.repr(idx)} is not an index in 0..{dim - 1}"
                )
        coeffs = _vector(entry.get("coeffs"), dim, f"{where}.coeffs")
        key, val = ((i, j), coeffs) if i <= j else ((j, i), xl.vec_scale(-1, coeffs))
        if key in brackets and brackets[key] != val:
            raise DefinitionError(f"{where}: conflicts with an earlier entry for the same pair")
        brackets[key] = val

    try:
        algebra = LieAlgebra.from_brackets(dim, labels, brackets)
    except (ValueError, LieRandersError) as exc:
        raise DefinitionError(f"brackets: {exc}") from exc

    if "metric" in raw:
        try:
            metric = MetricTensor(gram=_matrix(raw["metric"], dim, "metric"))
        except ValueError as exc:
            raise DefinitionError(f"metric: {exc}") from exc
    else:
        metric = identity_metric(dim)

    q_field = _vector(raw["Q"], dim, "Q") if "Q" in raw else None

    triple = None
    if "hypercomplex" in raw:
        mats = raw["hypercomplex"]
        if not isinstance(mats, list) or len(mats) != 3:
            raise DefinitionError("hypercomplex: expected three matrices")
        triple = ComplexStructureTriple(
            j1=_matrix(mats[0], dim, "hypercomplex[0]"),
            j2=_matrix(mats[1], dim, "hypercomplex[1]"),
            j3=_matrix(mats[2], dim, "hypercomplex[2]"),
        )

    return DefinitionFile(algebra=algebra, metric=metric, q_field=q_field, hypercomplex=triple)


def load_definition(path) -> DefinitionFile:
    """Read and parse a definition file; an unreadable file is a DefinitionError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DefinitionError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise DefinitionError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse_definition(text)
