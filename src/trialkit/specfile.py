"""JSON round-trip format for algebras.

Layout:
{
  "name": "...",
  "field": {"field": "Q"} | {"field": "Q_sqrt", "d": 3} | {"field": "Fp", "p": 11},
  "dim": N,
  "structure": [[i, j, k, "value"], ...]   # nonzero entries only
  "form": [["...", ...], ...] | null,
  "involution": [["...", ...], ...] | null,
  "unit": ["...", ...] | null,
  "para_unit": ["...", ...],                # para algebras only
  "kind": "para-zorn"                       # para-Zorn algebras only
}
Scalars encode exactly: rationals as "num/den", quadratic elements as
"a+b*sqrt(d)", prime-field residues as integers.
"""

from __future__ import annotations

import json
from typing import Optional

from .algebra import Algebra, AlgebraError
from .constructors import PARA_ZORN
from .fields import FieldDescriptor, FieldError, format_scalar, parse_scalar
from .linalg import _wrap


def algebra_to_dict(a: Algebra) -> dict:
    # the nonzero structure constants, in (i, j, k) order, off the sparse table
    entries = [[i, j, k, format_scalar(_wrap(a.field, c0, c1, a.int_den))]
               for i, plane in enumerate(a.int_terms) for j, row in enumerate(plane)
               for k, c0, c1 in row]
    out = {
        "name": a.name,
        "field": a.field.to_json(),
        "dim": a.dim,
        "structure": entries,
        "form": [[format_scalar(v) for v in row] for row in a.form] if a.form else None,
        "involution": [[format_scalar(v) for v in row] for row in a.involution]
        if a.involution
        else None,
        "unit": [format_scalar(v) for v in a.unit] if a.unit else None,
    }
    if a.para_unit is not None:
        out["para_unit"] = [format_scalar(v) for v in a.para_unit]
    if a.kind is not None:
        out["kind"] = a.kind
    return out


class SpecError(ValueError):
    """The input does not describe an algebra in this format."""


def _field(obj) -> FieldDescriptor:
    if not isinstance(obj, dict):
        raise SpecError(f"'field' must be an object such as {{\"field\": \"Q\"}}, got {obj!r}")
    try:
        return FieldDescriptor.from_json(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad 'field' {obj!r}: {exc}") from exc


def _scalar(text, field: FieldDescriptor, where: str):
    try:
        return parse_scalar(str(text), field)
    except (ValueError, ZeroDivisionError, FieldError) as exc:
        raise SpecError(f"bad scalar {text!r} in {where}: {exc}") from exc


def _vector(obj, key: str, n: int, field: FieldDescriptor):
    """The optional length-n vector under `key`; None when absent or null."""
    values = obj.get(key)
    if values is None:
        return None
    if not isinstance(values, (list, tuple)) or len(values) != n:
        raise SpecError(f"'{key}' must be a list of {n} scalars")
    return [_scalar(v, field, key) for v in values]


def _matrix(obj, key: str, n: int, field: FieldDescriptor):
    """The optional n x n matrix under `key`; None when absent or null."""
    rows = obj.get(key)
    if rows is None:
        return None
    if not isinstance(rows, (list, tuple)) or len(rows) != n or any(
            not isinstance(row, (list, tuple)) or len(row) != n for row in rows):
        raise SpecError(f"'{key}' must be a {n} x {n} matrix")
    return [[_scalar(v, field, key) for v in row] for row in rows]


def algebra_from_dict(obj: dict) -> Algebra:
    """The algebra a spec describes; any malformed spec raises SpecError."""
    if not isinstance(obj, dict):
        raise SpecError("a spec must be a JSON object")
    field = _field(obj.get("field"))
    n = obj.get("dim")
    if n.__class__ is not int or n < 1:
        raise SpecError(f"'dim' must be a positive integer, got {n!r}")
    name = obj.get("name", "")
    if not isinstance(name, str):
        raise SpecError(f"'name' must be a string, got {name!r}")
    zero = field.zero()
    structure = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
    entries = obj.get("structure")
    if not isinstance(entries, (list, tuple)):
        raise SpecError("'structure' must be a list of [i, j, k, value] entries")
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != 4 or any(
                idx.__class__ is not int or not 0 <= idx < n for idx in entry[:3]):
            raise SpecError(f"bad structure entry {entry!r}: want [i, j, k, value] "
                            f"with 0 <= i, j, k < {n}")
        i, j, k, text = entry
        structure[i][j][k] = _scalar(text, field, "structure")
    kind = obj.get("kind")
    if kind not in (None, PARA_ZORN):
        raise SpecError(f"unknown 'kind' {kind!r}; known: {PARA_ZORN!r}")
    try:
        return Algebra(field, structure, form=_matrix(obj, "form", n, field),
                       involution=_matrix(obj, "involution", n, field),
                       unit=_vector(obj, "unit", n, field), name=name,
                       para_unit=_vector(obj, "para_unit", n, field), kind=kind)
    except AlgebraError as exc:
        raise SpecError(str(exc)) from exc


def save_algebra(a: Algebra, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(algebra_to_dict(a), fh, indent=1)


def load_algebra(path: str) -> Algebra:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    return algebra_from_dict(obj)
