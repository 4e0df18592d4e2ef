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
  "para_unit": ["...", ...]                 # para algebras only
}
Scalars encode exactly: rationals as "num/den", quadratic elements as
"a+b*sqrt(d)", prime-field residues as integers.
"""

from __future__ import annotations

import json
from typing import Optional

from .algebra import Algebra, DimensionMismatch
from .fields import FieldDescriptor, format_scalar, parse_scalar


def algebra_to_dict(a: Algebra) -> dict:
    entries = []
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                v = a.structure[i][j][k]
                if not v.is_zero():
                    entries.append([i, j, k, format_scalar(v)])
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
    para_unit = getattr(a, "para_unit", None)
    if para_unit is not None:
        out["para_unit"] = [format_scalar(v) for v in para_unit]
    return out


def algebra_from_dict(obj: dict) -> Algebra:
    field = FieldDescriptor.from_json(obj["field"])
    n = int(obj["dim"])
    zero = field.zero()
    structure = [[[zero for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i, j, k, text in obj["structure"]:
        structure[i][j][k] = parse_scalar(str(text), field)
    form = None
    if obj.get("form"):
        form = [[parse_scalar(str(v), field) for v in row] for row in obj["form"]]
    involution = None
    if obj.get("involution"):
        involution = [[parse_scalar(str(v), field) for v in row] for row in obj["involution"]]
    unit = None
    if obj.get("unit"):
        unit = [parse_scalar(str(v), field) for v in obj["unit"]]
    out = Algebra(field, structure, form=form, involution=involution, unit=unit,
                  name=obj.get("name", ""))
    if obj.get("para_unit") is not None:
        if len(obj["para_unit"]) != n:
            raise DimensionMismatch(f"para_unit needs {n} coords")
        out.para_unit = [parse_scalar(str(v), field) for v in obj["para_unit"]]
    return out


def save_algebra(a: Algebra, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(algebra_to_dict(a), fh, indent=1)


def load_algebra(path: str) -> Algebra:
    with open(path) as fh:
        return algebra_from_dict(json.load(fh))
