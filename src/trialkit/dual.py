"""Dual numbers a + eps*b with eps^2 = 0 over an exact field.

An identity that holds "up to eps^2" is an exact equation of Dual matrices:
`symcomp.first_order_factorization` checks its two parts as maps and reads
the first differing Dual entry off them as its witness.

That witness could be read off the two difference maps with
`LinearMap.first_nonzero`, and this module deleted, but the benchmark's
per-layer view (`perfbench/tracing.py`) counts `dual.mul` and looks the
module up in `sys.modules`, where only symcomp's import puts it; it goes
when that view stops naming it.
"""

from __future__ import annotations

from .fields import FieldElement


class Dual:
    __slots__ = ("re", "ep")

    def __init__(self, re: FieldElement, ep: FieldElement):
        self.re = re
        self.ep = ep

    @staticmethod
    def lift(x: FieldElement) -> "Dual":
        return Dual(x, x.desc.zero())

    def __add__(self, other: "Dual") -> "Dual":
        return Dual(self.re + other.re, self.ep + other.ep)

    def __mul__(self, other: "Dual") -> "Dual":
        return Dual(self.re * other.re, self.re * other.ep + self.ep * other.re)

    def __eq__(self, other) -> bool:
        return isinstance(other, Dual) and self.re == other.re and self.ep == other.ep

    def __hash__(self) -> int:
        return hash((self.re, self.ep))

    def __repr__(self) -> str:
        return f"Dual({self.re}, {self.ep})"
