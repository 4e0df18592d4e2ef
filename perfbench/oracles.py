"""Independent correctness oracles for the benchmark.

Nothing here imports trialkit.  The oracles read only what trialkit exports:
spec-file JSON (structure constants, form) and the coordinates of returned
scalars through their public ``.a``/``.b`` accessors.  Arithmetic is plain:
ints mod p, ``Fraction`` over Q, and ``(Fraction, Fraction)`` pairs standing
for a + b*sqrt(d) over Q(sqrt d).  Every representation is canonical, so
``==`` is field equality.

Each ``check_*`` function returns None when the program's output agrees with
the oracle and a one-line reason when it does not.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from itertools import product

F0 = Fraction(0)


class PrimeField:
    def __init__(self, p: int):
        self.p = p
        self.zero, self.one = 0, 1

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return x * y % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(x, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def parse(self, text: str):
        return int(text) % self.p

    def of(self, elem):
        return int(elem.a) % self.p

    def is_square(self, x) -> bool:
        return any(r * r % self.p == x % self.p for r in range(self.p))


class RationalField:
    zero, one = F0, Fraction(1)

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        return 1 / x

    def from_int(self, n: int):
        return Fraction(n)

    def parse(self, text: str):
        return Fraction(text)

    def of(self, elem):
        return Fraction(elem.a)


class QuadraticField:
    """Q(sqrt d), elements (a, b) meaning a + b*sqrt(d)."""

    def __init__(self, d: int):
        self.d = d
        self.zero, self.one = (F0, F0), (Fraction(1), F0)

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def sub(self, x, y):
        return (x[0] - y[0], x[1] - y[1])

    def mul(self, x, y):
        return (x[0] * y[0] + self.d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def inv(self, x):
        n = x[0] * x[0] - self.d * x[1] * x[1]
        return (x[0] / n, -x[1] / n)

    def from_int(self, n: int):
        return (Fraction(n), F0)

    def parse(self, text: str):
        # "a+b*sqrt(d)", "b*sqrt(d)" or "a"; a rational never holds a "+"
        text = text.replace(" ", "")
        if "*sqrt(" not in text:
            return (Fraction(text), F0)
        head, tail = text.split("*sqrt(", 1)
        if int(tail.rstrip(")")) != self.d:
            raise ValueError(f"scalar {text!r} is not in Q(sqrt {self.d})")
        a, _, b = head.rpartition("+")
        return (Fraction(a or 0), Fraction(b))

    def of(self, elem):
        return (Fraction(elem.a), Fraction(elem.b))


def field_from_json(obj: dict):
    kind = obj["field"]
    if kind == "Fp":
        return PrimeField(int(obj["p"]))
    if kind == "Q":
        return RationalField()
    if kind == "Q_sqrt":
        return QuadraticField(int(obj["d"]))
    raise ValueError(f"unknown field tag {kind!r}")


class SpecAlgebra:
    """An algebra read from spec-file JSON: sparse structure constants and
    the bilinear form, with plain vector arithmetic."""

    def __init__(self, spec: dict):
        self.F = F = field_from_json(spec["field"])
        self.n = n = int(spec["dim"])
        self.table = [[[] for _ in range(n)] for _ in range(n)]
        for i, j, k, text in spec["structure"]:
            c = F.parse(str(text))
            if c != F.zero:
                self.table[i][j].append((k, c))
        form = spec.get("form")
        self.form = None if form is None else [
            [F.parse(str(v)) for v in row] for row in form]

    def basis(self, i: int) -> list:
        F = self.F
        return [F.one if t == i else F.zero for t in range(self.n)]

    def mul(self, x: list, y: list) -> list:
        F, zero = self.F, self.F.zero
        out = [zero] * self.n
        for i, xi in enumerate(x):
            if xi == zero:
                continue
            row = self.table[i]
            for j, yj in enumerate(y):
                if yj == zero or not row[j]:
                    continue
                c = F.mul(xi, yj)
                for k, s in row[j]:
                    out[k] = F.add(out[k], F.mul(c, s))
        return out

    def bform(self, x: list, y: list):
        F, zero = self.F, self.F.zero
        acc = zero
        for i, xi in enumerate(x):
            if xi == zero:
                continue
            for j, yj in enumerate(y):
                b = self.form[i][j]
                if yj != zero and b != zero:
                    acc = F.add(acc, F.mul(F.mul(xi, b), yj))
        return acc

    def add(self, x: list, y: list) -> list:
        return [self.F.add(a, b) for a, b in zip(x, y)]

    def scale(self, c, x: list) -> list:
        return [self.F.mul(c, a) for a in x]


# ---------------------------------------------------------------------------
# Matrices (lists of rows); column i is the image of e_i
# ---------------------------------------------------------------------------

def apply(F, m: list, v: list) -> list:
    out = []
    for row in m:
        acc = F.zero
        for a, b in zip(row, v):
            if a != F.zero and b != F.zero:
                acc = F.add(acc, F.mul(a, b))
        out.append(acc)
    return out


def column(m: list, i: int) -> list:
    return [row[i] for row in m]


def matmul(F, a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[_dot(F, row, col) for col in cols] for row in a]


def _dot(F, u, v):
    acc = F.zero
    for a, b in zip(u, v):
        if a != F.zero and b != F.zero:
            acc = F.add(acc, F.mul(a, b))
    return acc


def mscale(F, c, m: list) -> list:
    return [[F.mul(c, x) for x in row] for row in m]


def identity(F, n: int) -> list:
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def rank(F, rows: list) -> int:
    m = [list(r) for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != F.zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = F.inv(m[r][c])
        m[r] = [F.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != F.zero:
                f = m[i][c]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[r])]
        r += 1
    return r


def det2(F, m: list):
    return F.sub(F.mul(m[0][0], m[1][1]), F.mul(m[0][1], m[1][0]))


# ---------------------------------------------------------------------------
# Symmetric composition: the defining laws on basis tuples
# ---------------------------------------------------------------------------

def symcomp_counterexample(alg: SpecAlgebra):
    """First basis tuple violating (xy)x = x(yx) = <x|x>y or
    <xy|xy> = <x|x><y|y>, or None when both laws hold.

    Both laws are checked in polarized form over all basis tuples, which is
    complete in characteristic != 2: (e_i e_j)e_k + (e_k e_j)e_i =
    e_i(e_j e_k) + e_k(e_j e_i) = 2<e_i|e_k>e_j, and
    <e_i e_j|e_k e_l> + <e_i e_l|e_k e_j> = 2<e_i|e_k><e_j|e_l>.
    """
    if alg.form is None:
        return ("no-form", ())
    F, n = alg.F, alg.n
    two = F.from_int(2)
    basis = [alg.basis(i) for i in range(n)]
    prods = [[alg.mul(basis[i], basis[j]) for j in range(n)] for i in range(n)]
    for i, j, k in product(range(n), repeat=3):
        rhs = alg.scale(F.mul(two, alg.form[i][k]), basis[j])
        left = alg.add(alg.mul(prods[i][j], basis[k]), alg.mul(prods[k][j], basis[i]))
        right = alg.add(alg.mul(basis[i], prods[j][k]), alg.mul(basis[k], prods[j][i]))
        if left != rhs or right != rhs:
            return ("two-sided-norm-law", (i, j, k))
    gram = {}
    for i, j, k, l in product(range(n), repeat=4):
        key = (i, j, k, l)
        if key not in gram:
            gram[key] = alg.bform(prods[i][j], prods[k][l])
        key2 = (i, l, k, j)
        if key2 not in gram:
            gram[key2] = alg.bform(prods[i][l], prods[k][j])
        lhs = F.add(gram[key], gram[key2])
        rhs = F.mul(two, F.mul(alg.form[i][k], alg.form[j][l]))
        if lhs != rhs:
            return ("composition-law", (i, j, k, l))
    return None


def clause_fails(alg: SpecAlgebra, clause: str, tup: tuple) -> bool:
    """Whether the named clause of trialkit's symmetric-composition
    certificate really fails at the reported basis tuple."""
    F, n = alg.F, alg.n
    e = alg.basis
    two = F.from_int(2)
    if not all(isinstance(t, int) and 0 <= t < n for t in tup):
        return False
    if clause == "two-sided-norm-law" and len(tup) == 2:
        i, j = tup
        want = alg.scale(alg.form[i][i], e(j))
        return (alg.mul(alg.mul(e(i), e(j)), e(i)) != want
                or alg.mul(e(i), alg.mul(e(j), e(i))) != want)
    if clause == "composition-law" and len(tup) == 2:
        i, j = tup
        p = alg.mul(e(i), e(j))
        return alg.bform(p, p) != F.mul(alg.form[i][i], alg.form[j][j])
    if clause == "polarized-composition-law" and len(tup) == 4:
        i, j, k, l = tup
        lhs = F.add(alg.bform(alg.mul(e(i), e(j)), alg.mul(e(k), e(l))),
                    alg.bform(alg.mul(e(k), e(j)), alg.mul(e(i), e(l))))
        return lhs != F.mul(two, F.mul(alg.form[i][k], alg.form[j][l]))
    if clause == "form-associativity" and len(tup) == 3:
        i, j, k = tup
        return (alg.bform(alg.mul(e(i), e(j)), e(k))
                != alg.bform(e(i), alg.mul(e(j), e(k))))
    if clause == "linearized-norm-law" and len(tup) == 3:
        i, j, k = tup
        rhs = alg.scale(F.mul(two, alg.form[i][k]), e(j))
        left = alg.add(alg.mul(alg.mul(e(i), e(j)), e(k)),
                       alg.mul(alg.mul(e(k), e(j)), e(i)))
        right = alg.add(alg.mul(e(i), alg.mul(e(j), e(k))),
                        alg.mul(e(k), alg.mul(e(j), e(i))))
        return left != rhs or right != rhs
    if clause == "product-exchange-law" and len(tup) == 2:
        # (xy)(yz) = 2<x|yz>y - <y|y>zx for x = e_i, z = e_k and some y
        # among the basis vectors and the sums of two of them
        i, k = tup
        ys = [e(a) for a in range(n)]
        ys += [alg.add(e(a), e(b)) for a in range(n) for b in range(a + 1, n)]
        for y in ys:
            yz = alg.mul(y, e(k))
            lhs = alg.mul(alg.mul(e(i), y), yz)
            rhs = [F.sub(a, b) for a, b in zip(
                alg.scale(F.mul(two, alg.bform(e(i), yz)), y),
                alg.scale(alg.bform(y, y), alg.mul(e(k), e(i))))]
            if lhs != rhs:
                return True
        return False
    return False


# ---------------------------------------------------------------------------
# certify reports
# ---------------------------------------------------------------------------

SYMCOMP_CHECK = "symcomp:two-sided-norm-and-composition-laws"
_TEXT_LINE = re.compile(r"^  \[(PASS|FAIL)\] (\S+)(?:  witness: (.*))?$")


def parse_report(text: str, fmt: str) -> list:
    """[(check_id, passed, witness_text)] from a rendered certify report."""
    if fmt == "json":
        import json
        obj = json.loads(text)
        return [(c["id"], c["status"] == "pass", c["witness"]) for c in obj["checks"]]
    out = []
    for line in text.splitlines():
        m = _TEXT_LINE.match(line)
        if m:
            out.append((m.group(2), m.group(1) == "PASS", m.group(3)))
    return out


def check_certify(alg: SpecAlgebra, fmt: str, rc: int, text: str,
                  negative: bool):
    """A catalogue entry must pass every check with exit 0, and a PASS of
    the symmetric-composition check must hold up under the oracle.  A
    negative control (one structure constant changed) must exit 1 with a
    symmetric-composition FAIL whose witness is a real counterexample."""
    try:
        checks = parse_report(text, fmt)
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}"
    if not checks:
        return "report lists no checks"
    if rc != (0 if all(p for _, p, _ in checks) else 1):
        return f"exit code {rc} does not match the report"
    verdict = symcomp_counterexample(alg)
    sym = [c for c in checks if c[0] == SYMCOMP_CHECK]
    if negative:
        if verdict is None:
            return "negative control is a symmetric composition algebra"
        if rc != 1 or not sym or sym[0][1]:
            return "perturbed algebra was not rejected by the symcomp check"
        try:
            clause, tup = ast.literal_eval(sym[0][2] or "")
        except (ValueError, SyntaxError, TypeError):
            return f"unreadable witness {sym[0][2]!r}"
        if not clause_fails(alg, clause, tuple(tup)):
            return f"witness {sym[0][2]} is not a counterexample"
        return None
    for check_id, passed, witness in checks:
        if not passed:
            return f"{check_id} failed on a catalogue algebra ({witness})"
    if sym and verdict is not None:
        return f"symcomp PASS contradicted at {verdict}"
    return None


# ---------------------------------------------------------------------------
# local-triples
# ---------------------------------------------------------------------------

def check_local_triple(alg: SpecAlgebra, mats: list):
    """t_j(e_i e_k) = (t_{j+1}e_i)e_k + e_i(t_{j+2}e_k) on all basis pairs."""
    F, n = alg.F, alg.n
    for j in range(3):
        tj, t1, t2 = mats[j], mats[(j + 1) % 3], mats[(j + 2) % 3]
        for i in range(n):
            for k in range(n):
                ei, ek = alg.basis(i), alg.basis(k)
                lhs = apply(F, tj, alg.mul(ei, ek))
                rhs = alg.add(alg.mul(column(t1, i), ek), alg.mul(ei, column(t2, k)))
                if lhs != rhs:
                    return f"local law fails at j={j + 1}, pair ({i},{k})"
    return None


def check_triality_triple(alg: SpecAlgebra, mats: list):
    """g_j(e_i e_k) = (g_{j+1}e_i)(g_{j+2}e_k) on all basis pairs."""
    F, n = alg.F, alg.n
    for j in range(3):
        gj, g1, g2 = mats[j], mats[(j + 1) % 3], mats[(j + 2) % 3]
        for i in range(n):
            for k in range(n):
                lhs = apply(F, gj, alg.mul(alg.basis(i), alg.basis(k)))
                if lhs != alg.mul(column(g1, i), column(g2, k)):
                    return f"triality law fails at j={j + 1}, pair ({i},{k})"
    return None


def check_lambda_space(alg: SpecAlgebra, a: list, ps: list):
    """The transport vectors span a space of dimension 2n - 2 and each
    satisfies a_j p_{j+1} + p_j a_{j+1} = p_{j+2} and <p_j|a_j> = 0."""
    F, n = alg.F, alg.n
    if len(ps) != 2 * n - 2:
        return f"lambda_space has {len(ps)} vectors, expected {2 * n - 2}"
    if rank(F, [p[0] + p[1] for p in ps]) != 2 * n - 2:
        return "lambda_space vectors are linearly dependent"
    for p in ps:
        for j in range(3):
            lhs = alg.add(alg.mul(a[j], p[(j + 1) % 3]), alg.mul(p[j], a[(j + 1) % 3]))
            if lhs != p[(j + 2) % 3]:
                return f"transport recursion fails at j={j + 1}"
            if alg.bform(p[j], a[j]) != F.zero:
                return f"transport vector not orthogonal at j={j + 1}"
    return None


def check_cubic(alg: SpecAlgebra, x: list, y: list, mats: list, report: dict):
    """d1^2 = d2^2 = delta Id and d3^3 = 4 delta d3 with
    delta = 4(<x|y>^2 - <x|x><y|y>), and the report's flags agree."""
    F, n = alg.F, alg.n
    four = F.from_int(4)
    xy = alg.bform(x, y)
    delta = F.mul(four, F.sub(F.mul(xy, xy), F.mul(alg.bform(x, x), alg.bform(y, y))))
    if report["delta"] != delta:
        return "cubic_identity reports a wrong delta"
    err = check_local_triple(alg, mats)
    if err:
        return err
    ident = mscale(F, delta, identity(F, n))
    squares = [matmul(F, d, d) for d in mats]
    cubes = [matmul(F, s, d) for s, d in zip(squares, mats)]
    if squares[0] != ident or squares[1] != ident:
        return "d1^2 or d2^2 differs from delta Id"
    if cubes[2] != mscale(F, F.mul(four, delta), mats[2]):
        return "d3^3 differs from 4 delta d3"
    want = {
        "cubic": tuple(c == mscale(F, delta, d) for c, d in zip(cubes, mats)),
        "square": (True, True),
        "scaled_third_cubic": True,
    }
    for key, value in want.items():
        if report[key] != value:
            return f"cubic_identity reports {key}={report[key]}, oracle {value}"
    return None


# ---------------------------------------------------------------------------
# enumerate-fp
# ---------------------------------------------------------------------------

def header_value(text: str, key: str) -> int:
    for line in text.splitlines():
        if line.startswith(key + ": "):
            return int(line.split(": ", 1)[1])
    raise ValueError(f"no {key!r} line")


def circle_points(p: int) -> int:
    return sum(1 for m in range(p) for v in range(p) if (m * m + v * v) % p == 1)


def check_trig(alg: SpecAlgebra, rc: int, text: str):
    """Order 4 in dimension 1; order 2c^2 in dimension 2, with c the number
    of solutions of mu^2 + nu^2 = 1 in F_p."""
    if rc != 0 or "closure: verified" not in text:
        return f"trig enumeration exited {rc} without closure"
    want = 4 if alg.n == 1 else 2 * circle_points(alg.F.p) ** 2
    try:
        got = header_value(text, "order")
    except ValueError as exc:
        return str(exc)
    return None if got == want else f"trig order {got}, oracle {want}"


def check_sigma(alg: SpecAlgebra, rc: int, text: str):
    """Count s^2, s the norm-one vectors of F_p^n; each listed (x, y, z) has
    x, y of norm one, z = xy, yz = x and zx = y."""
    if rc != 0:
        return f"sigma enumeration exited {rc}"
    F, n = alg.F, alg.n
    s = sum(1 for v in product(range(F.p), repeat=n) if alg.bform(list(v), list(v)) == F.one)
    try:
        count = header_value(text, "count")
    except ValueError as exc:
        return str(exc)
    lines = [ln for ln in text.splitlines() if ln.startswith("  ")]
    if count != s * s or len(lines) != count or len(set(lines)) != count:
        return f"sigma count {count} with {len(lines)} lines, oracle {s * s}"
    for line in lines:
        x, y, z = ([F.parse(c) for c in part.split(",")] for part in line.split(" | "))
        if alg.bform(x, x) != F.one or alg.bform(y, y) != F.one:
            return f"listed vector of norm != 1: {line.strip()}"
        if alg.mul(x, y) != z or alg.mul(y, z) != x or alg.mul(z, x) != y:
            return f"listed triple is not product-closed: {line.strip()}"
    return None


def check_auto(alg: SpecAlgebra, rc: int, text: str):
    """Order 6 when 3 is a square mod p, else 2; every listed matrix is an
    invertible automorphism, and they are distinct."""
    if rc != 0:
        return f"auto enumeration exited {rc}"
    F, n = alg.F, alg.n
    want = 6 if F.is_square(3) else 2
    try:
        order = header_value(text, "order")
    except ValueError as exc:
        return str(exc)
    mats = []
    for line in text.splitlines():
        if line.startswith("  element "):
            flat = [F.parse(c) for c in line.split("[", 1)[1].rstrip("]").split(",")]
            mats.append([flat[r * n:(r + 1) * n] for r in range(n)])
    if order != want or len(mats) != want:
        return f"automorphism group order {order} ({len(mats)} listed), oracle {want}"
    if len({tuple(map(tuple, m)) for m in mats}) != len(mats):
        return "listed automorphisms repeat"
    for g in mats:
        if det2(F, g) == F.zero:
            return "listed map is singular"
        for i in range(n):
            for k in range(n):
                lhs = apply(F, g, alg.mul(alg.basis(i), alg.basis(k)))
                if lhs != alg.mul(column(g, i), column(g, k)):
                    return f"listed map is not an automorphism at ({i},{k})"
    return None
