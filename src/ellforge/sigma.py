"""The canonical odd coordinate of an elliptic curve and its group law.

Every q-expansion in this module normalizes the second period to 1; the
numeric evaluators restore the lam2 prefactor from the lattice they are
handed.  The variable z is the exponential coordinate: the point w of
C/Lambda sits at z = 2*pi*i*w/lam2, so stepping by lam2 shifts z by
2*pi*i and stepping by lam1 shifts z by 2*pi*i*tau.

Two independent constructions of the same object are kept side by side:
a convergent product over q-shells and an exponential of Eisenstein
series.  Their exact agreement is one of the headline checks, so neither
is ever derived from the other.  The product form is multiplied out on
Python ints through the per-factor identity
    (1 - q^n e^-z)(1 - q^n e^z) / (1 - q^n)^2 = 1 - t * sum_k k q^(nk),
t = e^z + e^-z - 2: the factors make one polynomial in t over Z[q]
(``_t_product``), and only then is t expanded in z.

The formal group law is computed over Z[q]/(q^S), S = qorder + 1, in the
coordinate w = e^z - 1, where the product form is an integral series g(w):
the law is F = g(G(g^-1(x), g^-1(y))) with G the multiplicative law
x + y + xy and g^-1 found by Lagrange reversion.  g comes from the same
t-polynomial, with t = w^2/(1+w).  Each coefficient of a series in w, or
in x and y, is a polynomial in q packed into one Python int, its value at
q = 2^B (Kronecker substitution).  q -> 2^B maps Z[q] to Z and q^S to
2^(BS), so it induces a ring map Z[q]/(q^S) -> Z/2^(BS): a q-convolution
is one big-int product under the mask 2^(BS) - 1, exact however large the
true coefficients grow.  Only reading a polynomial back (the Lagrange
numerators before their exact division by k, the table, the
associativity defect) needs its coefficients inside (-2^(B-1), 2^(B-1)).
B is proven, not guessed: the same pipeline, run once on the l1 norms of
the polynomials (||ab|| <= ||a|| ||b||, ||a + b|| <= ||a|| + ||b||), bounds
every coefficient that is read back, and B is the bound's bit length
plus 2.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .modforms import TWO_PI_I, Lattice, eisenstein_q, homogeneous_fit
from .series import MultiSeries, TruncatedSeries, _exact_div

QZ = ("q", "z")

# frozen normalization of the exponential form:
#   sigma = z * exp(EXP_LINEAR * z) * exp(sum_k exp_weight(k) * G_{2k}(q) * z^{2k})
# regenerated from the product form in the test suite; do not tweak casually
EXP_LINEAR = Fraction(-1, 2)


def exp_weight(k: int) -> Fraction:
    return Fraction(-2, math.factorial(2 * k))


def _lift_q(series: TruncatedSeries, qorder: int, zorder: int) -> MultiSeries:
    return MultiSeries(
        QZ, {(e, 0): c for e, c in series.coeffs.items()}, caps=(qorder, zorder)
    )


def _t_product(qorder: int, jmax: int) -> list[list[int]]:
    """prod_{n=1..qorder} (1 - t * sum_k k q^(nk)) multiplied out in Z[q][t].

    Row j holds the q-coefficients 0..qorder of t^j, for j <= jmax.  With
    t = e^z + e^-z - 2 the n-th factor is the n-th factor of the product
    form, (1 - q^n e^-z)(1 - q^n e^z) / (1 - q^n)^2.
    """
    rows = [[1] + [0] * qorder] + [[0] * (qorder + 1) for _ in range(jmax)]
    for n in range(1, qorder + 1):
        # descending j, so rows[j - 1] still holds the product before n
        for j in range(jmax, 0, -1):
            src, dst = rows[j - 1], rows[j]
            for k in range(1, qorder // n + 1):
                shift = n * k
                for e in range(qorder + 1 - shift):
                    if src[e]:
                        dst[e + shift] -= k * src[e]
    return rows


def sigma_product(qorder: int, zorder: int) -> MultiSeries:
    """(1 - e^-z) prod_n (1 - q^n e^-z)(1 - q^n e^z) / (1 - q^n)^2.

    The product is sum_j row_j(q) t^j from ``_t_product``, and
    (1 - e^-z) t^j = (y - 1)^(2j+1) / y^(j+1) at y = e^z, that is
    sum_i C(2j+1, i) (-1)^(i+1) e^((i-j-1) z); its z^d coefficient is an
    integer over d!.
    """
    jmax = zorder // 2
    rows = _t_product(qorder, jmax)
    table = {}
    for d in range(zorder + 1):
        num = [
            sum(
                math.comb(2 * j + 1, i) * (-1) ** (i + 1) * (i - j - 1) ** d
                for i in range(2 * j + 2)
            )
            for j in range(jmax + 1)
        ]
        for e in range(qorder + 1):
            c = sum(row[e] * nj for row, nj in zip(rows, num))
            if c:
                table[(e, d)] = Fraction(c, math.factorial(d))
    return MultiSeries(QZ, table, caps=(qorder, zorder))


def sigma_exponential(qorder: int, zorder: int) -> MultiSeries:
    """z * e^(z * EXP_LINEAR) * exp(sum_k exp_weight(k) G_{2k}(q) z^{2k})."""
    caps = (qorder, zorder)
    arg = MultiSeries.zero(QZ, caps=caps)
    for k in range(1, zorder // 2 + 1):
        g = eisenstein_q(2 * k, qorder)
        zpow = MultiSeries(QZ, {(0, 2 * k): exp_weight(k)}, caps=caps)
        arg = arg + zpow * _lift_q(g, qorder, zorder)
    pref = MultiSeries(
        QZ,
        {
            (0, j + 1): EXP_LINEAR**j / math.factorial(j)
            for j in range(zorder)
        },
        caps=caps,
    )
    return pref * arg.exp()


def z_coefficients(qorder: int, zorder: int) -> list[TruncatedSeries]:
    """z-Taylor coefficients of the coordinate as q-expansions, index = power."""
    s = sigma_exponential(qorder, zorder)
    return [s.coeff_in("z", k).as_univariate() for k in range(zorder + 1)]


@dataclass
class CompletionTerm:
    degree: int
    series: TruncatedSeries
    tag: str


def taylor_completion(qorder: int, zorder: int) -> list[CompletionTerm]:
    """Taylor coefficients tagged by whether they are honestly modular.

    The z^k coefficient is called modular when it equals an isobaric
    weight-(k-1) polynomial in G_4 and G_6 exactly, and quasimodular
    otherwise (the failures all trace back to G_2 and to the e^(z/2)
    prefactor).
    """
    out = []
    for k, series in enumerate(z_coefficients(qorder, zorder)):
        fit = homogeneous_fit(series, k - 1)
        out.append(CompletionTerm(k, series, "modular" if fit is not None else "quasimodular"))
    return out


# ---------------------------------------------------------------- numerics


def sigma_num(lat: Lattice, z: complex, tol: float = 1e-17) -> complex:
    """Numeric value of the coordinate, lam2 prefactor included."""
    q = lat.q
    em = cmath.exp(-z)
    ep = cmath.exp(z)
    out = lat.lam2 * (1 - em)
    qn = q
    n = 0
    while abs(qn) > tol:
        out *= (1 - qn * em) * (1 - qn * ep) / (1 - qn) ** 2
        qn *= q
        n += 1
        if n > 6000:
            raise RuntimeError("q-product failed to converge")
    return out


@dataclass(frozen=True)
class QuasiPeriod:
    sign: int
    q_power: int
    z_slope: int


# frozen transformation data: stepping z by 2*pi*i (direction 1) leaves the
# coordinate alone; stepping by 2*pi*i*tau (direction 2) multiplies it by
# -q^-1 e^-z.  Regenerated numerically in the tests.
QUASI_PERIODS = {1: QuasiPeriod(1, 0, 0), 2: QuasiPeriod(-1, -1, -1)}


def quasi_period_predicted(direction: int, lat: Lattice, z: complex) -> complex:
    qp = QUASI_PERIODS[direction]
    return qp.sign * lat.q**qp.q_power * cmath.exp(qp.z_slope * z)


def quasi_period_measured(direction: int, lat: Lattice, z: complex) -> complex:
    shift = TWO_PI_I * (1 if direction == 1 else lat.tau)
    return sigma_num(lat, z + shift) / sigma_num(lat, z)


# ---------------------------------------------------------------- group law

XYQ = ("x", "y", "q")
WQ = ("w", "q")

# coordinate kind -> whether the law G its coordinate g conjugates has a
# product term: the additive law x + y in z for the additive kind, the
# multiplicative law x + y + xy in w = e^z - 1 otherwise
PRODUCT_TERM = {"additive": False, "multiplicative": True, "sigma": True}


def _coordinate_rows(kind: str, degree: int, qorder: int) -> list[list[int]]:
    """Row d holds the q-coefficients 0..qorder of [w^d] g, for d <= degree."""
    if kind not in PRODUCT_TERM:
        raise ValueError(f"unknown coordinate kind {kind!r}")
    rows = [[0] * (qorder + 1) for _ in range(degree + 1)]
    if kind != "sigma":
        if degree >= 1 and qorder >= 0:
            rows[1][0] = 1
        return rows
    t = _t_product(qorder, (degree - 1) // 2)
    # w/(1+w) t^j = w^(2j+1) (1+w)^-(j+1): sum_i (-1)^i C(j+i, j) w^(2j+1+i)
    for d in range(1, degree + 1):
        for e in range(qorder + 1):
            rows[d][e] = sum(
                (-1) ** (d - 2 * j - 1) * math.comb(d - j - 1, j) * t[j][e]
                for j in range((d - 1) // 2 + 1)
            )
    return rows


def coordinate_w(kind: str, degree: int, qorder: int) -> MultiSeries:
    """The coordinate as an integral series g(w) in w = e^z - 1, q a parameter.

    The additive and multiplicative kinds take g = w: their laws are G
    itself (with w standing for z in the additive case).  For sigma,
    1 - e^-z = w/(1+w) and e^z + e^-z - 2 = t with t = w^2/(1+w), so each
    factor of ``sigma_product`` is
        (1 - q^n e^-z)(1 - q^n e^z) / (1 - q^n)^2 = 1 - t * sum_k k q^(nk)
    and g = w/(1+w) * prod_n (1 - t * sum_k k q^(nk)) lies in
    w + w^2 Z[[q]][[w]].  The product is the t-polynomial of ``_t_product``,
    shared with ``sigma_product``, so g = sum_j row_j(q) w^(2j+1)/(1+w)^(j+1).
    """
    rows = _coordinate_rows(kind, degree, qorder)
    table = {(d, e): c for d, row in enumerate(rows) for e, c in enumerate(row) if c}
    return MultiSeries(WQ, table, caps=(degree, qorder))


class _Packed:
    """Z[q]/(q^S) inside Z/2^(BS): a polynomial is its value at q = 2^B.

    q -> 2^B is a ring map Z[q] -> Z that sends q^S to 2^(BS), so it
    induces a ring map Z[q]/(q^S) -> Z/2^(BS): sums and products of
    packed ints reduced by ``mask`` are the images of the exact sums and
    products, whatever size their coefficients reach.  Only ``lift``
    needs every coefficient of the true polynomial in [-2^(B-1), 2^(B-1)).
    """

    def __init__(self, width: int, slots: int):
        self.width = width
        self.slots = slots
        self.mask = (1 << width * slots) - 1
        # 2^(B-1) in every slot: added before the lift, it makes each digit
        # non-negative and below 2^B, so no slot borrows from the next
        self.half = sum(1 << (width * k + width - 1) for k in range(slots))

    def pack(self, row) -> int:
        v = 0
        for c in reversed(row):
            v = (v << self.width) + c
        return v & self.mask

    def lift(self, v: int) -> list[int]:
        """The balanced digits: the true coefficients when they fit."""
        v = (v + self.half) & self.mask
        digit = (1 << self.width) - 1
        top = 1 << (self.width - 1)
        return [(v >> (self.width * k) & digit) - top for k in range(self.slots)]

    def neg(self, v: int) -> int:
        return -v & self.mask

    def sub(self, a: int, b: int) -> int:
        return (a - b) & self.mask

    def divide(self, v: int, k: int) -> int:
        return self.pack([_exact_div(c, k) for c in self.lift(v)])


class _Norms:
    """The l1 norms of the same polynomials, as exact ints.

    ||ab|| <= ||a|| ||b|| and ||a +- b|| <= ||a|| + ||b||, and truncation
    at q^S only drops terms, so every step bounds the norm of the packed
    step it shadows; an exact quotient c/k has norm ||c||/k, an integer.
    """

    mask = -1  # x & -1 == x: nothing is reduced

    def pack(self, row) -> int:
        return sum(map(abs, row))

    def neg(self, v: int) -> int:
        return v

    def sub(self, a: int, b: int) -> int:
        return a + b

    def divide(self, v: int, k: int) -> int:
        return v // k


_NORMS = _Norms()


def _mul2(a: dict, b: dict, degree: int, mask: int) -> dict:
    """Product of bivariate series (i, j) -> element, cut at total degree."""
    by_total = [[] for _ in range(degree + 1)]
    for (k, l), v in b.items():
        if k + l <= degree:
            by_total[k + l].append((k, l, v))
    acc = {}
    get = acc.get
    for (i, j), u in a.items():
        for n in range(degree - i - j + 1):
            for k, l, v in by_total[n]:
                key = (i + k, j + l)
                acc[key] = get(key, 0) + u * v
    out = {}
    for key, v in acc.items():
        if v := v & mask:
            out[key] = v
    return out


def _law(ring, g: list, degree: int, product: bool):
    """F = g(G(g^-1(x), g^-1(y))) in ``ring``, from g by w-degree.

    Returns the Lagrange numerators [w^(k-1)] r^k for k = 1..degree and F
    as {(i, j): F_ij}.
    """
    mask = ring.mask
    # r = 1/u for u = g/w = 1 + u_1 w + ...: r_n = -sum_{i>=1} u_i r_(n-i)
    r = [1]
    for n in range(1, degree):
        r.append(ring.neg(sum(g[i + 1] * r[n - i] for i in range(1, n + 1))))
    # Lagrange inversion: [w^k] g^-1 = [w^(k-1)] r^k / k
    numerators = []
    power = [1] + [0] * (degree - 1)
    for k in range(1, degree + 1):
        power = [sum(power[i] * r[n - i] for i in range(n + 1)) & mask for n in range(degree)]
        numerators.append(power[k - 1])
    ginv = [0] + [ring.divide(c, k) for k, c in enumerate(numerators, 1)]
    base = {}
    for i in range(1, degree + 1):
        if ginv[i]:
            base[(i, 0)] = base[(0, i)] = ginv[i]
            if product:
                for j in range(1, degree - i + 1):
                    if v := ginv[i] * ginv[j] & mask:
                        base[(i, j)] = v
    table = {}
    power = base
    last = max(d for d in range(degree + 1) if g[d])
    for d in range(1, last + 1):
        if d > 1:
            power = _mul2(power, base, degree, mask)
        if g[d]:
            for key, v in power.items():
                table[key] = table.get(key, 0) + g[d] * v
    return numerators, {key: v & mask for key, v in table.items() if v & mask}


def _law_width(rows: list, degree: int, product: bool) -> int:
    """The slot width B at which the packed law lifts exactly.

    The norm pipeline bounds the l1 norm N of every lifted polynomial, the
    numerators and the table, so each coefficient c has |c| <= N.  With
    B = bit_length(max N) + 2, |c| < 2^(B-2): the balanced lift is exact
    with room to spare.  A width read off the results instead would not
    be a proof, since a digit that outgrows its slot carries silently.
    """
    numerators, table = _law(_NORMS, [_NORMS.pack(row) for row in rows], degree, product)
    return max(numerators + list(table.values())).bit_length() + 2


def _compose(f: dict, powers: list, degree: int) -> dict:
    """[x^a y^b w^c] of sum_(i,c) f_ic P_i(x, y) w^c, keys (a, b, c), unreduced."""
    out = {}
    get = out.get
    for (i, c), v in f.items():
        room = degree - c
        for (a, b), p in powers[i].items():
            if a + b <= room:
                key = (a, b, c)
                out[key] = get(key, 0) + v * p
    return out


def _defect(ring, f: dict, degree: int) -> dict:
    """F(F(x,y),w) - F(x,F(y,w)) as {(a, b, c): element}, from F's powers.

    [x^a y^b w^c] F(F(x,y),w) = sum_i F_ic [x^a y^b] F^i and
    [x^a y^b w^c] F(x,F(y,w)) = sum_j F_aj [y^b w^c] F^j: no product in
    three variables is needed.
    """
    top = max((max(k) for k in f), default=0)
    powers = [{(0, 0): 1}, f]
    while len(powers) <= top:
        powers.append(_mul2(powers[-1], f, degree, ring.mask))
    left = _compose(f, powers, degree)
    # composing the transpose gives right[a, b, c] under the key (b, c, a)
    right = _compose({(j, i): v for (i, j), v in f.items()}, powers, degree)
    out = {}
    for a, b, c in left.keys() | {(a, b, c) for (b, c, a) in right}:
        if v := ring.sub(left.get((a, b, c), 0), right.get((b, c, a), 0)):
            out[(a, b, c)] = v
    return out


def _defect_width(rows: dict, degree: int) -> int:
    """The slot width for the defect: its norm bound is |left| + |right|."""
    norms = {key: _NORMS.pack(row) for key, row in rows.items()}
    return max(_defect(_NORMS, norms, degree).values(), default=0).bit_length() + 2


@dataclass
class FormalGroupLaw:
    kind: str
    degree: int
    qorder: int
    table: MultiSeries  # vars (x, y, q); total degree bound counts x, y only

    def coefficient(self, i: int, j: int) -> TruncatedSeries:
        zero = TruncatedSeries.zero("q", self.qorder)
        return self.table.slices("q").get((i, j), zero)

    def evaluate(self, x: complex, y: complex, q: complex) -> complex:
        """F(x, y) at a point, each x^i y^j coefficient by Horner in q over
        the table's ints, each entering the complex sum as its correctly
        rounded float.

        The terms are summed in sorted (i, j) order, so the float result
        depends on the law alone, not on the order the table was built in.
        """
        total = 0j
        for (a, b), row in sorted(self._rows().items()):
            h = 0j
            for c in reversed(row):
                h = h * q + c
            total += h * x**a * y**b
        return total

    def _rows(self) -> dict[tuple[int, int], list[int]]:
        """{(a, b): [c_0, ..., c_qorder]}, the q-coefficients of x^a y^b."""
        rows = {}
        for (a, b, e), c in self.table.coeffs.items():
            if not isinstance(c, int):
                raise ValueError(f"law coefficient {c!r} at x^{a} y^{b} q^{e} is not an integer")
            rows.setdefault((a, b), [0] * (self.qorder + 1))[e] = c
        return rows

    def is_unital(self) -> bool:
        """F(x, 0) = x: the only y-free term of the table is x itself."""
        return {e: c for e, c in self.table.coeffs.items() if e[1] == 0} == {(1, 0, 0): 1}

    def is_commutative(self) -> bool:
        flipped = {(b, a, e): c for (a, b, e), c in self.table.coeffs.items()}
        return flipped == self.table.coeffs

    def associativity_defect(self) -> MultiSeries:
        """F(F(x,y),w) - F(x,F(y,w)) in the exact quotient ring, on packed ints."""
        degree, rows = self.degree, self._rows()
        if (0, 0) in rows:
            raise ValueError("substitution target has nonzero constant term")
        ring = _Packed(_defect_width(rows, degree), self.qorder + 1)
        defect = _defect(ring, {key: ring.pack(row) for key, row in rows.items()}, degree)
        coeffs = {
            (a, b, c, e): d
            for (a, b, c), v in defect.items()
            for e, d in enumerate(ring.lift(v))
            if d
        }
        return MultiSeries(
            ("x", "y", "w", "q"),
            coeffs,
            caps=(degree, degree, degree, self.qorder),
            total=degree,
            tgroup=(0, 1, 2),
        )

    def is_associative(self) -> bool:
        return self.associativity_defect().is_zero()

    def to_json(self) -> dict:
        entries = [
            {"i": a, "j": b, "series": s.to_json()}
            for (a, b), s in sorted(self.table.slices("q").items())
        ]
        return {
            "kind": self.kind,
            "degree": self.degree,
            "qorder": self.qorder,
            "coefficients": entries,
        }


def fgl_from_coordinate(kind: str, degree: int, qorder: int) -> FormalGroupLaw:
    """F(x, y) = g(G(g^-1(x), g^-1(y))) for the coordinate g of ``coordinate_w``.

    G is x + y, or x + y + xy for the kinds in ``PRODUCT_TERM``.  g is
    integral with linear coefficient 1, so its Lagrange reversion and the
    law are integral too: every coefficient of the table is an int.  The
    whole build runs on packed ints (``_Packed``) at the width
    ``_law_width`` proves sufficient.
    """
    rows = _coordinate_rows(kind, degree, qorder)
    if degree < 1 or qorder < 0:
        raise ValueError("reversion requires an invertible linear coefficient")
    product = PRODUCT_TERM[kind]
    ring = _Packed(_law_width(rows, degree, product), qorder + 1)
    _, packed = _law(ring, [ring.pack(row) for row in rows], degree, product)
    terms = {
        (i, j, e): c
        for (i, j), v in packed.items()
        for e, c in enumerate(ring.lift(v))
        if c
    }
    table = MultiSeries(
        XYQ,
        terms,
        caps=(degree, degree, qorder),
        total=degree,
        tgroup=(0, 1),
    )
    return FormalGroupLaw(kind, degree, qorder, table)


# ------------------------------------------------------- numeric group law


def coordinate_num(lat: Lattice, z: complex) -> complex:
    return sigma_num(lat, z) / lat.lam2


def invert_coordinate_num(lat: Lattice, x: complex) -> complex:
    """Solve coordinate_num(lat, z) = x by Newton iteration from z = x."""
    z = complex(x)
    h = 1e-7
    for _ in range(60):
        f = coordinate_num(lat, z) - x
        if abs(f) < 1e-16:
            break
        df = (coordinate_num(lat, z + h) - coordinate_num(lat, z - h)) / (2 * h)
        z -= f / df
    return z


@dataclass
class GroupLawReport:
    residual: float
    residual_large: float
    slope: float


def group_law_check(
    x: float,
    y: float,
    degree: int = 10,
    qorder: int = 6,
    tau: complex = 2j,
    fgl: FormalGroupLaw | None = None,
) -> GroupLawReport:
    """Truncated law vs transcendental addition at a concrete lattice.

    The slope compares the residual at (2x, 2y) with the one at (x, y);
    a truncation at total degree D shows up as about D + 1 doublings.
    """
    if fgl is None:
        fgl = fgl_from_coordinate("sigma", degree, qorder)
    lat = Lattice(tau, 1.0)
    q0 = lat.q

    def residual(a: float, b: float) -> float:
        za = invert_coordinate_num(lat, a)
        zb = invert_coordinate_num(lat, b)
        truth = coordinate_num(lat, za + zb)
        return abs(fgl.evaluate(a, b, q0) - truth)

    r_small = residual(x, y)
    r_large = residual(2 * x, 2 * y)
    slope = math.log2(r_large / r_small) if r_small > 0 else float("inf")
    return GroupLawReport(r_small, r_large, slope)
