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

The formal group law is computed over Z[[q]] in the coordinate
w = e^z - 1, where the product form is an integral series g(w): the law
is g(G(g^-1(x), g^-1(y))) with G the multiplicative law x + y + xy and
g^-1 found by Lagrange reversion, all on Python ints.  g comes from the
same t-polynomial, with t = w^2/(1+w).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .modforms import TWO_PI_I, Lattice, eisenstein_q, homogeneous_fit
from .series import MultiSeries, TruncatedSeries

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


def _additive(a: MultiSeries, b: MultiSeries) -> MultiSeries:
    return a + b


def _multiplicative(a: MultiSeries, b: MultiSeries) -> MultiSeries:
    return a + b + a * b


# coordinate kind -> the law G its coordinate g conjugates: the additive law
# in z for the additive kind, the multiplicative law in w = e^z - 1 otherwise
BASE_LAWS = {"additive": _additive, "multiplicative": _multiplicative, "sigma": _multiplicative}


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
    if kind not in BASE_LAWS:
        raise ValueError(f"unknown coordinate kind {kind!r}")
    caps = (degree, qorder)
    if kind != "sigma":
        return MultiSeries.gen(WQ, "w", caps=caps)
    jmax = (degree - 1) // 2
    rows = _t_product(qorder, jmax)
    # w/(1+w) t^j = w^(2j+1) (1+w)^-(j+1): sum_i (-1)^i C(j+i, j) w^(2j+1+i)
    table = {}
    for d in range(1, degree + 1):
        for e in range(qorder + 1):
            c = sum(
                (-1) ** (d - 2 * j - 1) * math.comb(d - j - 1, j) * rows[j][e]
                for j in range((d - 1) // 2 + 1)
            )
            if c:
                table[(d, e)] = c
    return MultiSeries(WQ, table, caps=caps)


@dataclass
class FormalGroupLaw:
    kind: str
    degree: int
    qorder: int
    table: MultiSeries  # vars (x, y, q); total degree bound counts x, y only

    def coefficient(self, i: int, j: int) -> TruncatedSeries:
        out = {}
        for (a, b, e), c in self.table.coeffs.items():
            if a == i and b == j:
                out[e] = c
        return TruncatedSeries("q", self.qorder, out)

    def evaluate(self, x: complex, y: complex, q: complex) -> complex:
        total = 0j
        for (a, b, e), c in self.table.coeffs.items():
            total += complex(c) * x**a * y**b * q**e
        return total

    def q_zero_slice(self) -> MultiSeries:
        return self.table.coeff_in("q", 0)

    def is_unital(self) -> bool:
        """F(x, 0) = x: the only y-free term of the table is x itself."""
        return {e: c for e, c in self.table.coeffs.items() if e[1] == 0} == {(1, 0, 0): 1}

    def is_commutative(self) -> bool:
        flipped = {(b, a, e): c for (a, b, e), c in self.table.coeffs.items()}
        return flipped == self.table.coeffs

    def associativity_defect(self) -> MultiSeries:
        """F(F(x,y),w) - F(x,F(y,w)) in the exact quotient ring."""
        V = ("x", "y", "w", "q")
        caps = (self.degree, self.degree, self.degree, self.qorder)
        kw = dict(caps=caps, total=self.degree, tgroup=(0, 1, 2))
        gx = MultiSeries.gen(V, "x", **kw)
        gw = MultiSeries.gen(V, "w", **kw)
        gq = MultiSeries.gen(V, "q", **kw)
        f_xy = self.table.lift(V, **kw)
        f_yw = self.table.rename({"x": "y", "y": "w"}).lift(V, **kw)
        left = self.table.subs({"x": f_xy, "y": gw, "q": gq})
        right = self.table.subs({"x": gx, "y": f_yw, "q": gq})
        return left - right

    def is_associative(self) -> bool:
        return self.associativity_defect().is_zero()

    def to_json(self) -> dict:
        entries = []
        seen = sorted({(a, b) for (a, b, _) in self.table.coeffs})
        for a, b in seen:
            entries.append({"i": a, "j": b, "series": self.coefficient(a, b).to_json()})
        return {
            "kind": self.kind,
            "degree": self.degree,
            "qorder": self.qorder,
            "coefficients": entries,
        }


def fgl_from_coordinate(kind: str, degree: int, qorder: int) -> FormalGroupLaw:
    """F(x, y) = g(G(g^-1(x), g^-1(y))) for the coordinate g of ``coordinate_w``.

    G is the kind's base law in ``BASE_LAWS``.  g is integral with linear
    coefficient 1, so its Lagrange reversion and the law are integral
    too: every coefficient of the table is an int.
    """
    g = coordinate_w(kind, degree, qorder)
    ginv = g.reversion()
    kw = dict(caps=(degree, degree, qorder), total=degree, tgroup=(0, 1))
    a = ginv.rename({"w": "x"}).lift(XYQ, **kw)
    b = ginv.rename({"w": "y"}).lift(XYQ, **kw)
    q = MultiSeries.gen(XYQ, "q", **kw)
    table = g.subs({"w": BASE_LAWS[kind](a, b), "q": q})
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
