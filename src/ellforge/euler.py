"""Twisted Euler classes with nilpotent Chern roots and their anomalies.

A rank-m bundle contributes formal roots F_1..F_m, nilpotent beyond a
chosen total degree; the second period is normalized to 1 and each root
enters the coordinate at z_j = 2 i F_j.  The classes are built in the
rescaled roots y_j = i F_j, so z_j = 2 y_j and every coefficient is
rational.  A class is a flat table over (q, y1..ym), laid out as sigma's
(q, z): q is capped at the q-order and the total degree counts the roots
alone.  The coefficient of F^e is i^|e| times the q-series of y^e, and the
command line applies that power of i, and the names F1..Fm, when it
prints a class.

The twisted class is the coordinate itself over the roots; the corrected
class keeps only the honestly modular part of the exponential (weights
four and up).  Their ratio is a product of two anomaly factors, one
linear in the roots and one proportional to the quasimodular G_2, and
both die on bundles with vanishing first and second Chern character
components.
"""
from __future__ import annotations

from dataclasses import dataclass

from .modforms import eisenstein_q, homogeneous_fit, weight_monomials
from .series import MultiSeries
from .sigma import exp_weight, sigma_product


def root_vars(m: int):
    return tuple(f"y{j}" for j in range(1, m + 1))


def _bounds(m: int, degree: int, qorder: int) -> dict:
    return dict(caps=(qorder,) + (degree,) * m, total=degree, tgroup=tuple(range(1, m + 1)))


def _class(m: int, degree: int, qorder: int, table) -> MultiSeries:
    return MultiSeries(("q",) + root_vars(m), table, **_bounds(m, degree, qorder))


def _on_root(m: int, j: int, terms: dict) -> dict:
    """The terms {(n, k): c} of c q^n y^k as terms in the root y_(j+1)."""
    return {(n,) + (0,) * j + (k,) + (0,) * (m - j - 1): c for (n, k), c in terms.items()}


def _sigma_2y(degree: int, qorder: int) -> dict:
    """sigma(2 y) as terms {(n, d): c} of c q^n y^d, from one product-form table."""
    return {(n, d): c * 2**d for (n, d), c in sigma_product(qorder, degree).coeffs.items()}


def _twisted(m: int, degree: int, qorder: int, sigma: dict) -> MultiSeries:
    out = _class(m, degree, qorder, {(0,) * (m + 1): 1})
    for j in range(m):
        out = out * _class(m, degree, qorder, _on_root(m, j, sigma))
    return out


def twisted_euler(m: int, degree: int, qorder: int) -> MultiSeries:
    """prod_j sigma(2 y_j), from one product-form (q, z) table."""
    return _twisted(m, degree, qorder, _sigma_2y(degree, qorder))


def corrected_euler(m: int, degree: int, qorder: int) -> MultiSeries:
    """prod_j 2 y_j exp(sum_{k>=2} w_k G_2k 4^k y_j^{2k}): the modular part."""
    arg = {
        (n, 2 * k): c * (exp_weight(k) * 4**k)
        for k in range(2, degree // 2 + 1)
        for n, c in eisenstein_q(2 * k, qorder).coeffs.items()
    }
    out = _class(m, degree, qorder, {(0,) * (m + 1): 1})
    for j in range(m):
        lead = _class(m, degree, qorder, _on_root(m, j, {(0, 1): 2}))
        out = out * lead * _class(m, degree, qorder, _on_root(m, j, arg)).exp()
    return out


def linear_anomaly(m: int, degree: int, qorder: int) -> MultiSeries:
    """exp(-(1/2) sum z_j) = exp(-sum y_j)."""
    arg = {}
    for j in range(m):
        arg.update(_on_root(m, j, {(0, 1): -1}))
    return _class(m, degree, qorder, arg).exp()


def g2_anomaly(m: int, degree: int, qorder: int) -> MultiSeries:
    """exp(-G_2 sum z_j^2) = exp(-4 G_2 sum y_j^2)."""
    g2 = {(n, 2): c * -4 for n, c in eisenstein_q(2, qorder).coeffs.items()}
    arg = {}
    for j in range(m):
        arg.update(_on_root(m, j, g2))
    return _class(m, degree, qorder, arg).exp()


def factorization_exact(twisted, corrected, linear, g2) -> bool:
    """Coefficient-exact check of twisted = corrected * linear * G_2 anomaly,
    on classes already built."""
    return twisted == corrected * linear * g2


def anomaly_factorization_ok(m: int, degree: int, qorder: int) -> bool:
    """factorization_exact on the four classes of (m, degree, qorder)."""
    return factorization_exact(
        twisted_euler(m, degree, qorder),
        corrected_euler(m, degree, qorder),
        linear_anomaly(m, degree, qorder),
        g2_anomaly(m, degree, qorder),
    )


@dataclass
class CertificateReport:
    ok: bool
    checked: int
    failures: list


def g2_free_certificate(cls: MultiSeries, rank: int) -> CertificateReport:
    """Prove every root-monomial coefficient is an isobaric G_4/G_6 polynomial.

    The monomial prod y_j^(k_j) must carry, after stripping the 2^K from
    z = 2y, a q-series equal to a weight (K - rank) polynomial in G_4 and
    G_6, solved exactly; a genuinely quasimodular class fails.
    Demands enough q-coefficients to overdetermine each solve.
    """
    failures = []
    checked = 0
    for e, s in sorted(cls.slices("q").items()):
        k_total = sum(e)
        weight = k_total - rank
        checked += 1
        r = s / 2**k_total
        monos = weight_monomials(weight)
        if r.trunc < len(monos) + 1:
            raise ValueError(
                f"q-order {r.trunc} too small to certify weight {weight}"
            )
        if homogeneous_fit(r, weight) is None:
            failures.append((e, "no isobaric fit"))
    return CertificateReport(not failures, checked, failures)


def whitney_defect(m1: int, m2: int, degree: int, qorder: int) -> MultiSeries:
    """e(V + W) minus e(V) e(W) in the joint root algebra; zero when multiplicative."""
    m = m1 + m2
    v, bounds = ("q",) + root_vars(m), _bounds(m, degree, qorder)
    sigma = _sigma_2y(degree, qorder)
    total = _twisted(m, degree, qorder, sigma)
    left = _twisted(m1, degree, qorder, sigma).lift(v, **bounds)
    right = (
        _twisted(m2, degree, qorder, sigma)
        .rename({f"y{j}": f"y{m1 + j}" for j in range(1, m2 + 1)})
        .lift(v, **bounds)
    )
    return total - left * right
