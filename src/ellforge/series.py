"""Exact truncated series arithmetic.

Univariate power and Laurent series over exact rationals, plus a sparse
multivariate companion used for group-law expansions, box-truncated
(q, z) tables, and nilpotent root algebras.  Coefficient arithmetic is
exact everywhere; floating point appears only in the numeric evaluators.
"""
from __future__ import annotations

import os
import sys
import time
from fractions import Fraction
from math import gcd, lcm
from operator import add, le

# Hard lower bound on Laurent exponents.  Nothing in the library needs
# deeper poles, and the bound catches runaway inverse() loops early.
LAURENT_FLOOR = -24


def _coerce(c):
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, Fraction):
        return c
    raise TypeError(f"unsupported coefficient {c!r}: not a rational")


class TruncatedSeries:
    """Series in one variable, exact coefficients, explicit truncation order.

    Coefficients with exponent above ``trunc`` are unknown, not zero; the
    order-N object represents the series modulo x^(N+1).  Exponents may go
    down to ``minexp`` (>= LAURENT_FLOOR) for Laurent use.  Zero
    coefficients are never stored, and equality compares the stored
    table coefficient-wise.
    """

    __slots__ = ("var", "trunc", "minexp", "coeffs")

    def __init__(self, var: str, trunc: int, coeffs=None, minexp: int = 0):
        if minexp < LAURENT_FLOOR:
            raise ValueError(f"minexp {minexp} below Laurent floor {LAURENT_FLOOR}")
        self.var = var
        self.trunc = int(trunc)
        self.minexp = int(minexp)
        table = {}
        if coeffs:
            for e, c in coeffs.items() if isinstance(coeffs, dict) else coeffs:
                if e < self.minexp:
                    raise ValueError(f"exponent {e} below declared minexp {minexp}")
                if e > self.trunc:
                    continue
                c = _coerce(c)
                if c != 0:
                    table[int(e)] = c
        self.coeffs = table

    # ---- constructors ----

    @classmethod
    def zero(cls, var: str, trunc: int, minexp: int = 0) -> "TruncatedSeries":
        return cls(var, trunc, None, minexp)

    @classmethod
    def one(cls, var: str, trunc: int) -> "TruncatedSeries":
        return cls(var, trunc, {0: 1})

    @classmethod
    def const(cls, var: str, trunc: int, c) -> "TruncatedSeries":
        return cls(var, trunc, {0: c})

    # ---- accessors ----

    def coeff(self, e: int):
        return self.coeffs.get(e, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncate(self, n: int) -> "TruncatedSeries":
        n = min(n, self.trunc)
        return TruncatedSeries(
            self.var, n, {e: c for e, c in self.coeffs.items() if e <= n}, self.minexp
        )

    def map_coeffs(self, fn) -> "TruncatedSeries":
        return TruncatedSeries(
            self.var, self.trunc, {e: fn(c) for e, c in self.coeffs.items()}, self.minexp
        )

    # ---- ring operations ----

    def _binop_check(self, other: "TruncatedSeries"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries(self.var, self.trunc, {0: other}, min(self.minexp, 0))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._binop_check(other)
        trunc = min(self.trunc, other.trunc)
        minexp = min(self.minexp, other.minexp)
        table = {e: c for e, c in self.coeffs.items() if e <= trunc}
        for e, c in other.coeffs.items():
            if e > trunc:
                continue
            s = table.get(e, 0) + c
            if s == 0:
                table.pop(e, None)
            else:
                table[e] = s
        return TruncatedSeries(self.var, trunc, table, minexp)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, TruncatedSeries) else -_coerce(other))

    def __neg__(self):
        return TruncatedSeries(
            self.var, self.trunc, {e: -c for e, c in self.coeffs.items()}, self.minexp
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if c == 0:
                return TruncatedSeries.zero(self.var, self.trunc, self.minexp)
            return self.map_coeffs(lambda x: x * c)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._binop_check(other)
        trunc = min(self.trunc, other.trunc)
        minexp = self.minexp + other.minexp
        if minexp < LAURENT_FLOOR:
            raise ValueError("product crosses the Laurent floor")
        # integer numerators over one denominator per operand; the
        # constructor drops the zeros
        (na, da), (nb, db) = _numerators(self.coeffs), _numerators(other.coeffs)
        den = (da or 1) * (db or 1)
        table = {}
        get = table.get
        for e1, c1 in na.items():
            room = trunc - e1
            for e2, c2 in nb.items():
                if e2 <= room:
                    table[e1 + e2] = get(e1 + e2, 0) + c1 * c2
        table = {e: Fraction(s, den) for e, s in table.items() if s}
        return TruncatedSeries(self.var, trunc, table, max(minexp, LAURENT_FLOOR))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            return self.map_coeffs(lambda x: x / c)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = TruncatedSeries.one(self.var, self.trunc)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the leading term may sit at any exponent."""
        if not self.coeffs:
            raise ZeroDivisionError("inverse of zero series")
        v = min(self.coeffs)
        if -v < LAURENT_FLOOR:
            raise ValueError("inverse crosses the Laurent floor")
        lead = self.coeffs[v]
        n = self.trunc - v  # number of known coefficients past the lead
        # a = lead * x^v * (1 + u), solve (1+u)^-1 term by term
        inv0 = 1 / lead
        b = {0: inv0}
        for k in range(1, n + 1):
            s = 0
            for j in range(0, k):
                a_c = self.coeffs.get(v + (k - j))
                if a_c is not None and j in b:
                    s += b[j] * a_c
            val = -s * inv0
            if val != 0:
                b[k] = val
        table = {e - v: c for e, c in b.items()}
        return TruncatedSeries(self.var, n - v, table, min(-v, 0))

    # ---- composition and reversion ----

    def _multi(self, trunc: int) -> "MultiSeries":
        """This power series as a one-variable MultiSeries capped at trunc."""
        return MultiSeries((self.var,), {(e,): c for e, c in self.coeffs.items()}, caps=(trunc,))

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner), by MultiSeries.subs; inner must have zero constant term."""
        trunc = min(self.trunc, inner.trunc)
        return self._multi(trunc).subs({self.var: inner._multi(trunc)}).as_univariate()

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse of c1*x + c2*x^2 + ..., by MultiSeries.reversion."""
        return self._multi(self.trunc).reversion().as_univariate()

    # ---- numerics and serialization ----

    def evaluate(self, x: complex) -> complex:
        # float(c) is n / d, and float * complex is complex(c) * complex bit for bit
        out = 0j
        for e, c in sorted(self.coeffs.items(), reverse=True):
            out += c.numerator / c.denominator * x**e
        return out

    def to_json(self) -> dict:
        pairs = [[e, str(self.coeffs[e])] for e in sorted(self.coeffs)]
        return {"var": self.var, "min": self.minexp, "trunc": self.trunc, "coeffs": pairs}

    @classmethod
    def from_json(cls, data: dict) -> "TruncatedSeries":
        table = {}
        last = None
        for entry in data["coeffs"]:
            e = int(entry[0])
            if last is not None and e <= last:
                raise ValueError("exponents must be strictly increasing")
            last = e
            if len(entry) != 2:
                raise ValueError(f"coefficient entry {entry!r} is not [exponent, rational]")
            table[e] = Fraction(entry[1])
        return cls(data["var"], int(data["trunc"]), table, int(data["min"]))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries(self.var, self.trunc, {0: other})
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __repr__(self):
        return f"TruncatedSeries({self.var!r}, {self.trunc}, {self.coeffs!r}, minexp={self.minexp})"

    def __str__(self):
        if not self.coeffs:
            return f"0 + O({self.var}^{self.trunc + 1})"
        parts = []
        for e in sorted(self.coeffs):
            cs = str(self.coeffs[e])
            if e == 0:
                parts.append(cs)
            elif e == 1:
                parts.append(f"{cs}*{self.var}")
            else:
                parts.append(f"{cs}*{self.var}^{e}")
        return " + ".join(parts) + f" + O({self.var}^{self.trunc + 1})"


def _exact_div(c, n: int):
    """c / n, kept an integer for integers and raising if that is inexact."""
    if isinstance(c, int):
        quo, rem = divmod(c, n)
        if rem:
            raise ArithmeticError(f"{c} is not divisible by {n}")
        return quo
    return c / n


def _accumulate(table: dict, left, right, lim, rest=()) -> None:
    """table[a + b] += x * y over the term pairs that survive the truncation.

    A bucket pair whose tops add within lim and the caps of rest keeps all
    its term pairs untested, one whose keys add past lim none, and any
    other is tested term by term at those caps.
    """
    get = table.get
    idx, caps = [i for i, _ in rest], [c for _, c in rest]
    top = lim + tuple(caps)
    for ta, items_a in left:
        room = lim[0] - ta[0]
        for tb, items_b in right:
            if tb[0] > room:
                break
            near = not all(map(le, map(add, ta, tb), top))
            # zip stops at lim, the keys' part of top; a pair past it keeps no term
            if near and not (rest and all(map(le, map(add, ta, tb), lim))):
                continue
            for e1, c1 in items_a:
                for e2, c2 in items_b:
                    e = tuple(map(add, e1, e2))
                    if near and not all(map(le, map(e.__getitem__, idx), caps)):
                        continue
                    p = c1 * c2
                    s = get(e)
                    table[e] = p if s is None else s + p


def _numerators(coeffs: dict):
    """(numerators, d): the table as ints over the lcm d of its denominators.

    d is None for a table of ints alone, returned as it is; anything but
    ints and Fractions raises TypeError.
    """
    dens = set()
    for c in coeffs.values():
        if type(c) is Fraction:
            dens.add(c.denominator)
        elif not isinstance(c, int):
            raise TypeError(f"unsupported coefficient {c!r}: not a rational")
    if not dens:
        return coeffs, None
    d = lcm(*dens)
    return {e: c.numerator * (d // c.denominator) for e, c in coeffs.items()}, d


def _layout(caps, total, tgroup):
    """Bucket key function, its limits and the other live caps (rest).

    A cap is live unless the total implies it: a counted variable whose cap
    is at least the total.  A key is (counted degree, exponent at the first
    live cap), or without a total (that exponent,); keys add under
    multiplication.  An exponent survives the truncation exactly when its
    key is <= lim coordinate-wise and it is within the (index, cap) of rest.
    """
    live = [
        i for i, c in enumerate(caps or ())
        if total is None or i not in tgroup or c < total
    ]
    counted, first = tgroup, live[:1]
    if total is None:  # the first live cap leads, as if counted alone
        counted, first, total = first, (), caps[first[0]] if first else 0
    lim = (total,) + tuple(caps[i] for i in first)

    def key(e):
        return (sum([e[i] for i in counted]), *[e[i] for i in first])

    return key, lim, tuple((i, caps[i]) for i in live[1:])


def _buckets(coeffs: dict, key, rest=()) -> list:
    """(top, [(exponent, coefficient)]) per key, in increasing key; top is
    the key and the largest exponent of the terms at each cap of rest."""
    out = {}
    for e, c in coeffs.items():
        out.setdefault(key(e), []).append((e, c))
    return [(k + tuple([max([e[i] for e, _ in items]) for i, _ in rest]), items)
            for k, items in sorted(out.items())]


class MultiSeries:
    """Sparse exact series in several variables.

    Truncation: an optional per-variable cap vector and an optional total
    degree, counted over a chosen subset of the variables (``tgroup``,
    default all); at least one must be set.  Coefficients are ints or
    Fractions, and anything else raises TypeError.  A series over the
    q-expansion ring is flat, with q one more capped variable, and
    ``slices`` reads back its q-series per monomial.
    Operands of one operation must count their totals over the same
    ``tgroup``, and ``subs`` targets must share one truncation: otherwise
    the result would hold terms some input leaves unknown.

    ``__mul__``, ``subs`` and ``exp`` bucket the terms by counted degree
    and one capped variable (``_layout``), test the bounds once per pair of
    buckets, term by term only where a pair may pass another cap, and drop
    the coefficients that cancelled once, at the end.  ``subs`` raises
    each mixed (multi-term) target to a power once per group of terms
    with the same exponents at the mixed targets.  ``__mul__`` clears each
    operand to int numerators over its common denominator and builds each
    product coefficient once, as a Fraction over the two.
    Type rule: the product of two tables of ints alone holds ints; if
    either operand holds a Fraction, every product coefficient is a
    Fraction.
    """

    __slots__ = ("vars", "caps", "total", "tgroup", "coeffs")

    def __init__(self, vars, coeffs=None, caps=None, total=None, tgroup=None):
        self.vars = tuple(vars)
        n = len(self.vars)
        self.caps = None if caps is None else tuple(int(c) for c in caps)
        if self.caps is not None and len(self.caps) != n:
            raise ValueError("caps length mismatch")
        self.total = None if total is None else int(total)
        self.tgroup = tuple(range(n)) if tgroup is None else tuple(tgroup)
        if self.caps is None and self.total is None:
            raise ValueError("need a per-variable cap or a total-degree bound")
        table = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, dict) else coeffs
            for e, c in items:
                e = tuple(int(x) for x in e)
                if len(e) != n:
                    raise ValueError("exponent arity mismatch")
                if any(x < 0 for x in e):
                    raise ValueError("negative exponent in MultiSeries")
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"unsupported coefficient {c!r}: not a rational"
                                    " (for a q-series, make q a capped variable)")
                if not self._keep(e):
                    continue
                if c:
                    table[e] = c
        self.coeffs = table

    def _keep(self, e) -> bool:
        if self.caps is not None and any(x > c for x, c in zip(e, self.caps)):
            return False
        if self.total is not None and sum(e[i] for i in self.tgroup) > self.total:
            return False
        return True

    def _like(self, coeffs) -> "MultiSeries":
        return MultiSeries(self.vars, coeffs, self.caps, self.total, self.tgroup)

    # ---- constructors ----

    @classmethod
    def zero(cls, vars, caps=None, total=None, tgroup=None) -> "MultiSeries":
        return cls(vars, None, caps, total, tgroup)

    @classmethod
    def one(cls, vars, caps=None, total=None, tgroup=None) -> "MultiSeries":
        n = len(tuple(vars))
        return cls(vars, {(0,) * n: 1}, caps, total, tgroup)

    @classmethod
    def gen(cls, vars, name, caps=None, total=None, tgroup=None) -> "MultiSeries":
        vars = tuple(vars)
        i = vars.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls(vars, {e: 1}, caps, total, tgroup)

    # ---- accessors ----

    def coeff(self, e):
        return self.coeffs.get(tuple(e), Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    # ---- ring operations ----

    def _compat(self, other: "MultiSeries"):
        if self.vars != other.vars:
            raise ValueError("variable tuple mismatch")
        # a total counted over another group would leave terms of the result
        # unknown to one operand
        if self.tgroup != other.tgroup and (
            self.total is not None or other.total is not None
        ):
            raise ValueError("total-degree groups differ")

    def _merged_bounds(self, other: "MultiSeries"):
        if self.caps is None or other.caps is None:
            caps = None
        else:
            caps = tuple(min(a, b) for a, b in zip(self.caps, other.caps))
        if self.total is None or other.total is None:
            total = self.total if other.total is None else other.total
        else:
            total = min(self.total, other.total)
        return caps, total

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            z = (0,) * len(self.vars)
            other = self._like({z: other})
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._compat(other)
        caps, total = self._merged_bounds(other)
        res = MultiSeries(self.vars, None, caps, total, self.tgroup)
        table = {}
        for src in (self.coeffs, other.coeffs):
            for e, c in src.items():
                if not res._keep(e):
                    continue
                s = table.get(e)
                s = c if s is None else s + c
                if s:
                    table[e] = s
                else:
                    table.pop(e, None)
        res.coeffs = table
        return res

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        # negation keeps every exponent and nonzero coefficient: no re-check
        res = MultiSeries(self.vars, None, self.caps, self.total, self.tgroup)
        res.coeffs = {e: -c for e, c in self.coeffs.items()}
        return res

    def scale(self, c) -> "MultiSeries":
        if not c:
            return self._like(None)
        return self._like({e: x * c for e, x in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._compat(other)
        caps, total = self._merged_bounds(other)
        res = MultiSeries(self.vars, None, caps, total, self.tgroup)
        key, lim, rest = _layout(caps, total, self.tgroup)
        (na, da), (nb, db) = _numerators(self.coeffs), _numerators(other.coeffs)
        table = {}
        _accumulate(table, _buckets(na, key, rest), _buckets(nb, key, rest), lim, rest)
        if da is None and db is None:
            res.coeffs = {e: c for e, c in table.items() if c}
        else:
            den = (da or 1) * (db or 1)
            res.coeffs = {e: Fraction(s, den) for e, s in table.items() if s}
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = MultiSeries.one(self.vars, self.caps, self.total, self.tgroup)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # ---- structural operations ----

    def rename(self, mapping: dict) -> "MultiSeries":
        """Rename variables; exponent layout is unchanged."""
        return MultiSeries(
            tuple(mapping.get(v, v) for v in self.vars),
            self.coeffs,
            self.caps,
            self.total,
            self.tgroup,
        )

    def lift(self, vars, caps=None, total=None, tgroup=None) -> "MultiSeries":
        """Embed into a larger variable tuple (by name)."""
        vars = tuple(vars)
        pos = [vars.index(v) for v in self.vars]
        n = len(vars)
        table = {}
        for e, c in self.coeffs.items():
            new_e = [0] * n
            for p, x in zip(pos, e):
                new_e[p] = x
            table[tuple(new_e)] = c
        return MultiSeries(vars, table, caps, total, tgroup)

    def coeff_in(self, name: str, e: int) -> "MultiSeries":
        """Coefficient of name**e as a series in the remaining variables."""
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1 :]
        caps = None if self.caps is None else self.caps[:i] + self.caps[i + 1 :]
        total = self.total
        if total is not None and i in self.tgroup:
            total = max(total - e, 0)
        tgroup = tuple(j if j < i else j - 1 for j in self.tgroup if j != i)
        if caps is None and total is None:
            total = 0  # only possible when the removed cap was the sole bound
        table = {}
        for exps, c in self.coeffs.items():
            if exps[i] == e:
                table[exps[:i] + exps[i + 1 :]] = c
        return MultiSeries(rest, table, caps, total, tgroup if tgroup else None)

    def subs(self, args: dict) -> "MultiSeries":
        """Substitute series for variables; unsubstituted variables stay.

        args maps a variable name to a MultiSeries; all substituted series
        must share one variable tuple, which becomes the result's.
        Substituting anything with a nonzero constant term is rejected.
        """
        targets = [s for s in args.values() if isinstance(s, MultiSeries)]
        if not targets:
            raise ValueError("no substitution targets")
        proto = targets[0]
        for s in targets[1:]:
            if s.vars != proto.vars:
                raise ValueError("substitution targets disagree on variables")
            if (s.caps, s.total, s.tgroup) != (proto.caps, proto.total, proto.tgroup):
                raise ValueError("substitution targets disagree on truncation")
        zero_key = (0,) * len(proto.vars)
        for s in targets:
            if zero_key in s.coeffs:
                raise ValueError("substitution target has nonzero constant term")
        for v in self.vars:
            if v not in args:
                raise ValueError(f"no substitution given for {v!r}")
        res = MultiSeries.zero(proto.vars, proto.caps, proto.total, proto.tgroup)
        key, lim, rest = _layout(proto.caps, proto.total, proto.tgroup)
        nv = len(proto.vars)
        # single-monomial targets act by exponent shift; only mixed targets
        # get powered, once per group of terms with the same exponents there
        mono, mixed = [], []
        for j, v in enumerate(self.vars):
            s = args[v]
            if len(s.coeffs) == 1:
                (me, mc), = s.coeffs.items()
                mono.append((j, me, mc))
            else:
                mixed.append((j, [res._like({zero_key: 1}), s]))
        groups = {}
        for e, c in self.coeffs.items():
            groups.setdefault(tuple(e[j] for j, _ in mixed), []).append((e, c))
        table = {}
        for powers, terms in groups.items():
            prod = None
            for (_, plist), k in zip(mixed, powers):
                if k:
                    while len(plist) <= k:
                        plist.append(plist[-1] * plist[1])
                    prod = plist[k] if prod is None else prod * plist[k]
            factor = {zero_key: 1} if prod is None else prod.coeffs  # 1: no mixed target
            if not (buckets := _buckets(factor, key, rest)):
                continue
            for e, c in terms:
                shift, scal = [0] * nv, c
                for j, me, mc in mono:
                    k = e[j]
                    if k:
                        for i, x in enumerate(me):
                            shift[i] += k * x
                        scal = scal * mc**k
                if scal:
                    _accumulate(table, _buckets({tuple(shift): scal}, key, rest), buckets, lim, rest)
        res.coeffs = {e: c for e, c in table.items() if c}
        return res

    def exp(self) -> "MultiSeries":
        """exp(A) for A with zero constant term, one degree layer at a time.

        The Euler operator of a grading gives |e| E_e = sum_{a+b=e} |a| A_a
        E_b for E = exp(A).  |e| counts the variables that every term of A
        holds (all of them if none is), so every term of A has positive
        degree and the layers are few.  From A's int numerators over D,
        layer d is built as int numerators over one denominator, reduced by
        their gcd: D^d d! would grow without bound.  The truncation must
        bound every term of A, or exp(A) would not be finite.
        """
        zero_key = (0,) * len(self.vars)
        if zero_key in self.coeffs:
            raise ValueError("exp requires zero constant term")
        if self.caps is None and any(not any(e[i] for i in self.tgroup) for e in self.coeffs):
            raise ValueError("exp of a term that no bound truncates")
        key, lim, rest = _layout(self.caps, self.total, self.tgroup)
        num, den = _numerators(self.coeffs)
        den = den or 1
        n = len(self.vars)
        grade = [i for i in range(n) if all(e[i] for e in num)] or range(n)
        arg = {}  # degree -> buckets of A's numerators of that degree
        for e, c in num.items():
            arg.setdefault(sum(e[i] for i in grade), {})[e] = c
        arg = {k: _buckets(t, key, rest) for k, t in arg.items()}
        # a kept term's degree: at most the graded caps' sum, or the total if
        # that counts every graded variable, or else that of total factors of A
        if self.caps is not None:
            dmax = sum(self.caps[i] for i in grade)
        else:
            dmax = self.total * (1 if set(grade) <= set(self.tgroup) else max(arg, default=0))
        layers = [(_buckets({zero_key: 1}, key, rest), 1)]  # (buckets, denominator)
        out = {zero_key: 1}
        for d in range(1, dmax + 1):
            below = [(k, buckets, *layers[d - k]) for k, buckets in arg.items()
                     if k <= d and layers[d - k][0]]
            lden = lcm(*(d * den * lden_b for *_, lden_b in below))
            table = {}
            for k, buckets, layer, lden_b in below:
                w = k * (lden // (d * den * lden_b))
                weighted = [(ta, [(e, w * c) for e, c in items]) for ta, items in buckets]
                _accumulate(table, weighted, layer, lim, rest)
            table = {e: c for e, c in table.items() if c}
            if (g := gcd(lden, *table.values())) > 1:
                lden //= g
                table = {e: c // g for e, c in table.items()}
            layers.append((_buckets(table, key, rest), lden))
            scale = Fraction(1, lden)
            out.update((e, c * scale) for e, c in table.items())
        res = MultiSeries(self.vars, None, self.caps, self.total, self.tgroup)
        res.coeffs = out
        return res

    def reversion(self) -> "MultiSeries":
        """Compositional inverse in the first variable; any others are parameters.

        Lagrange inversion: for f = x*u with u's constant term a unit,
        [x^n] f^-1 = (1/n) [x^(n-1)] u^-n.  u^-1 comes from Newton steps
        r -> r + r*(1 - u*r), each of which squares the error 1 - u*r, and
        the n-th coefficient is read off the n-th power of r.  An integer
        series with linear coefficient +-1 stays integral throughout; the
        division by n is then exact, and checked.
        """
        unit = (1,) + (0,) * (len(self.vars) - 1)
        c1 = self.coeffs.get(unit)
        if c1 is None:
            raise ValueError("reversion requires an invertible linear coefficient")
        if any(e[0] == 0 for e in self.coeffs):
            raise ValueError("reversion requires zero constant term")
        bounds = []
        caps, total = self.caps, self.total
        if caps is not None:
            bounds.append(caps[0])
            caps = (caps[0] - 1,) + caps[1:]
        if total is not None and 0 in self.tgroup:
            bounds.append(total)
            total -= 1
        if not bounds:
            raise ValueError(f"reversion needs a bound on {self.vars[0]!r}")
        # u = f / x, known one degree less far in x
        u = MultiSeries(self.vars, None, caps, total, self.tgroup)
        u.coeffs = {(e[0] - 1,) + e[1:]: c for e, c in self.coeffs.items()}
        zero_key = (0,) * len(self.vars)
        one = u._like({zero_key: 1})
        # the units of Z stay integers; anything else inverts exactly
        inv = c1 if type(c1) is int and c1 in (1, -1) else Fraction(1) / c1
        r = u._like({zero_key: inv})
        while True:
            err = one - u * r
            if err.is_zero():
                break
            r = r + r * err
        n = min(bounds)
        table = {}
        power = r
        for k in range(1, n + 1):
            for e, c in power.coeffs.items():
                if e[0] == k - 1:
                    table[(k,) + e[1:]] = _exact_div(c, k)
            if k < n:
                power = power * r
        return self._like(table)

    def slices(self, name: str = "q") -> dict:
        """{exponents of the other variables: their series in name, cut at its cap}."""
        i, rows = self.vars.index(name), {}
        for e, c in self.coeffs.items():  # nonzero and within the cap: only ints convert
            rows.setdefault(e[:i] + e[i + 1 :], {})[e[i]] = Fraction(c) if type(c) is int else c
        for k, row in rows.items():
            rows[k] = TruncatedSeries(name, self.caps[i])
            rows[k].coeffs = row
        return rows

    def as_univariate(self) -> "TruncatedSeries":
        if len(self.vars) != 1:
            raise ValueError("not a one-variable series")
        n = self.caps[0] if self.caps is not None else self.total
        return TruncatedSeries(self.vars[0], n, {e[0]: c for e, c in self.coeffs.items()})

    # ---- comparisons / display ----

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ({(0,) * len(self.vars): other} if other else {})
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return self.vars == other.vars and self.coeffs == other.coeffs

    def __repr__(self):
        bounds = []
        if self.caps is not None:
            bounds.append(f"caps={self.caps}")
        if self.total is not None:
            bounds.append(f"total={self.total}")
        return f"MultiSeries({self.vars!r}, {len(self.coeffs)} terms, {', '.join(bounds)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in sorted(self.coeffs.items(), key=lambda t: (sum(t[0]), t[0])):
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.vars, e) if k
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)


# ------------------------------------------------------------------ exact
# linear algebra over the rationals, used by the modular-fit solvers,
# kernel computations, and rank checks.  A row or vector is a dict
# {column: nonzero int or Fraction}, with the zeros left out.

# ELLFORGE_TRACE=1 writes one stderr line per elimination: caller, shape,
# input nonzeros, rank and seconds.  Standard output is never touched.
_TRACE = os.environ.get("ELLFORGE_TRACE") == "1"


def _subtract(row, j, piv):
    """row <- a row - b piv for a = piv[j] and b = row[j], dropping the
    entries that cancel, column j among them; the row then loses its
    content, so that it stays primitive."""
    a, b = piv[j], -row[j]
    if a != 1:
        for k in row:
            row[k] *= a
    for k, x in piv.items():
        if v := row.get(k, 0) + b * x:
            row[k] = v
        else:
            del row[k]
    if (g := gcd(*row.values())) > 1:
        for k in row:
            row[k] //= g


def rref(rows, ncols: int):
    """Reduced row echelon form of dict rows; returns (matrix, pivots).

    Only the columns below ncols take pivots; entries at ncols and beyond
    (an augmented right-hand side) are carried along.  The returned matrix
    holds dict rows: the pivot rows in increasing pivot column, then the
    other rows, which vanish in the first ncols columns.  Each row is
    reduced by the pivot rows at its leading column, and a full
    back-substitution makes the result the unique RREF.

    The elimination is fraction-free, as in Bareiss (Math. Comp. 22, 1968):
    each rational row is cleared to ints, a row r is reduced by a pivot
    row p as a r - b p with a and b their entries at r's lead, and every
    row is kept primitive by its gcd.  Each pivot row is divided by its
    lead once, at the end, so the pivot rows are the canonical RREF's, in
    Fractions.  A row without a pivot is the one of the Fraction
    elimination times a nonzero rational: it is empty exactly when that
    one is, and solve_exact reads nothing else.  An entry that is neither
    an int nor a Fraction raises TypeError.
    """
    start = time.perf_counter()
    piv = {}  # pivot column -> row with zeros at earlier pivots
    rest = []
    for row in rows:
        row = dict(_numerators(row)[0])
        while (lead := min(row, default=ncols)) in piv:
            _subtract(row, lead, piv[lead])
        if lead >= ncols:
            rest.append(row)
        else:
            piv[lead] = row
    pivots = sorted(piv)
    for c in reversed(pivots):
        for k in [k for k in piv[c] if k != c and k in piv]:
            _subtract(piv[c], k, piv[k])
    mat = [{j: Fraction(x, piv[c][c]) for j, x in piv[c].items()} for c in pivots]
    if _TRACE:
        frame = sys._getframe(1)
        while frame.f_code in _ELIMINATION_CODES:
            frame = frame.f_back
        print(
            f"rref caller={frame.f_globals['__name__']}.{frame.f_code.co_name} "
            f"shape={len(rows)}x{ncols} nnz={sum(map(len, rows))} rank={len(pivots)} "
            f"seconds={time.perf_counter() - start:.6f}",
            file=sys.stderr,
        )
    return mat + rest, pivots


def matrix_rank(rows, ncols: int) -> int:
    if not rows:
        return 0
    _, pivots = rref(rows, ncols)
    return len(pivots)


def solve_exact(rows, rhs, ncols: int):
    """Exact solution of an (overdetermined) consistent system, else None.

    The solution is a dict vector with the free columns at zero.
    """
    mat, pivots = rref([{**row, ncols: b} if b else row for row, b in zip(rows, rhs)], ncols)
    # inconsistent if a row without pivot keeps an entry, which is right of the bar
    if any(mat[len(pivots):]):
        return None
    sol = {c: row[ncols] for c, row in zip(pivots, mat) if ncols in row}
    # verify (guards against free columns hiding inconsistency)
    for row, b in zip(rows, rhs):
        if sum(a * sol[j] for j, a in row.items() if j in sol) != b:
            return None
    return sol


def nullspace(rows, ncols: int):
    """Basis of the right kernel, one dict vector per free column of the RREF.

    The vector of free column f has 1 at f, 0 at the other free columns
    and minus the RREF's column f at the pivots: the canonical reduced
    basis, unique for the kernel and the column order.  Its columns come
    in increasing order, since the RREF vanishes left of each pivot.
    """
    mat, pivots = rref(rows, ncols)
    taken = set(pivots)
    basis = {f: {} for f in range(ncols) if f not in taken}
    for pcol, row in zip(pivots, mat):
        for j, x in row.items():
            if j in basis:
                basis[j][pcol] = -x
    for f, vec in basis.items():
        vec[f] = Fraction(1)
    return list(basis.values())


def row_basis(rows, ncols: int):
    """nullspace(nullspace(rows, ncols), ncols) in one elimination.

    That basis of the row space has unit vectors on the last independent
    columns: it is the RREF with the column order reversed, read backwards.
    """
    last = ncols - 1
    mat, pivots = rref([{last - j: x for j, x in row.items()} for row in rows], ncols)
    return [{last - j: row[j] for j in sorted(row, reverse=True)}
            for row in reversed(mat[:len(pivots)])]


# callers that the trace looks past, to name who asked for the elimination
_ELIMINATION_CODES = {f.__code__ for f in (matrix_rank, solve_exact, nullspace, row_basis)}
