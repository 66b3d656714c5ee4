"""Graded-commutative engine for equivariant de Rham computations.

One monomial algebra underlies everything here: even generators carry
degree 0 (coordinates) or 2 (curvature and polynomial variables), odd
generators carry degree 1 (one-forms and connection variables), and a
monomial is an even exponent tuple plus a strictly increasing tuple of
odd indices.  Koszul signs come only from odd-odd transpositions.

On top of the engine sit three concrete models, each with its own
generator world so they can never mix:

* differential forms on R^d with polynomial coefficients,
* the Weil algebra of a small Lie algebra (generators eps^a of degree 1
  and e^a of degree 2),
* the Cartan model for a linear action on R^d (polynomial variables u_a
  of degree 2 adjoined to the forms), and for circle actions the same
  model in the weight basis z, zb, dz, dzb, where the invariants are the
  charge-0 monomials.

All linear algebra is exact over the rationals; cohomology and
invariants are computed on finite blocks that the operators preserve.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .series import Gaussian, matrix_rank, nullspace, solve_exact


# ---------------------------------------------------------------------------
# graded worlds and elements


class GradedWorld:
    """Fixed generator list: evens (name, even degree), odds (name, odd degree)."""

    def __init__(self, evens, odds):
        self.evens = tuple((str(n), int(d)) for n, d in evens)
        self.odds = tuple((str(n), int(d)) for n, d in odds)
        for _, d in self.evens:
            if d % 2:
                raise ValueError("even generator with odd degree")
        for _, d in self.odds:
            if d % 2 == 0:
                raise ValueError("odd generator with even degree")
        self.index = {}
        for i, (n, _) in enumerate(self.evens):
            self.index[n] = ("even", i)
        for i, (n, _) in enumerate(self.odds):
            if n in self.index:
                raise ValueError(f"duplicate generator {n}")
            self.index[n] = ("odd", i)

    def gen(self, name):
        kind, i = self.index[name]
        ne = len(self.evens)
        if kind == "even":
            e = tuple(1 if j == i else 0 for j in range(ne))
            return GradedElement(self, {(e, ()): Fraction(1)})
        return GradedElement(self, {((0,) * ne, (i,)): Fraction(1)})

    def monomial_degree(self, key):
        e, o = key
        return sum(k * d for k, (_, d) in zip(e, self.evens)) + sum(
            self.odds[i][1] for i in o
        )


def _splice(rest, t, odd):
    """Sign and sorted tuple of rest[:t] + odd + rest[t:], or (0, None) on repeat.

    rest and odd are strictly increasing; odd index b passes the
    |bisect(rest, b) - t| entries of rest between its slot and its place.
    """
    if not odd:
        return 1, rest
    flips = 0
    for b in odd:
        pos = bisect_left(rest, b)
        if pos < len(rest) and rest[pos] == b:
            return 0, None
        flips += pos - t
    return (-1 if flips % 2 else 1), tuple(sorted(rest + odd))


def _element(world, coeffs):
    """GradedElement over a dict that already holds no zero coefficient."""
    el = GradedElement.__new__(GradedElement)
    el.world = world
    el.coeffs = coeffs
    return el


class GradedElement:
    __slots__ = ("world", "coeffs")

    def __init__(self, world, coeffs=None):
        self.world = world
        # drop zeros and coerce the rest as Fraction(0) + c does (int ->
        # Fraction), which the integral Derivation images rely on
        self.coeffs = {}
        if coeffs:
            self.coeffs = {
                k: c if type(c) is Fraction else Fraction(0) + c
                for k, c in coeffs.items()
                if c != 0
            }

    @classmethod
    def zero(cls, world):
        return cls(world, {})

    @classmethod
    def const(cls, world, c):
        return cls(world, {((0,) * len(world.evens), ()): Fraction(c)})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, GradedElement)
            and self.world is other.world
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.world), tuple(sorted(self.coeffs.items()))))

    def _check(self, other):
        if self.world is not other.world:
            raise ValueError("elements from different generator worlds")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedElement.const(self.world, other)
        self._check(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return GradedElement(self.world, out)

    __radd__ = __add__

    def __neg__(self):
        return GradedElement(self.world, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedElement.const(self.world, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GradedElement(
                self.world, {k: c * other for k, c in self.coeffs.items()}
            )
        self._check(other)
        out = {}
        for (e1, o1), c1 in self.coeffs.items():
            for (e2, o2), c2 in other.coeffs.items():
                sign, om = _splice(o2, 0, o1)
                if sign == 0:
                    continue
                key = (tuple(a + b for a, b in zip(e1, e2)), om)
                out[key] = out.get(key, Fraction(0)) + sign * c1 * c2
        return GradedElement(self.world, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def degree_part(self, n):
        return GradedElement(
            self.world,
            {k: c for k, c in self.coeffs.items() if self.world.monomial_degree(k) == n},
        )

    def max_degree(self):
        return max(
            (self.world.monomial_degree(k) for k in self.coeffs), default=0
        )


class Derivation:
    """Graded derivation given by generator images; parity 0 even, 1 odd."""

    def __init__(self, world, parity, images):
        self.world = world
        self.parity = parity % 2
        self.images = {}
        for name, img in images.items():
            if name not in world.index:
                raise ValueError(f"unknown generator {name}")
            if img is not None and not img.is_zero():
                self.images[name] = img
        # image terms (even exponents, odd indices, coefficient) per generator;
        # integral coefficients as ints, which multiply a Fraction in one step
        self._even = [self._terms(n) for n, _ in world.evens]
        self._odd = [self._terms(n) for n, _ in world.odds]

    def _terms(self, name):
        img = self.images.get(name)
        return [
            (e, o, int(c) if isinstance(c, Fraction) and c.denominator == 1 else c)
            for (e, o), c in img.coeffs.items()
        ] if img else None

    def __call__(self, x):
        if x.world is not self.world:
            raise ValueError("element from a different generator world")
        out = {}

        def accumulate(key, v):
            if key in out:
                v += out[key]
                if not v:
                    del out[key]
                    return
            out[key] = v

        for (et, ot), c in x.coeffs.items():
            for i, k in enumerate(et):
                terms = self._even[i] if k else None
                if not terms:
                    continue
                rest = et[:i] + (k - 1,) + et[i + 1:]
                for ei, oi, ci in terms:
                    sign, odd = _splice(ot, 0, oi)
                    if sign:
                        accumulate((tuple(map(add, rest, ei)), odd), c * (sign * k * ci))
            for t, g in enumerate(ot):
                terms = self._odd[g]
                if not terms:
                    continue
                rest = ot[:t] + ot[t + 1:]
                flip = -1 if (self.parity and t % 2) else 1
                for ei, oi, ci in terms:
                    sign, odd = _splice(rest, t, oi)
                    if sign:
                        accumulate((tuple(map(add, et, ei)), odd), c * (sign * flip * ci))
        return _element(self.world, out)


def substitute(x, target_world, images):
    """Ring map sending each generator to its image; unmapped generators must die."""
    out = GradedElement.const(target_world, 0)
    for (et, ot), c in x.coeffs.items():
        term = GradedElement.const(target_world, c)
        dead = False
        for i, k in enumerate(et):
            if k == 0:
                continue
            img = images.get(x.world.evens[i][0])
            if img is None or img.is_zero():
                dead = True
                break
            for _ in range(k):
                term = term * img
        if dead:
            continue
        for oi in ot:
            img = images.get(x.world.odds[oi][0])
            if img is None or img.is_zero():
                dead = True
                break
            term = term * img
        if not dead:
            out = out + term
    return out


# ---------------------------------------------------------------------------
# Lie data


@dataclass(frozen=True)
class LieAlgebra:
    label: str
    dim: int
    f: tuple  # f[a][b][c] = coefficient of T_a in [T_b, T_c]
    matrices: tuple = None  # defining rep on R^n, realified, rows of Fractions

    def __post_init__(self):
        n = self.dim
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.f[a][b][c] != -self.f[a][c][b]:
                        raise ValueError("structure constants not antisymmetric")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for e in range(n):
                        s = Fraction(0)
                        for d in range(n):
                            s += (
                                self.f[e][d][c] * self.f[d][a][b]
                                + self.f[e][d][a] * self.f[d][b][c]
                                + self.f[e][d][b] * self.f[d][c][a]
                            )
                        if s != 0:
                            raise ValueError("structure constants fail Jacobi")

    def bracket_coeffs(self, a, b):
        return [self.f[c][a][b] for c in range(self.dim)]


def _zeros(n):
    return tuple(tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n)) for _ in range(n))


def realify(mat):
    """Complex n x n (Gaussian entries) to real 2n x 2n acting on (re, im) pairs."""
    n = len(mat)
    out = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            z = mat[i][j]
            if isinstance(z, Gaussian):
                a, b = z.re, z.im
            else:
                a, b = Fraction(z), Fraction(0)
            out[2 * i][2 * j] = a
            out[2 * i][2 * j + 1] = -b
            out[2 * i + 1][2 * j] = b
            out[2 * i + 1][2 * j + 1] = a
    return tuple(tuple(r) for r in out)


def u1(weight: int = 1) -> LieAlgebra:
    m = ((Fraction(0), Fraction(-weight)), (Fraction(weight), Fraction(0)))
    return LieAlgebra("u1", 1, _zeros(1), (m,))


_EPS = {
    (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
    (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1,
}


def _su2_f():
    f = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for (a, b, c), s in _EPS.items():
        f[a][b][c] = Fraction(s)
    return tuple(tuple(tuple(r) for r in m) for m in f)


def _su2_matrices():
    i2 = Fraction(1, 2)
    half_i = Gaussian(0, i2)
    t1 = ((0, -half_i), (-half_i, 0))
    t2 = ((0, Fraction(-1, 2)), (i2, 0))
    t3 = ((-half_i, 0), (0, half_i))
    return tuple(realify(m) for m in (t1, t2, t3))


def su2() -> LieAlgebra:
    """su(2) with T_k = -i sigma_k / 2, so [T_a, T_b] = eps_abc T_c."""
    return LieAlgebra("su2", 3, _su2_f(), _su2_matrices())


def u2() -> LieAlgebra:
    """u(2) = central i/2 plus su(2); the center commutes with everything."""
    f = [[[Fraction(0)] * 4 for _ in range(4)] for _ in range(4)]
    for (a, b, c), s in _EPS.items():
        f[a + 1][b + 1][c + 1] = Fraction(s)
    half_i = Gaussian(0, Fraction(1, 2))
    t0 = realify(((half_i, 0), (0, half_i)))
    mats = (t0,) + _su2_matrices()
    return LieAlgebra("u2", 4, tuple(tuple(tuple(r) for r in m) for m in f), mats)


def circle_rep(weights):
    """Single rotation generator on C^k with the given integer weights, realified."""
    k = len(weights)
    m = [[Fraction(0)] * (2 * k) for _ in range(2 * k)]
    for j, w in enumerate(weights):
        m[2 * j][2 * j + 1] = Fraction(-w)
        m[2 * j + 1][2 * j] = Fraction(w)
    return (tuple(tuple(r) for r in m),)


# ---------------------------------------------------------------------------
# Weil model


def weil_world(lie: LieAlgebra) -> GradedWorld:
    evens = [(f"e{a}", 2) for a in range(lie.dim)]
    odds = [(f"ep{a}", 1) for a in range(lie.dim)]
    return GradedWorld(evens, odds)


def weil_d(lie: LieAlgebra, world: GradedWorld) -> Derivation:
    """d eps^a = e^a - (1/2) f^a_bc eps^b eps^c,  d e^a = f^a_bc e^b eps^c.

    The sign on the curvature image is forced by d^2 = 0 together with
    the Jacobi identity; the opposite sign fails already on su(2).
    """
    images = {}
    for a in range(lie.dim):
        img = world.gen(f"e{a}")
        for b in range(lie.dim):
            for c in range(lie.dim):
                coef = lie.f[a][b][c]
                if coef:
                    img = img - world.gen(f"ep{b}") * world.gen(f"ep{c}") * Fraction(coef, 2)
        images[f"ep{a}"] = img
        de = GradedElement.zero(world)
        for b in range(lie.dim):
            for c in range(lie.dim):
                coef = lie.f[a][b][c]
                if coef:
                    de = de + world.gen(f"e{b}") * world.gen(f"ep{c}") * coef
        images[f"e{a}"] = de
    return Derivation(world, 1, images)


def weil_contraction(lie: LieAlgebra, world: GradedWorld, vector) -> Derivation:
    """iota_X: eps^a -> X^a, e^a -> 0."""
    images = {
        f"ep{a}": GradedElement.const(world, vector[a])
        for a in range(lie.dim)
        if vector[a]
    }
    return Derivation(world, 1, images)


def lie_operator(d: Derivation, iota: Derivation):
    """Cartan homotopy formula: L = d iota + iota d."""

    def op(x):
        return d(iota(x)) + iota(d(x))

    return op


def _basis_vector(lie, a):
    return [Fraction(1 if b == a else 0) for b in range(lie.dim)]


def weil_block(lie: LieAlgebra, world: GradedWorld, degree: int):
    """Monomial keys of the given total degree: 2|alpha| + |S| = degree."""
    n = lie.dim
    keys = []
    for size in range(min(n, degree) + 1):
        rem = degree - size
        if rem % 2:
            continue
        for subset in itertools.combinations(range(n), size):
            for alpha in _compositions(rem // 2, n):
                keys.append((alpha, subset))
    return keys


def _compositions(total, slots):
    if slots == 0:
        return [()] if total == 0 else []
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            out.append((first,) + rest)
    return out


def _operator_rows(op, world, src_keys, dst_keys):
    """Matrix rows of a linear operator between monomial blocks."""
    dst_index = {k: i for i, k in enumerate(dst_keys)}
    rows = [[0] * len(src_keys) for _ in dst_keys]
    for j, key in enumerate(src_keys):
        for k, c in op(_element(world, {key: Fraction(1)})).coeffs.items():
            rows[dst_index[k]][j] = c
    return rows


def joint_nullspace(row_blocks, ncols):
    """Intersection of kernels: one elimination over the stacked rows.

    The vectors are the canonical reduced basis of the joint kernel (see
    series.nullspace), so they depend only on the kernel.
    """
    return nullspace([row for rows in row_blocks for row in rows], ncols)


@dataclass
class RelationsReport:
    label: str
    degree: int
    d_squared_zero: bool
    contraction_squares_zero: bool
    contractions_anticommute: bool
    d_commutes_with_lie: bool
    bracket_sign: int
    mixed_relation_ok: bool

    @property
    def ok(self):
        return (
            self.d_squared_zero
            and self.contraction_squares_zero
            and self.contractions_anticommute
            and self.d_commutes_with_lie
            and self.bracket_sign != 0
            and self.mixed_relation_ok
        )


def weil_relations_report(lie: LieAlgebra, degree: int = 8) -> RelationsReport:
    """Exercise d, iota, L on every monomial up to the degree bound.

    The commutator [L_a, L_b] is compared against both signs of
    L_[a,b]; the measured sign is reported rather than assumed.
    """
    world = weil_world(lie)
    d = weil_d(lie, world)
    iotas = [
        weil_contraction(lie, world, _basis_vector(lie, a)) for a in range(lie.dim)
    ]
    lies = [lie_operator(d, iotas[a]) for a in range(lie.dim)]

    monos = []
    for n in range(degree + 1):
        monos.extend(weil_block(lie, world, n))
    elems = [GradedElement(world, {k: Fraction(1)}) for k in monos]

    d2 = all(d(d(x)).is_zero() for x in elems)
    i2 = all(io(io(x)).is_zero() for io in iotas for x in elems)
    anti = all(
        (iotas[a](iotas[b](x)) + iotas[b](iotas[a](x))).is_zero()
        for a in range(lie.dim)
        for b in range(a + 1, lie.dim)
        for x in elems
    )
    dl = all(
        (d(lies[a](x)) - lies[a](d(x))).is_zero()
        for a in range(lie.dim)
        for x in elems
    )

    sign = 0
    bracket_ok = True
    probe = elems[: max(len(elems) // 3, 8)]
    for s in (1, -1):
        good = True
        for a in range(lie.dim):
            for b in range(lie.dim):
                coeffs = lie.bracket_coeffs(a, b)
                for x in probe:
                    lhs = lies[a](lies[b](x)) - lies[b](lies[a](x))
                    rhs = GradedElement.zero(world)
                    for c, fc in enumerate(coeffs):
                        if fc:
                            rhs = rhs + lies[c](x) * fc
                    if not (lhs - rhs * s).is_zero():
                        good = False
                        break
                if not good:
                    break
            if not good:
                break
        if good:
            sign = s
            break
    if sign == 0:
        bracket_ok = False

    mixed = True
    for a in range(lie.dim):
        for b in range(lie.dim):
            coeffs = lie.bracket_coeffs(a, b)
            iab = weil_contraction(lie, world, coeffs)
            for x in probe:
                lhs = lies[a](iotas[b](x)) - iotas[b](lies[a](x))
                if not (lhs - iab(x)).is_zero():
                    mixed = False
                    break

    return RelationsReport(lie.label, degree, d2, i2, anti, dl, sign if bracket_ok else 0, mixed)


def basic_subspace(lie: LieAlgebra, degree: int):
    """Exact kernel of every iota_a and L_a on the degree block of the Weil algebra."""
    world = weil_world(lie)
    keys = weil_block(lie, world, degree)
    if not keys:
        return []
    d = weil_d(lie, world)
    row_blocks = []
    for a in range(lie.dim):
        io = weil_contraction(lie, world, _basis_vector(lie, a))
        row_blocks.append(
            _operator_rows(io, world, keys, weil_block(lie, world, degree - 1))
        )
        la = lie_operator(d, io)
        row_blocks.append(_operator_rows(la, world, keys, keys))
    vectors = joint_nullspace(row_blocks, len(keys))
    basis = []
    for v in vectors:
        basis.append(
            GradedElement(world, {k: c for k, c in zip(keys, v) if c != 0})
        )
    return basis


# ---------------------------------------------------------------------------
# polynomial differential forms on R^d


def form_world(dim: int) -> GradedWorld:
    evens = [(f"x{i}", 0) for i in range(1, dim + 1)]
    odds = [(f"dx{i}", 1) for i in range(1, dim + 1)]
    return GradedWorld(evens, odds)


def form_d(world: GradedWorld) -> Derivation:
    dim = len(world.evens)
    return Derivation(
        world, 1, {f"x{i}": world.gen(f"dx{i}") for i in range(1, dim + 1)}
    )


def linear_field_contraction(world: GradedWorld, matrix) -> Derivation:
    """iota along the linear vector field x -> M x: sends dx_i to (M x)_i."""
    dim = len(matrix)
    images = {}
    for i in range(dim):
        img = GradedElement.zero(world)
        for j in range(dim):
            if matrix[i][j]:
                img = img + world.gen(f"x{j + 1}") * matrix[i][j]
        images[f"dx{i + 1}"] = img
    return Derivation(world, 1, images)


def linear_field_lie(world: GradedWorld, matrix) -> Derivation:
    dim = len(matrix)
    images = {}
    for i in range(dim):
        fx = GradedElement.zero(world)
        fdx = GradedElement.zero(world)
        for j in range(dim):
            if matrix[i][j]:
                fx = fx + world.gen(f"x{j + 1}") * matrix[i][j]
                fdx = fdx + world.gen(f"dx{j + 1}") * matrix[i][j]
        images[f"x{i + 1}"] = fx
        images[f"dx{i + 1}"] = fdx
    return Derivation(world, 0, images)


# ---------------------------------------------------------------------------
# Cartan model


def cartan_world(lie: LieAlgebra, ambient: int) -> GradedWorld:
    evens = [(f"u{a}", 2) for a in range(lie.dim)]
    evens += [(f"x{i}", 0) for i in range(1, ambient + 1)]
    odds = [(f"dx{i}", 1) for i in range(1, ambient + 1)]
    return GradedWorld(evens, odds)


def cartan_d(lie: LieAlgebra, world: GradedWorld, matrices=None) -> Derivation:
    """d - sum_a u_a iota_a along the fundamental fields of the linear action.

    The fundamental field of T_a is x -> -M_a x (the generator of the
    pullback action on functions); the opposite sign breaks the pairing
    between the coadjoint motion of the u-variables and the rotation of
    the forms, visibly so on the moment-map invariants of u(2).
    """
    mats = matrices if matrices is not None else lie.matrices
    ambient = len(mats[0])
    images = {}
    for i in range(1, ambient + 1):
        images[f"x{i}"] = world.gen(f"dx{i}")
    for i in range(ambient):
        img = GradedElement.zero(world)
        for a in range(lie.dim):
            for j in range(ambient):
                coef = mats[a][i][j]
                if coef:
                    img = img + world.gen(f"u{a}") * world.gen(f"x{j + 1}") * coef
        images[f"dx{i + 1}"] = img
    return Derivation(world, 1, images)


def cartan_lie(lie: LieAlgebra, world: GradedWorld, a: int, matrices=None) -> Derivation:
    """Action of T_a: rotates forms by the rep, u-variables by the coadjoint."""
    mats = matrices if matrices is not None else lie.matrices
    ambient = len(mats[0])
    images = {}
    for b in range(lie.dim):
        # coadjoint piece: L_a u_b = -f^b_ac u_c
        img = GradedElement.zero(world)
        for c in range(lie.dim):
            coef = lie.f[b][a][c]
            if coef:
                img = img - world.gen(f"u{c}") * coef
        images[f"u{b}"] = img
    for i in range(ambient):
        fx = GradedElement.zero(world)
        fdx = GradedElement.zero(world)
        for j in range(ambient):
            coef = mats[a][i][j]
            if coef:
                fx = fx - world.gen(f"x{j + 1}") * coef
                fdx = fdx - world.gen(f"dx{j + 1}") * coef
        images[f"x{i + 1}"] = fx
        images[f"dx{i + 1}"] = fdx
    return Derivation(world, 0, images)


def cartan_block(lie: LieAlgebra, world: GradedWorld, ambient, xdeg, fdeg, udeg):
    """Monomial keys with the given x-degree, form degree, and u-degree."""
    nu = lie.dim
    keys = []
    for ualpha in _compositions(udeg, nu):
        for xalpha in _compositions(xdeg, ambient):
            for subset in itertools.combinations(range(ambient), fdeg):
                keys.append((ualpha + xalpha, subset))
    return keys


def invariant_vectors(lie, world, ambient, keys, matrices=None):
    """Basis of the joint kernel of all L_a on the span of the given monomials."""
    if not keys:
        return []
    row_blocks = []
    for a in range(lie.dim):
        la = cartan_lie(lie, world, a, matrices)
        row_blocks.append(_operator_rows(la, world, keys, keys))
    return joint_nullspace(row_blocks, len(keys))


def _w_blocks(w, deg, ambient):
    """(x-degree, form degree, u-degree) of the blocks with W = w in total degree deg.

    W = x-degree + form degree is preserved by d - sum_a u_a iota_a: d
    trades an x for a dx, and each contraction trades a dx for an x and
    a u.
    """
    for fdeg in range(min(w, deg, ambient) + 1):
        if (deg - fdeg) % 2 == 0:
            yield w - fdeg, fdeg, (deg - fdeg) // 2


def _image_rank(d, world, elems, dst_keys):
    """Rank of d on the span of elems, read off in the monomials dst_keys."""
    if not elems or not dst_keys:
        return 0
    dst_index = {k: i for i, k in enumerate(dst_keys)}
    rows = []
    for elem in elems:
        row = [0] * len(dst_keys)
        for k, c in d(elem).coeffs.items():
            row[dst_index[k]] = c
        rows.append(row)
    return matrix_rank(rows, len(dst_keys))


def _truncated_cohomology(d, lie, world, ambient, degree_bound, wmax, basis):
    """Cohomology of a Cartan complex in degrees 0..degree_bound over W <= wmax.

    basis(xdeg, fdeg, udeg) gives a block's monomial keys and coefficient
    vectors spanning its cochains (the invariants, say).  Each W is a
    subcomplex; the ranks of d are read in monomial coordinates, so the
    degree above degree_bound needs its keys but no cochain basis.
    """
    dims = [0] * (degree_bound + 1)
    for w in range(wmax + 1):
        keys = []
        elems = []
        for deg in range(degree_bound + 1):
            keys.append([])
            elems.append([])
            for block in _w_blocks(w, deg, ambient):
                bkeys, vecs = basis(*block)
                keys[deg] += bkeys
                elems[deg] += [
                    GradedElement(world, {k: c for k, c in zip(bkeys, v) if c})
                    for v in vecs
                ]
        keys.append([
            k
            for block in _w_blocks(w, degree_bound + 1, ambient)
            for k in cartan_block(lie, world, ambient, *block)
        ])
        ranks = [
            _image_rank(d, world, elems[deg], keys[deg + 1])
            for deg in range(degree_bound + 1)
        ]
        for deg in range(degree_bound + 1):
            dims[deg] += len(elems[deg]) - ranks[deg] - (ranks[deg - 1] if deg else 0)
    return dims


# ---------------------------------------------------------------------------
# circle actions in the weight basis

# In z_j = x_j + i y_j, zb_j = x_j - i y_j, dz_j, dzb_j, with u rescaled to
# -i u, the circle Cartan differential has integer coefficients and the
# rotation multiplies a monomial by its charge sum_j w_j (n_j - m_j), where
# n_j counts z_j and dz_j and m_j counts zb_j and dzb_j.  So the invariant
# cochains are exactly the charge-0 monomials (Guillemin-Sternberg 1999).
# d preserves the multidegree (n, m); the invariant complex is the direct
# sum of the charge-0 blocks, each with at most 4^k monomials per degree,
# and W = sum(n + m) is the real x-degree plus form degree.


def circle_world(k: int) -> GradedWorld:
    """u, z_j, zb_j (evens), dz_j, dzb_j (odds) for j = 1..k."""
    evens = [("u", 2)] + [(f"{z}{j}", 0) for z in ("z", "zb") for j in range(1, k + 1)]
    odds = [(f"{z}{j}", 1) for z in ("dz", "dzb") for j in range(1, k + 1)]
    return GradedWorld(evens, odds)


def circle_d(weights, world: GradedWorld) -> Derivation:
    """z -> dz, dz -> w u z, zb -> dzb, dzb -> -w u zb."""
    u = world.gen("u")
    images = {}
    for j, w in enumerate(weights, 1):
        for z, sign in (("z", 1), ("zb", -1)):
            images[f"{z}{j}"] = world.gen(f"d{z}{j}")
            images[f"d{z}{j}"] = u * world.gen(f"{z}{j}") * (sign * w)
    return Derivation(world, 1, images)


@dataclass
class CircleBlock:
    """One charge-0 block: its monomials keys[deg] for deg 0..degree_bound + 1,
    and for deg <= degree_bound the matrix rows d[deg] of d from keys[deg] to
    keys[deg + 1] and the canonical basis cocycles[deg] of its kernel."""

    w: int
    n: tuple
    m: tuple
    keys: list
    d: list
    cocycles: list

    def rank(self, deg):
        """Rank of d from degree deg (0 below degree 0)."""
        return len(self.keys[deg]) - len(self.cocycles[deg]) if deg >= 0 else 0

    def cohomology(self, deg):
        return len(self.cocycles[deg]) - self.rank(deg - 1)


def circle_complex(weights, degree_bound: int, wmax: int):
    """World and charge-0 blocks with W <= wmax, by increasing W."""
    k = len(weights)
    world = circle_world(k)
    d = circle_d(weights, world)
    blocks = []
    for w in range(wmax + 1):
        for nm in _compositions(w, 2 * k):
            n, m = nm[:k], nm[k:]
            if sum(wt * (a - b) for wt, a, b in zip(weights, n, m)):
                continue
            forms = []
            for eps in itertools.product((0, 1), repeat=2 * k):
                e = tuple(map(int.__sub__, nm, eps))
                if min(e, default=0) >= 0:
                    forms.append((sum(eps), e, tuple(i for i, x in enumerate(eps) if x)))
            keys = [
                [(((deg - f) // 2,) + e, o) for f, e, o in forms
                 if f <= deg and (deg - f) % 2 == 0]
                for deg in range(degree_bound + 2)
            ]
            rows, cocycles = [], []
            for deg in range(degree_bound + 1):
                if deg > max(2 * k, 1):  # u times degree deg - 2: same keys and matrix
                    rows.append(rows[deg - 2])
                    cocycles.append(cocycles[deg - 2])
                    continue
                rows.append(_operator_rows(d, world, keys[deg], keys[deg + 1]))
                cocycles.append(nullspace(rows[deg], len(keys[deg])))
            blocks.append(CircleBlock(w, n, m, keys, rows, cocycles))
    return world, blocks


@dataclass
class CohomologyReport:
    weights: tuple
    degree_bound: int
    dims: list
    fixed_locus_positive: bool
    free_rank_one: bool


def cartan_cohomology(weights, degree_bound: int, wmax: int = None) -> CohomologyReport:
    """Circle-equivariant cohomology of C^k, weight by weight exact.

    Sums the cohomology of the charge-0 blocks of the weight-basis
    complex (see circle_complex) with W <= wmax; for nonzero weights
    everything above W = 0 is exact, which the report summarizes as
    freeness over the u-polynomials.
    """
    weights = tuple(int(w) for w in weights)
    if wmax is None:
        wmax = degree_bound
    blocks = circle_complex(weights, degree_bound, wmax)[1]
    dims = [sum(b.cohomology(deg) for b in blocks) for deg in range(degree_bound + 1)]
    expected = [1 if n % 2 == 0 else 0 for n in range(degree_bound + 1)]
    return CohomologyReport(
        weights,
        degree_bound,
        dims,
        any(w == 0 for w in weights),
        dims == expected,
    )


# ---------------------------------------------------------------------------
# torus reduction for U(2) on C^2


@dataclass
class ReductionReport:
    """U(2) against its diagonal torus on C^2, by total degree 0..degree_bound.

    group_dims and torus_dims count cochains: the u(2)-invariants and the
    swap-fixed torus invariants with x-degree <= poly_bound.  They differ
    in even degrees, and ok reports that comparison (with injectivity
    and the witness exclusion), so it is False.  group_cohomology and
    torus_cohomology are the cohomology of the two invariant Cartan
    complexes over W = x-degree + form degree <= poly_bound; they agree,
    which is the reduction theorem H_U(2)(C^2) = H_T(C^2)^W = Q[c1, c2].
    """

    degree_bound: int
    poly_bound: int
    group_dims: dict
    torus_dims: dict
    injective: bool
    witness_excluded: bool
    group_cohomology: dict
    torus_cohomology: dict

    @property
    def ok(self):
        return (
            self.group_dims == self.torus_dims
            and self.injective
            and self.witness_excluded
        )


def torus_reduction_check(degree_bound: int = 4, poly_bound: int = 2) -> ReductionReport:
    """Restrict U(2)-invariants on C^2 to the diagonal torus, Weyl-invariantly.

    Per block (x-degree <= poly_bound, form degree, u-degree) the
    restriction u_1 = u_2 = 0 maps the u(2)-invariants into the part of
    the torus invariants fixed by the coordinate swap; the report
    compares dimensions summed by total degree and checks injectivity.
    A non Weyl-invariant torus polynomial is checked to be outside the
    image.

    The two cochain tables genuinely differ in even degrees: already for
    quadratic coefficients on two-forms the group side is spanned by
    |z|^2 omega and the moment pairing sum_a mu_a omega_a (two
    invariants), while the swap-even torus side has |z1|^2 omega_1 +
    |z2|^2 omega_2, |z1|^2 omega_2 + |z2|^2 omega_1 and
    Re(z1 conj(z2) dz2 ^ dconj(z1)) (three).  So ok, which compares
    them, is False; only injectivity and the witness exclusion hold.

    The cohomology tables agree: both sides give Q[c1, c2], dimensions
    1, 0, 1, 0, 2 in degrees 0..4, which is the reduction theorem.  They
    are computed from the same invariant bases over the subcomplexes
    W = x-degree + form degree <= poly_bound.  The truncation loses
    nothing: the Euler field E commutes with the action and
    d_G iota_E + iota_E d_G = L_E = W, so every block with W > 0 is
    acyclic and the cohomology sits at W = 0.
    """
    lie = u2()
    ambient = 4
    gworld = cartan_world(lie, ambient)

    # the torus inside u(2): the central generator and T_3
    torus = LieAlgebra("t2", 2, _zeros(2), (lie.matrices[0], lie.matrices[3]))
    tworld = cartan_world(torus, ambient)
    tls = [cartan_lie(torus, tworld, a) for a in range(torus.dim)]

    # Weyl swap: exchanges the two complex coordinates and flips u1 (T_3)
    swap_images = {
        "u0": tworld.gen("u0"),
        "u1": -tworld.gen("u1"),
        "x1": tworld.gen("x3"), "x2": tworld.gen("x4"),
        "x3": tworld.gen("x1"), "x4": tworld.gen("x2"),
        "dx1": tworld.gen("dx3"), "dx2": tworld.gen("dx4"),
        "dx3": tworld.gen("dx1"), "dx4": tworld.gen("dx2"),
    }

    def restrict_key(key):
        e, o = key
        if e[1] != 0 or e[2] != 0:
            return None
        return ((e[0], e[3]) + e[4:], o)

    def restricted(gkeys, gvecs, tkeys):
        """Each group invariant restricted to the torus, as a row over tkeys."""
        tindex = {k: i for i, k in enumerate(tkeys)}
        rows = []
        for v in gvecs:
            row = [0] * len(tkeys)
            for k, c in zip(gkeys, v):
                rk = restrict_key(k)
                if c and rk is not None:
                    row[tindex[rk]] += c
            rows.append(row)
        return rows

    group_dims = {}
    torus_dims = {}
    gsolved = {}
    tsolved = {}
    injective = True

    for deg in range(degree_bound + 1):
        gd = 0
        td = 0
        for xdeg in range(poly_bound + 1):
            for fdeg in range(min(deg, ambient) + 1):
                if (deg - fdeg) % 2:
                    continue
                udeg = (deg - fdeg) // 2
                gkeys = cartan_block(lie, gworld, ambient, xdeg, fdeg, udeg)
                gvecs = invariant_vectors(lie, gworld, ambient, gkeys)
                gd += len(gvecs)

                tkeys = cartan_block(torus, tworld, ambient, xdeg, fdeg, udeg)
                row_blocks = [_operator_rows(la, tworld, tkeys, tkeys) for la in tls]
                row_blocks.append(_operator_rows(
                    lambda x: substitute(x, tworld, swap_images) - x,
                    tworld, tkeys, tkeys,
                ))
                tvecs = joint_nullspace(row_blocks, len(tkeys))
                td += len(tvecs)
                gsolved[xdeg, fdeg, udeg] = (gkeys, gvecs)
                tsolved[xdeg, fdeg, udeg] = (tkeys, tvecs)

                # injectivity of restriction on the invariants
                if gvecs:
                    rows = restricted(gkeys, gvecs, tkeys)
                    if matrix_rank(rows, len(tkeys)) != len(gvecs):
                        injective = False
        group_dims[deg] = gd
        torus_dims[deg] = td

    # every block with W <= poly_bound was solved above
    group_cohomology = dict(enumerate(_truncated_cohomology(
        cartan_d(lie, gworld), lie, gworld, ambient, degree_bound, poly_bound,
        lambda *block: gsolved[block],
    )))
    torus_cohomology = dict(enumerate(_truncated_cohomology(
        cartan_d(torus, tworld), torus, tworld, ambient, degree_bound, poly_bound,
        lambda *block: tsolved[block],
    )))

    # t3 restricted from nothing invariant: solve in the degree-2 u-block
    gkeys = cartan_block(lie, gworld, ambient, 0, 0, 1)
    gvecs = invariant_vectors(lie, gworld, ambient, gkeys)
    tkeys = cartan_block(torus, tworld, ambient, 0, 0, 1)
    cols = restricted(gkeys, gvecs, tkeys)
    t3_vec = [0] * len(tkeys)
    t3_vec[tkeys.index(((0, 1, 0, 0, 0, 0), ()))] = 1
    rows = [[col[i] for col in cols] for i in range(len(tkeys))]
    witness_excluded = solve_exact(rows, t3_vec) is None

    return ReductionReport(
        degree_bound,
        poly_bound,
        group_dims,
        torus_dims,
        injective,
        witness_excluded,
        group_cohomology,
        torus_cohomology,
    )


# ---------------------------------------------------------------------------
# Chern-Weil


def poly_partial(poly: dict, b: int, nvars: int) -> dict:
    out = {}
    for e, c in poly.items():
        if e[b]:
            key = tuple(x - 1 if i == b else x for i, x in enumerate(e))
            out[key] = out.get(key, Fraction(0)) + c * e[b]
    return {k: v for k, v in out.items() if v != 0}


def invariance_defects(lie: LieAlgebra, poly: dict):
    """Coadjoint derivative of the polynomial along each basis direction.

    Variables x_a pair with the curvature coordinates; invariance of P
    means f^c_ab x_c dP/dx_b vanishes for every a.
    """
    n = lie.dim
    defects = []
    for a in range(n):
        acc = {}
        for b in range(n):
            dp = poly_partial(poly, b, n)
            for c in range(n):
                coef = lie.f[b][a][c]
                if not coef:
                    continue
                for e, v in dp.items():
                    key = tuple(x + 1 if i == c else x for i, x in enumerate(e))
                    acc[key] = acc.get(key, Fraction(0)) - coef * v
        defects.append({k: v for k, v in acc.items() if v != 0})
    return defects


def is_invariant_poly(lie: LieAlgebra, poly: dict) -> bool:
    return all(not d for d in invariance_defects(lie, poly))


def curvature(lie: LieAlgebra, conn):
    """F^a = dA^a + (1/2) f^a_bc A^b A^c for a list of one-form components."""
    world = conn[0].world
    d = form_d(world)
    out = []
    for a in range(lie.dim):
        f = d(conn[a])
        for b in range(lie.dim):
            for c in range(lie.dim):
                coef = lie.f[a][b][c]
                if coef:
                    f = f + conn[b] * conn[c] * Fraction(coef, 2)
        out.append(f)
    return out


def chern_weil(lie: LieAlgebra, poly: dict, conn):
    """Evaluate an invariant polynomial on minus the curvature of the connection."""
    if not is_invariant_poly(lie, poly):
        raise ValueError("polynomial is not invariant under the coadjoint action")
    world = conn[0].world
    curv = curvature(lie, conn)
    neg = [-f for f in curv]
    out = GradedElement.zero(world)
    for e, c in poly.items():
        term = GradedElement.const(world, c)
        for a, k in enumerate(e):
            for _ in range(k):
                term = term * neg[a]
        out = out + term
    return out


def gauge_defect(lie: LieAlgebra, poly: dict, conn, direction):
    """First-order change of P(-F) under an infinitesimal constant gauge rotation.

    direction is a coefficient vector X = X^a T_a; the output is
    sum_a dP/dx_a(-F) [X, F]^a, identically zero for invariant P.
    """
    world = conn[0].world
    curv = curvature(lie, conn)
    neg = [-f for f in curv]
    n = lie.dim
    out = GradedElement.zero(world)
    for a in range(n):
        dp = poly_partial(poly, a, n)
        if not dp:
            continue
        dp_at = GradedElement.zero(world)
        for e, c in dp.items():
            term = GradedElement.const(world, c)
            for b, k in enumerate(e):
                for _ in range(k):
                    term = term * neg[b]
            dp_at = dp_at + term
        bracket = GradedElement.zero(world)
        for b in range(n):
            for c in range(n):
                coef = lie.f[a][b][c]
                if coef:
                    bracket = bracket + curv[c] * (coef * direction[b])
        out = out + dp_at * bracket
    return out
