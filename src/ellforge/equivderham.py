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
* the Cartan model for linear actions on C^k in the weight basis z, zb,
  dz, dzb, with polynomial variables u_a of degree 2 each standing for
  an integer matrix in gl(k).  There one world and one differential
  serve both the circle, whose invariants are the charge-0 monomials,
  and U(2) on C^2, whose invariants are the charge-0 cochains killed by
  L_12 and L_21.

A ring map given by generator images (substitute) carries elements
between worlds, such as the change to real coordinates that the sheaf
model makes at its edge, and evaluates a Chern-Weil polynomial on the
curvature.

Coefficients are ints or Fractions, kept as given: integral inputs stay
ints through products, derivations and substitutions.  Every operator
built here is integral: the Weil differential and the curvature write
(1/2) f^a_bc eps^b eps^c as the sum over b < c, and the Lie derivative
L = d iota + iota d is one even derivation given by its generator images.
Exact linear algebra over the rationals makes the only Fractions;
cohomology and invariants are computed on finite blocks that the
operators preserve.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .series import matrix_rank, nullspace


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
            return GradedElement(self, {(e, ()): 1})
        return GradedElement(self, {((0,) * ne, (i,)): 1})

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


def _product(a, b):
    """Coefficient dict of the product of two coefficient dicts, zeros dropped."""
    out = {}
    for (e1, o1), c1 in a.items():
        for (e2, o2), c2 in b.items():
            sign, om = _splice(o2, 0, o1)
            if sign:
                key = (tuple(map(add, e1, e2)), om)
                c = c1 * c2 if sign > 0 else -(c1 * c2)
                out[key] = out[key] + c if key in out else c
    return {k: c for k, c in out.items() if c != 0}


class GradedElement:
    __slots__ = ("world", "coeffs")

    def __init__(self, world, coeffs=None):
        """Keep the int and Fraction coefficients as given, drop zeros."""
        self.world = world
        self.coeffs = {}
        if coeffs:
            for c in coeffs.values():
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"unsupported coefficient {c!r}: not a rational")
            self.coeffs = {k: c for k, c in coeffs.items() if c}

    @classmethod
    def zero(cls, world):
        return cls(world, {})

    @classmethod
    def const(cls, world, c):
        return cls(world, {((0,) * len(world.evens), ()): c})

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
            out[k] = out.get(k, 0) + c
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
        return GradedElement(self.world, _product(self.coeffs, other.coeffs))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented


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
        # image terms (even exponents, odd indices, coefficient) per generator
        self._even = [self._terms(n) for n, _ in world.evens]
        self._odd = [self._terms(n) for n, _ in world.odds]

    def _terms(self, name):
        img = self.images.get(name)
        return [(e, o, c) for (e, o), c in img.coeffs.items()] if img else None

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
    """Ring map sending each generator to its image; unmapped generators must die.

    Each generator power and each even and odd part of a monomial of x is
    expanded once per call, as a coefficient dict, and every term of the
    image is added into one output dict.
    """
    ne = len(target_world.evens)
    gens = [images.get(n) for n, _ in x.world.evens + x.world.odds]
    gens = [None if g is None or g.is_zero() else g.coeffs for g in gens]
    parts = {}

    def part(factors):
        """Product of the images of the generator indices, or None if one dies."""
        if factors not in parts:
            if not factors:
                parts[factors] = {((0,) * ne, ()): 1}
            elif gens[factors[-1]] is None:
                parts[factors] = None
            else:
                head = part(factors[:-1])
                parts[factors] = head and _product(head, gens[factors[-1]])
        return parts[factors]

    out = {}
    for (et, ot), c in x.coeffs.items():
        even = part(tuple(i for i, k in enumerate(et) for _ in range(k)))
        odd = even and part(tuple(len(et) + o for o in ot))
        if odd:
            for key, v in _product(even, odd).items():
                out[key] = out.get(key, 0) + c * v
    return GradedElement(target_world, out)


# ---------------------------------------------------------------------------
# Lie data


@dataclass(frozen=True)
class LieAlgebra:
    label: str
    dim: int
    f: tuple  # f[a][b][c] = coefficient of T_a in [T_b, T_c]

    def __post_init__(self):
        # nested tuples, so that the algebra is hashable (see _poly_world)
        object.__setattr__(self, "f", tuple(tuple(map(tuple, plane)) for plane in self.f))
        f, n = self.f, range(self.dim)
        if any(f[a][b][c] != -f[a][c][b] for a in n for b in n for c in n):
            raise ValueError("structure constants not antisymmetric")
        for a, b, c, e in itertools.product(n, repeat=4):
            if sum(f[e][d][c] * f[d][a][b] + f[e][d][a] * f[d][b][c] + f[e][d][b] * f[d][c][a]
                   for d in n):
                raise ValueError("structure constants fail Jacobi")

    def bracket_coeffs(self, a, b):
        return [self.f[c][a][b] for c in range(self.dim)]


def _eps_f(dim):
    """Integer structure constants: eps_abc on the last three of dim indices
    when dim >= 3 (they span su(2); the others are central), and zero for
    dim < 3 (abelian)."""
    low = dim - 3 if dim >= 3 else dim

    def eps(a, b, c):
        # (a - b)(b - c)(c - a)/2 is the Levi-Civita symbol on 0, 1, 2
        a, b, c = a - low, b - low, c - low
        return (a - b) * (b - c) * (c - a) // 2 if min(a, b, c) >= 0 else 0

    idx = range(dim)
    return tuple(tuple(tuple(eps(a, b, c) for c in idx) for b in idx) for a in idx)


def u1() -> LieAlgebra:
    return LieAlgebra("u1", 1, _eps_f(1))


def su2() -> LieAlgebra:
    """su(2) with T_k = -i sigma_k / 2, so [T_a, T_b] = eps_abc T_c."""
    return LieAlgebra("su2", 3, _eps_f(3))


def u2() -> LieAlgebra:
    """u(2) = central i/2 plus su(2); the center commutes with everything."""
    return LieAlgebra("u2", 4, _eps_f(4))


# ---------------------------------------------------------------------------
# Weil model


def weil_world(lie: LieAlgebra) -> GradedWorld:
    evens = [(f"e{a}", 2) for a in range(lie.dim)]
    odds = [(f"ep{a}", 1) for a in range(lie.dim)]
    return GradedWorld(evens, odds)


def weil_d(lie: LieAlgebra, world: GradedWorld) -> Derivation:
    """d eps^a = e^a - (1/2) f^a_bc eps^b eps^c,  d e^a = f^a_bc e^b eps^c.

    The eps are odd and f^a is antisymmetric in b, c, so the half sum is
    the sum over b < c and the images are integral.  The sign on the
    curvature image is forced by d^2 = 0 together with the Jacobi
    identity; the opposite sign fails already on su(2).
    """
    images = {}
    for a in range(lie.dim):
        img = world.gen(f"e{a}")
        for b, c in itertools.combinations(range(lie.dim), 2):
            coef = lie.f[a][b][c]
            if coef:
                img = img - world.gen(f"ep{b}") * world.gen(f"ep{c}") * coef
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


def lie_operator(d: Derivation, iota: Derivation) -> Derivation:
    """Cartan homotopy formula L = d iota + iota d, as one even derivation.

    The graded commutator of the odd derivations d and iota is an even
    derivation, so its images d(iota g) + iota(d g) of the generators g
    determine it.
    """
    world = d.world
    images = {}
    for name in world.index:
        g = world.gen(name)
        images[name] = d(iota(g)) + iota(d(g))
    return Derivation(world, 0, images)


def _basis_vector(lie, a):
    return [1 if b == a else 0 for b in range(lie.dim)]


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
    """The slots-tuples of naturals that sum to total, in lexicographic order.

    Stars and bars: the slots - 1 bars sit among total + slots - 1 places,
    and their combinations, in lexicographic order, give the parts in it.
    """
    if slots == 0:
        return [()] if total == 0 else []
    n = total + slots - 1
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (n,)))
            for bars in itertools.combinations(range(n), slots - 1)]


def _operator_rows(op, world, src_keys, dst_keys):
    """Dict rows {source column: c} of a linear operator between monomial blocks."""
    rows = {k: {} for k in dst_keys}
    for j, key in enumerate(src_keys):
        for k, c in op(_element(world, {key: 1})).coeffs.items():
            rows[k][j] = c
    return list(rows.values())


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
    """Check the Weil relations on the generators e^a, eps^a.

    Each relation (d^2, [iota_a, iota_b], [d, L_a], [L_a, L_b] - s L_[a,b]
    and [L_a, iota_b] - iota_[a,b]) is a graded commutator of graded
    derivations, hence itself a graded derivation, so it vanishes on W(g)
    exactly when it vanishes on the 2 dim g generators (Guillemin-Sternberg
    1999, ch. 3).  The verdict therefore holds in every degree: degree is
    only recorded in the report and does not change it.  The sign s is
    measured, +1 first, then -1, and reported as 0 if neither holds.
    [L_a, L_b] = s L_[a,b] is checked for a < b only: it reads 0 = 0 for
    a = b, and swapping a and b negates both sides.
    """
    world = weil_world(lie)
    d = weil_d(lie, world)
    n = lie.dim
    iotas = [weil_contraction(lie, world, _basis_vector(lie, a)) for a in range(n)]
    lies = [lie_operator(d, io) for io in iotas]
    gens = [world.gen(name) for name, _ in world.evens + world.odds]
    pairs = list(itertools.product(range(n), repeat=2))
    iota_br = {ab: weil_contraction(lie, world, lie.bracket_coeffs(*ab)) for ab in pairs}
    below = list(itertools.combinations(range(n), 2))
    lie_br = {ab: lie_operator(d, iota_br[ab]) for ab in below}

    d2 = all(d(d(x)).is_zero() for x in gens)
    i2 = all(io(io(x)).is_zero() for io in iotas for x in gens)
    anti = all(
        (iotas[a](iotas[b](x)) + iotas[b](iotas[a](x))).is_zero()
        for a, b in below
        for x in gens
    )
    dl = all((d(la(x)) - la(d(x))).is_zero() for la in lies for x in gens)

    def bracket_holds(s):
        return all(
            (lies[a](lies[b](x)) - lies[b](lies[a](x)) - lie_br[a, b](x) * s).is_zero()
            for a, b in below
            for x in gens
        )

    sign = next((s for s in (1, -1) if bracket_holds(s)), 0)
    mixed = all(
        (lies[a](iotas[b](x)) - iotas[b](lies[a](x)) - iota_br[a, b](x)).is_zero()
        for a, b in pairs
        for x in gens
    )
    return RelationsReport(lie.label, degree, d2, i2, anti, dl, sign, mixed)


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
    return [_element(world, {keys[j]: c for j, c in v.items()})
            for v in joint_nullspace(row_blocks, len(keys))]


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


# ---------------------------------------------------------------------------
# linear actions on C^k in the weight basis

# In z_j = x_j + i y_j, zb_j = x_j - i y_j, dz_j, dzb_j, each u-variable
# u_a stands for an integer matrix A_a in gl(k), and with U = sum_a u_a A_a
# (u rescaled by -i) the Cartan differential is z -> dz, dz -> U z,
# zb -> dzb, dzb -> -U^T zb, with integer coefficients.  The Lie derivative
# along a diagonal A_a multiplies each monomial by its charge, so the
# invariant cochains of a torus are exactly the charge-0 monomials
# (Guillemin-Sternberg 1999).
#
# For a circle (one u, A = diag(w)) the charge is sum_j w_j (n_j - m_j),
# where n_j counts z_j and dz_j and m_j counts zb_j and dzb_j; d preserves
# the multidegree (n, m), so the invariant complex is the direct sum of the
# charge-0 blocks, each with at most 4^k monomials per degree, and
# W = sum(n + m) is the real x-degree plus form degree.


def circle_world(k: int, uvars=("u",)) -> GradedWorld:
    """The u-variables, z_j, zb_j (evens), dz_j, dzb_j (odds) for j = 1..k."""
    evens = [(u, 2) for u in uvars]
    evens += [(f"{z}{j}", 0) for z in ("z", "zb") for j in range(1, k + 1)]
    odds = [(f"{z}{j}", 1) for z in ("dz", "dzb") for j in range(1, k + 1)]
    return GradedWorld(evens, odds)


def weight_action(weights):
    """The circle on C^k with the given weights: u with A = diag(w)."""
    k = len(weights)
    return {"u": tuple(tuple(w * (i == j) for j in range(k)) for i, w in enumerate(weights))}


def circle_d(action, world: GradedWorld) -> Derivation:
    """z -> dz, dz -> U z, zb -> dzb, dzb -> -U^T zb with U = sum_a u_a A_a.

    action maps each u-variable of the world to its integer k x k matrix
    A_a in gl(k); weight_action gives a circle's.
    """
    k = len(next(iter(action.values())))

    def key(u, z):
        """The monomial u z."""
        e = [0] * len(world.evens)
        e[world.index[u][1]] = e[world.index[z][1]] = 1
        return tuple(e), ()

    images = {}
    for i in range(k):
        images[f"z{i + 1}"] = world.gen(f"dz{i + 1}")
        images[f"zb{i + 1}"] = world.gen(f"dzb{i + 1}")
        images[f"dz{i + 1}"] = GradedElement(world, {
            key(u, f"z{j + 1}"): a[i][j] for u, a in action.items() for j in range(k)
        })
        images[f"dzb{i + 1}"] = GradedElement(world, {
            key(u, f"zb{j + 1}"): -a[j][i] for u, a in action.items() for j in range(k)
        })
    return Derivation(world, 1, images)


@dataclass
class CircleBlock:
    """One charge-0 block: its monomials keys[deg] for deg 0..degree_bound + 1,
    and for deg <= degree_bound the matrix rows d[deg] of d from keys[deg] to
    keys[deg + 1] and the canonical basis cocycles[deg] of its kernel.  Both
    are sparse, as in series.rref: a row of d[deg] is a dict {index into
    keys[deg]: c}, one row per key of keys[deg + 1], and a cocycle is a
    dict vector {index into keys[deg]: c}."""

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


def _forms(nm):
    """Every way to take form factors out of the weight vector nm, as
    (form degree, exponents left to z and zb, odd indices).

    A factor dz_i or dzb_i takes one unit of weight from coordinate i, so
    only the coordinates in the support of nm can give one.  The choices
    run through the 0/1 vectors on that support in lexicographic order,
    which is their order among the 0/1 vectors on all 2k coordinates.
    """
    support = [i for i, x in enumerate(nm) if x]
    forms = []
    for bits in itertools.product((0, 1), repeat=len(support)):
        odd = tuple(i for i, b in zip(support, bits) if b)
        e = list(nm)
        for i in odd:
            e[i] -= 1
        forms.append((len(odd), tuple(e), odd))
    return forms


_CIRCLE_OPS = {}


def _circle_ops(weights):
    """The weight-basis world and circle_d of a weight tuple, built on first
    use and shared by circle_complex and the sheaf layer's cocycle checks."""
    if weights not in _CIRCLE_OPS:
        world = circle_world(len(weights))
        _CIRCLE_OPS[weights] = world, circle_d(weight_action(weights), world)
    return _CIRCLE_OPS[weights]


def circle_complex(weights, degree_bound: int, wmax: int):
    """World and charge-0 blocks with W <= wmax, by increasing W."""
    k = len(weights)
    world, d = _circle_ops(tuple(weights))
    blocks = []
    for w in range(wmax + 1):
        for nm in _compositions(w, 2 * k):
            n, m = nm[:k], nm[k:]
            if sum(wt * (a - b) for wt, a, b in zip(weights, n, m)):
                continue
            forms = _forms(nm)
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

# U(2) acts in the weight-basis world with u_kl paired to E_kl, so U is the
# matrix (u_kl).  Under E_11 and E_22, u_kl carries charge e_k - e_l, z_j and
# dz_j carry e_j, zb_j and dzb_j carry -e_j.  The key layout is (u11, u12,
# u21, u22, z1, z2, zb1, zb2) and (dz1, dz2, dzb1, dzb2).
_GL2 = {
    "u11": ((1, 0), (0, 0)),
    "u12": ((0, 1), (0, 0)),
    "u21": ((0, 0), (1, 0)),
    "u22": ((0, 0), (0, 1)),
}
def _gl2_keys(xdeg, fdeg, udeg):
    """Monomials with the given x-, form and u-degree, by (E_11, E_22) charge.

    One enumeration, over the u-exponents, then the x-exponents, then the
    odd subsets, appends each key to the list of its charge, so each list
    keeps that order.  The charge adds up per factor: (u12 - u21)(e1 - e2)
    from U, (z_j - zb_j) e_j from the x-exponents, and e_j for dz_j and
    -e_j for dzb_j (odd indices j - 1 and j + 1).
    """
    odd = [(o, (0 in o) - (2 in o), (1 in o) - (3 in o))
           for o in itertools.combinations(range(4), fdeg)]
    blocks = {}
    for ue in _compositions(udeg, 4):
        for xe in _compositions(xdeg, 4):
            c1, c2 = ue[1] - ue[2] + xe[0] - xe[2], ue[2] - ue[1] + xe[1] - xe[3]
            for o, o1, o2 in odd:
                blocks.setdefault((c1 + o1, c2 + o2), []).append((ue + xe, o))
    return blocks


def _gl2_lie(world, i, j):
    """L_ij: z_i -> z_j, zb_j -> -zb_i, forms alike, U -> [E_ij, U]."""
    g = world.gen
    images = {f"z{i}": g(f"z{j}"), f"dz{i}": g(f"dz{j}"),
              f"zb{j}": -g(f"zb{i}"), f"dzb{j}": -g(f"dzb{i}")}
    for k, l in itertools.product((1, 2), repeat=2):
        # [E_ij, U]_kl = delta_ki u_jl - delta_jl u_ki
        img = GradedElement.zero(world)
        if k == i:
            img = img + g(f"u{j}{l}")
        if l == j:
            img = img - g(f"u{k}{i}")
        images[f"u{k}{l}"] = img
    return Derivation(world, 0, images)


def _on_torus(key):
    return not (key[0][1] or key[0][2])


def _restrict(coeffs):
    """Restriction to the diagonal torus, u12 = u21 = 0: a key filter."""
    return {key: c for key, c in coeffs.items() if _on_torus(key)}


def _swap(key):
    """The Weyl swap z1 <-> z2 (zb, dz, dzb and u alike): image key and sign."""
    e, o = key
    odd = [b ^ 1 for b in o]
    sign = (-1) ** sum(a > b for a, b in itertools.combinations(odd, 2))
    return ((e[3], e[2], e[1], e[0], e[5], e[4], e[7], e[6]), tuple(sorted(odd))), sign


def _swap_fixed(keys):
    """Basis of the kernel of swap - 1 on the span of swap-closed keys."""
    out = []
    for key in keys:
        img, sign = _swap(key)
        if img == key:
            if sign == 1:
                out.append({key: 1})
        elif key < img:
            out.append({key: 1, img: sign})
    return out


def _span_rank(vectors):
    """Rank of the span of coefficient dicts."""
    cols = {}
    rows = [{cols.setdefault(key, len(cols)): c for key, c in v.items()} for v in vectors]
    return matrix_rank(rows, len(cols))


@dataclass
class ReductionReport:
    """U(2) against its diagonal torus on C^2, by total degree 0..degree_bound.

    group_dims and torus_dims count cochains with x-degree <= poly_bound in
    the weight basis: the u(2)-invariants (charge-(0, 0) cochains killed by
    L_12 and L_21) and the swap-fixed torus invariants (charge-(0, 0)
    monomials without u12 and u21).  They differ in even degrees, and ok
    reports that comparison (with injectivity and the witness exclusion),
    so it is False.  group_cohomology and torus_cohomology are the
    cohomology of the two invariant Cartan complexes over W = x-degree +
    form degree <= poly_bound; they agree, which is the reduction theorem
    H_U(2)(C^2) = H_T(C^2)^W = Q[c1, c2].
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

    Both sides live in one weight-basis world (circle_world with the
    u-variables u_kl of gl(2), circle_d with A = E_kl).  The torus
    invariants are the charge-(0, 0) monomials under E_11 and E_22; the
    u(2)-invariants are the charge-0 cochains also killed by L_12 and
    L_21, which move charge, so their rows land in the blocks of charge
    -+(e1 - e2).  The torus side keeps the keys with u12 = u21 = 0:
    restriction is a key filter and a chain map, so d_T = restrict o d,
    and its swap-fixed part is the kernel of swap - 1.  Per block
    (x-degree <= poly_bound, form degree, u-degree) the report compares
    dimensions summed by total degree and checks that restriction is
    injective on the u(2)-invariants.  The torus polynomial u11 - u22 (the
    T_3 direction), which is not Weyl-invariant, is checked to be outside
    the image.

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
    world = circle_world(2, _GL2)
    d = circle_d(_GL2, world)
    lies = ((_gl2_lie(world, 1, 2), (-1, 1)), (_gl2_lie(world, 2, 1), (1, -1)))

    def solve(xdeg, fdeg, udeg):
        """The u(2)-invariants and the swap-fixed torus invariants of a block."""
        blocks = _gl2_keys(xdeg, fdeg, udeg)
        keys = blocks.get((0, 0), [])
        rows = [_operator_rows(la, world, keys, blocks.get(c, [])) for la, c in lies]
        group = [{keys[j]: c for j, c in v.items()} for v in joint_nullspace(rows, len(keys))]
        return group, _swap_fixed(filter(_on_torus, keys))

    group_dims = {}
    torus_dims = {}
    solved = {}
    injective = True
    for deg in range(degree_bound + 1):
        group_dims[deg] = torus_dims[deg] = 0
        for fdeg in range(deg % 2, min(deg, 4) + 1, 2):
            for xdeg in range(poly_bound + 1):
                block = xdeg, fdeg, (deg - fdeg) // 2
                group, torus = solved[block] = solve(*block)
                group_dims[deg] += len(group)
                torus_dims[deg] += len(torus)
                injective &= _span_rank([_restrict(v) for v in group]) == len(group)

    def cohomology(side, differential):
        """Cohomology of one side's invariant complex over W <= poly_bound."""
        dims = dict.fromkeys(range(degree_bound + 1), 0)
        for w in range(poly_bound + 1):
            rank = 0  # of d into the current degree
            for deg in dims:
                # every block with W <= poly_bound was solved above
                cochains = [v for fdeg in range(deg % 2, min(deg, w, 4) + 1, 2)
                            for v in solved[w - fdeg, fdeg, (deg - fdeg) // 2][side]]
                below = rank
                rank = _span_rank([differential(_element(world, v)) for v in cochains])
                dims[deg] += len(cochains) - rank - below
        return dims

    group_cohomology = cohomology(0, lambda x: d(x).coeffs)
    torus_cohomology = cohomology(1, lambda x: _restrict(d(x).coeffs))

    # u11 - u22 restricted from nothing invariant, even below degree 2
    block = (0, 0, 1)  # solved above once degree_bound >= 2
    group = solved[block][0] if block in solved else solve(*block)[0]
    restricted = [_restrict(v) for v in group]
    u11, u22 = (next(iter(world.gen(u).coeffs)) for u in ("u11", "u22"))
    witness = {u11: 1, u22: -1}
    witness_excluded = _span_rank(restricted + [witness]) > _span_rank(restricted)

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

# A polynomial {exponents: c} on the Lie algebra is an element of the world
# of even degree-2 generators x_0..x_{dim-1}, which pair with the curvature
# components.  The coadjoint action of X = X^a T_a is the derivation
# x_b -> -f^b_ac X^a x_c, and P(-F) is the ring map x_a -> -F^a.  Each Lie
# algebra has one such world, built with its basis coadjoint derivations on
# first use, so polynomials of one algebra compare equal across calls.

_POLY_WORLDS = {}


def _poly_world(lie: LieAlgebra):
    """The shared polynomial world of lie and its coadjoint derivations along T_a."""
    if lie not in _POLY_WORLDS:
        world = GradedWorld([(f"x{a}", 2) for a in range(lie.dim)], [])
        _POLY_WORLDS[lie] = world, [
            _coadjoint(lie, world, _basis_vector(lie, a)) for a in range(lie.dim)
        ]
    return _POLY_WORLDS[lie]


def _poly(lie: LieAlgebra, poly: dict) -> GradedElement:
    world = _poly_world(lie)[0]
    return GradedElement(world, {(tuple(e), ()): c for e, c in poly.items()})


def _coadjoint(lie: LieAlgebra, world: GradedWorld, X) -> Derivation:
    """The coadjoint derivation along X: x_b -> -f^b_ac X^a x_c."""
    n = lie.dim
    keys = [(tuple(int(i == c) for i in range(n)), ()) for c in range(n)]
    return Derivation(world, 0, {
        f"x{b}": GradedElement(world, {
            keys[c]: -sum(lie.f[b][a][c] * X[a] for a in range(n)) for c in range(n)
        })
        for b in range(n)
    })


def _defects(lie: LieAlgebra, p: GradedElement):
    """Coadjoint derivatives of the polynomial element p along each T_a."""
    return [
        {e: c for (e, _), c in ad(p).coeffs.items()} for ad in _poly_world(lie)[1]
    ]


def invariance_defects(lie: LieAlgebra, poly: dict):
    """Coadjoint derivative of the polynomial along each basis direction.

    Variables x_a pair with the curvature coordinates; the defect along
    T_a is -f^b_ac x_c dP/dx_b, a dict keyed by exponent tuples, and P is
    invariant when every defect vanishes.
    """
    return _defects(lie, _poly(lie, poly))


def is_invariant_poly(lie: LieAlgebra, poly: dict) -> bool:
    return all(not d for d in invariance_defects(lie, poly))


def curvature(lie: LieAlgebra, conn):
    """F^a = dA^a + (1/2) f^a_bc A^b A^c for a list of one-form components.

    The A^b are odd and f^a is antisymmetric in b, c, so the half sum is
    the sum over b < c, with integral coefficients.
    """
    world = conn[0].world
    d = form_d(world)
    out = []
    for a in range(lie.dim):
        f = d(conn[a])
        for b, c in itertools.combinations(range(lie.dim), 2):
            coef = lie.f[a][b][c]
            if coef:
                f = f + conn[b] * conn[c] * coef
        out.append(f)
    return out


def _at_minus_curvature(lie: LieAlgebra, p: GradedElement, conn):
    """The polynomial p at x_a = -F^a, in the world of the connection."""
    images = {f"x{a}": -f for a, f in enumerate(curvature(lie, conn))}
    return substitute(p, conn[0].world, images)


def chern_weil(lie: LieAlgebra, poly: dict, conn):
    """Evaluate an invariant polynomial on minus the curvature of the connection."""
    p = _poly(lie, poly)
    if any(_defects(lie, p)):
        raise ValueError("polynomial is not invariant under the coadjoint action")
    return _at_minus_curvature(lie, p, conn)


def gauge_defect(lie: LieAlgebra, poly: dict, conn, direction):
    """First-order change of P(-F) under an infinitesimal constant gauge rotation.

    direction is a coefficient vector X = X^a T_a; the output is
    sum_a dP/dx_a(-F) [X, F]^a, which is the coadjoint derivative of P
    along X taken at -F, identically zero for invariant P.
    """
    p = _poly(lie, poly)
    return _at_minus_curvature(lie, _coadjoint(lie, p.world, direction)(p), conn)
