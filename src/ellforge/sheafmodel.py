"""Local sections of circle-equivariant elliptic cohomology over the dual curve.

A point of the dual torus is a pair of rational angles; its fixed locus
inside a linear circle representation is a coordinate subspace.  A local
section anchored there is an equivariant Cartan cocycle on the fixed
locus tensored with a lattice-function slot, and functions of the curve
coordinate act on it through the equivariant parameter.  Moving the
anchor restricts the cocycle and twists that action by the translation
between the anchors; the twist bookkeeping composes exactly, which is
the cocycle condition checked by the tests.  Finite-group sectors
(commuting pairs up to conjugation and the integer modular group) are
enumerated by brute force at the end of the module.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .equivderham import (
    GradedElement,
    GradedWorld,
    _circle_ops,
    circle_complex,
    substitute,
)
from .series import MultiSeries, TruncatedSeries, matrix_rank, row_basis
from .sigma import sigma_product

_WORLDS = {}


def _world(k):
    """Shared per-arity real world so sections from different chains compare equal.

    Its generators are u0 (even, degree 2), x_1..x_2k (even, degree 0) and
    dx_1..dx_2k (odd), where x_2j-1 and x_2j are the real and imaginary
    parts of the j-th fixed coordinate.
    """
    if k not in _WORLDS:
        xs = range(1, 2 * k + 1)
        _WORLDS[k] = GradedWorld(
            [("u0", 2)] + [(f"x{i}", 0) for i in xs], [(f"dx{i}", 1) for i in xs]
        )
    return _WORLDS[k]


# ---------------------------------------------------------------------------
# spaces, anchors, fixed loci


@dataclass(frozen=True)
class CircleActionSpace:
    """Diagonal circle action on complex coordinates with integer weights."""

    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))


def _angle_pair(h):
    x, y = h
    return (Fraction(x), Fraction(y))


def fixed_locus(space, h):
    """Coordinates fixed by the subgroup generated by the angle pair.

    Coordinate j survives iff both w_j x and w_j y are integers; shifting
    either angle by an integer changes nothing, so representatives need
    no reduction.
    """
    x, y = _angle_pair(h)
    return tuple(
        j
        for j, w in enumerate(space.weights)
        if (w * x).denominator == 1 and (w * y).denominator == 1
    )


def _active_weights(space, h):
    return tuple(space.weights[j] for j in fixed_locus(space, h))


# ---------------------------------------------------------------------------
# cocycle bases on a fixed locus

# The cocycles come from the weight-basis circle complex (see
# equivderham.circle_complex), block by charge-0 multidegree, and
# circle_d is the only Cartan differential.  Real coordinates appear only
# at the edge, in the rescaled y' = i y, dy' = i dy, u0' = i u0, where the
# change of coordinates is integral both ways: z = x + y', zb = x - y',
# u = u0' one way, and 2x = z + zb, 2y' = z - zb, u0' = u the other (forms
# alike).  The second is the inverse of the first after the ring map that
# doubles every x, y', dx and dy'; that map commutes with the real Cartan
# differential (d x = dx, and d dx is linear in the coordinates), so
# cocycles go to cocycles both ways.
# A rescaled term c key is c i^kappa key, kappa counting its u0, y and dy
# factors, and _fold splits off its real and imaginary parts.  Those of one
# W-block and degree span its real cocycles, in the canonical basis that
# series.row_basis gives; each weight-basis cocycle enters as a primitive
# integer vector, which spans the same line.  circle_d is rational, so a
# real cochain is closed when it kills the weight images of both folded
# parts.


def _real_images(k):
    """Images of the weight-basis generators in the rescaled real world."""
    world = _world(k)
    images = {"u": world.gen("u0")}
    for j in range(1, k + 1):
        for z, x in (("z", "x"), ("dz", "dx")):
            re, im = world.gen(f"{x}{2 * j - 1}"), world.gen(f"{x}{2 * j}")
            images[f"{z}{j}"], images[f"{z}b{j}"] = re + im, re - im
    return images


def _weight_images(world, k):
    """Integral images of the doubled rescaled real generators in world,
    which is circle_world(k): x_2j-1 -> z_j + zb_j, x_2j -> z_j - zb_j."""
    images = {"u0": world.gen("u")}
    for j in range(1, k + 1):
        for z, x in (("z", "x"), ("dz", "dx")):
            zj, zbj = world.gen(f"{z}{j}"), world.gen(f"{z}b{j}")
            images[f"{x}{2 * j - 1}"], images[f"{x}{2 * j}"] = zj + zbj, zj - zbj
    return images


def _fold(coeffs):
    """Real and imaginary parts of sum c i^kappa(key) key over a real-world dict."""
    parts = ({}, {})
    for (e, o), c in coeffs.items():
        kappa = e[0] + sum(e[2::2]) + sum(i % 2 for i in o)
        parts[kappa % 2][e, o] = -c if kappa % 4 > 1 else c
    return parts


_COCYCLE_OPS = {}


def _cocycle_ops(ws):
    """The per-weights world and circle_d that circle_complex shares, and
    the weight images, built once per weight tuple."""
    if ws not in _COCYCLE_OPS:
        world, d = _circle_ops(ws)
        _COCYCLE_OPS[ws] = world, d, _weight_images(world, len(ws))
    return _COCYCLE_OPS[ws]


def _is_cocycle(ws, el):
    """Whether circle_d(weight_action(ws)) kills the real cochain el.

    Closedness does not depend on scale, so each part is tested as its
    primitive int multiple.
    """
    world, d, images = _cocycle_ops(ws)
    parts = (GradedElement(el.world, _primitive(part)) for part in _fold(el.coeffs))
    return all(d(substitute(part, world, images)).is_zero() for part in parts)


def _primitive(v):
    """The dict vector v scaled to coprime integers, with its signs kept."""
    den = math.lcm(*(c.denominator for c in v.values()))
    ints = {j: c.numerator * (den // c.denominator) for j, c in v.items()}
    g = math.gcd(*ints.values())
    return {j: c // g for j, c in ints.items()}


def _real_basis(els, world, images):
    """Canonical real basis of the real and imaginary parts of els."""
    parts = [part for el in els for part in _fold(substitute(el, world, images).coeffs)]
    # the real block's key order: form degree, then exponents, then forms
    keys = sorted({k for p in parts for k in p}, key=lambda k: (len(k[1]), k))
    cols = {k: j for j, k in enumerate(keys)}
    rows = [{cols[k]: c for k, c in p.items()} for p in parts]
    return [GradedElement(world, {keys[j]: c for j, c in v.items()})
            for v in row_basis(rows, len(keys))]


@dataclass
class SectionsReport:
    anchor: tuple
    fixed: tuple
    degree_bound: int
    wmax: int
    cocycle_dims: list
    cohomology_dims: list
    basis: dict


def local_sections(space, h, degree_bound, wmax=None):
    """Basis of equivariant cocycles on the fixed locus up to the truncation.

    The cohomology dimensions (cocycles modulo boundaries) come along for
    free and give the cross-check against the weight-by-weight
    computation: every nonzero weight contributes nothing beyond the
    polynomial algebra on the equivariant parameter.
    """
    if wmax is None:
        wmax = degree_bound
    h = _angle_pair(h)
    ws = _active_weights(space, h)
    cworld, blocks = circle_complex(ws, degree_bound, wmax)
    world, images = _world(len(ws)), _real_images(len(ws))
    basis = {deg: [] for deg in range(degree_bound + 1)}
    for deg in basis:
        for _, group in itertools.groupby(blocks, key=lambda b: b.w):
            els = [GradedElement(cworld, {b.keys[deg][j]: c for j, c in _primitive(v).items()})
                   for b in group for v in b.cocycles[deg]]
            if els:
                basis[deg] += _real_basis(els, world, images)
    cdims = [sum(len(b.cocycles[deg]) for b in blocks) for deg in basis]
    hdims = [sum(b.cohomology(deg) for b in blocks) for deg in basis]
    return SectionsReport(h, fixed_locus(space, h), degree_bound, wmax, cdims, hdims, basis)


# ---------------------------------------------------------------------------
# sections and the twisted module structure


@dataclass
class CurveFunction:
    """Power series in the curve coordinate, centered at a named anchor."""

    center: tuple
    series: TruncatedSeries

    def __post_init__(self):
        self.center = _angle_pair(self.center)


@dataclass
class LocalSection:
    """Cartan cocycle on a fixed locus with a lattice-function slot.

    center is the anchor where the module identification was set up;
    twist accumulates the translations of later anchors, stored as raw
    rational differences so that chains compose on the nose.  prefactor
    collects the module multiplications applied so far as a series in
    the equivariant parameter u and the modular parameter tau (tau only
    enters through twisted actions).
    """

    space: CircleActionSpace
    anchor: tuple
    center: tuple
    twist: tuple
    cocycle: GradedElement
    prefactor: MultiSeries
    factor: object
    weight: object
    truncation: int


def _prefactor_caps(truncation):
    return (truncation, truncation)


def make_section(space, h, cocycle=None, factor="O(Lat)", truncation=8, weight=None):
    h = _angle_pair(h)
    ws = _active_weights(space, h)
    world = _world(len(ws))
    if cocycle is None:
        cocycle = GradedElement.const(world, Fraction(1))
    if cocycle.world is not world:
        raise ValueError("cocycle lives in the wrong generator world")
    if not _is_cocycle(ws, cocycle):
        raise ValueError("not a cocycle: the equivariant differential does not vanish")
    if weight is None:
        degs = {world.monomial_degree(k) for k in cocycle.coeffs}
        weight = degs.pop() if len(degs) == 1 else None
    pref = MultiSeries.one(("tau", "u"), caps=_prefactor_caps(truncation))
    zero = Fraction(0)
    return LocalSection(space, h, h, (zero, zero), cocycle, pref, factor, weight, truncation)


def sigma_section(qorder, zorder):
    """The odd coordinate function as a weight-one section at the trivial pair."""
    space = CircleActionSpace(())
    return make_section(
        space,
        (0, 0),
        factor=sigma_product(qorder, zorder),
        truncation=zorder,
        weight=1,
    )


def module_action(f, s):
    """Multiply by f evaluated at the twisted equivariant parameter.

    At the original anchor f acts through u itself; after transitions the
    argument picks up the accumulated translation, whose modular-frame
    component enters as the formal parameter tau.
    """
    if f.center != s.center:
        raise ValueError("series centered elsewhere: recenter to the section's module chart")
    if f.series.minexp < 0:
        raise ValueError("curve function has a pole at its center")
    ex, ey = s.twist
    caps = _prefactor_caps(s.truncation)
    shift = MultiSeries(
        ("tau", "u"),
        {(0, 1): Fraction(1), (0, 0): ex, (1, 0): -ey},
        caps=caps,
    )
    acc = MultiSeries.zero(("tau", "u"), caps=caps)
    power = MultiSeries.one(("tau", "u"), caps=caps)
    for n in range(f.series.trunc + 1):
        c = f.series.coeff(n)
        if c:
            acc = acc + power.scale(c)
        power = power * shift
    if acc.is_zero():
        weight = s.weight
    elif len(acc.coeffs) == 1 and s.weight is not None:
        ((_, ue),) = acc.coeffs.keys()
        weight = s.weight + 2 * ue
    else:
        weight = None
    return LocalSection(
        s.space, s.anchor, s.center, s.twist, s.cocycle,
        s.prefactor * acc, s.factor, weight, s.truncation,
    )


def transition(space, h, hp, s):
    """Restrict to the smaller fixed locus and accumulate the module twist."""
    h = _angle_pair(h)
    hp = _angle_pair(hp)
    if s.anchor != h:
        raise ValueError("section does not live at the source anchor")
    fx = fixed_locus(space, h)
    fxp = fixed_locus(space, hp)
    if not set(fxp) <= set(fx):
        raise ValueError("target fixed locus is not contained in the source one")
    worldp = _world(len(fxp))
    pos = {j: i for i, j in enumerate(fx)}
    images = {"u0": worldp.gen("u0")}
    for newi, j in enumerate(fxp):
        oldi = pos[j]
        for r in (1, 2):
            images[f"x{2 * oldi + r}"] = worldp.gen(f"x{2 * newi + r}")
            images[f"dx{2 * oldi + r}"] = worldp.gen(f"dx{2 * newi + r}")
    coc = substitute(s.cocycle, worldp, images)
    if not _is_cocycle(_active_weights(space, hp), coc):
        raise ValueError("restriction failed to preserve the cocycle condition")
    tw = (s.twist[0] + (h[0] - hp[0]), s.twist[1] + (h[1] - hp[1]))
    return LocalSection(
        space, hp, s.center, tw, coc, s.prefactor, s.factor, s.weight, s.truncation
    )


def completion_map(s):
    """Expand the lattice factor at the trivial pair and merge z into u.

    Only sections without coordinate content complete here; the output is
    a series in q and u whose u-coefficients are q-expansions.
    """
    zero = Fraction(0)
    if s.anchor != (zero, zero) or s.center != (zero, zero) or s.twist != (zero, zero):
        raise ValueError("completion is defined at the trivial pair only")
    if isinstance(s.factor, str):
        raise ValueError("symbolic lattice factor has no expansion")
    fac = s.factor
    if fac.vars != ("q", "z"):
        raise ValueError("lattice factor must be a series in (q, z)")
    upoly = {}
    for (e, o), c in s.cocycle.coeffs.items():
        if o or any(e[1:]):
            raise ValueError("completion needs a coordinate-free section")
        upoly[e[0]] = c
    for (te, _), _c in s.prefactor.coeffs.items():
        if te:
            raise ValueError("prefactor still depends on the modular parameter")
    caps = fac.caps
    merged = fac.rename({"z": "u"})
    coc_u = MultiSeries(("q", "u"), {(0, k): c for k, c in upoly.items()}, caps=caps)
    pref_u = MultiSeries(
        ("q", "u"), {(0, ue): c for (_, ue), c in s.prefactor.coeffs.items()}, caps=caps
    )
    return merged * coc_u * pref_u


# ---------------------------------------------------------------------------
# localization rank check


@dataclass
class LocalizationReport:
    degree_bound: int
    upstairs: list
    downstairs: list
    ranks: list

    @property
    def ok(self):
        return all(
            r == a == b
            for r, a, b in zip(self.ranks, self.upstairs, self.downstairs)
        )


def localized_transition_rank(space, h, hp, degree_bound=8, wmax=None):
    """Rank of the induced restriction on cohomology, degree by degree.

    The transition is a bijection on the inverted-parameter modules, so
    on each truncated degree the induced map must hit all of the target
    cohomology; the report records both sides' dimensions and the rank
    of the restricted cocycles modulo the target boundaries.  Restriction
    kills every block with a dropped coordinate and maps the others onto
    the target block with the same multidegree on the kept coordinates.
    """
    if wmax is None:
        wmax = degree_bound
    h = _angle_pair(h)
    hp = _angle_pair(hp)
    fx = fixed_locus(space, h)
    fxp = fixed_locus(space, hp)
    if not set(fxp) <= set(fx):
        raise ValueError("target fixed locus is not contained in the source one")
    k, keep = len(fx), [fx.index(j) for j in fxp]
    odd = {i: new for new, i in enumerate(keep)}
    odd.update({k + i: len(keep) + new for new, i in enumerate(keep)})

    def restrict(key):
        e, o = key
        return (e[:1] + tuple(e[1 + i] for i in keep) + tuple(e[1 + k + i] for i in keep),
                tuple(odd[i] for i in o))

    up = circle_complex(tuple(space.weights[j] for j in fx), degree_bound, wmax)[1]
    down = circle_complex(tuple(space.weights[j] for j in fxp), degree_bound, wmax)[1]
    targets = {(b.n, b.m): b for b in down}
    up_dims, down_dims, ranks = [], [], []
    for deg in range(degree_bound + 1):
        up_dims.append(sum(b.cohomology(deg) for b in up))
        down_dims.append(sum(b.cohomology(deg) for b in down))
        rank = 0
        for b in up:
            if any(b.n[i] or b.m[i] for i in range(k) if i not in keep):
                continue
            t = targets[tuple(b.n[i] for i in keep), tuple(b.m[i] for i in keep)]
            index = {key: j for j, key in enumerate(t.keys[deg])}
            moved = [index[restrict(key)] for key in b.keys[deg]]
            rows = [{moved[j]: c for j, c in v.items()} for v in b.cocycles[deg]]
            if deg:  # the target boundaries: the columns of its d, as rows
                cols = [{} for _ in t.keys[deg - 1]]
                for i, row in enumerate(t.d[deg - 1]):
                    for j, c in row.items():
                        cols[j][i] = c
                rows += cols
            rank += matrix_rank(rows, len(t.keys[deg])) - t.rank(deg - 1)
        ranks.append(rank)
    return LocalizationReport(degree_bound, up_dims, down_dims, ranks)


# ---------------------------------------------------------------------------
# finite-group sectors


@dataclass(frozen=True)
class FiniteGroupTable:
    """Finite group given by its multiplication table, validated at load."""

    order: int
    mul: tuple
    names: tuple = None

    def __post_init__(self):
        n = self.order
        mul = tuple(tuple(int(x) for x in row) for row in self.mul)
        object.__setattr__(self, "mul", mul)
        if len(mul) != n or any(len(row) != n for row in mul):
            raise ValueError("multiplication table has the wrong shape")
        if any(x < 0 or x >= n for row in mul for x in row):
            raise ValueError("multiplication table entry out of range")
        e = None
        for cand in range(n):
            if all(mul[cand][x] == x and mul[x][cand] == x for x in range(n)):
                e = cand
                break
        if e is None:
            raise ValueError("multiplication table has no identity")
        object.__setattr__(self, "e", e)
        for a in range(n):
            if not any(mul[a][b] == e and mul[b][a] == e for b in range(n)):
                raise ValueError("multiplication table has a non-invertible element")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise ValueError("multiplication table is not associative")
        if self.names is None:
            object.__setattr__(self, "names", tuple(f"g{a}" for a in range(n)))

    @classmethod
    def from_json(cls, data):
        return cls(int(data["order"]), tuple(tuple(r) for r in data["mul"]))

    def inv(self, a):
        for b in range(self.order):
            if self.mul[a][b] == self.e:
                return b
        raise AssertionError("validated table lost an inverse")


def _reduce_word(word):
    out = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


@dataclass
class OrbitInfo:
    representative: tuple
    pairs: int
    classes: int
    index: int
    stabilizer_words: tuple


@dataclass
class SectorReport:
    order: int
    pair_count: int
    group_class_count: int
    burnside_ok: bool
    class_count: int
    orbits: tuple


def finite_sectors(table):
    """Commuting pairs, conjugation classes, and modular orbits with stabilizers.

    The two modular generators act by (a, b) -> (b, a^-1) and
    (a, b) -> (a, ab); they descend to conjugation classes of pairs.  The
    stabilizer of an orbit representative is generated by the tree words
    of the orbit traversal (letters act right to left, lowercase means
    inverse), and its index equals the orbit size on classes.
    """
    n = table.order
    mul = table.mul
    inv = [table.inv(a) for a in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(n) if mul[a][b] == mul[b][a]]

    group_classes = set()
    for a in range(n):
        group_classes.add(min(mul[mul[g][a]][inv[g]] for g in range(n)))
    group_class_count = len(group_classes)

    def conj_class(p):
        a, b = p
        return min((mul[mul[g][a]][inv[g]], mul[mul[g][b]][inv[g]]) for g in range(n))

    class_of = {p: conj_class(p) for p in pairs}
    class_sizes = {}
    for p in pairs:
        class_sizes[class_of[p]] = class_sizes.get(class_of[p], 0) + 1
    reps = sorted(class_sizes)

    def act(letter, p):
        a, b = p
        if letter == "S":
            return (b, inv[a])
        if letter == "s":
            return (inv[b], a)
        if letter == "T":
            return (a, mul[a][b])
        return (a, mul[inv[a]][b])

    def act_class(letter, rep):
        return class_of[act(letter, rep)]

    seen = set()
    orbits = []
    for start in reps:
        if start in seen:
            continue
        transversal = {start: ""}
        queue = [start]
        words = []
        while queue:
            x = queue.pop(0)
            for letter in "STst":
                y = act_class(letter, x)
                if y not in transversal:
                    transversal[y] = letter + transversal[x]
                    queue.append(y)
                else:
                    back = transversal[y][::-1].swapcase()
                    w = _reduce_word(back + letter + transversal[x])
                    if w:
                        words.append(w)
        seen.update(transversal)
        uniq = []
        for w in sorted(set(words), key=lambda w: (len(w), w)):
            if w[::-1].swapcase() not in uniq:
                uniq.append(w)
        for w in uniq:
            cls = start
            for letter in reversed(w):
                cls = act_class(letter, cls)
            if cls != start:
                raise AssertionError("stabilizer word fails to fix its orbit representative")
        orbit_classes = sorted(transversal)
        orbits.append(
            OrbitInfo(
                representative=start,
                pairs=sum(class_sizes[c] for c in orbit_classes),
                classes=len(orbit_classes),
                index=len(orbit_classes),
                stabilizer_words=tuple(uniq),
            )
        )

    return SectorReport(
        order=n,
        pair_count=len(pairs),
        group_class_count=group_class_count,
        burnside_ok=len(pairs) == n * group_class_count,
        class_count=len(reps),
        orbits=tuple(orbits),
    )
