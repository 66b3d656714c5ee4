"""Graded worlds, Weil/Cartan differentials, and the Chern-Weil map."""

import random
from fractions import Fraction

import pytest

from ellforge import equivderham
from ellforge.equivderham import (
    GradedElement,
    GradedWorld,
    LieAlgebra,
    basic_subspace,
    cartan_cohomology,
    chern_weil,
    circle_complex,
    circle_d,
    circle_world,
    curvature,
    form_d,
    form_world,
    gauge_defect,
    invariance_defects,
    is_invariant_poly,
    lie_operator,
    substitute,
    su2,
    torus_reduction_check,
    u1,
    u2,
    weil_contraction,
    weil_d,
    weil_relations_report,
    weil_world,
    weight_action,
)
from ellforge.sheafmodel import _real_images, _world
from test_oracles import (
    _su2_matrices,
    cartan_block,
    cartan_d,
    cartan_world,
    degree_part,
    invariant_vectors,
    linear_field_contraction,
    linear_field_lie,
    max_degree,
)


# ---------------------------------------------------------------------------
# graded monomial algebra


def test_odd_generators_anticommute():
    w = form_world(2)
    dx1, dx2 = w.gen("dx1"), w.gen("dx2")
    assert dx1 * dx2 == -(dx2 * dx1)
    assert (dx1 * dx1).is_zero()


def test_element_drops_zeros_and_keeps_ints():
    w = form_world(2)
    one = w.gen("x1").coeffs
    (key,) = one
    assert type(one[key]) is int
    el = GradedElement(w, {key: 3, ((0, 0), ()): 0, ((0, 1), ()): Fraction(0)})
    assert el.coeffs == {key: 3}
    assert type(el.coeffs[key]) is int
    # a Fraction stays a Fraction, also an integral one
    el = GradedElement(w, {key: Fraction(4), ((0, 1), ()): Fraction(1, 2)})
    assert [type(c) for c in el.coeffs.values()] == [Fraction, Fraction]
    assert type(GradedElement.const(w, 2).coeffs[((0, 0), ())]) is int
    assert GradedElement(w, {}).is_zero() and GradedElement(w).is_zero()


@pytest.mark.parametrize("bad", [0.5, 0.0, 1 + 0j, "1"])
def test_element_refuses_coefficients_that_are_not_rational(bad):
    w = form_world(2)
    (key,) = w.gen("x1").coeffs
    with pytest.raises(TypeError):
        GradedElement(w, {key: bad})
    with pytest.raises(TypeError):
        GradedElement.const(w, bad)


def _int_only(el):
    return all(type(c) is int for c in el.coeffs.values())


@pytest.mark.parametrize("weights", [(1,), (1, 2), (0, 3), (1, -1, 2)])
def test_integral_inputs_stay_int(weights):
    # circle_d, a Derivation with integer images, and the integral change
    # to real coordinates keep integer coefficients as ints
    k = len(weights)
    world, blocks = circle_complex(weights, 3, 3)
    d = circle_d(weight_action(weights), world)
    assert all(_int_only(img) for img in d.images.values())
    images = _real_images(k)
    for block in blocks:
        for deg in range(4):
            keys = block.keys[deg]
            el = GradedElement(world, {key: (-1) ** i * (i + 1) for i, key in enumerate(keys)})
            for x in (el, d(el), el * el, substitute(el, _world(k), images)):
                assert _int_only(x)
    fw = form_world(2)
    assert _int_only(form_d(fw)(fw.gen("x1") * fw.gen("x2") * 3))


def test_weil_d_images_are_integral():
    # d eps^0 = e^0 - (1/2) f^0_bc eps^b eps^c: the two halves of the eps term
    # are one term of the sum over b < c
    world = weil_world(su2())
    image = weil_d(su2(), world).images["ep0"]
    e0, = world.gen("e0").coeffs
    ep12, = (world.gen("ep1") * world.gen("ep2")).coeffs
    assert image.coeffs == {e0: 1, ep12: -1}
    assert type(image.coeffs[e0]) is int and type(image.coeffs[ep12]) is int


def test_even_generators_commute():
    w = form_world(2)
    x1, x2 = w.gen("x1"), w.gen("x2")
    assert x1 * x2 == x2 * x1


def test_monomial_degree_is_cohomological():
    # coordinates sit in degree zero, one-forms in degree one
    w = form_world(3)
    el = w.gen("x1") * w.gen("x1") * w.gen("dx2") * w.gen("dx3")
    (key,) = el.coeffs
    assert w.monomial_degree(key) == 2
    assert max_degree(el) == 2


def test_degree_part_splits_sums():
    w = form_world(2)
    el = w.gen("x1") + w.gen("dx1") * w.gen("dx2")
    assert degree_part(el, 0) == w.gen("x1")
    assert degree_part(el, 2) == w.gen("dx1") * w.gen("dx2")
    assert degree_part(el, 1).is_zero()


def test_elements_from_different_worlds_never_mix():
    a = form_world(2).gen("x1")
    b = form_world(3).gen("x1")
    with pytest.raises(ValueError):
        a + b


def test_world_rejects_duplicate_generator_names():
    with pytest.raises(ValueError):
        GradedWorld([("a", 0)], [("a", 1)])


def test_exterior_derivative_leibniz_on_product():
    # d(x1^2 dx2) = 2 x1 dx1 dx2
    w = form_world(2)
    d = form_d(w)
    el = w.gen("x1") * w.gen("x1") * w.gen("dx2")
    expect = 2 * (w.gen("x1") * w.gen("dx1") * w.gen("dx2"))
    assert d(el) == expect


def test_forms_cartan_magic_formula():
    # rotation field on the plane: [d, iota] agrees with the Lie action
    w = form_world(2)
    mat = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
    d = form_d(w)
    iota = linear_field_contraction(w, mat)
    lie = linear_field_lie(w, mat)
    rng = random.Random(7)
    names = ["x1", "x2", "dx1", "dx2"]
    for _ in range(20):
        el = GradedElement.const(w, Fraction(rng.randrange(-3, 4)))
        for _ in range(rng.randrange(1, 4)):
            el = el * w.gen(rng.choice(names))
        assert d(iota(el)) + iota(d(el)) == lie(el)


# ---------------------------------------------------------------------------
# Lie algebra data


@pytest.mark.parametrize("make", [u1, su2, u2])
def test_structure_constants_are_ints(make):
    f = make().f
    assert all(type(c) is int for plane in f for row in plane for c in row)


def test_structure_constants_must_be_antisymmetric():
    f = [[[Fraction(1)]]]
    with pytest.raises(ValueError):
        LieAlgebra("bad", 1, f)


def test_structure_constants_must_satisfy_jacobi():
    dim = 3
    f = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    # antisymmetric but not Jacobi: [e1,e2]=e1, [e2,e3]=e2, [e3,e1]=e3
    for c, a, b in ((0, 0, 1), (1, 1, 2), (2, 2, 0)):
        f[c][a][b] = Fraction(1)
        f[c][b][a] = Fraction(-1)
    with pytest.raises(ValueError):
        LieAlgebra("bad", dim, f)


def test_su2_matrices_realize_the_bracket():
    def mul(p, q):
        n = len(p)
        return [
            [sum(p[i][k] * q[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    m1, m2, m3 = _su2_matrices()
    comm = [
        [a - b for a, b in zip(ra, rb)] for ra, rb in zip(mul(m1, m2), mul(m2, m1))
    ]
    assert comm == [list(row) for row in m3]


def test_u2_center_commutes_with_everything():
    alg = u2()
    for a in range(1, 4):
        assert alg.bracket_coeffs(0, a) == [Fraction(0)] * 4


# ---------------------------------------------------------------------------
# Weil algebra relations


def test_weil_abelian_derivative():
    alg = u1()
    w = weil_world(alg)
    d = weil_d(alg, w)
    assert d(w.gen("ep0")) == w.gen("e0")
    assert d(w.gen("e0")).is_zero()
    assert d(d(w.gen("ep0"))).is_zero()


def test_weil_su2_connection_square():
    alg = su2()
    w = weil_world(alg)
    d = weil_d(alg, w)
    # d ep_0 = e_0 - ep_1 ep_2 and d squares to zero on it
    expect = w.gen("e0") - w.gen("ep1") * w.gen("ep2")
    assert d(w.gen("ep0")) == expect
    assert d(expect).is_zero()


def test_weil_contraction_values():
    alg = su2()
    w = weil_world(alg)
    e0 = [Fraction(1), Fraction(0), Fraction(0)]
    iota = weil_contraction(alg, w, e0)
    assert iota(w.gen("ep0")) == GradedElement.const(w, Fraction(1))
    assert iota(w.gen("ep1")).is_zero()
    assert iota(w.gen("e2")).is_zero()


def test_weil_lie_operator_kills_curvature_norm():
    alg = su2()
    w = weil_world(alg)
    d = weil_d(alg, w)
    el = GradedElement.zero(w)
    for a in range(3):
        el = el + w.gen(f"e{a}") * w.gen(f"e{a}")
    for a in range(3):
        vec = [Fraction(1 if b == a else 0) for b in range(3)]
        op = lie_operator(d, weil_contraction(alg, w, vec))
        assert op(el).is_zero()


@pytest.mark.parametrize("make, degree", [(u1, 8), (su2, 8), (u2, 6)])
def test_weil_relations_hold(make, degree):
    rep = weil_relations_report(make(), degree=degree)
    assert rep.ok
    assert rep.bracket_sign == 1


@pytest.mark.parametrize("make", [su2, u2])
@pytest.mark.parametrize("degree", [0, 1, 40])
def test_weil_relations_do_not_depend_on_degree(make, degree):
    rep = weil_relations_report(make(), degree=degree)
    assert rep.degree == degree
    assert rep.ok
    assert rep.bracket_sign == 1


def test_basic_subspace_dimensions_u1():
    alg = u1()
    dims = [len(basic_subspace(alg, d)) for d in range(9)]
    assert dims == [1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_basic_subspace_dimensions_su2():
    alg = su2()
    dims = [len(basic_subspace(alg, d)) for d in range(9)]
    assert dims == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def test_basic_subspace_dimensions_u2():
    alg = u2()
    dims = [len(basic_subspace(alg, d)) for d in range(9)]
    assert dims == [1, 0, 1, 0, 2, 0, 2, 0, 3]


# ---------------------------------------------------------------------------
# Cartan model


def _random_invariants(alg, world, ambient, blocks, count, seed, matrices=None):
    """Random rational combinations of invariant block bases."""
    rng = random.Random(seed)
    basis = []
    for xdeg, fdeg, udeg in blocks:
        keys = cartan_block(alg, world, ambient, xdeg, fdeg, udeg)
        for vec in invariant_vectors(alg, world, ambient, keys, matrices):
            basis.append(
                GradedElement(world, {k: c for k, c in zip(keys, vec) if c})
            )
    out = []
    for _ in range(count):
        el = GradedElement.zero(world)
        for b in basis:
            el = el + b * Fraction(rng.randrange(-4, 5))
        out.append(el)
    return out


def test_cartan_differential_squares_to_zero_on_circle_invariants():
    alg = u1()
    world = cartan_world(alg, 2)
    d = cartan_d(alg, world)
    blocks = [
        (x, f, u)
        for x in range(4)
        for f in range(3)
        for u in range(3)
        if 0 < x + f + 2 * u <= 6
    ]
    for el in _random_invariants(alg, world, 2, blocks, 30, seed=11):
        assert d(d(el)).is_zero()


def test_cartan_differential_squares_to_zero_on_unitary_invariants():
    alg = u2()
    world = cartan_world(alg, 4)
    d = cartan_d(alg, world)
    blocks = [
        (x, f, u)
        for x in range(3)
        for f in range(3)
        for u in range(2)
        if 0 < x + f + 2 * u <= 4
    ]
    for el in _random_invariants(alg, world, 4, blocks, 10, seed=13):
        assert d(d(el)).is_zero()


def test_cartan_differential_square_detects_noninvariance():
    # d^2 = -u L is nonzero off the invariant subcomplex
    alg = u1()
    world = cartan_world(alg, 2)
    d = cartan_d(alg, world)
    el = world.gen("x1") * world.gen("dx1")
    assert not d(d(el)).is_zero()


def test_cartan_kills_equivariant_parameter():
    alg = u2()
    world = cartan_world(alg, 4)
    d = cartan_d(alg, world)
    assert d(world.gen("u0")).is_zero()


def test_moment_pairing_gives_two_quadratic_invariants():
    # r^2 u_0 together with sum_a u_a mu_a: the pairing between the
    # coadjoint motion and the rotation of the coordinates
    alg = u2()
    world = cartan_world(alg, 4)
    keys = cartan_block(alg, world, 4, 2, 0, 1)
    vecs = invariant_vectors(alg, world, 4, keys)
    assert len(vecs) == 2


def test_circle_cohomology_matches_point():
    rep = cartan_cohomology((1,), 4)
    assert rep.dims == [1, 0, 1, 0, 1]
    assert not rep.fixed_locus_positive
    assert rep.free_rank_one


def test_two_weight_cohomology_matches_point():
    rep = cartan_cohomology((1, 1), 4)
    assert rep.dims == [1, 0, 1, 0, 1]
    assert rep.free_rank_one


def test_weight_two_cohomology_matches_point():
    rep = cartan_cohomology((2,), 4)
    assert rep.dims == [1, 0, 1, 0, 1]


def test_zero_weight_flags_positive_fixed_locus():
    rep = cartan_cohomology((0, 1), 4)
    assert rep.dims == [1, 0, 1, 0, 1]
    assert rep.fixed_locus_positive


def test_two_weight_cohomology_at_degree_twelve():
    assert cartan_cohomology((1, 1), 12).dims == [1, 0] * 6 + [1]


def test_three_weight_cohomology_at_degree_eight():
    assert cartan_cohomology((1, 1, 1), 8).dims == [1, 0] * 4 + [1]


def test_circle_blocks_are_charge_zero_subcomplexes():
    weights = (1, 2, -1)
    world, blocks = circle_complex(weights, 3, 3)
    d = circle_d(weight_action(weights), world)
    assert {b.w for b in blocks} == {0, 2, 3}  # no charge-0 block at W = 1
    for b in blocks:
        assert sum(w * (n - m) for w, n, m in zip(weights, b.n, b.m)) == 0
        for deg in range(4):
            assert len(b.keys[deg]) <= 4 ** len(weights)
            for key in b.keys[deg]:
                el = GradedElement(world, {key: Fraction(1)})
                assert world.monomial_degree(key) == deg
                assert set(d(el).coeffs) <= set(b.keys[deg + 1])
                assert d(d(el)).is_zero()
            for v in b.cocycles[deg]:
                assert d(GradedElement(world, {b.keys[deg][j]: c for j, c in v.items()})).is_zero()


def test_circle_differential_has_integer_coefficients():
    world = circle_world(1)
    d = circle_d(weight_action((3,)), world)
    assert d(world.gen("dz1")) == world.gen("u") * world.gen("z1") * 3
    assert d(world.gen("dzb1")) == world.gen("u") * world.gen("zb1") * -3
    # d^2 = -u L is nonzero off charge 0
    assert not d(d(world.gen("z1"))).is_zero()


def test_cohomology_stable_under_deeper_polynomial_truncation():
    shallow = cartan_cohomology((1,), 4)
    deep = cartan_cohomology((1,), 4, wmax=6)
    assert shallow.dims == deep.dims


def test_torus_reduction_dimensions():
    rep = torus_reduction_check(4, 2)
    assert rep.group_dims == {0: 2, 1: 2, 2: 6, 3: 6, 4: 16}
    assert rep.torus_dims == {0: 2, 1: 2, 2: 7, 3: 6, 4: 17}
    assert rep.injective
    assert rep.witness_excluded
    # the swap-even torus invariants outnumber the restricted group
    # invariants in even degrees, so the full comparison fails
    assert not rep.ok
    # in cohomology both sides are Q[c1, c2]: the reduction theorem
    assert rep.group_cohomology == {0: 1, 1: 0, 2: 1, 3: 0, 4: 2}
    assert rep.torus_cohomology == {0: 1, 1: 0, 2: 1, 3: 0, 4: 2}


def test_torus_reduction_cohomology_prefix():
    rep = torus_reduction_check(3, 2)
    assert rep.group_dims == {0: 2, 1: 2, 2: 6, 3: 6}
    assert rep.torus_dims == {0: 2, 1: 2, 2: 7, 3: 6}
    assert rep.group_cohomology == {0: 1, 1: 0, 2: 1, 3: 0}
    assert rep.torus_cohomology == {0: 1, 1: 0, 2: 1, 3: 0}
    assert rep.injective and rep.witness_excluded


# ---------------------------------------------------------------------------
# Chern-Weil


def test_chern_weil_circle_first_chern_form():
    alg = u1()
    w = form_world(2)
    conn = [w.gen("x1") * w.gen("dx2")]
    out = chern_weil(alg, {(1,): Fraction(1)}, conn)
    assert out == -(w.gen("dx1") * w.gen("dx2"))


def test_chern_weil_flat_connection_gives_constant():
    alg = u1()
    w = form_world(2)
    conn = [GradedElement.zero(w)]
    poly = {(0,): Fraction(3), (2,): Fraction(5)}
    out = chern_weil(alg, poly, conn)
    assert out == GradedElement.const(w, Fraction(3))


def _trace_square(dim):
    poly = {}
    for a in range(dim):
        exp = [0] * dim
        exp[a] = 2
        poly[tuple(exp)] = Fraction(-1, 2)
    return poly


def test_trace_square_is_coadjoint_invariant():
    alg = u2()
    poly = _trace_square(4)
    assert is_invariant_poly(alg, poly)
    assert invariance_defects(alg, poly) == [{}, {}, {}, {}]


def test_chern_weil_rejects_noninvariant_polynomial():
    alg = su2()
    w = form_world(2)
    conn = [GradedElement.zero(w) for _ in range(3)]
    with pytest.raises(ValueError):
        chern_weil(alg, {(1, 0, 0): Fraction(1)}, conn)


def test_noninvariant_polynomial_has_the_coadjoint_defects():
    # P = x_0 on su(2): along T_1 the defect is -f^0_1c x_c = -x_2, and the
    # gauge defect is [T_1, F]^0 = f^0_12 F^2 = F^2
    alg = su2()
    assert invariance_defects(alg, {(1, 0, 0): 1}) == [{}, {(0, 0, 1): -1}, {(0, 1, 0): 1}]
    assert not is_invariant_poly(alg, {(1, 0, 0): 1})
    conn = _random_connection(alg, form_world(2), random.Random(3))
    defect = gauge_defect(alg, {(1, 0, 0): 1}, conn, [0, 1, 0])
    assert not defect.is_zero() and defect == curvature(alg, conn)[2]


def _random_connection(alg, w, rng):
    names = ["x1", "x2", "dx1", "dx2"]
    conn = []
    for _ in range(alg.dim):
        el = GradedElement.zero(w)
        for _ in range(rng.randrange(1, 4)):
            term = GradedElement.const(w, Fraction(rng.randrange(-3, 4)))
            term = term * w.gen(rng.choice(names[:2]))
            term = term * w.gen(rng.choice(names[2:]))
            el = el + term
        conn.append(el)
    return conn


def test_chern_weil_output_closed_and_gauge_invariant():
    alg = u2()
    w = form_world(2)
    d = form_d(w)
    poly = _trace_square(4)
    rng = random.Random(29)
    for _ in range(5):
        conn = _random_connection(alg, w, rng)
        out = chern_weil(alg, poly, conn)
        assert d(out).is_zero()
        direction = [Fraction(rng.randrange(-2, 3)) for _ in range(4)]
        assert gauge_defect(alg, poly, conn, direction).is_zero()


def test_chern_weil_builds_each_coadjoint_derivation_once(monkeypatch):
    built = []

    def counted(lie, world, X, real=equivderham._coadjoint):
        built.append(lie.label)
        return real(lie, world, X)

    monkeypatch.setattr(equivderham, "_coadjoint", counted)
    monkeypatch.setattr(equivderham, "_POLY_WORLDS", {})
    w = form_world(2)
    rng = random.Random(5)
    for i in range(20):
        alg = u2() if i % 2 else su2()
        conn = _random_connection(alg, w, rng)
        assert form_d(w)(chern_weil(alg, _trace_square(alg.dim), conn)).is_zero()
    assert sorted(built) == ["su2"] * 3 + ["u2"] * 4


def test_polynomials_of_one_algebra_share_a_world():
    poly = _trace_square(4)
    assert equivderham._poly(u2(), poly) == equivderham._poly(u2(), poly)


def test_curvature_of_flat_connection_vanishes():
    alg = su2()
    w = form_world(2)
    conn = [GradedElement.zero(w) for _ in range(3)]
    for comp in curvature(alg, conn):
        assert comp.is_zero()
