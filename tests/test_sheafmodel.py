"""Fixed loci, twisted local sections, completion, and finite-group sectors."""

import random
from fractions import Fraction

import pytest

from ellforge.equivderham import (
    GradedElement,
    cartan_cohomology,
    circle_complex,
    circle_d,
    substitute,
    u1,
    weight_action,
)
from ellforge import equivderham, sheafmodel
from ellforge.series import MultiSeries, TruncatedSeries
from ellforge.sheafmodel import (
    CircleActionSpace,
    _fold,
    _real_images,
    _world,
    CurveFunction,
    FiniteGroupTable,
    LocalSection,
    completion_map,
    finite_sectors,
    fixed_locus,
    local_sections,
    localized_transition_rank,
    make_section,
    module_action,
    sigma_section,
    transition,
)
from ellforge.sigma import taylor_completion
from test_oracles import cartan_d, circle_rep

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


# ---------------------------------------------------------------------------
# fixed loci


def test_trivial_pair_fixes_everything():
    sp = CircleActionSpace((1, 2))
    assert fixed_locus(sp, (0, 0)) == (0, 1)


def test_half_turn_keeps_even_weights():
    sp = CircleActionSpace((1, 2))
    assert fixed_locus(sp, (HALF, 0)) == (1,)


def test_generic_anchor_keeps_only_zero_weights():
    # denominator coprime to every weight: nothing nonzero survives
    sp = CircleActionSpace((1, 2))
    assert fixed_locus(sp, (Fraction(1, 5), 0)) == ()
    spz = CircleActionSpace((0, 3))
    assert fixed_locus(spz, (Fraction(1, 7), Fraction(2, 7))) == (0,)


def test_fixed_locus_monotone_under_multiples():
    """Multiplying the anchor can only enlarge the subgroup's fixed set."""
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randrange(1, 4)
        ws = tuple(rng.randrange(-4, 5) for _ in range(k))
        sp = CircleActionSpace(ws)
        h = (
            Fraction(rng.randrange(12), rng.randrange(1, 12)),
            Fraction(rng.randrange(12), rng.randrange(1, 12)),
        )
        m = rng.randrange(1, 6)
        big = set(fixed_locus(sp, (m * h[0], m * h[1])))
        assert set(fixed_locus(sp, h)) <= big


# ---------------------------------------------------------------------------
# bases of local sections


def test_point_sections_are_polynomials_in_u():
    pt = CircleActionSpace(())
    rep = local_sections(pt, (0, 0), 8)
    assert rep.cohomology_dims == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert rep.cocycle_dims == [1, 0, 1, 0, 1, 0, 1, 0, 1]


def test_generic_anchor_matches_point():
    w1 = CircleActionSpace((1,))
    rep = local_sections(w1, (THIRD, 0), 6)
    pt = local_sections(CircleActionSpace(()), (0, 0), 6)
    assert rep.fixed == ()
    assert rep.cohomology_dims == pt.cohomology_dims


def test_full_plane_matches_weightwise_computation():
    w1 = CircleActionSpace((1,))
    rep = local_sections(w1, (0, 0), 6)
    cross = cartan_cohomology((1,), 6)
    assert rep.cohomology_dims == cross.dims


def test_two_weights_at_origin():
    sp = CircleActionSpace((1, 2))
    rep = local_sections(sp, (0, 0), 4)
    assert rep.fixed == (0, 1)
    assert rep.cohomology_dims == [1, 0, 1, 0, 1]


def test_basis_elements_pass_cocycle_validation():
    w1 = CircleActionSpace((1,))
    rep = local_sections(w1, (0, 0), 4)
    for el in rep.basis[2]:
        make_section(w1, (0, 0), cocycle=el, truncation=4)


def test_weight_basis_differential_is_the_real_one():
    """Substituting z = x + i y, zb = x - i y, u = i u0 intertwines the
    weight-basis differential with the real Cartan differential: the real
    and imaginary parts that _fold takes from the rescaled images agree."""
    ws = (1, -2)
    world, blocks = circle_complex(ws, 3, 3)
    d = circle_d(weight_action(ws), world)
    real_d = cartan_d(u1(), _world(2), circle_rep(ws))
    images = _real_images(2)
    for b in blocks:
        for deg in range(4):
            for key in b.keys[deg]:
                el = GradedElement(world, {key: Fraction(1)})
                lhs = _fold(substitute(d(el), _world(2), images).coeffs)
                parts = _fold(substitute(el, _world(2), images).coeffs)
                assert lhs == tuple(real_d(GradedElement(_world(2), p)).coeffs for p in parts)


def test_basis_is_rational_with_the_complex_dimension():
    # the real and imaginary parts of the weight-basis cocycles span a
    # rational space of the same dimension as the cocycles themselves
    rep = local_sections(CircleActionSpace((1, 1)), (0, 0), 2)
    assert rep.cocycle_dims[2] == len(rep.basis[2]) == 5
    for el in rep.basis[2]:
        assert all(isinstance(c, Fraction) for c in el.coeffs.values())


def test_noncocycle_rejected():
    for ws in ((1,), (1, 2), (0, 3)):
        sp = CircleActionSpace(ws)
        world = local_sections(sp, (0, 0), 2).basis[0][0].world
        k = len(ws)
        # the last coordinate has a nonzero weight, so its area form is
        # de Rham closed but not equivariantly closed
        area = world.gen(f"dx{2 * k - 1}") * world.gen(f"dx{2 * k}")
        # 1 + area is closed in its real part and not in its imaginary part
        for el in (world.gen("x1"), area, 1 + area):
            with pytest.raises(ValueError, match="not a cocycle"):
                make_section(sp, (0, 0), cocycle=el, truncation=4)


# ---------------------------------------------------------------------------
# module action


def _poly(rng, deg, trunc):
    coeffs = {}
    for n in range(deg + 1):
        num = rng.randrange(-6, 7)
        if num:
            coeffs[n] = Fraction(num, rng.randrange(1, 5))
    if not coeffs:
        coeffs[0] = Fraction(1)
    return CurveFunction((0, 0), TruncatedSeries("z", trunc, coeffs))


def test_unit_function_acts_trivially():
    pt = CircleActionSpace(())
    s = make_section(pt, (0, 0), truncation=6)
    one = CurveFunction((0, 0), TruncatedSeries("z", 6, {0: Fraction(1)}))
    t = module_action(one, s)
    assert t.prefactor == s.prefactor
    assert t.weight == s.weight


def test_coordinate_acts_as_u():
    pt = CircleActionSpace(())
    s = make_section(pt, (0, 0), truncation=6)
    f = CurveFunction((0, 0), TruncatedSeries("z", 6, {1: Fraction(1)}))
    t = module_action(f, s)
    assert dict(t.prefactor.coeffs) == {(0, 1): Fraction(1)}
    assert t.weight == s.weight + 2


def test_action_associative():
    pt = CircleActionSpace(())
    s = make_section(pt, (0, 0), truncation=8)
    rng = random.Random(17)
    for _ in range(8):
        f = _poly(rng, 4, 8)
        g = _poly(rng, 4, 8)
        fg = CurveFunction((0, 0), f.series * g.series)
        assert module_action(fg, s).prefactor == module_action(
            f, module_action(g, s)
        ).prefactor


def test_twisted_action_associative():
    """After a transition the argument is shifted, exactly, tau included."""
    w1 = CircleActionSpace((1,))
    s = make_section(w1, (0, 0), truncation=8)
    t = transition(w1, (0, 0), (THIRD, HALF), s)
    rng = random.Random(23)
    for _ in range(6):
        f = _poly(rng, 3, 8)
        g = _poly(rng, 3, 8)
        fg = CurveFunction((0, 0), f.series * g.series)
        assert module_action(fg, t).prefactor == module_action(
            f, module_action(g, t)
        ).prefactor


def test_twisted_coordinate_action():
    w1 = CircleActionSpace((1,))
    s = make_section(w1, (0, 0), truncation=6)
    t = transition(w1, (0, 0), (THIRD, 0), s)
    f = CurveFunction((0, 0), TruncatedSeries("z", 6, {1: Fraction(1)}))
    acted = module_action(f, t)
    assert dict(acted.prefactor.coeffs) == {
        (0, 1): Fraction(1),
        (0, 0): Fraction(-1, 3),
    }


def test_pole_rejected():
    pt = CircleActionSpace(())
    s = make_section(pt, (0, 0), truncation=6)
    f = CurveFunction((0, 0), TruncatedSeries("z", 6, {-1: Fraction(1)}, minexp=-1))
    with pytest.raises(ValueError):
        module_action(f, s)


def test_recentering_required():
    pt = CircleActionSpace(())
    s = make_section(pt, (0, 0), truncation=6)
    f = CurveFunction((HALF, 0), TruncatedSeries("z", 6, {1: Fraction(1)}))
    with pytest.raises(ValueError):
        module_action(f, s)


# ---------------------------------------------------------------------------
# transitions


def test_transition_at_same_anchor_is_identity():
    w1 = CircleActionSpace((1,))
    s = make_section(w1, (0, 0), truncation=6)
    t = transition(w1, (0, 0), (0, 0), s)
    assert t.cocycle == s.cocycle
    assert t.twist == (0, 0)
    assert t.anchor == s.anchor


def test_transition_restricts_and_twists():
    sp = CircleActionSpace((1, 2))
    rep = local_sections(sp, (0, 0), 4)
    moved = 0
    for el in rep.basis[2]:
        s = make_section(sp, (0, 0), cocycle=el, truncation=4)
        t = transition(sp, (0, 0), (HALF, 0), s)
        assert t.twist == (-HALF, 0)
        # survivors live on two ambient coordinates renamed in order
        for (e, o), _c in t.cocycle.coeffs.items():
            assert len(e) == 3
            assert all(i in (0, 1) for i in o)
        if not t.cocycle.is_zero():
            moved += 1
    assert moved >= 1


def test_transition_chain_matches_direct():
    sp = CircleActionSpace((1, 2))
    rep = local_sections(sp, (0, 0), 4)
    for el in rep.basis[2]:
        s = make_section(sp, (0, 0), cocycle=el, truncation=4)
        mid = transition(sp, (0, 0), (HALF, 0), s)
        end = transition(sp, (HALF, 0), (HALF, HALF), mid)
        far = transition(sp, (HALF, HALF), (Fraction(1, 5), 0), end)
        direct = transition(sp, (0, 0), (Fraction(1, 5), 0), s)
        assert far.twist == direct.twist == (Fraction(-1, 5), 0)
        assert far.cocycle == direct.cocycle
        assert far.anchor == direct.anchor


def test_cocycle_checks_build_each_differential_once(monkeypatch):
    # local_sections builds its complex through circle_complex, and
    # make_section and transition check cocycles through circle_d; all of
    # them share one differential per weight tuple, built on first use
    built = []

    def counted(action, world, real=equivderham.circle_d):
        built.append(tuple(row[i] for i, row in enumerate(action["u"])))
        return real(action, world)

    monkeypatch.setattr(equivderham, "circle_d", counted)
    monkeypatch.setattr(equivderham, "_CIRCLE_OPS", {})
    monkeypatch.setattr(sheafmodel, "_COCYCLE_OPS", {})
    sp = CircleActionSpace((1, 2))
    for el in local_sections(sp, (0, 0), 4).basis[2]:
        s = make_section(sp, (0, 0), cocycle=el, truncation=4)
        mid = transition(sp, (0, 0), (HALF, 0), s)
        end = transition(sp, (HALF, 0), (HALF, HALF), mid)
        transition(sp, (HALF, HALF), (Fraction(1, 5), 0), end)
        transition(sp, (0, 0), (Fraction(1, 5), 0), s)
    local_sections(sp, (0, 0), 4)
    assert sorted(built) == [(), (1, 2), (2,)]


def test_transition_needs_containment():
    sp = CircleActionSpace((1, 2))
    s = make_section(sp, (HALF, 0), truncation=4)
    with pytest.raises(ValueError):
        transition(sp, (HALF, 0), (0, 0), s)


def test_transition_checks_source_anchor():
    sp = CircleActionSpace((1, 2))
    s = make_section(sp, (0, 0), truncation=4)
    with pytest.raises(ValueError):
        transition(sp, (HALF, 0), (Fraction(1, 5), 0), s)


# ---------------------------------------------------------------------------
# completion


def _unit_factor(qorder, zorder):
    return MultiSeries.one(("q", "z"), caps=(qorder, zorder))


def test_constant_completes_to_constant():
    pt = CircleActionSpace(())
    s = make_section(pt, (0, 0), factor=_unit_factor(4, 6), truncation=6)
    assert dict(completion_map(s).coeffs) == {(0, 0): Fraction(1)}


def test_completion_turns_coordinate_into_u():
    pt = CircleActionSpace(())
    s = make_section(pt, (0, 0), factor=_unit_factor(4, 6), truncation=6)
    f = CurveFunction((0, 0), TruncatedSeries("z", 6, {1: Fraction(1)}))
    assert dict(completion_map(module_action(f, s)).coeffs) == {(0, 1): Fraction(1)}


def test_sigma_completion_cross_form():
    """q-expansions of the odd coordinate agree between both constructions."""
    s = sigma_section(6, 8)
    comp = completion_map(s)
    terms = taylor_completion(6, 8)
    for k, term in enumerate(terms):
        got = comp.coeff_in("u", k).as_univariate()
        for n in range(7):
            assert got.coeff(n) == term.series.coeff(n)


def test_completion_intertwines_module_action():
    pt = CircleActionSpace(())
    s = make_section(pt, (0, 0), factor=_unit_factor(4, 6), truncation=6)
    rng = random.Random(31)
    for _ in range(5):
        f = _poly(rng, 4, 6)
        lhs = completion_map(module_action(f, s))
        taylor = MultiSeries(
            ("q", "u"),
            {(0, n): f.series.coeff(n) for n in range(7) if f.series.coeff(n)},
            caps=(4, 6),
        )
        assert lhs == taylor * completion_map(s)


def test_symbolic_factor_has_no_expansion():
    pt = CircleActionSpace(())
    s = make_section(pt, (0, 0), truncation=6)
    with pytest.raises(ValueError):
        completion_map(s)


def test_completion_requires_trivial_anchor():
    w1 = CircleActionSpace((1,))
    s = make_section(w1, (0, 0), factor=_unit_factor(4, 6), truncation=6)
    t = transition(w1, (0, 0), (THIRD, 0), s)
    with pytest.raises(ValueError):
        completion_map(t)


def test_completion_rejects_modular_prefactor():
    pt = CircleActionSpace(())
    s = make_section(pt, (0, 0), factor=_unit_factor(4, 6), truncation=6)
    tainted = LocalSection(
        s.space,
        s.anchor,
        s.center,
        s.twist,
        s.cocycle,
        s.prefactor
        * MultiSeries(("tau", "u"), {(1, 0): Fraction(1)}, caps=s.prefactor.caps),
        s.factor,
        None,
        s.truncation,
    )
    with pytest.raises(ValueError):
        completion_map(tainted)


def test_completion_rejects_coordinate_content():
    w1 = CircleActionSpace((1,))
    rep = local_sections(w1, (0, 0), 4)
    dressed = next(
        el
        for el in rep.basis[2]
        for (e, o), _c in el.coeffs.items()
        if o or any(e[1:])
    )
    s = make_section(w1, (0, 0), cocycle=dressed, factor=_unit_factor(4, 6), truncation=6)
    with pytest.raises(ValueError):
        completion_map(s)


# ---------------------------------------------------------------------------
# localization


def test_localized_rank_weight_one():
    w1 = CircleActionSpace((1,))
    rep = localized_transition_rank(w1, (0, 0), (THIRD, 0), degree_bound=8)
    assert rep.upstairs == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    assert rep.downstairs == rep.upstairs
    assert rep.ranks == rep.upstairs
    assert rep.ok


def test_localized_rank_two_weights():
    sp = CircleActionSpace((1, 2))
    rep = localized_transition_rank(sp, (HALF, 0), (Fraction(1, 5), 0), degree_bound=8)
    assert rep.ok


def test_localized_rank_from_origin_pair():
    sp = CircleActionSpace((1, 2))
    rep = localized_transition_rank(sp, (0, 0), (HALF, 0), degree_bound=4)
    assert rep.upstairs == [1, 0, 1, 0, 1]
    assert rep.ok


def test_localized_rank_is_measured_on_restricted_cocycles(monkeypatch):
    """Losing the source's degree-2 cocycles shows up in the rank."""
    exact = sheafmodel.circle_complex

    def lossy(weights, degree_bound, wmax):
        world, blocks = exact(weights, degree_bound, wmax)
        if len(weights) == 2:  # the source locus at the origin
            for b in blocks:
                b.cocycles[2] = []
        return world, blocks

    monkeypatch.setattr(sheafmodel, "circle_complex", lossy)
    rep = localized_transition_rank(CircleActionSpace((1, 2)), (0, 0), (HALF, 0), 4)
    assert (rep.ranks[2], rep.downstairs[2]) == (0, 1)
    assert not rep.ok


# ---------------------------------------------------------------------------
# finite-group sectors


def _z2():
    return FiniteGroupTable(2, ((0, 1), (1, 0)))


def _s3():
    import itertools

    perms = sorted(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    mul = tuple(
        tuple(idx[tuple(p[q[i]] for i in range(3))] for q in perms) for p in perms
    )
    return FiniteGroupTable(6, mul)


def test_z2_sectors():
    rep = finite_sectors(_z2())
    assert rep.pair_count == 4
    assert rep.class_count == 4
    assert len(rep.orbits) == 2
    assert rep.burnside_ok
    nontrivial = next(o for o in rep.orbits if o.classes == 3)
    assert nontrivial.index == 3
    assert "T" in nontrivial.stabilizer_words
    assert "SS" in nontrivial.stabilizer_words


def test_trivial_group_sees_full_modular_group():
    rep = finite_sectors(FiniteGroupTable(1, ((0,),)))
    assert rep.pair_count == 1
    assert rep.orbits[0].stabilizer_words == ("S", "T")


def test_s3_sectors():
    rep = finite_sectors(_s3())
    assert rep.pair_count == 18
    assert rep.group_class_count == 3
    assert rep.burnside_ok
    assert rep.class_count == 8
    assert sorted(o.pairs for o in rep.orbits) == [1, 8, 9]
    assert sorted(o.classes for o in rep.orbits) == [1, 3, 4]
    for o in rep.orbits:
        assert o.index == o.classes


def test_sectors_invariant_under_relabeling():
    base = _s3()
    want = finite_sectors(base)
    rng = random.Random(41)
    for _ in range(4):
        p = list(range(6))
        rng.shuffle(p)
        mul = [[0] * 6 for _ in range(6)]
        for a in range(6):
            for b in range(6):
                mul[p[a]][p[b]] = p[base.mul[a][b]]
        got = finite_sectors(FiniteGroupTable(6, tuple(tuple(r) for r in mul)))
        assert got.pair_count == want.pair_count
        assert got.class_count == want.class_count
        assert sorted((o.pairs, o.classes) for o in got.orbits) == sorted(
            (o.pairs, o.classes) for o in want.orbits
        )


def test_table_validation():
    with pytest.raises(ValueError):
        FiniteGroupTable(2, ((0,),))
    with pytest.raises(ValueError):
        FiniteGroupTable(2, ((0, 5), (1, 0)))
    with pytest.raises(ValueError):
        FiniteGroupTable(2, ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        FiniteGroupTable(2, ((0, 1), (1, 1)))
    broken = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    broken[1][2] = 4
    with pytest.raises(ValueError):
        FiniteGroupTable(5, tuple(tuple(r) for r in broken))


def test_table_from_json():
    rep = finite_sectors(
        FiniteGroupTable.from_json({"order": 2, "mul": [[0, 1], [1, 0]]})
    )
    assert rep.pair_count == 4
