"""End-to-end acceptance gate: one test per advertised guarantee.

Each test prints a single pass/fail line (visible under pytest -s, or in
the captured output of a failing run) and then asserts the combined
verdict, so the whole gate reads off as twelve lines. Tolerances and
wall-clock budgets are part of each verdict, not just reported.
"""

import cmath
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from ellforge.equivderham import (
    basic_subspace,
    cartan_cohomology,
    chern_weil,
    form_d,
    form_world,
    su2,
    torus_reduction_check,
    u1,
    u2,
    weil_relations_report,
)
from ellforge.euler import (
    anomaly_factorization_ok,
    corrected_euler,
    g2_free_certificate,
    whitney_defect,
)
from ellforge.fermion import (
    SectorDatum,
    looijenga_check,
    pf_closed,
    pf_truncated_ratio,
    sector_z,
    vacuum_character,
    vacuum_character_product,
    weyl_invariant,
)
from ellforge.modforms import (
    Lattice,
    check_weight,
    delta_q,
    eisenstein_lattice,
    g2_anomaly_samples,
    g2_lattice,
    lattice_value,
)
from ellforge.sheafmodel import (
    CircleActionSpace,
    FiniteGroupTable,
    completion_map,
    finite_sectors,
    local_sections,
    localized_transition_rank,
    make_section,
    sigma_section,
    transition,
)
from ellforge.sigma import (
    fgl_from_coordinate,
    group_law_check,
    sigma_exponential,
    sigma_num,
    sigma_product,
    taylor_completion,
)
from test_equivderham import _random_connection, _trace_square

GOLDEN = Path(__file__).parent / "golden"


def _verdict(num, ok, label):
    print("criterion %02d %s %s" % (num, "PASS" if ok else "FAIL", label))
    return ok


def test_criterion_01_sigma_cross_form():
    t0 = time.perf_counter()
    ok = sigma_product(8, 12) == sigma_exponential(8, 12)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert _verdict(1, ok, "sigma cross-form identity at (8, 12)"), elapsed


def test_criterion_02_fgl_axioms():
    t0 = time.perf_counter()
    fgl = fgl_from_coordinate("sigma", 10, 6)
    ok = fgl.is_unital() and fgl.is_commutative() and fgl.is_associative()
    add = fgl_from_coordinate("additive", 3, 0)
    mul = fgl_from_coordinate("multiplicative", 3, 0)
    ok = ok and dict(add.table.coeffs) == {(0, 1, 0): 1, (1, 0, 0): 1}
    ok = ok and dict(mul.table.coeffs) == {
        (0, 1, 0): 1,
        (1, 0, 0): 1,
        (1, 1, 0): 1,
    }
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert _verdict(2, ok, "elliptic FGL axioms at degree 10, q-order 6"), elapsed


def test_criterion_03_group_law_on_dual_curve():
    t0 = time.perf_counter()
    rep = group_law_check(0.2, 0.1)
    ok = rep.residual < 1e-9 and abs(rep.slope - 11.0) <= 0.5
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert _verdict(3, ok, "dual-curve group law residual and slope"), (
        rep.residual,
        rep.slope,
        elapsed,
    )


def test_criterion_04_pfaffian_oracle():
    t0 = time.perf_counter()
    a = [SectorDatum(Fraction(1, 3))]
    b = [SectorDatum(Fraction(1, 4))]
    ok = True
    for tau in (2j, 0.3 + 1.2j, -0.25 + 1.5j):
        lat = Lattice(tau, 1.0)
        closed = pf_closed(a, lat) / pf_closed(b, lat)
        errs = [
            abs(pf_truncated_ratio(a, b, lat, m) - closed) / abs(closed)
            for m in (100, 200, 400, 800)
        ]
        ok = ok and all(x > y for x, y in zip(errs, errs[1:]))
        ok = ok and errs[-1] < 1e-4
        prod = 1.0 + 0j
        for d in a + b:
            prod *= sigma_num(lat, sector_z(d, lat))
        direct = pf_closed(a + b, lat)
        ok = ok and abs(direct - prod) <= 1e-10 * abs(prod)
        ok = ok and pf_closed([SectorDatum(Fraction(0))], lat) == 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert _verdict(4, ok, "truncated vs closed Pfaffian ratios"), elapsed


def test_criterion_05_vacuum_character():
    t0 = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        qo, zo = (6, 8) if n < 3 else (4, 6)
        ch = vacuum_character(n, qo, zo)
        ok = ok and ch == vacuum_character_product(n, qo, zo)
        ok = ok and weyl_invariant(ch)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert _verdict(5, ok, "vacuum character cross-form and Weyl symmetry"), elapsed


def test_criterion_06_looijenga_multipliers():
    t0 = time.perf_counter()
    rng = random.Random(9)
    ok = True
    for _ in range(10):
        lat = Lattice(
            complex(rng.uniform(-0.4, 0.4), rng.uniform(1.0, 2.0)),
            complex(rng.uniform(0.7, 1.3), rng.uniform(-0.3, 0.3)),
        )
        datum = SectorDatum(
            Fraction(rng.randrange(1, 7), 7),
            Fraction(rng.randrange(-3, 4), 5),
            complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)),
        )
        ok = ok and all(chk.ok for chk in looijenga_check(lat, datum, tol=1e-8))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert _verdict(6, ok, "coweight-shift multipliers on 10 samples"), elapsed


def test_criterion_07_euler_anomaly():
    t0 = time.perf_counter()
    ok = anomaly_factorization_ok(2, 4, 3)
    cert = g2_free_certificate(corrected_euler(2, 4, 3), 2)
    ok = ok and cert.ok and not cert.failures
    ok = ok and whitney_defect(1, 1, 6, 4).is_zero()
    ok = ok and whitney_defect(2, 1, 6, 3).is_zero()
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    assert _verdict(7, ok, "Euler anomaly factorization and corrected class"), elapsed


def test_criterion_08_modularity():
    t0 = time.perf_counter()
    ok = True
    for k in (4, 6, 8):
        rep = check_weight(
            lambda lat, k=k: eisenstein_lattice(k, lat), k, count=10, seed=7, tol=1e-9
        )
        ok = ok and rep.ok
    bad = check_weight(g2_lattice, 2, count=10, seed=5, tol=1e-9)
    ok = ok and not bad.ok
    # the failure is affine in the shear entry, with a universal constant
    anomaly = g2_anomaly_samples(count=8, seed=3)
    ok = ok and max(abs(v + 2j * cmath.pi) for v in anomaly) < 1e-6
    delta = check_weight(
        lambda lat: lattice_value(delta_q(40), 12, lat), 12, count=10, seed=11, tol=1e-9
    )
    ok = ok and delta.ok
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert _verdict(8, ok, "weight checks for G4, G6, G8, G2, Delta"), elapsed


def test_criterion_09_equivariant_de_rham():
    t0 = time.perf_counter()
    clauses = {}
    seconds = {}

    def clause(name, check):
        start = time.perf_counter()
        clauses[name] = bool(check())
        seconds[name] = round(time.perf_counter() - start, 2)

    for alg, name in ((u1(), "u1"), (su2(), "su2"), (u2(), "u2")):
        clause("relations " + name, lambda alg=alg: weil_relations_report(alg, 8).ok)
    clause("basic dimension", lambda: len(basic_subspace(su2(), 4)) == 1)
    point = [1, 0, 1, 0, 1, 0, 1, 0, 1]
    clause("cohomology (1,)", lambda: cartan_cohomology((1,), 8).dims == point)
    clause("cohomology (1, 1)", lambda: cartan_cohomology((1, 1), 8).dims == point)
    # H_U(2)(C^2) = H_T(C^2)^W = Q[c1, c2]; the cochain counts differ, and
    # torus.ok, which compares them, is False by design
    q_c1_c2 = {0: 1, 1: 0, 2: 1, 3: 0, 4: 2}
    torus = None

    def reduction():
        nonlocal torus
        torus = torus_reduction_check(4, 2)
        return (
            torus.group_cohomology == torus.torus_cohomology == q_c1_c2
            and torus.injective
            and torus.witness_excluded
        )

    clause("torus reduction cohomology", reduction)
    alg = u2()
    w = form_world(2)
    d = form_d(w)
    poly = _trace_square(4)
    rng = random.Random(12)
    clause("chern_weil closed", lambda: all(
        d(chern_weil(alg, poly, _random_connection(alg, w, rng))).is_zero()
        for _ in range(20)
    ))
    elapsed = time.perf_counter() - t0
    failed = [name for name, good in clauses.items() if not good]
    ok = not failed and elapsed < 300.0
    budget = "missed" if elapsed >= 300.0 else "met"
    assert _verdict(9, ok, "equivariant de Rham relations and reductions"), (
        f"failed clauses {failed}; 300 s budget {budget} at {elapsed:.1f} s\n"
        f"clause seconds {seconds}\n"
        f"torus reduction cohomology: group {torus.group_cohomology},"
        f" torus {torus.torus_cohomology}\n"
        f"torus reduction cochains: group {torus.group_dims},"
        f" torus {torus.torus_dims}\n"
        f"injective {torus.injective}, witness excluded {torus.witness_excluded}"
    )


def test_criterion_10_sheaf_model():
    t0 = time.perf_counter()
    sp = CircleActionSpace((1, 2))
    rep = local_sections(sp, (0, 0), 4)
    ok = True
    for el in rep.basis[2]:
        s = make_section(sp, (0, 0), cocycle=el, truncation=4)
        mid = transition(sp, (0, 0), (Fraction(1, 2), 0), s)
        end = transition(sp, (Fraction(1, 2), 0), (Fraction(1, 2), Fraction(1, 2)), mid)
        far = transition(sp, (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 5), 0), end)
        direct = transition(sp, (0, 0), (Fraction(1, 5), 0), s)
        ok = ok and far.twist == direct.twist == (Fraction(-1, 5), 0)
        ok = ok and far.cocycle == direct.cocycle
    w1 = CircleActionSpace((1,))
    loc1 = localized_transition_rank(w1, (0, 0), (Fraction(1, 3), 0), degree_bound=8)
    ok = ok and loc1.ok and loc1.ranks == [1, 0, 1, 0, 1, 0, 1, 0, 1]
    loc2 = localized_transition_rank(
        sp, (Fraction(1, 2), 0), (Fraction(1, 5), 0), degree_bound=8
    )
    ok = ok and loc2.ok
    comp = completion_map(sigma_section(6, 8))
    for k, term in enumerate(taylor_completion(6, 8)):
        got = comp.coeff_in("u", k).as_univariate()
        for n in range(7):
            ok = ok and got.coeff(n) == term.series.coeff(n)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert _verdict(10, ok, "transition cocycles, localization, completion"), elapsed


def _brute_sectors(mul):
    """Independent enumeration: pairs, classes, and letter orbits from scratch."""
    n = len(mul)
    e = next(a for a in range(n) if all(mul[a][b] == b for b in range(n)))
    inv = [next(b for b in range(n) if mul[a][b] == e) for a in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(n) if mul[a][b] == mul[b][a]]

    def conj(g, x):
        return mul[mul[g][x]][inv[g]]

    def pair_class(p):
        return frozenset((conj(g, p[0]), conj(g, p[1])) for g in range(n))

    classes = {pair_class(p) for p in pairs}
    element_classes = {frozenset(conj(g, a) for g in range(n)) for a in range(n)}
    class_of = {}
    for cls in classes:
        for p in cls:
            class_of[p] = cls
    seen = set()
    orbit_sizes = []
    for cls in sorted(classes, key=min):
        if cls in seen:
            continue
        orbit = {cls}
        queue = [cls]
        while queue:
            cur = queue.pop()
            p = min(cur)
            for img in ((p[1], inv[p[0]]), (p[0], mul[p[0]][p[1]])):
                nxt = class_of[img]
                if nxt not in orbit:
                    orbit.add(nxt)
                    queue.append(nxt)
        seen |= orbit
        orbit_sizes.append(len(orbit))
    return pairs, classes, element_classes, sorted(orbit_sizes)


def _s3_mul():
    perms = sorted(
        [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
         if {a, b, c} == {0, 1, 2}]
    )
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms
    ]


def test_criterion_11_finite_sectors():
    t0 = time.perf_counter()
    ok = True
    z2 = [[0, 1], [1, 0]]
    pairs, classes, eclasses, sizes = _brute_sectors(z2)
    rep = finite_sectors(FiniteGroupTable(2, z2))
    ok = ok and sizes == [1, 3] and len(rep.orbits) == 2
    ok = ok and sorted(o.index for o in rep.orbits) == sizes
    ok = ok and rep.pair_count == len(pairs) == 4
    ok = ok and rep.class_count == len(classes)
    ok = ok and rep.burnside_ok and len(pairs) == 2 * len(eclasses)
    s3 = _s3_mul()
    pairs, classes, eclasses, sizes = _brute_sectors(s3)
    rep = finite_sectors(FiniteGroupTable(6, s3))
    ok = ok and rep.pair_count == len(pairs) == 18
    ok = ok and len(pairs) == 6 * len(eclasses)
    ok = ok and rep.burnside_ok
    ok = ok and rep.class_count == len(classes)
    ok = ok and sorted(o.index for o in rep.orbits) == sizes
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert _verdict(11, ok, "finite-group sector counts by brute force"), elapsed


EMIT_CASES = [
    (["euler", "--roots", "2", "--nilpotency", "4", "--qorder", "2"], "euler_r2_n4_q2.txt"),
    (["fgl", "--coordinate", "additive", "--degree", "3", "--json"], "fgl_additive_d3.json"),
    (["sigma", "--qorder", "3", "--zorder", "4", "--json"], "sigma_q3_z4.json"),
    (
        ["sheaf", "--weights", "1,2", "--anchor", "1/2,0", "--sections", "--degree", "4"],
        "sheaf_w12_sections.txt",
    ),
    (
        ["sectors", "--group-table", str(GOLDEN / "z2_table.json"), "--json"],
        "sectors_z2.json",
    ),
]


def test_criterion_12_cli_determinism():
    t0 = time.perf_counter()
    ok = True
    for argv, name in EMIT_CASES:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "ellforge.cli"] + argv,
                capture_output=True,
                check=False,
            )
            for _ in range(2)
        ]
        ok = ok and all(r.returncode == 0 for r in runs)
        ok = ok and runs[0].stdout == runs[1].stdout
        ok = ok and runs[0].stdout == (GOLDEN / name).read_bytes()
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert _verdict(12, ok, "golden-file byte equality across runs"), elapsed
