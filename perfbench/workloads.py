"""The benchmark's three workloads, each a list of tasks with a reference check.

A task does one piece of ellforge work and compares the result against a
reference: an identity the library must satisfy, a pinned dimension, a
numerical tolerance, or golden bytes from ``tests/golden``.  ``run()``
returns True when the check holds, so a pass over a workload is the time
to a verified result.

The seed drives only sampled inputs (lattices, sector data, random
connections, transition anchors and group-table labels); no verdict
depends on it.  ``size="tiny"`` shrinks the expensive tasks for the
benchmark's self-tests.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from ellforge import cli
from ellforge.equivderham import (
    GradedElement,
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
    eisenstein_num,
    g2_anomaly_samples,
    g2_lattice,
    lattice_value,
    random_lattice,
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

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"

# Hand-verified cochain-level dimensions of the U(2) torus reduction on C^2
# (group side and swap-even torus side); they differ in degrees 2 and 4, so
# the report's ok flag is False and is not what the benchmark checks.
TORUS_GROUP_DIMS = {0: 2, 1: 2, 2: 6, 3: 6, 4: 16}
TORUS_TORUS_DIMS = {0: 2, 1: 2, 2: 7, 3: 6, 4: 17}

# u(2) basic subspace of the Weil algebra, by degree.
BASIC_U2_DIMS = {3: 0, 4: 2}

# Finite-group sectors of S_n: commuting pairs, pair classes, and the
# sorted modular orbit sizes on those classes.  Relabelling the group
# elements changes none of them.
SECTORS = {
    3: (18, 8, [1, 3, 4]),
    4: (120, 21, [1, 1, 3, 3, 3, 4, 6]),
}

CRITERION4_LATTICES = (2j, 0.3 + 1.2j, -0.25 + 1.5j)


@dataclass
class Task:
    name: str
    run: Callable[[], bool]


def _cli_stdout(argv) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


def _golden_task(name, argv, golden):
    expected = (GOLDEN / golden).read_bytes()

    def run():
        code, out = _cli_stdout(argv)
        return code == 0 and out == expected

    return Task(name, run)


def _even_pattern(degree_bound):
    return [1 - n % 2 for n in range(degree_bound + 1)]


def _prefix(table, degree_bound):
    return {d: v for d, v in table.items() if d <= degree_bound}


# ------------------------------------------------------------------ qseries

QSERIES_SIZES = {
    "full": {
        "cross": (8, 12),
        "fgl": (10, 6),
        "vacuum": ((1, 6, 8), (2, 6, 8), (3, 4, 6)),
        "euler": (2, 4, 3),
        "whitney": ((1, 1, 6, 4), (2, 1, 6, 3)),
        "completion": (6, 8),
        "ladder_main": (100, 200, 400, 800),
        "ladder_other": (100, 200, 400),
        "ladder_tol": 1e-4,
        "weight_samples": 10,
        "looijenga_samples": 10,
    },
    "tiny": {
        "cross": (4, 6),
        "fgl": (6, 3),
        "vacuum": ((1, 3, 4), (2, 3, 4)),
        "euler": (2, 3, 2),
        "whitney": ((1, 1, 3, 2),),
        "completion": (3, 4),
        "ladder_main": (50, 100, 200),
        "ladder_other": (50, 100),
        "ladder_tol": 1e-3,
        "weight_samples": 3,
        "looijenga_samples": 3,
    },
}


def _ladder_task(name, tau, ms, tol):
    a = [SectorDatum(Fraction(1, 3))]
    b = [SectorDatum(Fraction(1, 4))]

    def run():
        lat = Lattice(tau, 1.0)
        closed = pf_closed(a, lat) / pf_closed(b, lat)
        errs = [
            abs(pf_truncated_ratio(a, b, lat, m) - closed) / abs(closed) for m in ms
        ]
        ok = all(x > y for x, y in zip(errs, errs[1:])) and errs[-1] < tol
        prod = complex(1)
        for d in a + b:
            prod *= sigma_num(lat, sector_z(d, lat))
        direct = pf_closed(a + b, lat)
        ok = ok and abs(direct - prod) <= 1e-10 * abs(prod)
        return ok and pf_closed([SectorDatum(Fraction(0))], lat) == 0

    return Task(name, run)


def qseries(seed: int, size: str = "full") -> list[Task]:
    """Exact series arithmetic and the float oracles, about half each."""
    sz = QSERIES_SIZES[size]
    rng = random.Random(seed)
    # the sampling domain of `ellforge check looijenga`; on criterion 6's
    # wider one (Im tau up to 2.1, |alpha2| up to 3/5) the float multipliers
    # miss the 1e-8 tolerance for a few percent of seeds
    samples = []
    for _ in range(sz["looijenga_samples"]):
        lat = Lattice(complex(rng.uniform(-0.3, 0.3), rng.uniform(1.0, 1.8)), 1.0)
        datum = SectorDatum(
            Fraction(rng.randrange(1, 6), 7),
            Fraction(rng.randrange(-2, 3), 5),
            complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)),
        )
        samples.append((lat, datum))
    weight_seeds = [rng.randrange(2**31) for _ in range(6)]
    eis_lat = random_lattice(rng)

    def cross():
        q, z = sz["cross"]
        return sigma_product(q, z) == sigma_exponential(q, z)

    def fgl_axioms():
        fgl = fgl_from_coordinate("sigma", *sz["fgl"])
        add = fgl_from_coordinate("additive", 3, 0)
        mul = fgl_from_coordinate("multiplicative", 3, 0)
        return (
            fgl.is_unital()
            and fgl.is_commutative()
            and fgl.is_associative()
            and dict(add.table.coeffs) == {(0, 1, 0): 1, (1, 0, 0): 1}
            and dict(mul.table.coeffs) == {(0, 1, 0): 1, (1, 0, 0): 1, (1, 1, 0): 1}
        )

    def vacuum():
        for n, qo, zo in sz["vacuum"]:
            ch = vacuum_character(n, qo, zo)
            if ch != vacuum_character_product(n, qo, zo) or not weyl_invariant(ch):
                return False
        return True

    def euler_classes():
        m, deg, qo = sz["euler"]
        cert = g2_free_certificate(corrected_euler(m, deg, qo), m)
        return (
            anomaly_factorization_ok(m, deg, qo)
            and cert.ok
            and not cert.failures
            and all(whitney_defect(*args).is_zero() for args in sz["whitney"])
        )

    def completion():
        q, z = sz["completion"]
        comp = completion_map(sigma_section(q, z))
        return all(
            comp.coeff_in("u", k).as_univariate().coeff(n) == term.series.coeff(n)
            for k, term in enumerate(taylor_completion(q, z))
            for n in range(q + 1)
        )

    def weights():
        count = sz["weight_samples"]
        s = iter(weight_seeds)
        ok = all(
            check_weight(
                lambda lat, k=k: eisenstein_lattice(k, lat), k, count=count,
                seed=next(s), tol=1e-9,
            ).ok
            for k in (4, 6, 8)
        )
        ok = ok and check_weight(
            lambda lat: lattice_value(delta_q(40), 12, lat), 12, count=count,
            seed=next(s), tol=1e-9,
        ).ok
        # G2 is only quasimodular: its weight check must fail, by a universal
        # anomaly -2 pi i per unit of the shear entry
        ok = ok and not check_weight(g2_lattice, 2, count=10, seed=next(s), tol=1e-9).ok
        anomaly = g2_anomaly_samples(count=8, seed=next(s))
        return ok and max(abs(v + 2j * cmath.pi) for v in anomaly) < 1e-6

    def eisenstein_sums():
        return all(
            abs(eisenstein_num(k, eis_lat, 300) - eisenstein_lattice(k, eis_lat))
            <= 1e-6 * abs(eisenstein_lattice(k, eis_lat))
            for k in (4, 6)
        )

    def group_law():
        rep = group_law_check(0.2, 0.1)
        return rep.residual < 1e-9 and abs(rep.slope - 11.0) <= 0.5

    def looijenga():
        return all(
            chk.ok for lat, datum in samples for chk in looijenga_check(lat, datum, 1e-8)
        )

    main_tau, *other_taus = CRITERION4_LATTICES
    return [
        Task("sigma-cross-form", cross),
        Task("fgl-axioms", fgl_axioms),
        Task("vacuum-character", vacuum),
        Task("euler-anomaly", euler_classes),
        Task("completion", completion),
        _ladder_task("pfaffian-ladder-main", main_tau, sz["ladder_main"], sz["ladder_tol"]),
        *(
            _ladder_task(f"pfaffian-ladder-{i}", tau, sz["ladder_other"], sz["ladder_tol"])
            for i, tau in enumerate(other_taus, 1)
        ),
        Task("weight-checks", weights),
        Task("eisenstein-num", eisenstein_sums),
        Task("group-law", group_law),
        Task("looijenga", looijenga),
        _golden_task("cli-sigma", ["sigma", "--qorder", "3", "--zorder", "4", "--json"],
                     "sigma_q3_z4.json"),
        _golden_task("cli-fgl", ["fgl", "--coordinate", "additive", "--degree", "3", "--json"],
                     "fgl_additive_d3.json"),
        _golden_task("cli-euler", ["euler", "--roots", "2", "--nilpotency", "4", "--qorder", "2"],
                     "euler_r2_n4_q2.txt"),
    ]


# ------------------------------------------------------------------- cartan

CARTAN_SIZES = {
    "full": {"cohomology": ((1, 1), 4), "torus": (3, 2), "basic": 4},
    "tiny": {"cohomology": ((1, 1), 2), "torus": (1, 2), "basic": 3},
}


def cartan(seed: int, size: str = "full") -> list[Task]:
    """A few large dense eliminations: criterion 9's hot spot, scaled down.

    Nothing here is sampled, so the seed changes no input.
    """
    sz = CARTAN_SIZES[size]

    def cohomology():
        weights, bound = sz["cohomology"]
        return cartan_cohomology(weights, bound).dims == _even_pattern(bound)

    def torus():
        bound, poly = sz["torus"]
        rep = torus_reduction_check(bound, poly)
        return (
            rep.group_dims == _prefix(TORUS_GROUP_DIMS, bound)
            and rep.torus_dims == _prefix(TORUS_TORUS_DIMS, bound)
            and rep.injective
            and rep.witness_excluded
        )

    def basic():
        return len(basic_subspace(u2(), sz["basic"])) == BASIC_U2_DIMS[sz["basic"]]

    return [
        Task("cartan-cohomology", cohomology),
        Task("torus-reduction", torus),
        Task("basic-subspace-u2", basic),
    ]


# --------------------------------------------------------------- weil-sheaf

WEIL_SHEAF_SIZES = {
    "full": {
        "weil": (("u1", 8), ("su2", 6), ("u2", 4)),
        "connections": 20,
        "sections": (((0, 0), 4), ((Fraction(1, 2), 0), 6)),
        "localized_bound": 8,
    },
    "tiny": {
        "weil": (("u1", 4), ("su2", 3)),
        "connections": 3,
        "sections": (((0, 0), 2), ((Fraction(1, 2), 0), 3)),
        "localized_bound": 3,
    },
}

_LIE = {"u1": u1, "su2": su2, "u2": u2}

# anchors of the (1, 2) space whose fixed locus is the weight-2 coordinate
_HALF_ANCHORS = [
    (Fraction(1, 2), Fraction(0)),
    (Fraction(0), Fraction(1, 2)),
    (Fraction(1, 2), Fraction(1, 2)),
]


def _generic_anchor(rng):
    """An anchor fixing no coordinate of a space with weights 1 and 2."""
    p = rng.choice((3, 5, 7))
    x, y = 0, 0
    while x == 0 and y == 0:
        x, y = rng.randrange(p), rng.randrange(p)
    return (Fraction(x, p), Fraction(y, p))


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


def _symmetric_group(n, rng):
    """Multiplication table of S_n with the elements randomly relabelled."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms]
    label = list(range(len(perms)))
    rng.shuffle(label)
    mul = [[0] * len(perms) for _ in perms]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            mul[label[a]][label[b]] = label[c]
    return FiniteGroupTable(len(perms), tuple(tuple(r) for r in mul))


def weil_sheaf(seed: int, size: str = "full") -> list[Task]:
    """Derivation-heavy relation checks plus many small sheaf eliminations."""
    sz = WEIL_SHEAF_SIZES[size]
    rng = random.Random(seed)
    space = CircleActionSpace((1, 2))
    alg = u2()
    world = form_world(2)
    connections = [_random_connection(alg, world, rng) for _ in range(sz["connections"])]
    chain = (rng.choice(_HALF_ANCHORS), rng.choice(_HALF_ANCHORS), _generic_anchor(rng))
    localized_targets = (_generic_anchor(rng), _generic_anchor(rng))
    groups = {n: _symmetric_group(n, rng) for n in SECTORS}
    trace_square = {
        tuple(2 if i == a else 0 for i in range(alg.dim)): Fraction(-1, 2)
        for a in range(alg.dim)
    }

    def relations():
        return all(weil_relations_report(_LIE[name](), deg).ok for name, deg in sz["weil"])

    def chern_weil_closed():
        d = form_d(world)
        return all(d(chern_weil(alg, trace_square, c)).is_zero() for c in connections)

    def sections_and_transitions():
        origin = (Fraction(0), Fraction(0))
        reps = {anchor: local_sections(space, anchor, bound) for anchor, bound in sz["sections"]}
        ok = all(
            reps[anchor].cohomology_dims == _even_pattern(bound)
            for anchor, bound in sz["sections"]
        )
        a, b, end = chain
        ok = ok and bool(reps[origin].basis[2])
        for el in reps[origin].basis[2]:
            s = make_section(space, origin, cocycle=el, truncation=4)
            far = transition(space, b, end, transition(space, a, b, transition(space, origin, a, s)))
            direct = transition(space, origin, end, s)
            ok = ok and far.twist == direct.twist == (-end[0], -end[1])
            ok = ok and far.cocycle == direct.cocycle
        return ok

    def localized():
        bound = sz["localized_bound"]
        one = localized_transition_rank(
            CircleActionSpace((1,)), (0, 0), localized_targets[0], degree_bound=bound
        )
        two = localized_transition_rank(
            space, chain[0], localized_targets[1], degree_bound=bound
        )
        return one.ok and one.ranks == _even_pattern(bound) and two.ok

    def sectors():
        ok = True
        for n, (pairs, classes, orbits) in SECTORS.items():
            rep = finite_sectors(groups[n])
            ok = ok and rep.burnside_ok and rep.pair_count == pairs
            ok = ok and rep.class_count == classes
            ok = ok and sorted(o.index for o in rep.orbits) == orbits
            ok = ok and sum(o.pairs for o in rep.orbits) == pairs
        return ok

    def check():
        code, out = _cli_stdout(["check"])
        passed, _, total = out.splitlines()[-1].partition(b" ")[0].partition(b"/")
        return code == 0 and passed == total and int(total) >= 11

    return [
        Task("weil-relations", relations),
        Task("chern-weil", chern_weil_closed),
        Task("sections-transitions", sections_and_transitions),
        Task("localized-rank", localized),
        Task("finite-sectors", sectors),
        Task("cli-check", check),
        _golden_task(
            "cli-sheaf",
            ["sheaf", "--weights", "1,2", "--anchor", "1/2,0", "--sections", "--degree", "4"],
            "sheaf_w12_sections.txt",
        ),
        _golden_task(
            "cli-sectors",
            ["sectors", "--group-table", str(GOLDEN / "z2_table.json"), "--json"],
            "sectors_z2.json",
        ),
    ]


WORKLOADS = {"qseries": qseries, "cartan": cartan, "weil-sheaf": weil_sheaf}


def build(workload: str, seed: int, size: str = "full") -> list[Task]:
    """The workload's tasks, with every sampled input drawn from ``seed``."""
    return WORKLOADS[workload](seed, size)
