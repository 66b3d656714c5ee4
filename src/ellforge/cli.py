"""Command-line surface: q-expansion emitters, check suites, JSON round-trips.

Every subcommand prints either an aligned coefficient table or, with
--json, one line of canonical JSON (sorted keys, no whitespace) so that
identical flags and seed produce identical bytes.  Exit codes: 0 for
success, 1 for a failed check, 2 for usage or input errors.
"""

import argparse
import itertools
import json
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, inf, isqrt, log2

from .equivderham import (
    basic_subspace,
    cartan_cohomology,
    su2,
    u1,
    u2,
    weil_relations_report,
)
from .euler import (
    corrected_euler,
    factorization_exact,
    g2_anomaly,
    g2_free_certificate,
    linear_anomaly,
    twisted_euler,
    whitney_defect,
)
from .fermion import (
    SectorDatum,
    looijenga_check,
    pf_closed,
    pf_truncated_ratio,
    vacuum_character,
    vacuum_character_product,
    weyl_defect,
)
from .modforms import Lattice, check_weight, delta_q, eisenstein_lattice, eisenstein_q
from .series import MultiSeries, TruncatedSeries
from .sheafmodel import (
    CircleActionSpace,
    FiniteGroupTable,
    completion_map,
    finite_sectors,
    fixed_locus,
    local_sections,
    localized_transition_rank,
    make_section,
    sigma_section,
    transition,
)
from .sigma import (
    fgl_from_coordinate,
    group_law_check,
    sigma_exponential,
    sigma_product,
    taylor_completion,
)

_GROUPS = {"u1": u1, "su2": su2, "u2": u2}


# ---------------------------------------------------------------------------
# formatting


def _sig17(x) -> str:
    return f"{float(x):.17g}"


def _turned(e, c, turn: bool):
    """(+-c, imaginary) with i^|e| c = +-c or +-c i, when ``turn`` is set.

    ``euler`` builds its classes in y_j = i F_j, where every coefficient is
    rational, and they are printed in F: c y^e is i^|e| c F^e.
    """
    k = sum(e) if turn else 0
    return (-c if k % 4 >= 2 else c), k % 2 == 1


def _scalar_json(c, imaginary=False):
    """JSON of c, or of i c as ["0", "c"]; a q-series entry by entry."""
    if isinstance(c, TruncatedSeries):
        out = c.to_json()
        if imaginary:
            out["coeffs"] = [[n, "0", x] for n, x in out["coeffs"]]
        return out
    return ["0", str(c)] if imaginary else str(c)


def _class_json(ms: MultiSeries, names) -> dict:
    """An euler class over (q, y1..ym), printed in F: one q-series per
    root monomial, and a constant root-free term as a bare scalar."""
    terms = []
    for e, s in sorted(ms.slices("q").items()):
        c, imaginary = _turned(e, s, True)
        if not any(e) and c.coeffs.keys() <= {0}:
            c = c.coeff(0)
        terms.append([list(e), _scalar_json(c, imaginary)])
    return {"vars": list(names), "terms": terms, "total": ms.total}


def _series_json(ms: MultiSeries) -> dict:
    out = {
        "vars": list(ms.vars),
        "terms": [[list(e), _scalar_json(c)] for e, c in sorted(ms.coeffs.items())],
    }
    if ms.caps is not None:
        out["caps"] = list(ms.caps)
    if ms.total is not None:
        out["total"] = ms.total
    return out


def _element_json(el) -> list:
    return [
        [[list(e), list(o)], str(c)] for (e, o), c in sorted(el.coeffs.items())
    ]


def _scalar_text(c, imaginary=False) -> str:
    return f"{c}i" if imaginary and c else str(c)


def _mono_text(names, exps) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return " ".join(parts) if parts else "1"


def _element_text(el) -> str:
    world = el.world
    enames = [n for n, _ in world.evens]
    onames = [n for n, _ in world.odds]
    parts = []
    for (e, o), c in sorted(el.coeffs.items()):
        mono = _mono_text(enames, e)
        odd = " ".join(onames[i] for i in o)
        label = " ".join(x for x in (mono if mono != "1" or odd else "1", odd) if x)
        parts.append(f"({c})*{label}" if label != "1" else f"({c})")
    return " + ".join(parts) if parts else "0"


def _print_table(headers, rows):
    cols = len(headers)
    widths = [len(headers[i]) for i in range(cols)]
    for r in rows:
        for i in range(cols):
            widths[i] = max(widths[i], len(r[i]))
    print("  ".join(headers[i].ljust(widths[i]) for i in range(cols)).rstrip())
    for r in rows:
        print("  ".join(r[i].ljust(widths[i]) for i in range(cols)).rstrip())


def _emit_json(payload) -> int:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return 0


def _reemit(args):
    """Re-ingest previously emitted JSON and print it back canonically."""
    if not args.json:
        print("error: --from requires --json", file=sys.stderr)
        return 2
    try:
        with open(args.from_file) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit_json(payload)


def _grid(ms: MultiSeries, names=None, qmax=None, turn=False):
    """Rows labelled by the exponents other than q's, one column per q power.

    The columns run to qmax, by default the largest q power present.
    ``turn`` prints each row in F (``_turned``), by its own exponents.
    """
    slices = ms.slices("q")
    if names is None:
        names = [v for v in ms.vars if v != "q"]
    if qmax is None:
        qmax = max((max(s.coeffs) for s in slices.values()), default=0)
    headers = ["term"] + [f"q^{n}" for n in range(qmax + 1)]
    rows = []
    for e, s in sorted(slices.items()):
        c, imaginary = _turned(e, s, turn)
        cells = [_scalar_text(c.coeffs.get(n, 0), imaginary) for n in range(qmax + 1)]
        rows.append([_mono_text(names, e), *cells])
    return headers, rows


# ---------------------------------------------------------------------------
# emitters


def _over_limit(estimate, limit, request, unit):
    """Whether the estimated work is past its limit, said on stderr if so."""
    if estimate > limit:
        print(f"error: {request} {estimate} {unit}, over the limit of {limit}", file=sys.stderr)
    return estimate > limit


def _negative(args, *flags):
    """Report the first negative size flag, whose result would be vacuous."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 0:
            print(f"error: --{flag} must be >= 0, got {value}", file=sys.stderr)
            return True
    return False


# The most work (as _modforms_work and _sigma_work count it) that modforms
# and sigma build and print: about 10 s.  On a 2-vCPU VM (Python 3.11) the
# largest sizes accepted at eight shapes took 6.3 to 10.9 s: modforms
# --qorder 270221 and --delta --qorder 6665; sigma up to q-order 1648 at
# z-order 20 and z-order 252 at q-order 4; sigma --form exponential up to
# q-order 93 at z-order 20 and 3144 at 2, and z-order 113 at q-order 4 and
# 213 at 0.  modforms --qorder 1000000 (61 s), sigma --qorder 2000
# --zorder 20 (20 s) and sigma --form exponential at q- and z-order 40
# (14-16 s) or at z-order 287 (about 30 s) are refused.
SERIES_WORK_LIMIT = 100_000_000


def _modforms_work(delta, k, qorder):
    """Estimated steps of one modforms build and print.

    Delta counts 9 (qorder + 1)^2 / 4 steps, the cost of raising the
    q-Pochhammer product to the 24th power by squarings, on which the
    limit was set.  Miller's recurrence now builds it in far fewer (0.23 s
    for --delta --qorder 6665 against 6.2 s); the count is kept so that
    the accepted sizes stay the same.  G_k takes sigma_{k-1}(n) by trial
    division up to sqrt(n), (2/3) qorder^1.5 steps in all, whose powers
    d^(k-1) cost about k/60 more per step.  Each printed coefficient is
    one more step.
    """
    if delta:
        return 9 * (qorder + 1) ** 2 // 4 + qorder
    return (60 + k) * qorder * isqrt(qorder) // 90 + qorder


def _cmd_modforms(args):
    if _negative(args, "qorder"):
        return 2
    if _over_limit(_modforms_work(args.delta, args.k, args.qorder), SERIES_WORK_LIMIT,
                   f"--qorder {args.qorder} needs about", "steps"):
        return 2
    if args.delta:
        series, label, weight = delta_q(args.qorder), "Delta", 12
    else:
        if args.k < 4 or args.k % 2:
            print("error: --k takes an even integer >= 4", file=sys.stderr)
            return 2
        series, label, weight = eisenstein_q(args.k, args.qorder), f"G{args.k}", args.k
    payload = {
        "command": "modforms",
        "label": label,
        "weight": weight,
        "qorder": args.qorder,
        "series": series.to_json(),
    }
    if args.json:
        return _emit_json(payload)
    print(f"{label} q-expansion, weight {weight}, order {args.qorder}")
    _print_table(
        ["n", "coefficient"],
        [[str(e), str(series.coeff(e))] for e in range(args.qorder + 1)],
    )
    return 0


def _sigma_work(form, qorder, zorder):
    """Estimated steps of one sigma build and print.

    The product form multiplies out Z = zorder // 2 rows of
    prod_n (1 - t sum_k k q^(nk)) over S = qorder + 1 slots, about
    Z S^2 ln(S) / 2 steps.  It then sums each of the (zorder + 1) S table
    entries over Z + 1 rows, after (zorder + 1)(Z + 1)^2 binomial terms;
    their powers (i - j - 1)^d grow with zorder, and a term took about
    (16 + zorder)^2 / 3072 steps.  The exponential form exponentiates an
    argument of z-valuation 2, term by term: about (S + 1)^2 Z^3 / 12
    Fraction products, each about (200 + zorder) 3/5 steps, as the
    Bernoulli numbers in the argument lengthen with zorder.  Each printed
    cell is one more step.
    """
    slots, cells = qorder + 1, (qorder + 1) * (zorder + 1)
    jmax = zorder // 2
    if form == "exponential":
        return (slots + 1) ** 2 * jmax**3 * (200 + zorder) // 20 + cells
    t_steps = jmax * slots * slots * slots.bit_length() // 3
    table = (zorder + 1) * (jmax + 1) * (jmax + 1 + slots) * (16 + zorder) ** 2 // 3072
    return t_steps + table + cells


def _cmd_sigma(args):
    if _negative(args, "qorder", "zorder"):
        return 2
    if _over_limit(_sigma_work(args.form, args.qorder, args.zorder), SERIES_WORK_LIMIT,
                   f"--qorder {args.qorder} --zorder {args.zorder} needs about", "steps"):
        return 2
    build = sigma_product if args.form == "product" else sigma_exponential
    ms = build(args.qorder, args.zorder)
    payload = {
        "command": "sigma",
        "form": args.form,
        "qorder": args.qorder,
        "zorder": args.zorder,
        "series": _series_json(ms),
    }
    if args.json:
        return _emit_json(payload)
    print(f"sigma {args.form} form, q-order {args.qorder}, z-order {args.zorder}")
    headers, rows = _grid(ms)
    _print_table(headers, rows)
    return 0


# The most work (as _fgl_work counts it) that fgl builds: about 10 s.  On a
# 2-vCPU VM (Python 3.11) the time per unit ran from 1 to 6 ns over 22
# sizes, and the largest sizes accepted at degrees 8, 16, 20, 24, 30 and 50
# (q-orders 1101, 184, 85, 45, 20 and 0) took 4 to 11 s.
FGL_WORK_LIMIT = 2_000_000_000


def _fgl_work(degree, qorder):
    """Estimated cost of one packed law build, for every kind.

    The unit is one product of 30-bit digits of a Python int.  The build
    multiplies 2 (C(D+4, 5) - C(D+2, 3)) pairs of packed ints (the powers
    of G, cut at total degree D), each of S = qorder + 1 slots of B bits,
    and the proven B stays below D (3 + log2 S) (37 at D = 10, S = 7; 165
    at D = 24, S = 63).  A Karatsuba product of n digits costs n^log2(3)
    units, plus about 250 in the interpreter.  The build lifts about
    C(D+2, 2) + 2D packed ints slot by slot, and the t-product of a sigma
    coordinate takes about (D - 1)/2 * S^2 log2 S loop steps of 25 units.
    """
    slots = qorder + 1
    # past 10^9 digits every product is far over the limit; the cap keeps
    # the float power below overflow
    digits = min(-(-slots * degree * (3 + slots.bit_length()) // 30), 10**9)
    products = 2 * (comb(degree + 4, 5) - comb(degree + 2, 3))
    lifted = comb(degree + 2, 2) + 2 * degree
    t_steps = max(degree - 1, 0) // 2 * slots * slots * slots.bit_length()
    return (
        products * (250 + int(digits ** log2(3)))
        + lifted * slots * digits
        + 25 * t_steps
    )


def _cmd_fgl(args):
    if _negative(args, "degree", "qorder"):
        return 2
    if _over_limit(_fgl_work(args.degree, args.qorder), FGL_WORK_LIMIT,
                   f"--degree {args.degree} --qorder {args.qorder} needs about",
                   "digit products"):
        return 2
    fgl = fgl_from_coordinate(args.coordinate, args.degree, args.qorder)
    payload = {"command": "fgl"}
    payload.update(fgl.to_json())
    if args.json:
        return _emit_json(payload)
    print(f"formal group law, {args.coordinate} coordinate, degree {args.degree}, q-order {args.qorder}")
    headers, rows = _grid(fgl.table, qmax=args.qorder)
    _print_table(headers, rows)
    return 0


# The most work (as _fermion_work counts it) that fermion builds and prints:
# about 10 s.  On a 2-vCPU VM (Python 3.11) the largest sizes accepted at
# 14 shapes took 2.8 to 11.3 s; rank 4 at q- and z-order 10 (765,019)
# passes in 6.2 s, while rank 6 at 6 (1,707,727) took 11.7 s and rank 1 at
# 40 (1,330,680) 15.4 s.
FERMION_WORK_LIMIT = 800_000


def _fermion_work(rank, qorder, zorder):
    """Estimated cost of one vacuum character, built and printed.

    The unit is about one product of two coefficients.  The exponential
    form takes its k-th power term times the argument, whose z-exponents
    are even and at most zorder: C(Z + 2, 3) pairs of z-exponents in all,
    Z = zorder // 2, each C(qorder + 2, 2) q-pairs plus an overhead of
    about 3.  The character then multiplies in z_i, i = 2..rank, each a
    product of C(qorder + 2, 2) zorder^i pairs whose keys have i + 1
    entries (about rank^2 / 4 units of key handling in all), and prints
    zorder^rank rows of about 3 units each.
    """
    pairs = comb(qorder + 2, 2)
    # past 64 factors every zorder >= 2 is far over the limit; the cap
    # keeps the powers small
    n = min(rank, 64)
    if zorder > 1:
        products = sum(zorder**i for i in range(2, n + 1))
    else:
        products = max(rank - 1, 0) * zorder
    return (
        comb(zorder // 2 + 2, 3) * (pairs + 3)
        + pairs * products
        + 3 * zorder**n
        + rank * rank // 4
    )


def _cmd_fermion(args):
    if _negative(args, "rank", "qorder", "zorder"):
        return 2
    if _over_limit(_fermion_work(args.rank, args.qorder, args.zorder), FERMION_WORK_LIMIT,
                   f"--rank {args.rank} --qorder {args.qorder} --zorder {args.zorder} "
                   "needs about", "coefficient products"):
        return 2
    ms = vacuum_character(args.rank, args.qorder, args.zorder)
    payload = {
        "command": "fermion",
        "rank": args.rank,
        "qorder": args.qorder,
        "zorder": args.zorder,
        "character": _series_json(ms),
    }
    if args.json:
        return _emit_json(payload)
    print(f"vacuum character, rank {args.rank}, q-order {args.qorder}, z-order {args.zorder}")
    headers, rows = _grid(ms)
    _print_table(headers, rows)
    return 0


# The most work (as _euler_work counts it) that euler builds, checks and
# prints: about 10 s.  On a 2-vCPU VM (Python 3.11) 33 shapes took 0.2 to
# 0.8 us per unit past 1 s (the table in tests/test_cli.py): (6, 16, 8) as
# (roots, nilpotency, qorder) passes in 6.3 s, while (4, 24, 8) took 12.7 s
# and (8, 16, 4) 39 s.
EULER_WORK_LIMIT = 30_000_000


def _euler_work(roots, degree, qorder):
    """Estimated cost of the four euler classes, their factorization and print.

    The largest product, of two full classes, pairs root monomials of total
    degree at most D = degree (C(D + 2m, 2m) pairs for m roots) and q powers
    summing to at most qorder (C(qorder + 2, 2)), and about one pair in 2^m
    survives the classes' parities; a pair costs (D + qorder) / 32 units as
    the coefficients lengthen.  Each printed cell, C(D + m, m) root
    monomials by qorder + 1 q powers, costs 16 units; the classes' keys
    cost m^2, and the corrected class's Eisenstein series D (qorder + 1).
    Past 4096 roots or degree the pairs and cells are far over the limit,
    and the caps keep the binomials small.
    """
    m, d = min(roots, 4096), min(degree, 4096)
    pairs = comb(d + 2 * m, 2 * m) * comb(qorder + 2, 2) // 2**m if m else 0
    cells = comb(d + m, m) * (qorder + 1)
    return pairs * (degree + qorder) // 32 + 16 * cells + roots * roots + degree * (qorder + 1)


def _cmd_euler(args):
    if _negative(args, "roots", "nilpotency", "qorder"):
        return 2
    m, deg, qo = args.roots, args.nilpotency, args.qorder
    if _over_limit(_euler_work(m, deg, qo), EULER_WORK_LIMIT,
                   f"--roots {m} --nilpotency {deg} --qorder {qo} needs about", "units"):
        return 2
    tw = twisted_euler(m, deg, qo)
    co = corrected_euler(m, deg, qo)
    lin = linear_anomaly(m, deg, qo)
    g2a = g2_anomaly(m, deg, qo)
    names = [f"F{j}" for j in range(1, m + 1)]
    payload = {
        "command": "euler",
        "roots": m,
        "nilpotency": deg,
        "qorder": qo,
        "twisted": _class_json(tw, names),
        "corrected": _class_json(co, names),
        "linear_anomaly": _class_json(lin, names),
        "g2_anomaly": _class_json(g2a, names),
        "factorization_exact": factorization_exact(tw, co, lin, g2a),
    }
    if args.json:
        return _emit_json(payload)
    print(f"euler classes, roots {m}, nilpotency {deg}, q-order {qo}")
    for label, ms in (
        ("twisted", tw),
        ("corrected", co),
        ("linear anomaly", lin),
        ("g2 anomaly", g2a),
    ):
        print()
        print(label)
        headers, rows = _grid(ms, names, qo, turn=True)
        _print_table(headers, rows)
    print()
    print(f"factorization exact: {'yes' if payload['factorization_exact'] else 'no'}")
    return 0


def _cmd_derham(args):
    modes = [args.check_relations, args.cohomology, args.basic]
    if sum(1 for m in modes if m) != 1:
        print(
            "error: pick exactly one of --check-relations, --cohomology, --basic",
            file=sys.stderr,
        )
        return 2
    if _negative(args, "degree"):
        return 2
    if args.check_relations or args.basic:
        if args.group is None:
            print("error: --group is required for this mode", file=sys.stderr)
            return 2
        alg = _GROUPS[args.group]()
    if args.check_relations:
        degree = args.degree if args.degree is not None else 6
        rep = weil_relations_report(alg, degree)
        payload = {
            "command": "derham",
            "mode": "relations",
            "group": args.group,
            "degree": degree,
            "d_squared_zero": rep.d_squared_zero,
            "contraction_squares_zero": rep.contraction_squares_zero,
            "contractions_anticommute": rep.contractions_anticommute,
            "d_commutes_with_lie": rep.d_commutes_with_lie,
            "bracket_sign": rep.bracket_sign,
            "mixed_relation_ok": rep.mixed_relation_ok,
            "ok": rep.ok,
        }
        if args.json:
            _emit_json(payload)
        else:
            print(f"differential relations for {args.group} up to degree {degree}")
            for key in (
                "d_squared_zero",
                "contraction_squares_zero",
                "contractions_anticommute",
                "d_commutes_with_lie",
                "mixed_relation_ok",
            ):
                print(f"  {key.replace('_', ' ')}: {'ok' if payload[key] else 'FAIL'}")
            print(f"  commutator sign: {rep.bracket_sign:+d}")
            print(f"  all relations: {'ok' if rep.ok else 'FAIL'}")
        return 0 if rep.ok else 1
    if args.cohomology:
        if not args.weights:
            print("error: --weights is required with --cohomology", file=sys.stderr)
            return 2
        weights = tuple(int(w) for w in args.weights.split(","))
        degree = args.degree if args.degree is not None else 8
        if _over_limit(_sheaf_cochains(len(weights), degree), DERHAM_COCHAIN_LIMIT,
                       f"--degree {degree} on {len(weights)} weights needs up to",
                       "cochains"):
            return 2
        rep = cartan_cohomology(weights, degree)
        payload = {
            "command": "derham",
            "mode": "cohomology",
            "weights": list(weights),
            "degree": degree,
            "dims": rep.dims,
            "fixed_locus_positive": rep.fixed_locus_positive,
            "free_rank_one": rep.free_rank_one,
        }
        if args.json:
            return _emit_json(payload)
        print(f"circle-equivariant cohomology of C^{len(weights)}, weights {weights}")
        _print_table(
            ["degree", "dimension"],
            [[str(n), str(d)] for n, d in enumerate(rep.dims)],
        )
        print(f"zero weight present: {'yes' if rep.fixed_locus_positive else 'no'}")
        print(f"free of rank one: {'yes' if rep.free_rank_one else 'no'}")
        return 0
    degree = args.degree if args.degree is not None else 4
    if _over_limit(_weil_monomials(alg.dim, degree), DERHAM_BASIC_LIMIT,
                   f"--degree {degree} on {args.group} needs", "monomials"):
        return 2
    basis = basic_subspace(alg, degree)
    payload = {
        "command": "derham",
        "mode": "basic",
        "group": args.group,
        "degree": degree,
        "dimension": len(basis),
        "basis": [_element_json(el) for el in basis],
    }
    if args.json:
        return _emit_json(payload)
    print(f"basic subspace of the {args.group} generator algebra, degree {degree}")
    print(f"dimension {len(basis)}")
    for el in basis:
        print(f"  {_element_text(el)}")
    return 0


# The most cochains (as _sheaf_cochains counts them) that sheaf --sections
# builds.  Two fixed coordinates pass up to degree 8 (16,341): about 16 s
# when both weights are zero, where the count is exact, and about 2 s for
# weights (1, 2), which keep 1,209 of them.  Degree 99 would need 3.3e9.
SHEAF_COCHAIN_LIMIT = 20_000

# The most cochains (as _sheaf_cochains counts them) that derham --cohomology
# builds: about 10 s.  Zero weights keep every cochain and cost the most per
# cochain, about 40 us on a 2-vCPU VM (Python 3.11): zero weights on 9
# coordinates at degree 4 (185,973) took 7.3 s and on 3 at degree 8
# (169,913) 5.7 s, while weights 1,1,1 at degree 8 took 2.1 s.  Past the
# limit, zero weights on 6 coordinates at degree 5 (234,064) took 10.3 s
# and weights 1,1,1 at degree 12 (2,251,461) 14.5 s.
DERHAM_COCHAIN_LIMIT = 200_000


# The most monomials (as _weil_monomials counts them) that derham --basic
# solves for.  On a 2-vCPU VM (Python 3.11) u2 at degree 24 (2,925) took
# 1.0 s and at degree 26 (3,654) 1.2 s, and su2 1.5 s at degree 86 (3,828).
# The limit was set when these sizes took 6.3, 9.5 and 10.7 s; it is kept
# so that every exit code stays.  u2 passes up to degree 26 and su2 up to
# 84; u1 has one monomial in every degree.
DERHAM_BASIC_LIMIT = 3_700


def _weil_monomials(n, degree):
    """Monomials of the Weil algebra of an n-dimensional Lie algebra in the
    degree, exactly as weil_block lists them: s odd generators and
    (degree - s)/2 even ones."""
    return sum(
        comb(n, s) * comb((degree - s) // 2 + n - 1, n - 1)
        for s in range(min(n, degree) + 1)
        if (degree - s) % 2 == 0
    )


def _sheaf_cochains(k, degree):
    """Cochains of the circle complex on k fixed coordinates up to the degree.

    Counts every monomial u^j z^a zb^b dz^e dzb^f with
    W = |a| + |b| + |e| + |f| <= degree and total degree <= degree + 1,
    as circle_complex keeps them: exact when every weight is zero and an
    upper bound otherwise, since only the charge-0 monomials are kept.
    """
    return sum(
        comb(2 * k, f) * comb(degree - f + 2 * k, 2 * k) * ((degree + 1 - f) // 2 + 1)
        for f in range(min(2 * k, degree) + 1)
    )


def _cmd_sheaf(args):
    if not args.sections:
        print("error: --sections is required", file=sys.stderr)
        return 2
    if _negative(args, "degree"):
        return 2
    try:
        weights = tuple(int(w) for w in args.weights.split(","))
        ax, ay = (Fraction(part) for part in args.anchor.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    space = CircleActionSpace(weights)
    k = len(fixed_locus(space, (ax, ay)))
    if _over_limit(_sheaf_cochains(k, args.degree), SHEAF_COCHAIN_LIMIT,
                   f"--degree {args.degree} on {k} fixed coordinates needs up to",
                   "cochains"):
        return 2
    rep = local_sections(space, (ax, ay), args.degree)
    payload = {
        "command": "sheaf",
        "weights": list(weights),
        "anchor": [str(ax), str(ay)],
        "degree": args.degree,
        "fixed": list(rep.fixed),
        "cocycle_dims": rep.cocycle_dims,
        "cohomology_dims": rep.cohomology_dims,
        "basis": {
            str(deg): [_element_json(el) for el in els]
            for deg, els in sorted(rep.basis.items())
        },
    }
    if args.json:
        return _emit_json(payload)
    print(f"local sections at anchor ({ax}, {ay}), weights {weights}")
    print(f"fixed coordinates: {list(rep.fixed)}")
    _print_table(
        ["degree", "cocycles", "cohomology"],
        [
            [str(n), str(c), str(h)]
            for n, (c, h) in enumerate(zip(rep.cocycle_dims, rep.cohomology_dims))
        ],
    )
    return 0


def _cmd_sectors(args):
    try:
        with open(args.group_table) as fh:
            data = json.load(fh)
        table = FiniteGroupTable.from_json(data)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep = finite_sectors(table)
    payload = {
        "command": "sectors",
        "order": rep.order,
        "pair_count": rep.pair_count,
        "group_class_count": rep.group_class_count,
        "burnside_ok": rep.burnside_ok,
        "class_count": rep.class_count,
        "orbits": [
            {
                "representative": list(o.representative),
                "pairs": o.pairs,
                "classes": o.classes,
                "index": o.index,
                "stabilizer_words": list(o.stabilizer_words),
            }
            for o in rep.orbits
        ],
    }
    if args.json:
        return _emit_json(payload)
    print(f"group of order {rep.order}: {rep.pair_count} commuting pairs, "
          f"{rep.class_count} pair classes, {len(rep.orbits)} modular orbits")
    print(f"burnside check ({rep.order} x {rep.group_class_count} classes): "
          f"{'ok' if rep.burnside_ok else 'FAIL'}")
    _print_table(
        ["representative", "pairs", "classes", "index", "stabilizer"],
        [
            [
                str(o.representative),
                str(o.pairs),
                str(o.classes),
                str(o.index),
                " ".join(o.stabilizer_words[:4]),
            ]
            for o in rep.orbits
        ],
    )
    return 0 if rep.burnside_ok else 1


# ---------------------------------------------------------------------------
# check suites


@dataclass
class CheckReport:
    name: str
    status: str
    residuals: list
    parameters: dict
    runtime: float
    extra: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "residuals": [_sig17(r) for r in self.residuals],
            "parameters": {k: str(v) for k, v in sorted(self.parameters.items())},
            "runtime": f"{self.runtime:.3f}",
            **self.extra,
        }


# Each suite takes the parameters p of its _SUITES entry, the seed and the
# tolerance, and returns (ok, residuals), (ok, residuals, measured) or
# (ok, residuals, measured, extra), where measured holds parameters known
# only once the suite has run, and the seed for the suites that read it,
# and extra holds more keys of the suite's JSON report.


def _differing_terms(a: dict, b: dict) -> int:
    """How many exponents carry different coefficients in two tables."""
    return sum(1 for e in a.keys() | b.keys() if a.get(e, 0) != b.get(e, 0))


def _first_diff(a: dict, b: dict):
    """The lowest exponent, in sorted order, whose coefficients differ, or None."""
    return min((e for e in a.keys() | b.keys() if a.get(e, 0) != b.get(e, 0)), default=None)


def _sigma_identity(p, seed, tol):
    sizes = p["qorder"], p["zorder"]
    prod, expo = sigma_product(*sizes).coeffs, sigma_exponential(*sizes).coeffs
    bad = _differing_terms(prod, expo)
    return bad == 0, [float(bad)], {}, {"first_diff": _first_diff(prod, expo)}


def _fgl_axioms(p, seed, tol):
    fgl = fgl_from_coordinate("sigma", p["degree"], p["qorder"])
    add = fgl_from_coordinate("additive", 3, 0)
    mul = fgl_from_coordinate("multiplicative", 3, 0)
    checks = [
        fgl.is_unital(),
        fgl.is_commutative(),
        fgl.is_associative(),
        sorted(add.table.coeffs) == [(0, 1, 0), (1, 0, 0)],
        sorted(mul.table.coeffs) == [(0, 1, 0), (1, 0, 0), (1, 1, 0)],
    ]
    bad = sum(1 for c in checks if not c)
    return bad == 0, [float(bad)]


def _group_law(p, seed, tol):
    rep = group_law_check(p["x"], p["y"], p["degree"])
    ok = rep.residual < tol and abs(rep.slope - (p["degree"] + 1)) <= 0.5
    return ok, [rep.residual], {"slope": f"{rep.slope:.3f}"}


def _pfaffian(p, seed, tol):
    lat = Lattice(complex(p["tau"].replace("i", "j")), 1.0)
    a = [SectorDatum(Fraction(1, 3))]
    b = [SectorDatum(Fraction(1, 4))]
    truncated = pf_truncated_ratio(a, b, lat, p["modes"])
    closed = pf_closed(a, lat) / pf_closed(b, lat)
    rel = abs(truncated - closed) / abs(closed)
    trivial = pf_closed([SectorDatum(Fraction(0))], lat)
    return rel < tol and trivial == 0, [rel, abs(trivial)]


def _vacuum_character(p, seed, tol):
    sizes = p["rank"], p["qorder"], p["zorder"]
    ch = vacuum_character(*sizes)
    prod = vacuum_character_product(*sizes).coeffs
    bad = _differing_terms(ch.coeffs, prod)
    asym = weyl_defect(ch)
    extra = {"first_diff": _first_diff(ch.coeffs, prod)}
    return bad == 0 and asym == 0, [float(bad), float(asym)], {}, extra


def _looijenga(p, seed, tol):
    rng = random.Random(seed)
    worst = 0.0
    ok = True
    for _ in range(p["samples"]):
        lat = Lattice(complex(rng.uniform(-0.3, 0.3), rng.uniform(1.0, 1.8)), 1.0)
        datum = SectorDatum(
            Fraction(rng.randrange(1, 6), 7),
            Fraction(rng.randrange(-2, 3), 5),
            complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)),
        )
        for chk in looijenga_check(lat, datum, tol):
            worst = max(worst, chk.rel_err)
            ok = ok and chk.ok
    return ok, [worst], {"seed": seed}


def _euler_anomaly(p, seed, tol):
    m, deg, qo = p["roots"], p["nilpotency"], p["qorder"]
    co = corrected_euler(m, deg, qo)
    cert = g2_free_certificate(co, m)
    classes = twisted_euler(m, deg, qo), co, linear_anomaly(m, deg, qo), g2_anomaly(m, deg, qo)
    checks = [
        factorization_exact(*classes),
        cert.ok,
        whitney_defect(1, 1, deg, qo).is_zero(),
    ]
    bad = sum(1 for c in checks if not c)
    return bad == 0, [float(bad)]


def _modularity(p, seed, tol):
    chk = check_weight(
        lambda lat: eisenstein_lattice(p["k"], lat, p["qorder"]), p["k"],
        count=p["samples"], seed=seed, tol=tol,
    )
    return chk.ok, [chk.max_rel], {"samples": chk.samples, "seed": seed}


def _derham(p, seed, tol):
    dims = cartan_cohomology((1,), p["degree"]).dims
    expected = [1 - n % 2 for n in range(p["degree"] + 1)]  # H(C) = Q[u], deg u = 2
    bad = sum(a != b for a, b in zip(dims, expected))
    bad += sum(not weil_relations_report(lie, p["degree"]).ok for lie in (u1(), su2()))
    return bad == 0, [float(bad)]


def _sheaf(p, seed, tol):
    sp = CircleActionSpace((1, 2))
    s = make_section(sp, (0, 0), truncation=p["degree"])
    half = Fraction(1, 2)
    chained = transition(
        sp, (half, 0), (half, half), transition(sp, (0, 0), (half, 0), s)
    )
    direct = transition(sp, (0, 0), (half, half), s)
    cocycle_ok = (
        chained.twist == direct.twist and chained.cocycle == direct.cocycle
    )
    comp = completion_map(sigma_section(3, 4))
    terms = taylor_completion(3, 4)
    comp_ok = all(
        comp.coeff_in("u", k).as_univariate().coeff(n) == terms[k].series.coeff(n)
        for k in range(len(terms))
        for n in range(4)
    )
    loc = localized_transition_rank(
        CircleActionSpace((1,)), (0, 0), (Fraction(1, 3), 0), degree_bound=p["degree"]
    )
    bad = sum(not (r == a == b) for r, a, b in zip(loc.ranks, loc.upstairs, loc.downstairs))
    bad += sum(not c for c in (cocycle_ok, comp_ok))
    return bad == 0, [float(bad)]


def _sectors(p, seed, tol):
    z2 = finite_sectors(FiniteGroupTable(2, ((0, 1), (1, 0))))
    perms = sorted(itertools.permutations(range(3)))
    idx = {q: i for i, q in enumerate(perms)}
    mul = tuple(
        tuple(idx[tuple(g[h[i]] for i in range(3))] for h in perms) for g in perms
    )
    s3 = finite_sectors(FiniteGroupTable(6, mul))
    checks = [
        z2.pair_count == 4,
        len(z2.orbits) == 2,
        max(o.index for o in z2.orbits) == 3,
        s3.pair_count == 18,
        s3.burnside_ok,
    ]
    bad = sum(1 for c in checks if not c)
    return bad == 0, [float(bad)]


# name -> (suite, the parameters it reads and reports, default tolerance);
# exact suites have no tolerance and ignore --tol, the others report theirs.
_SUITES = {
    "sigma-identity": (_sigma_identity, {"qorder": 6, "zorder": 8}, None),
    "fgl-axioms": (_fgl_axioms, {"degree": 6, "qorder": 3}, None),
    "group-law": (_group_law, {"x": 0.2, "y": 0.1, "degree": 10}, 1e-9),
    "pfaffian": (_pfaffian, {"tau": "2i", "modes": 200}, 1e-3),
    "vacuum-character": (_vacuum_character, {"rank": 2, "qorder": 4, "zorder": 4}, None),
    "looijenga": (_looijenga, {"samples": 3}, 1e-8),
    "euler-anomaly": (_euler_anomaly, {"roots": 2, "nilpotency": 3, "qorder": 2}, None),
    "modularity": (_modularity, {"k": 4, "qorder": 40, "samples": 3}, 1e-9),
    "derham": (_derham, {"degree": 4}, None),
    "sheaf": (_sheaf, {"degree": 4}, None),
    "sectors": (_sectors, {}, None),
}


def run_checks(names, seed, tol):
    """Run the requested suites in order, timing each one."""
    reports = []
    for name in names:
        suite, params, default_tol = _SUITES[name]
        applied = default_tol if tol is None else tol
        t0 = time.perf_counter()
        ok, residuals, *more = suite(params, seed, applied)
        measured, extra = (*more, {}, {})[:2]
        parameters = dict(params)
        if default_tol is not None:
            parameters["tol"] = applied
        parameters.update(measured)
        reports.append(CheckReport(
            name, "pass" if ok else "fail", residuals, parameters, time.perf_counter() - t0,
            extra,
        ))
    return reports


def _cmd_check(args):
    if args.list:
        for name in _SUITES:
            print(name)
        return 0
    if args.suite is not None and args.suite not in _SUITES:
        print(f"error: unknown suite '{args.suite}'", file=sys.stderr)
        print("known suites: " + ", ".join(_SUITES), file=sys.stderr)
        return 2
    if args.tol is not None and not 0 < args.tol < inf:  # nan fails both
        print(f"error: --tol must be finite and > 0, got {args.tol}", file=sys.stderr)
        return 2
    names = [args.suite] if args.suite else list(_SUITES)
    reports = run_checks(names, args.seed, args.tol)
    if args.json:
        _emit_json({"command": "check", "seed": args.seed,
                    "reports": [r.to_json() for r in reports]})
    else:
        for r in reports:
            worst = max(r.residuals) if r.residuals else 0.0
            seed = f"seed {r.parameters['seed']}  " if "seed" in r.parameters else ""
            print(
                f"{r.name}: {r.status.upper()}  residual {_sig17(worst)}  "
                f"{seed}({r.runtime:.2f}s)"
            )
        failed = sum(1 for r in reports if r.status != "pass")
        print(f"{len(reports) - failed}/{len(reports)} suites passed")
    return 0 if all(r.status == "pass" for r in reports) else 1


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellforge",
        description="q-expansions, equivariant cocycles, and identity checks",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="canonical JSON output")
    common.add_argument(
        "--from", dest="from_file", metavar="FILE", default=None,
        help="re-emit a previously saved JSON payload",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("modforms", parents=[common], help="Eisenstein and Delta q-expansions")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--qorder", type=int, default=10)
    p.add_argument("--delta", action="store_true")

    p = sub.add_parser("sigma", parents=[common], help="sigma function double expansion")
    p.add_argument("--qorder", type=int, default=4)
    p.add_argument("--zorder", type=int, default=6)
    p.add_argument("--form", choices=["product", "exponential"], default="product")

    p = sub.add_parser("fgl", parents=[common], help="formal group law coefficients")
    p.add_argument("--coordinate", choices=["additive", "multiplicative", "sigma"], required=True)
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--qorder", type=int, default=4)

    p = sub.add_parser("fermion", parents=[common], help="vacuum character table")
    p.add_argument("--rank", type=int, default=1)
    p.add_argument("--qorder", type=int, default=4)
    p.add_argument("--zorder", type=int, default=4)

    p = sub.add_parser("euler", parents=[common], help="twisted and corrected Euler classes")
    p.add_argument("--roots", type=int, required=True)
    p.add_argument("--nilpotency", type=int, required=True)
    p.add_argument("--qorder", type=int, default=2)

    p = sub.add_parser("derham", parents=[common], help="differential relations and cohomology")
    p.add_argument("--group", choices=sorted(_GROUPS))
    p.add_argument("--check-relations", action="store_true")
    p.add_argument("--cohomology", action="store_true")
    p.add_argument("--basic", action="store_true")
    p.add_argument("--weights")
    p.add_argument("--degree", type=int, default=None)

    p = sub.add_parser("sheaf", parents=[common], help="local section bases at an anchor")
    p.add_argument("--weights", required=True)
    p.add_argument("--anchor", required=True, help="rational pair, e.g. 1/2,0")
    p.add_argument("--sections", action="store_true")
    p.add_argument("--degree", type=int, default=6)

    p = sub.add_parser("sectors", parents=[common], help="commuting pairs and modular orbits")
    p.add_argument("--group-table", required=True, metavar="FILE")

    p = sub.add_parser("check", parents=[common], help="run identity check suites")
    p.add_argument("suite", nargs="?")
    p.add_argument("--list", action="store_true")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")

    return parser


_HANDLERS = {
    "modforms": _cmd_modforms,
    "sigma": _cmd_sigma,
    "fgl": _cmd_fgl,
    "fermion": _cmd_fermion,
    "euler": _cmd_euler,
    "derham": _cmd_derham,
    "sheaf": _cmd_sheaf,
    "sectors": _cmd_sectors,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.from_file:
        return _reemit(args)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
