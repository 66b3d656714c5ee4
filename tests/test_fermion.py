"""Window-regularized Pfaffian ratios, characters, and loop multipliers."""
from __future__ import annotations

import cmath
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import ellforge
from ellforge import fermion
from ellforge.fermion import (
    MultiplierCheck,
    SectorDatum,
    looijenga_check,
    pf_closed,
    pf_rowlimit_ratio,
    pf_truncated_ratio,
    sector_z,
    vacuum_character,
    vacuum_character_product,
    weyl_defect,
    weyl_invariant,
)
from ellforge.modforms import Lattice
from ellforge.series import MultiSeries
from ellforge.sigma import sigma_num
from test_oracles import (
    loop_pf_truncated_ratio,
    loop_weyl_defect,
    row_pf_truncated_ratio,
    weight_eigenvalue,
)

LAT = Lattice(2j, 1.0)
A = [SectorDatum(Fraction(1, 3))]
B = [SectorDatum(Fraction(1, 4))]


def test_eigenvalue_zero_iff_coordinate_on_lattice():
    lat = Lattice(complex(0.2, 1.3), complex(1.1, -0.1))
    d = SectorDatum(Fraction(2, 5), Fraction(-1, 3), 0.04 + 0.02j)
    # pick (n, m) and solve for the X that kills that eigenvalue
    n, m = 1, -2
    x_kill = -(
        (n - complex(d.alpha2)) * lat.lam1 + (m + complex(d.alpha1)) * lat.lam2
    )
    dead = SectorDatum(d.alpha1, d.alpha2, x_kill)
    assert abs(weight_eigenvalue(dead, n, m, lat)) < 1e-14
    # the coordinate then sits on the period lattice of z: 2 pi i (Z + tau Z)
    z = sector_z(dead, lat)
    w = z / (2j * math.pi)
    k1 = round((w.real * lat.tau.imag - w.imag * lat.tau.real) / lat.tau.imag)
    k2 = round(w.imag / lat.tau.imag)
    assert abs(w - (k1 + k2 * lat.tau)) < 1e-12
    assert abs(sigma_num(lat, z)) < 1e-12


def test_trivial_sector_vanishes_exactly():
    assert pf_closed([SectorDatum(Fraction(0))], LAT) == 0


def test_window_ratio_converges_monotonically():
    closed = pf_closed(A, LAT) / pf_closed(B, LAT)
    errs = []
    for M in (50, 100, 200):
        w = pf_truncated_ratio(A, B, LAT, M)
        errs.append(abs(w - closed) / abs(closed))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 2e-4


def test_window_ratio_general_sector():
    lat = Lattice(complex(0.3, 1.1), 1.0)
    c = [SectorDatum(Fraction(1, 3), Fraction(1, 5), 0.07 + 0.03j)]
    d = [SectorDatum(Fraction(1, 4), Fraction(-1, 6), -0.05 + 0.11j)]
    closed = pf_closed(c, lat) / pf_closed(d, lat)
    w = pf_truncated_ratio(c, d, lat, 200)
    assert abs(w - closed) / abs(closed) < 1.5e-3


def test_rowlimit_crosscheck():
    for lat in (LAT, Lattice(complex(0.3, 1.1), 1.0)):
        closed = pf_closed(A, lat) / pf_closed(B, lat)
        rl = pf_rowlimit_ratio(A, B, lat)
        assert abs(rl - closed) / abs(closed) < 1e-10


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        pf_truncated_ratio(A, A + B, LAT, 20)


@pytest.mark.parametrize("M, P", [(0, None), (-3, None), (0, 10), (5, 0), (5, -1)])
def test_window_rejects_empty_or_negative_sizes(M, P):
    with pytest.raises(ValueError, match="M >= 1 and P >= 1"):
        pf_truncated_ratio(A, B, LAT, M, P)


@pytest.mark.parametrize("M, P", [(1, None), (5, 3), (20, None)])
def test_empty_sector_ratio_is_exactly_one(M, P):
    assert pf_truncated_ratio([], [], LAT, M, P) == 1


def test_window_evaluates_the_same_near_rows_at_any_M():
    """Rows past Im c = +/- T sum in closed form, so the rows evaluated one
    by one (_row_log_ratio calls) are the same at M = 100 and 100,000: at
    most 2 (ceil(T / Im tau) + 2) per component, where T keeps the dropped
    factors (1 - e^(+/-2 pi i c)) of all far rows under 1e-20."""
    lat = Lattice(0.3 + 1.2j, 1.0)
    a = [SectorDatum(Fraction(1, 3), Fraction(1, 5), 0.1 + 0.05j), SectorDatum(Fraction(-2, 7))]
    b = [SectorDatum(Fraction(1, 4), Fraction(-2, 7), 0.02j), SectorDatum(Fraction(3, 5), Fraction(1, 2))]
    y = lat.tau.imag
    T = math.log(4e20 * len(a) / -math.expm1(-2 * math.pi * y)) / (2 * math.pi)
    closed = pf_closed(a, lat) / pf_closed(b, lat)
    counts = []
    for M in (100, 100_000):
        with mock.patch.object(fermion, "_row_log_ratio", wraps=fermion._row_log_ratio) as spy:
            value = pf_truncated_ratio(a, b, lat, M)
        counts.append(spy.call_count)
    assert counts[0] == counts[1] <= 2 * (math.ceil(T / y) + 2) * len(a)
    assert abs(value - closed) <= 1e-5 * abs(closed)


def _pole_message(sector_a, sector_b):
    """The error the window and its per-ratio and per-row oracles raise."""
    messages = []
    for fn in (pf_truncated_ratio, loop_pf_truncated_ratio, row_pf_truncated_ratio):
        with pytest.raises(ValueError) as info:
            fn(sector_a, sector_b, LAT, 20)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == messages[2]
    return messages[0]


def test_pole_reported_with_mode_indices():
    # alpha1 integer puts an eigenvalue exactly at zero in the window
    assert _pole_message([SectorDatum(Fraction(1))], B) == (
        "vanishing eigenvalue in component 0 at (n=0, m=-1)"
    )


def test_pole_in_shifted_row_of_second_component():
    # (2 - 1/2) tau + 2 - 3i = 2 on tau = 2i: the row n = 2 vanishes at m = -2
    dead = SectorDatum(Fraction(2), Fraction(1, 2), -3j)
    assert _pole_message(A + [dead], A + B) == (
        "vanishing eigenvalue in component 1 at (n=2, m=-2)"
    )


def test_pole_on_denominator_side():
    assert _pole_message(B, [SectorDatum(Fraction(-4), Fraction(-1))]) == (
        "vanishing eigenvalue in component 0 at (n=-1, m=4)"
    )


def test_pole_reports_the_strictly_smaller_side():
    # the numerator misses zero by 1e-13, the denominator hits it exactly
    near = [SectorDatum(Fraction(1), Fraction(0), 1e-13)]
    dead = [SectorDatum(Fraction(3))]
    assert _pole_message(near, dead) == (
        "vanishing eigenvalue in component 0 at (n=0, m=-3)"
    )
    # on a tie the numerator's mode is reported
    assert _pole_message([SectorDatum(Fraction(1))], dead) == (
        "vanishing eigenvalue in component 0 at (n=0, m=-1)"
    )


def test_x_scale_regenerates_through_log_derivative():
    """Finite-difference d/dX of the window log-ratio against the closed form.

    This pins the bare X placement inside the eigenvalue: any rescaling of
    X, or dropping the internal scheme conversion (a pi*i/lam2 shift),
    moves the derivative by O(1)."""
    lat = LAT
    h = 0.02
    base_x = 0.05 + 0.03j

    def window_log(x):
        sec = [SectorDatum(Fraction(1, 3), Fraction(0), x)]
        return cmath.log(pf_truncated_ratio(sec, B, lat, 150))

    def closed_log(x):
        sec = [SectorDatum(Fraction(1, 3), Fraction(0), x)]
        return cmath.log(pf_closed(sec, lat) / pf_closed(B, lat))

    fd_window = (window_log(base_x + h) - window_log(base_x - h)) / (2 * h)
    fd_closed = (closed_log(base_x + h) - closed_log(base_x - h)) / (2 * h)
    # agreement limited by the window's own ~1/M error, far below the offset
    assert abs(fd_window - fd_closed) < 5e-3
    # the scheme correction is load-bearing: its derivative alone is pi*i/lam2
    assert abs(fd_window - (fd_closed - 1j * math.pi / lat.lam2)) > 1


# --------------------------------------------------------------- characters


def test_character_cross_form_exact():
    for n in (1, 2, 3):
        qo, zo = (6, 8) if n < 3 else (4, 6)
        assert vacuum_character(n, qo, zo) == vacuum_character_product(n, qo, zo)


def test_character_weyl_invariance():
    ch = vacuum_character(3, 4, 6)
    assert weyl_invariant(ch)
    broken = ch * MultiSeries.gen(ch.vars, "z1", caps=ch.caps)
    assert not weyl_invariant(broken)


def test_weyl_defect_counts_moved_coefficients():
    ch = vacuum_character(2, 3, 4)
    assert weyl_defect(ch) == 0
    # z1^3 alone: the swap moves it to z2^3, so both exponents differ
    odd = ch + MultiSeries(ch.vars, {(0, 3, 0): 1}, caps=ch.caps)
    assert weyl_defect(odd) == 2


@st.composite
def asymmetric_tables(draw):
    """A table over (q, z1..zn) made symmetric in the z's, then moved: some
    terms dropped, rescaled or added, with int and Fraction coefficients."""
    n = draw(st.integers(1, 4))
    coeff = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=4))
    exps = st.tuples(st.integers(0, 2), *[st.integers(0, 3)] * n)
    table = {}
    for e, c in draw(st.dictionaries(exps, coeff, max_size=8)).items():
        for zs in itertools.permutations(e[1:]):
            table[(e[0], *zs)] = c
    for e in draw(st.lists(st.sampled_from(sorted(table)), max_size=4)) if table else []:
        table[e] = draw(st.sampled_from([0, 1, Fraction(1, 2)])) * table[e]
    table.update(draw(st.dictionaries(exps, coeff, max_size=3)))
    return MultiSeries(("q",) + tuple(f"z{i}" for i in range(1, n + 1)), table,
                       caps=(2,) + (3,) * n)


@settings(max_examples=300, derandomize=True)
@given(asymmetric_tables())
def test_weyl_defect_matches_the_swapped_tables(char):
    assert weyl_defect(char) == loop_weyl_defect(char)


def test_character_q0_slice_single_variable():
    ch = vacuum_character(1, 5, 6)
    slice0 = ch.coeff_in("q", 0)
    # 1 - e^-z
    for k in range(1, 7):
        assert slice0.coeff((k,)) == Fraction((-1) ** (k + 1), math.factorial(k))


def test_character_coefficients_are_fractions():
    ch = vacuum_character(2, 3, 4)
    assert all(isinstance(c, Fraction) for c in ch.coeffs.values())


# ---------------------------------------------------------------- loop side


def test_looijenga_multipliers_ten_samples():
    rng = random.Random(9)
    for _ in range(10):
        lat = Lattice(
            complex(rng.uniform(-0.4, 0.4), rng.uniform(1.0, 2.0)),
            complex(rng.uniform(0.7, 1.3), rng.uniform(-0.3, 0.3)),
        )
        d = SectorDatum(
            Fraction(rng.randrange(1, 7), 7),
            Fraction(rng.randrange(-3, 4), 5),
            complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)),
        )
        for chk in looijenga_check(lat, d):
            assert chk.ok, (chk.label, chk.rel_err)


def test_looijenga_labels_and_types():
    checks = looijenga_check(LAT, SectorDatum(Fraction(1, 3)))
    assert [c.label for c in checks] == ["alpha1+1", "alpha2+1", "alpha2-1", "shear"]
    assert all(isinstance(c, MultiplierCheck) for c in checks)


def test_pf_truncated_ratio_is_pinned_bit_for_bit():
    # each near row is Euler's sine product with the power-series tail
    # beyond P and the far rows sum in closed form; the float expression
    # and so every bit of the result must stay as it is.  The 50-digit
    # log-gamma window of test_oracles at the exact row shifts puts this
    # value 1.3e-15 from exact, where the all-rows kernel's
    # 0x1.495a5ef15214ep-6 was 6.7e-14 away; from the window at that
    # kernel's own float shifts, the two are 6.7e-14 and 3.4e-15 away.
    a = [SectorDatum(Fraction(1, 3), Fraction(1, 5), 0.1 + 0.05j), SectorDatum(Fraction(-2, 7))]
    b = [
        SectorDatum(Fraction(1, 4), Fraction(-2, 7), 0.02j),
        SectorDatum(Fraction(3, 5), Fraction(1, 2)),
    ]
    lat = Lattice((0.3 + 1.2j) * (1.1 - 0.1j), 1.1 - 0.1j)
    v = pf_truncated_ratio(a, b, lat, 60)
    assert (v.real.hex(), v.imag.hex()) == ("0x1.495a5ef151b3bp-6", "-0x1.77d7f1f05a53cp-3")
    w = pf_rowlimit_ratio(a, b, lat, 8)
    assert (w.real.hex(), w.imag.hex()) == ("0x1.443b71d4bfa90p-6", "-0x1.76ca2ea4b817bp-3")


# the x86 dispatch levels from X86_V3 up, under which numpy's complex
# kernels use fused multiply-add
_NARROW_DISPATCH = "X86_V3 X86_V4 AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR"


def _pins_in_fresh_interpreter(narrow):
    """Both pinned values from a fresh interpreter, as hex, and whether
    numpy was loaded after pf_truncated_ratio."""
    script = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from ellforge.fermion import SectorDatum, pf_rowlimit_ratio, pf_truncated_ratio\n"
        "from ellforge.modforms import Lattice\n"
        "a = [SectorDatum(Fraction(1, 3), Fraction(1, 5), 0.1 + 0.05j), SectorDatum(Fraction(-2, 7))]\n"
        "b = [SectorDatum(Fraction(1, 4), Fraction(-2, 7), 0.02j), SectorDatum(Fraction(3, 5), Fraction(1, 2))]\n"
        "lat = Lattice((0.3 + 1.2j) * (1.1 - 0.1j), 1.1 - 0.1j)\n"
        "v = pf_truncated_ratio(a, b, lat, 60)\n"
        "loaded = 'numpy' in sys.modules\n"
        "w = pf_rowlimit_ratio(a, b, lat, 8)\n"
        "print(v.real.hex(), v.imag.hex(), w.real.hex(), w.imag.hex(), loaded)\n"
    )
    env = dict(os.environ)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if narrow:
        env["NPY_DISABLE_CPU_FEATURES"] = _NARROW_DISPATCH
    src = os.path.dirname(os.path.dirname(ellforge.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_pins_do_not_depend_on_the_numpy_dispatch():
    # the window kernel runs on scalar cmath and math.fsum and never loads
    # numpy, so a narrower SIMD dispatch cannot move a bit of either pin
    default = _pins_in_fresh_interpreter(narrow=False)
    assert default == [
        "0x1.495a5ef151b3bp-6", "-0x1.77d7f1f05a53cp-3",
        "0x1.443b71d4bfa90p-6", "-0x1.76ca2ea4b817bp-3", "False",
    ]
    assert _pins_in_fresh_interpreter(narrow=True) == default
