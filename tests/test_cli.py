"""Exit codes, JSON round-trips, and golden-file byte stability."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from ellforge import cli, series
from ellforge.equivderham import circle_complex, weil_block, weil_world

GOLDEN = Path(__file__).parent / "golden"


def run(*argv, env_extra=None, timeout=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ellforge.cli", *argv],
        capture_output=True,
        env=env,
        timeout=timeout,
    )


# ---------------------------------------------------------------------------
# check runner


def test_sigma_identity_suite_passes():
    proc = run("check", "sigma-identity")
    assert proc.returncode == 0
    assert b"sigma-identity: PASS" in proc.stdout


def _perturbed(ms, count):
    """ms with its first ``count`` coefficients (in exponent order) changed."""
    table = dict(ms.coeffs)
    for e in sorted(table)[:count]:
        table[e] = table[e] + 1
    return ms._like(table)


def test_sigma_identity_residual_counts_differing_coefficients(monkeypatch):
    assert cli.run_checks(["sigma-identity"], 0, None)[0].residuals == [0.0]
    exact = cli.sigma_exponential
    monkeypatch.setattr(cli, "sigma_exponential", lambda q, z: _perturbed(exact(q, z), 3))
    report = cli.run_checks(["sigma-identity"], 0, None)[0]
    assert (report.status, report.residuals) == ("fail", [3.0])


def test_vacuum_character_residuals_count_differing_coefficients(monkeypatch):
    assert cli.run_checks(["vacuum-character"], 0, None)[0].residuals == [0.0, 0.0]
    exact = cli.vacuum_character_product
    monkeypatch.setattr(
        cli, "vacuum_character_product", lambda n, q, z: _perturbed(exact(n, q, z), 5)
    )
    report = cli.run_checks(["vacuum-character"], 0, None)[0]
    assert (report.status, report.residuals) == ("fail", [5.0, 0.0])


def test_first_diff_finds_the_one_mutated_coefficient():
    table = cli.sigma_product(4, 6).coeffs
    e = sorted(table)[len(table) // 2]
    assert cli._first_diff(table, {**table, e: table[e] + 1}) == e
    assert cli._first_diff(table, dict(table)) is None
    assert cli._first_diff({k: c for k, c in table.items() if k != e}, table) == e


def test_check_json_reports_the_first_differing_exponent(monkeypatch):
    reports = cli.run_checks(["sigma-identity", "vacuum-character", "derham"], 0, None)
    assert [r.to_json().get("first_diff", "absent") for r in reports] == [None, None, "absent"]
    sigma, char = cli.sigma_exponential, cli.vacuum_character_product
    monkeypatch.setattr(cli, "sigma_exponential", lambda q, z: _perturbed(sigma(q, z), 3))
    monkeypatch.setattr(
        cli, "vacuum_character_product", lambda n, q, z: _perturbed(char(n, q, z), 5)
    )
    got = [r.to_json()["first_diff"] for r in cli.run_checks(
        ["sigma-identity", "vacuum-character"], 0, None)]
    assert got == [min(sigma(6, 8).coeffs), min(char(2, 4, 4).coeffs)]
    payload = json.loads(json.dumps([r.to_json() for r in cli.run_checks(
        ["sigma-identity"], 0, None)]))
    assert payload[0]["first_diff"] == list(min(sigma(6, 8).coeffs))


def test_derham_residual_counts_wrong_degrees(monkeypatch):
    assert cli.run_checks(["derham"], 0, None)[0].residuals == [0.0]
    wrong = SimpleNamespace(dims=[0, 0, 2, 0, 1])
    monkeypatch.setattr(cli, "cartan_cohomology", lambda weights, degree: wrong)
    report = cli.run_checks(["derham"], 0, None)[0]
    assert (report.status, report.residuals) == ("fail", [2.0])


def test_sheaf_residual_counts_disagreeing_degrees(monkeypatch):
    assert cli.run_checks(["sheaf"], 0, None)[0].residuals == [0.0]
    exact = cli.localized_transition_rank

    def short(*args, **kwargs):
        rep = exact(*args, **kwargs)
        rep.ranks = [0] * len(rep.ranks)
        return rep

    monkeypatch.setattr(cli, "localized_transition_rank", short)
    report = cli.run_checks(["sheaf"], 0, None)[0]
    assert (report.status, report.residuals) == ("fail", [3.0])


def test_suite_parameters_are_what_runs_and_what_is_reported(monkeypatch):
    calls = []
    exact = cli.sigma_product

    def spy(qorder, zorder):
        calls.append((qorder, zorder))
        return exact(qorder, zorder)

    monkeypatch.setattr(cli, "sigma_product", spy)
    monkeypatch.setitem(cli._SUITES["sigma-identity"][1], "qorder", 3)
    report = cli.run_checks(["sigma-identity"], 0, None)[0]
    assert calls == [(3, 8)]
    assert report.status == "pass"
    assert report.to_json()["parameters"] == {"qorder": "3", "zorder": "8"}


def test_check_list_names_every_suite():
    proc = run("check", "--list")
    assert proc.returncode == 0
    names = proc.stdout.decode().split()
    assert "sigma-identity" in names
    assert "sheaf" in names
    assert len(names) == 11


def test_unknown_suite_is_usage_error():
    proc = run("check", "no-such-suite")
    assert proc.returncode == 2


def test_impossible_tolerance_fails_with_exit_one():
    proc = run("check", "group-law", "--tol", "1e-30")
    assert proc.returncode == 1
    assert b"FAIL" in proc.stdout


@pytest.mark.parametrize("tol, shown", [("inf", "inf"), ("nan", "nan"), ("0", "0.0"),
                                        ("-1", "-1.0")])
def test_tolerance_must_be_finite_and_positive(tol, shown, capsys):
    # inf would pass every float suite, and nan, 0 or -1 fail them unexplained
    assert cli.main(["check", "pfaffian", "--tol", tol]) == 2
    assert capsys.readouterr() == ("", f"error: --tol must be finite and > 0, got {shown}\n")


def test_valid_tolerance_override_runs(capsys):
    assert cli.main(["check", "group-law", "--tol", "1e-3"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("group-law: PASS") and err == ""


def test_applied_tolerance_is_reported():
    for argv, tol in ((("--tol", "1e-30"), "1e-30"), ((), "1e-09")):
        proc = run("check", "group-law", "--json", *argv)
        (report,) = json.loads(proc.stdout)["reports"]
        assert report["parameters"]["tol"] == tol
    report = json.loads(run("check", "sigma-identity", "--tol", "1e-3", "--json").stdout)
    assert "tol" not in report["reports"][0]["parameters"]


def test_seed_is_reported_only_by_the_suites_that_read_it():
    reports = cli.run_checks(list(cli._SUITES), 7, None)
    seeds = {r.name: r.to_json()["parameters"]["seed"] for r in reports if "seed" in r.parameters}
    assert seeds == {"looijenga": "7", "modularity": "7"}


def test_seed_is_printed_and_respected():
    a = run("check", "looijenga", "--seed", "7")
    b = run("check", "looijenga", "--seed", "8")
    assert a.returncode == b.returncode == 0
    assert b"seed 7" in a.stdout
    assert b"seed 8" in b.stdout


def test_seed_is_printed_only_on_the_lines_of_suites_that_read_it():
    proc = run("check", "--seed", "7")
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()[:-1]
    printed = {line.split(":")[0] for line in lines if "  seed 7  " in line}
    assert printed == {"looijenga", "modularity"}
    assert sum("seed" in line for line in lines) == 2


def test_seed_and_tol_belong_to_check_only():
    for argv in (("sigma", "--seed", "1"), ("modforms", "--tol", "1e-3")):
        proc = run(*argv)
        assert (proc.returncode, proc.stdout) == (2, b"")
    assert run("check", "looijenga", "--seed", "7", "--tol", "1e-8").returncode == 0


# ---------------------------------------------------------------------------
# emitters


def test_additive_law_is_x_plus_y():
    proc = run("fgl", "--coordinate", "additive", "--degree", "3", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    entries = {(e["i"], e["j"]) for e in payload["coefficients"]}
    assert entries == {(0, 1), (1, 0)}
    for e in payload["coefficients"]:
        assert e["series"]["coeffs"] == [[0, "1"]]


@pytest.mark.parametrize("coordinate", ["additive", "multiplicative", "sigma"])
def test_zero_fgl_degree_is_usage_error(coordinate, capsys):
    assert cli.main(["fgl", "--coordinate", coordinate, "--degree", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_coordinate_is_usage_error():
    proc = run("fgl", "--coordinate", "bogus")
    assert proc.returncode == 2


def test_malformed_numeric_flag_is_usage_error():
    proc = run("euler", "--roots", "x", "--nilpotency", "4")
    assert proc.returncode == 2


def test_odd_eisenstein_weight_rejected():
    proc = run("modforms", "--k", "5")
    assert proc.returncode == 2


def test_sectors_reads_group_table(tmp_path):
    table = tmp_path / "z2.json"
    table.write_text('{"order": 2, "mul": [[0, 1], [1, 0]]}')
    proc = run("sectors", "--group-table", str(table), "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["pair_count"] == 4
    assert len(payload["orbits"]) == 2
    assert max(o["index"] for o in payload["orbits"]) == 3


def test_sectors_missing_file_is_input_error():
    proc = run("sectors", "--group-table", "/nonexistent/table.json")
    assert proc.returncode == 2


def test_sectors_invalid_table_is_input_error(tmp_path):
    table = tmp_path / "bad.json"
    table.write_text('{"order": 2, "mul": [[0, 0], [0, 0]]}')
    proc = run("sectors", "--group-table", str(table))
    assert proc.returncode == 2


def test_derham_relations_pass():
    proc = run("derham", "--group", "su2", "--check-relations", "--degree", "4")
    assert proc.returncode == 0
    assert b"all relations: ok" in proc.stdout


def test_derham_relations_verdict_does_not_depend_on_degree():
    relations = ["derham", "--group", "u2", "--check-relations", "--json"]
    proc = run(*relations, "--degree", "40", timeout=60)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert sorted(payload) == [
        "bracket_sign", "command", "contraction_squares_zero", "contractions_anticommute",
        "d_commutes_with_lie", "d_squared_zero", "degree", "group", "mixed_relation_ok",
        "mode", "ok",
    ]
    assert payload == {**json.loads(run(*relations, "--degree", "4").stdout), "degree": 40}


def test_derham_cohomology_dims():
    proc = run("derham", "--cohomology", "--weights", "1,1", "--degree", "4", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["dims"] == [1, 0, 1, 0, 1]
    assert payload["free_rank_one"] is True


def test_derham_needs_exactly_one_mode():
    proc = run("derham", "--group", "su2")
    assert proc.returncode == 2
    proc = run("derham", "--group", "su2", "--check-relations", "--cohomology")
    assert proc.returncode == 2


def test_derham_basic_dump_contains_elements():
    proc = run("derham", "--group", "su2", "--basic", "--degree", "4", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["dimension"] == 1
    assert len(payload["basis"]) == 1


def test_sheaf_sections_report():
    proc = run(
        "sheaf", "--weights", "1,2", "--anchor", "1/2,0", "--sections",
        "--degree", "4", "--json",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["fixed"] == [1]
    assert payload["cohomology_dims"] == [1, 0, 1, 0, 1]


def test_negative_degree_is_usage_error():
    sheaf = ["sheaf", "--weights", "1,2", "--anchor", "1/2,0", "--sections"]
    for argv in (
        ["derham", "--group", "u2", "--check-relations", "--degree", "-3"],
        ["derham", "--group", "su2", "--basic", "--degree", "-1"],
        ["derham", "--cohomology", "--weights", "1,1", "--degree", "-2"],
        [*sheaf, "--degree", "-1"],
        [*sheaf, "--degree", "-1", "--json"],
    ):
        proc = run(*argv)
        assert proc.returncode == 2, argv
        assert proc.stdout == b"", argv
        assert proc.stderr.startswith(b"error: --degree"), argv


@pytest.mark.parametrize("prefix, flag", [
    (["modforms"], "--qorder"),
    (["modforms", "--delta"], "--qorder"),
    (["sigma"], "--qorder"),
    (["sigma"], "--zorder"),
    (["fgl", "--coordinate", "sigma"], "--degree"),
    (["fgl", "--coordinate", "additive", "--json"], "--qorder"),
    (["fermion"], "--rank"),
    (["fermion"], "--qorder"),
    (["fermion"], "--zorder"),
    (["euler", "--nilpotency", "2"], "--roots"),
    (["euler", "--roots", "2"], "--nilpotency"),
    (["euler", "--roots", "2", "--nilpotency", "2"], "--qorder"),
])
def test_negative_size_flag_is_usage_error(prefix, flag, capsys):
    assert cli.main([*prefix, flag, "-1"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {flag} must be >= 0, got -1\n")


@pytest.mark.parametrize("weights, degree", [((0,), 5), ((0, 0), 3), ((1, 2), 4), ((), 7)])
def test_sheaf_cochain_estimate_bounds_the_complex(weights, degree):
    blocks = circle_complex(weights, degree, degree)[1]
    count = sum(len(keys) for block in blocks for keys in block.keys)
    estimate = cli._sheaf_cochains(len(weights), degree)
    assert count <= estimate
    assert (count == estimate) == (not any(weights))


def test_sheaf_refuses_degree_past_cochain_limit():
    proc = run(
        "sheaf", "--weights", "1,2", "--anchor", "0,0", "--sections", "--degree", "99",
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == b""
    estimate = cli._sheaf_cochains(2, 99)
    assert estimate > cli.SHEAF_COCHAIN_LIMIT
    assert str(estimate).encode() in proc.stderr


@pytest.mark.parametrize("degree, qorder", [(20, 86), (3, 10**400)])
def test_fgl_refuses_work_past_the_limit(degree, qorder, capsys):
    assert cli._fgl_work(degree, qorder) > cli.FGL_WORK_LIMIT
    argv = ["fgl", "--coordinate", "sigma", "--degree", str(degree), "--qorder", str(qorder)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cli._fgl_work(degree, qorder)) in err


def test_fgl_accepts_the_size_next_to_the_limit(monkeypatch, capsys):
    """(20, 85) passes the guard; a small law stands in for its 10 s build."""
    assert cli._fgl_work(20, 85) <= cli.FGL_WORK_LIMIT
    built = []
    real = cli.fgl_from_coordinate

    def small_law(kind, degree, qorder):
        built.append((kind, degree, qorder))
        return real(kind, 2, 0)

    monkeypatch.setattr(cli, "fgl_from_coordinate", small_law)
    assert cli.main(["fgl", "--coordinate", "sigma", "--degree", "20", "--qorder", "85"]) == 0
    assert built == [("sigma", 20, 85)]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("weights, degree", [("1,1,1", 9), ("0,0", 15), ("1,2,3,4,5,6", 5)])
def test_derham_cohomology_refuses_cochains_past_the_limit(weights, degree, capsys):
    estimate = cli._sheaf_cochains(len(weights.split(",")), degree)
    assert estimate > cli.DERHAM_COCHAIN_LIMIT
    argv = ["derham", "--cohomology", "--weights", weights, "--degree", str(degree)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(estimate) in err


def test_derham_cohomology_accepts_the_size_next_to_the_limit(monkeypatch, capsys):
    """Weights 1,1,1 at degree 8 pass the guard and degree 9 does not; a
    degree-2 complex stands in for the 2 s build."""
    assert cli._sheaf_cochains(3, 8) <= cli.DERHAM_COCHAIN_LIMIT < cli._sheaf_cochains(3, 9)
    built = []
    real = cli.cartan_cohomology

    def small_complex(weights, degree):
        built.append((weights, degree))
        return real(weights, 2)

    monkeypatch.setattr(cli, "cartan_cohomology", small_complex)
    assert cli.main(["derham", "--cohomology", "--weights", "1,1,1", "--degree", "8"]) == 0
    assert built == [((1, 1, 1), 8)]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("group", ["u1", "su2", "u2"])
@pytest.mark.parametrize("degree", [0, 1, 2, 5, 8, 13])
def test_weil_monomial_count_is_exact(group, degree):
    lie = cli._GROUPS[group]()
    keys = weil_block(lie, weil_world(lie), degree)
    assert cli._weil_monomials(lie.dim, degree) == len(keys)


@pytest.mark.parametrize("group, degree", [("u2", 27), ("u2", 40), ("su2", 85), ("u2", 10**6)])
def test_derham_basic_refuses_monomials_past_the_limit(group, degree, capsys):
    estimate = cli._weil_monomials(cli._GROUPS[group]().dim, degree)
    assert estimate > cli.DERHAM_BASIC_LIMIT
    argv = ["derham", "--basic", "--group", group, "--degree", str(degree)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: --degree {degree} on {group} needs {estimate} monomials, "
        f"over the limit of {cli.DERHAM_BASIC_LIMIT}\n"
    )


def test_derham_basic_accepts_the_size_next_to_the_limit(monkeypatch, capsys):
    """u2 at degree 26 passes the guard and degree 27 does not; a degree-2
    solve stands in for the 10 s one."""
    assert cli._weil_monomials(4, 26) <= cli.DERHAM_BASIC_LIMIT < cli._weil_monomials(4, 27)
    built = []
    real = cli.basic_subspace

    def small_solve(alg, degree):
        built.append((alg.label, degree))
        return real(alg, 2)

    monkeypatch.setattr(cli, "basic_subspace", small_solve)
    assert cli.main(["derham", "--basic", "--group", "u2", "--degree", "26"]) == 0
    assert built == [("u2", 26)]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("rank, qorder, zorder", [
    (8, 8, 8), (5, 8, 8), (6, 6, 6), (2, 40, 40), (1, 40, 40), (2000, 0, 1), (3, 10**400, 1),
])
def test_fermion_refuses_work_past_the_limit(rank, qorder, zorder, capsys):
    estimate = cli._fermion_work(rank, qorder, zorder)
    assert estimate > cli.FERMION_WORK_LIMIT
    argv = ["fermion", "--rank", str(rank), "--qorder", str(qorder), "--zorder", str(zorder)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: --rank {rank} --qorder {qorder} --zorder {zorder} needs about "
        f"{estimate} coefficient products, over the limit of {cli.FERMION_WORK_LIMIT}\n"
    )


def test_fermion_work_grows_with_every_size():
    base = cli._fermion_work(2, 6, 6)
    assert base < min(cli._fermion_work(3, 6, 6), cli._fermion_work(2, 7, 6),
                      cli._fermion_work(2, 6, 8))


def test_fermion_accepts_the_size_next_to_the_limit(monkeypatch, capsys):
    """Rank 4 at q- and z-order 10 passes the guard and z-order 11 does not;
    a small character stands in for its 6 s build."""
    assert cli._fermion_work(4, 10, 10) <= cli.FERMION_WORK_LIMIT < cli._fermion_work(4, 10, 11)
    built = []
    real = cli.vacuum_character

    def small_character(rank, qorder, zorder):
        built.append((rank, qorder, zorder))
        return real(rank, 1, 1)

    monkeypatch.setattr(cli, "vacuum_character", small_character)
    assert cli.main(["fermion", "--rank", "4", "--qorder", "10", "--zorder", "10"]) == 0
    assert built == [(4, 10, 10)]
    assert capsys.readouterr().err == ""


# The euler guard's calibration: (roots, nilpotency, qorder), the estimate
# and the seconds of `cli.main(["euler", ...])` in process on a 2-vCPU VM
# (Python 3.11.7), table printed to a buffer.  Past 1 s every shape took
# 0.2 to 0.8 us per unit; the limit refuses the shapes past about 10 s.
EULER_TIMINGS = [
    ((3, 20, 12), 2987503, 1.26),
    ((5, 16, 12), 17449915, 3.87),
    ((1, 80, 40), 5417754, 4.58),
    ((8, 12, 8), 21482085, 5.73),
    ((2, 40, 20), 14989427, 6.20),
    ((6, 16, 8), 26787174, 6.32),
    ((3, 24, 16), 14990949, 6.55),
    ((4, 24, 8), 32531350, 12.73),
    ((8, 16, 4), 80850045, 38.71),
]


def test_euler_limit_splits_the_calibration_table():
    for shape, estimate, seconds in EULER_TIMINGS:
        assert cli._euler_work(*shape) == estimate
        assert (estimate <= cli.EULER_WORK_LIMIT) == (seconds < 10), shape
    # the shape that ran for over 40 s without a guard
    assert cli._euler_work(8, 16, 12) > cli.EULER_WORK_LIMIT


def _refuse_builds(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"a class was built for a refused shape {args}")

    for name in ("twisted_euler", "corrected_euler", "linear_anomaly", "g2_anomaly"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("roots, degree, qorder", [
    (4, 24, 8), (8, 16, 12), (10**6, 0, 0), (0, 10**9, 0), (1, 0, 10**9), (10**400, 10**400, 1),
])
def test_euler_refuses_work_past_the_limit(roots, degree, qorder, monkeypatch, capsys):
    """(4, 24, 8) is the smallest refused shape at 4 roots and degree 24; a
    refused shape exits 2 before any class is built."""
    _refuse_builds(monkeypatch)
    estimate = cli._euler_work(roots, degree, qorder)
    assert estimate > cli.EULER_WORK_LIMIT
    argv = ["euler", "--roots", str(roots), "--nilpotency", str(degree), "--qorder", str(qorder)]
    assert cli.main(argv) == 2
    assert cli.main([*argv, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == 2 * (
        f"error: --roots {roots} --nilpotency {degree} --qorder {qorder} needs about "
        f"{estimate} units, over the limit of {cli.EULER_WORK_LIMIT}\n"
    )


def test_euler_work_grows_with_every_size():
    base = cli._euler_work(2, 8, 8)
    assert base < min(cli._euler_work(3, 8, 8), cli._euler_work(2, 9, 8),
                      cli._euler_work(2, 8, 9))


def test_euler_accepts_the_size_next_to_the_limit(monkeypatch, capsys):
    """qorder 7 at 4 roots and degree 24 passes the guard; small classes
    stand in for its builds, each built once."""
    assert cli._euler_work(4, 24, 7) <= cli.EULER_WORK_LIMIT < cli._euler_work(4, 24, 8)
    built = []
    for name in ("twisted_euler", "corrected_euler", "linear_anomaly", "g2_anomaly"):
        def small(m, degree, qorder, real=getattr(cli, name), name=name):
            built.append((name, m, degree, qorder))
            return real(m, 3, 1)

        monkeypatch.setattr(cli, name, small)
    assert cli.main(["euler", "--roots", "4", "--nilpotency", "24", "--qorder", "7", "--json"]) == 0
    assert sorted(built) == sorted(
        (name, 4, 24, 7)
        for name in ("twisted_euler", "corrected_euler", "linear_anomaly", "g2_anomaly")
    )
    assert capsys.readouterr().err == ""


def test_euler_command_and_suite_build_each_class_once(monkeypatch, capsys):
    built = []
    for name in ("twisted_euler", "corrected_euler", "linear_anomaly", "g2_anomaly"):
        def counted(*args, real=getattr(cli, name), name=name):
            built.append(name)
            return real(*args)

        monkeypatch.setattr(cli, name, counted)
    assert cli.main(["euler", "--roots", "2", "--nilpotency", "4", "--qorder", "2"]) == 0
    assert "factorization exact: yes" in capsys.readouterr().out
    assert sorted(built) == ["corrected_euler", "g2_anomaly", "linear_anomaly", "twisted_euler"]
    built.clear()
    assert cli.run_checks(["euler-anomaly"], 0, None)[0].status == "pass"
    assert sorted(built) == ["corrected_euler", "g2_anomaly", "linear_anomaly", "twisted_euler"]


@pytest.mark.parametrize("argv", [
    ["modforms", "--qorder", "270222"],
    ["modforms", "--qorder", "1000000"],
    ["modforms", "--delta", "--qorder", "6666"],
    ["modforms", "--k", "12", "--qorder", str(10**400)],
    ["sigma", "--qorder", "1649", "--zorder", "20"],
    ["sigma", "--qorder", "2000", "--zorder", "20"],
    ["sigma", "--qorder", "4", "--zorder", "253"],
    ["sigma", "--form", "exponential", "--qorder", "94", "--zorder", "20"],
    ["sigma", "--form", "exponential", "--qorder", "3145", "--zorder", "2"],
    ["sigma", "--form", "exponential", "--qorder", "40", "--zorder", "40"],
    ["sigma", "--form", "exponential", "--qorder", "4", "--zorder", "114"],
    ["sigma", "--form", "exponential", "--qorder", "0", "--zorder", "214"],
    ["sigma", "--form", "exponential", "--qorder", "0", "--zorder", "287"],
    ["sigma", "--qorder", "0", "--zorder", str(10**400)],
])
def test_series_commands_refuse_work_past_the_limit(argv, capsys):
    flags = dict(zip(argv[1:], argv[2:]))
    if argv[0] == "modforms":
        estimate = cli._modforms_work("--delta" in argv, int(flags.get("--k", 4)),
                                      int(flags["--qorder"]))
    else:
        estimate = cli._sigma_work(flags.get("--form", "product"), int(flags["--qorder"]),
                                   int(flags["--zorder"]))
    assert estimate > cli.SERIES_WORK_LIMIT
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f"needs about {estimate} steps, over the limit of {cli.SERIES_WORK_LIMIT}\n")


def test_series_work_grows_with_every_size():
    assert cli._modforms_work(False, 4, 100) < cli._modforms_work(False, 4, 101)
    assert cli._modforms_work(False, 4, 100) < cli._modforms_work(False, 12, 100)
    assert cli._modforms_work(True, 4, 100) < cli._modforms_work(True, 4, 101)
    for form in ("product", "exponential"):
        base = cli._sigma_work(form, 20, 20)
        assert base < min(cli._sigma_work(form, 21, 20), cli._sigma_work(form, 20, 22))


@pytest.mark.parametrize("argv, builder, call, small", [
    (["modforms", "--qorder", "270221"], "eisenstein_q", (4, 270221), (4, 2)),
    (["modforms", "--delta", "--qorder", "6665"], "delta_q", (6665,), (2,)),
    (["sigma", "--qorder", "1648", "--zorder", "20"], "sigma_product", (1648, 20), (2, 2)),
    (["sigma", "--qorder", "4", "--zorder", "252"], "sigma_product", (4, 252), (2, 2)),
    (["sigma", "--form", "exponential", "--qorder", "93", "--zorder", "20"],
     "sigma_exponential", (93, 20), (2, 2)),
    (["sigma", "--form", "exponential", "--qorder", "3144", "--zorder", "2"],
     "sigma_exponential", (3144, 2), (2, 2)),
    (["sigma", "--form", "exponential", "--qorder", "4", "--zorder", "113"],
     "sigma_exponential", (4, 113), (2, 2)),
    (["sigma", "--form", "exponential", "--qorder", "0", "--zorder", "213"],
     "sigma_exponential", (0, 213), (2, 2)),
])
def test_series_commands_accept_the_size_next_to_the_limit(
    argv, builder, call, small, monkeypatch, capsys
):
    """Each size is the largest its guard lets through (one more is refused
    above); a small series stands in for its 10 s build and no table is
    printed."""
    built = []
    real = getattr(cli, builder)

    def small_build(*args):
        built.append(args)
        return real(*small)

    monkeypatch.setattr(cli, builder, small_build)
    monkeypatch.setattr(cli, "_print_table", lambda headers, rows: None)
    assert cli.main(argv) == 0
    assert built == [call]
    assert capsys.readouterr().err == ""


def test_guard_messages_keep_their_bytes(capsys):
    cases = [
        (["fgl", "--coordinate", "sigma", "--degree", "50", "--qorder", "5"],
         "error: --degree 50 --qorder 5 needs about 5703562720 digit products, "
         "over the limit of 2000000000\n"),
        (["derham", "--cohomology", "--weights", "1,1,1", "--degree", "9"],
         "error: --degree 9 on 3 weights needs up to 354492 cochains, "
         "over the limit of 200000\n"),
        (["sheaf", "--weights", "0,0", "--anchor", "0,0", "--sections", "--degree", "9"],
         "error: --degree 9 on 2 fixed coordinates needs up to 27954 cochains, "
         "over the limit of 20000\n"),
        (["fermion", "--rank", "8", "--qorder", "8", "--zorder", "8"],
         "error: --rank 8 --qorder 8 --zorder 8 needs about 913160464 coefficient products, "
         "over the limit of 800000\n"),
        (["modforms", "--qorder", "1000000"],
         "error: --qorder 1000000 needs about 712111111 steps, over the limit of 100000000\n"),
        (["sigma", "--qorder", "2000", "--zorder", "20"],
         "error: --qorder 2000 --zorder 20 needs about 147051466 steps, "
         "over the limit of 100000000\n"),
    ]
    for argv, err in cases:
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", err)


def test_sheaf_bad_anchor_is_usage_error():
    proc = run("sheaf", "--weights", "1,2", "--anchor", "1/x,0", "--sections")
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# numpy only where floats run


def _loads_numpy(argv):
    """Whether importing the CLI and running argv in a fresh interpreter
    imports numpy; this process already holds it."""
    script = (
        "import contextlib, io, sys\n"
        "from ellforge import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.split()
    assert code == "0", argv
    return loaded == "True"


@pytest.mark.parametrize("argv", [
    ["derham", "--cohomology", "--weights", "1", "--degree", "2"],
    ["fgl", "--coordinate", "sigma", "--degree", "6", "--qorder", "3"],
    ["euler", "--roots", "2", "--nilpotency", "4", "--qorder", "2"],
    ["sheaf", "--weights", "1,2", "--anchor", "1/2,0", "--sections", "--degree", "4"],
    ["check", "derham"],
    ["check"],
])
def test_exact_commands_never_import_numpy(argv):
    assert not _loads_numpy(argv)


def test_float_suite_imports_numpy():
    # the property above is not vacuous: the lattice sums, the one numpy
    # user left, do load it (a fresh interpreter, since this one holds it)
    script = (
        "import sys\n"
        "from ellforge.modforms import Lattice, eisenstein_num\n"
        "print('numpy' in sys.modules, end=' ')\n"
        "eisenstein_num(4, Lattice(1.2j, 1.0), 8)\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


# ---------------------------------------------------------------------------
# determinism and golden files


def _golden_bytes(name):
    return (GOLDEN / name).read_bytes()


EMIT_CASES = [
    (["euler", "--roots", "2", "--nilpotency", "4", "--qorder", "2"], "euler_r2_n4_q2.txt"),
    # the classes are built in y = iF and printed in F: i^3 and i^5 appear
    (["euler", "--roots", "3", "--nilpotency", "5", "--qorder", "3"], "euler_r3_n5_q3.txt"),
    (["euler", "--roots", "2", "--nilpotency", "4", "--qorder", "2", "--json"],
     "euler_r2_n4_q2.json"),
    (["euler", "--roots", "0", "--nilpotency", "3", "--qorder", "2", "--json"],
     "euler_r0_n3_q2.json"),
    (["euler", "--roots", "1", "--nilpotency", "6", "--qorder", "4", "--json"],
     "euler_r1_n6_q4.json"),
    (["fgl", "--coordinate", "additive", "--degree", "3", "--json"], "fgl_additive_d3.json"),
    # q columns run to the q-order, past the last q power the table holds
    (["fgl", "--coordinate", "additive", "--degree", "3", "--qorder", "4"],
     "fgl_additive_d3_q4.txt"),
    (["fgl", "--coordinate", "sigma", "--degree", "6", "--qorder", "3"], "fgl_sigma_d6_q3.txt"),
    (["fgl", "--coordinate", "sigma", "--degree", "6", "--qorder", "3", "--json"],
     "fgl_sigma_d6_q3.json"),
    (["sigma", "--qorder", "3", "--zorder", "4", "--json"], "sigma_q3_z4.json"),
    (
        ["sheaf", "--weights", "1,2", "--anchor", "1/2,0", "--sections", "--degree", "4"],
        "sheaf_w12_sections.txt",
    ),
    (
        ["sectors", "--group-table", str(GOLDEN / "z2_table.json"), "--json"],
        "sectors_z2.json",
    ),
    (
        ["sheaf", "--weights", "1,2", "--anchor", "0,0", "--sections", "--degree", "4",
         "--json"],
        "sheaf_w12_origin_sections.json",
    ),
]


def test_emitters_match_golden_files_twice():
    for argv, name in EMIT_CASES:
        first = run(*argv)
        second = run(*argv)
        assert first.returncode == 0, (argv, first.stderr)
        assert first.stdout == second.stdout
        assert first.stdout == _golden_bytes(name), argv


TRACE_LINE = re.compile(
    rb"rref caller=\S+ shape=\d+x\d+ nnz=\d+ rank=\d+ seconds=\d+\.\d{6}"
)


def test_elimination_trace_goes_to_stderr_only(monkeypatch, capsys):
    calls = []
    plain_rref = series.rref

    def counted(*args):
        calls.append(args)
        return plain_rref(*args)

    monkeypatch.setattr(series, "rref", counted)
    traced_any = False
    for argv, name in EMIT_CASES:
        calls.clear()
        assert cli.main(argv) == 0
        capsys.readouterr()
        proc = run(*argv, env_extra={"ELLFORGE_TRACE": "1"})
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stdout == _golden_bytes(name), argv
        lines = proc.stderr.splitlines()
        assert len(lines) == len(calls), argv
        assert all(TRACE_LINE.fullmatch(line) for line in lines), argv
        traced_any = traced_any or bool(lines)
    assert traced_any


def test_json_reingest_is_byte_identical(tmp_path):
    for argv, name in EMIT_CASES:
        if not name.endswith(".json"):
            continue
        saved = tmp_path / name
        saved.write_bytes(run(*argv).stdout)
        again = run(*argv, "--from", str(saved))
        assert again.returncode == 0
        assert again.stdout == saved.read_bytes()


def test_reingest_requires_json_mode(tmp_path):
    saved = tmp_path / "sigma.json"
    saved.write_bytes(run("sigma", "--qorder", "2", "--zorder", "2", "--json").stdout)
    proc = run("sigma", "--from", str(saved))
    assert proc.returncode == 2


def test_check_reingest_is_byte_identical(tmp_path):
    # re-emitted from the file alone: no suite runs, so neither the suite
    # list, the seed nor the measured runtimes can change
    saved = tmp_path / "check.json"
    saved.write_bytes(run("check", "sectors", "--json", "--seed", "7").stdout)
    again = run("check", "--json", "--from", str(saved))
    assert again.returncode == 0
    assert again.stdout == saved.read_bytes()


@pytest.mark.parametrize("suite", ["sectors", "derham"])
def test_check_json_repeats_apart_from_runtimes(suite):
    # each report embeds its measured runtime; everything else repeats
    outs = []
    for _ in range(2):
        proc = run("check", suite, "--json")
        assert proc.returncode == 0
        stripped, count = re.subn(rb'"runtime":"[0-9]+\.[0-9]{3}",', b"", proc.stdout)
        assert count == len(json.loads(proc.stdout)["reports"]) == 1
        outs.append(stripped)
    assert outs[0] == outs[1]


def test_check_reingest_requires_json_mode(tmp_path):
    saved = tmp_path / "check.json"
    saved.write_bytes(run("check", "sectors", "--json").stdout)
    proc = run("check", "--from", str(saved))
    assert proc.returncode == 2
    assert proc.stdout == b""
