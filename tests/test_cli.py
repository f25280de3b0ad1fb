"""Command-line behavior: JSON on stdout only, exit codes, byte-determinism."""

import argparse
import dataclasses
import hashlib
import importlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from chaoscalc import (
    ChaosPoly,
    InputLaw,
    MultilinearPoly,
    canonical_quadratic,
    hermite_monomial,
    iterate_decomposition,
    normality_report,
    read_sample_file,
    rho_q,
    sample,
    strongest_influence,
)
import chaoscalc
from chaoscalc import cli, decompose, influence, montecarlo
from chaoscalc.algebra import JsonResult, canonical_json, json_value
from chaoscalc.cli import main

from _oracles import format_sample_file, read_sample_file_whole_text, write_sample_file

G1, G2 = hermite_monomial({1: 1}), hermite_monomial({2: 1})
HE2_1 = hermite_monomial({1: 2})


@pytest.fixture
def poly_file(tmp_path):
    def write(name, poly):
        path = tmp_path / name
        path.write_text(canonical_json(json_value(poly)))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gamma_of_coordinate_with_itself(capsys, poly_file):
    path = poly_file("g1.json", G1)
    code, out, err = run_cli(capsys, "gamma", path, path)
    assert code == 0 and err == ""
    assert json.loads(out) == {"terms": [{"coeff": "1", "index": {}}]}


def test_gamma_of_disjoint_variables_is_zero(capsys, poly_file):
    a = poly_file("a.json", G1)
    b = poly_file("b.json", G2)
    code, out, _ = run_cli(capsys, "gamma", a, b)
    assert code == 0
    assert json.loads(out) == {"terms": []}


def test_malformed_file_exits_2_and_names_term(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"terms":[{"coeff":"1","index":{"1":1}},{"coeff":"0","index":{}}]}')
    code, out, err = run_cli(capsys, "gamma", str(bad), str(bad))
    assert code == 2 and out == ""
    assert "term 1" in err and "zero coefficient" in err


def test_generator_command(capsys, poly_file):
    path = poly_file("he2.json", HE2_1)
    code, out, _ = run_cli(capsys, "L", path)
    assert code == 0
    assert json.loads(out) == {"terms": [{"coeff": "-2", "index": {"1": 2}}]}


def test_rho_command_value(capsys, poly_file):
    path = poly_file("he2.json", HE2_1)
    code, out, _ = run_cli(capsys, "rho", path, "--q", "1")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("q", [100, 169, 400, 1000])
def test_high_degree_solve_is_written_exactly(q):
    # He_2's degree-q solve is 2 sqrt(q (2q - 1)); the form entry of He_q is beyond the float
    # range of its parts.  rho refuses such a q (its scan's work is over the cap), so the
    # degree's own solve is written as main writes every result.
    out = canonical_json(json_value(influence._degree_influence(HE2_1, q)))
    assert json.loads(out)["value"] == pytest.approx(2 * math.sqrt(q * (2 * q - 1)), rel=1e-12)
    # the direction c He_q has squared norm q! c**2, though c is far below the float range
    (term,) = json.loads(out)["direction"]["terms"]
    assert term["index"] == {"1": q}
    assert float(math.factorial(q) * Fraction(term["coeff"]) ** 2) == pytest.approx(1, abs=1e-12)


def test_rho_running_max_picks_a_lower_degree(capsys, poly_file):
    """f = 29 G_1 - 3 He_3(G_1) + He_5(G_1)/5 has a larger degree-1 influence,
    sqrt(1027), than degree-2 one, sqrt(782): Gamma(f, G_1) = f' =
    29 - 9 He_2 + He_4 and ||f'||**2 = 841 + 162 + 24, while Gamma(f, He_2 / sqrt 2)
    = sqrt 2 G_1 f' = sqrt 2 (11 G_1 - 5 He_3 + He_5) gives 2 (121 + 150 + 120).
    So ``rho --q 2`` gives the degree-1 solve."""
    f = 29 * G1 - 3 * hermite_monomial({1: 3}) + hermite_monomial({1: 5}, Fraction(1, 5))
    path = poly_file("f.json", f)
    code, out, err = run_cli(capsys, "rho", path, "--q", "2")
    assert code == 0, err
    data = json.loads(out)
    assert data["value"] == pytest.approx(math.sqrt(1027), rel=1e-15)
    assert (data["q"], data["basis_dimension"]) == (2, 1)
    assert data["direction"] == {"terms": [{"coeff": "1", "index": {"1": 1}}]}


def test_diagnose_reports_the_running_max_over_degrees(capsys, poly_file):
    # the witness above: its degree-2 solve, sqrt(782), is below its degree-1 one
    f = 29 * G1 - 3 * hermite_monomial({1: 3}) + hermite_monomial({1: 5}, Fraction(1, 5))
    path = poly_file("f.json", f)
    code, out, err = run_cli(capsys, "diagnose", path, "--samples", "1000")
    assert code == 0, err
    rho = json.loads(out)["rho"]
    assert rho == {"1": pytest.approx(math.sqrt(1027), rel=1e-15), "2": rho["1"]}


def test_rho_scan_work_over_the_cap_exits_3_at_once(capsys, poly_file):
    """``He_2(G_1)`` at ``--q 511`` passes the basis cap at every degree
    (dimension 1), but its scan would solve 511 degrees.  The work sum_q q**2
    dim_q first exceeds 512**2 at q = 92:
    92 * 93 * 185 / 6 = 263810, so no degree is solved."""
    path = poly_file("he2.json", HE2_1)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "rho", path, "--q", "511")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert "influence scan work sum_q q**2 dim_q at least 263810 exceeds cap 262144" in err


def test_rho_constant_is_zero(capsys, poly_file):
    path = poly_file("c.json", ChaosPoly.constant(4))
    code, out, _ = run_cli(capsys, "rho", path, "--q", "2")
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_rho_oversized_basis_exits_3(capsys, poly_file):
    # five variables: C(4 + 9, 9) = 715 monomials of degree 9
    path = poly_file("p.json", hermite_monomial({1: 1, 2: 1, 3: 1, 4: 1, 5: 1}))
    code, out, err = run_cli(capsys, "rho", path, "--q", "9")
    assert code == 3 and out == ""
    assert "exceeds cap" in err


@pytest.mark.parametrize("command", ["rho", "strongest", "decompose", "diagnose"])
def test_no_command_takes_extra_vars(capsys, poly_file, command):
    # every influence runs over the padded test space, so there is nothing to choose
    path = poly_file("p.json", G1 * G2)
    with pytest.raises(SystemExit) as exc:
        main([command, path, "--extra-vars", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --extra-vars 1" in capsys.readouterr().err


def test_rho_of_a_constant_at_a_huge_degree_exits_0_at_once(capsys, poly_file):
    # a constant has an empty basis at every degree: no degree is walked
    path = poly_file("c.json", ChaosPoly.constant(4))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "rho", path, "--q", "10000000")
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    assert json.loads(out) == {
        "q": 10**7, "value": 0.0, "direction": {"terms": []}, "basis_dimension": 0,
        "eigengap": None, "eigen_residual": None,
    }


def test_huge_q_exits_3_at_once(capsys, poly_file):
    # over the two variables dim_q = q + 1, so the work sum_q q**2 (q + 1) first
    # exceeds 512**2 at q = 32: (32 * 33 / 2)**2 + 32 * 33 * 65 / 6 = 290224
    path = poly_file("p.json", G1 * G2)
    code, out, err = run_cli(capsys, "rho", path, "--q", "20000")
    assert code == 3 and out == ""
    assert "influence scan work sum_q q**2 dim_q at least 290224 exceeds cap 262144" in err


def _cycle(n: int) -> ChaosPoly:
    """``sum_i G_i G_{i+1}`` over ``n`` variables, indices mod ``n``."""
    return sum((hermite_monomial({i: 1, i % n + 1: 1}) for i in range(1, n + 1)), ChaosPoly.zero())


def test_the_basis_cap_counts_the_variables_of_f_alone(capsys, poly_file):
    """The degree-2 form of the 31-variable cycle has C(32, 2) = 496 rows,
    within the cap, so ``rho --q 2`` solves it; with a fresh variable counted
    the basis would be C(33, 2) = 528.  The 32-variable cycle's own degree-2
    basis is 528 and is refused."""
    code, out, err = run_cli(capsys, "rho", poly_file("c31.json", _cycle(31)), "--q", "2")
    assert code == 0, err
    assert json.loads(out)["basis_dimension"] == 496
    code, out, err = run_cli(capsys, "rho", poly_file("c32.json", _cycle(32)), "--q", "2")
    assert code == 3 and out == ""
    assert err == "error: basis dimension 528 exceeds cap 512\n"


def test_decompose_checks_the_work_only_up_to_q_star(capsys, tmp_path, monkeypatch):
    """The unit-norm ``c He_184(G_1)`` has dimension 1 at every degree, but a
    scan to ``p / 2 = 92`` would do work sum_q q**2 = 263810 over 512**2.
    ``decompose`` reaches only q* = 1 (its influence is sqrt(184)) and splits
    along ``G_1`` in one step; ``strongest``, which solves every degree, is
    refused before its first solve."""
    c = Fraction(1, math.isqrt(math.factorial(184)))
    path = tmp_path / "f.json"
    path.write_text(canonical_json(json_value(hermite_monomial({1: 184}, c))))
    solved = []
    solve = influence._degree_influence
    monkeypatch.setattr(influence, "_degree_influence", lambda f, q: solved.append(q) or solve(f, q))
    code, out, err = run_cli(capsys, "decompose", str(path), "--threshold", "0.5")
    assert code == 0, err
    (step,) = json.loads(out)["steps"]
    assert step["direction"] == {"terms": [{"coeff": "1", "index": {"1": 1}}]}
    assert solved == [1]
    solved.clear()
    code, out, err = run_cli(capsys, "strongest", str(path), "--threshold", "0.5")
    assert code == 3 and out == "" and solved == []
    assert err == "error: influence scan work sum_q q**2 dim_q 263810 exceeds cap 262144\n"


@pytest.mark.parametrize(
    "command", ["rho", "strongest", "decompose", "diagnose", "sample", "canonical2"]
)
def test_coefficient_beyond_float_range_exits_2(capsys, poly_file, command):
    path = poly_file("p.json", G1 * G2 * Fraction(10**400) + HE2_1)
    argv = [command, path]
    if command in ("diagnose", "sample"):
        argv += ["--samples", "1000"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "too large" in err


def test_python_dash_m_runs_the_command(capsys, poly_file):
    path = poly_file("p.json", HE2_1 + G1 * G2)
    code, out, _ = run_cli(capsys, "rho", path, "--q", "2")
    assert code == 0
    child = subprocess.run(
        [sys.executable, "-m", "chaoscalc", "rho", path, "--q", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0 and child.stdout == out


def test_one_parser_serves_many_calls(capsys, poly_file, monkeypatch):
    path = poly_file("p.json", HE2_1 + G1 * G2)
    fresh = subprocess.run(
        [sys.executable, "-m", "chaoscalc", "rho", path],
        capture_output=True, text=True, timeout=120,
    )
    assert fresh.returncode == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    with pytest.raises(SystemExit) as exc:
        main(["rho"])
    assert exc.value.code == 2 and "required: f" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "rho", path, "--q", "2")
    assert code == 0 and json.loads(out)["q"] == 2
    code, out, _ = run_cli(capsys, "rho", path)
    assert code == 0 and out == fresh.stdout
    assert built == []


def test_every_subcommand_is_in_the_readme_and_has_help(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("chaoscalc ")}
    names = [row[0] for row in cli._COMMANDS]
    assert set(names) == documented
    for name in names:
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: chaoscalc {name} ")
    # every option says what it does
    subparsers = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.option_strings:
                assert action.help, f"chaoscalc {name} {action.option_strings[0]} has no help"



def test_readme_command_lines_parse():
    """Every ``chaoscalc`` line of README's Command line block parses, so a
    renamed or removed flag cannot linger in the docs."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    documented = [shlex.split(line, comments=True) for line in block.splitlines()]
    documented = [words[1:] for words in documented if words[:1] == ["chaoscalc"]]
    assert documented
    for argv in documented:
        assert cli._PARSER.parse_args(argv).command == argv[0]


def test_readme_layout_lists_the_package_exports():
    """The last column of README's Layout table names exactly what ``chaoscalc``
    exports, each under the module that defines it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Layout", 1)[1]
    listed = {}
    for row in table.splitlines():
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`chaoscalc."):
            module = importlib.import_module(cells[0].strip("`"))
            for name in re.findall(r"`([^`]+)`", cells[2]):
                assert name not in listed, name
                listed[name] = module
    exports = {
        name for name, value in vars(chaoscalc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(listed) == exports
    for name, module in listed.items():
        assert getattr(module, name) is getattr(chaoscalc, name), name


def test_strongest_honours_the_basis_cap_at_q_one(capsys, poly_file, monkeypatch):
    # five variables, degree 2: the q = 1 basis has dimension 5
    f = ChaosPoly.zero()
    for k in range(1, 5):
        f = f + hermite_monomial({k: 1, k + 1: 1})
    path = poly_file("p.json", f)
    monkeypatch.setenv("CHAOSCALC_MAX_BASIS_DIM", "4")
    code, out, err = run_cli(capsys, "strongest", path, "--threshold", "0.5")
    assert code == 3 and out == ""
    assert "basis dimension 5 exceeds cap 4" in err


def test_decompose_checks_the_basis_cap_only_up_to_q_star(capsys, tmp_path, monkeypatch):
    # three variables, degree 4: the q = 1 basis has dimension 3 and the q = 2
    # basis dimension 6; both steps of this input have
    # q* = 1, so the decomposition never builds the q = 2 basis
    path = tmp_path / "f.json"
    path.write_text(_pinned_json(PINNED_F, unit_norm=True))
    argv = ["decompose", str(path), "--threshold", "0.05", "--max-steps", "3"]
    code, uncapped, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("CHAOSCALC_MAX_BASIS_DIM", "3")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and out == uncapped
    code, out, err = run_cli(capsys, "strongest", str(path), "--threshold", "0.05")
    assert code == 3 and out == ""
    assert "exceeds cap 3" in err


@pytest.mark.parametrize("raw", ["0", "-5"])
def test_basis_cap_below_one_exits_2(capsys, poly_file, monkeypatch, raw):
    path = poly_file("p.json", G1 * G2)
    monkeypatch.setenv("CHAOSCALC_MAX_BASIS_DIM", raw)
    code, out, err = run_cli(capsys, "rho", path, "--q", "1")
    assert code == 2 and out == ""
    assert f"CHAOSCALC_MAX_BASIS_DIM must be a positive integer, got {raw!r}" in err


def test_strongest_command(capsys, poly_file):
    path = poly_file("p.json", G1 * G2)
    code, out, _ = run_cli(capsys, "strongest", path, "--threshold", "0.5")
    assert code == 0
    data = json.loads(out)
    assert data["q_star"] == 1 and data["rho_values"]["1"] == pytest.approx(1.0)


def test_decompose_command_two_steps(capsys, poly_file):
    f = (HE2_1 + hermite_monomial({2: 2})) / 2
    path = poly_file("f.json", f)
    code, out, _ = run_cli(capsys, "decompose", path, "--threshold", "0.1")
    assert code == 0
    data = json.loads(out)
    assert len(data["steps"]) == 2
    assert data["residual"] == {"terms": []}
    assert data["residual_norm"] == 0.0


def test_decompose_max_steps_zero(capsys, poly_file):
    f = (HE2_1 + hermite_monomial({2: 2})) / 2
    path = poly_file("f.json", f)
    code, out, _ = run_cli(capsys, "decompose", path, "--max-steps", "0")
    assert code == 0
    data = json.loads(out)
    assert data["steps"] == [] and data["residual"] != {"terms": []}


@pytest.mark.parametrize("command", ["strongest", "decompose"])
@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_non_finite_threshold_exits_2(capsys, poly_file, command, threshold):
    path = poly_file("f.json", (HE2_1 + hermite_monomial({2: 2})) / 2)
    code, out, err = run_cli(capsys, command, path, f"--threshold={threshold}")
    assert code == 2 and out == ""
    assert "threshold must be finite and positive" in err


def test_decompose_non_homogeneous_exits_2(capsys, poly_file):
    # unit-norm but mixing degrees 1 and 2: 2*(2/3)**2 + (1/3)**2 == 1
    path = poly_file("f.json", Fraction(2, 3) * HE2_1 + Fraction(1, 3) * G1)
    code, out, err = run_cli(capsys, "decompose", path)
    assert code == 2 and "homogeneous" in err


def test_canonical2_command(capsys, poly_file):
    path = poly_file("f.json", G1 * G2)
    code, out, _ = run_cli(capsys, "canonical2", path)
    assert code == 0
    data = json.loads(out)
    assert data["eigenvalues"] == pytest.approx([0.5, -0.5], abs=1e-10)


def test_diagnose_reports_and_is_byte_identical(capsys, poly_file):
    path = poly_file("g1.json", G1)
    code, out1, err = run_cli(capsys, "diagnose", path, "--samples", "4000", "--seed", "11")
    assert code == 0 and err == ""
    data = json.loads(out1)
    assert data["excess_kurtosis"] == 0.0 and data["var_gamma"] == 0.0
    _, out2, _ = run_cli(capsys, "diagnose", path, "--samples", "4000", "--seed", "11")
    assert out1 == out2
    _, out4, _ = run_cli(
        capsys, "diagnose", path, "--samples", "4000", "--seed", "11", "--workers", "4"
    )
    assert out1 == out4


RESULT_KEYS = {
    "rho": {"q", "value", "direction", "basis_dimension", "eigengap", "eigen_residual"},
    "strongest": {"q_star", "rho_values", "direction", "threshold"},
    "decompose": {"steps", "contributions", "residual", "residual_norm", "per_step_norms"},
    "canonical2": {"variables", "eigenvalues", "rotation", "linear", "constant"},
    "diagnose": {"variance", "variance_exact", "excess_kurtosis", "excess_kurtosis_exact",
                 "var_gamma", "var_gamma_exact", "rho", "w2_to_gaussian", "inputs"},
}
STEP_KEYS = {"direction", "q", "coefficients", "remainder_gamma_norm", "exact", "fit_rank"}


def _json_result_classes(cls=JsonResult):
    for sub in cls.__subclasses__():
        if dataclasses.is_dataclass(sub) and sub.__module__.startswith("chaoscalc."):
            yield sub
        yield from _json_result_classes(sub)


def test_result_json_has_one_key_per_dataclass_field(capsys, poly_file):
    """The commands' key sets are pinned, and every result dataclass writes one
    key per field, plus ``x_exact`` for a ``Fraction`` field ``x``; so a new
    field changes the output only on purpose."""
    f = (HE2_1 + G1 * G2 + hermite_monomial({2: 1, 3: 1})) * Fraction(1, 2)  # unit norm
    path = poly_file("f.json", f)
    options = {"rho": ["--q", "2"], "diagnose": ["--samples", "1000"]}
    for command, keys in RESULT_KEYS.items():
        code, out, err = run_cli(capsys, command, path, *options.get(command, []))
        assert code == 0, err
        data = json.loads(out)
        assert set(data) == keys, command
        if command == "decompose":
            assert data["steps"] and all(set(step) == STEP_KEYS for step in data["steps"])

    trace = iterate_decomposition(f, 0.1, 16)
    results = [
        rho_q(f, 2), strongest_influence(f, 0.1), trace, *trace.steps,
        canonical_quadratic(f), normality_report(f, 1000, 1),
    ]
    assert {type(r) for r in results} == set(_json_result_classes())
    for result in results:
        fields = [field.name for field in dataclasses.fields(result)]
        exact = [name + "_exact" for name in fields if isinstance(getattr(result, name), Fraction)]
        assert set(result.to_json_dict()) == {*fields, *exact}, type(result).__name__


def test_sample_and_w2_commands(capsys, poly_file, tmp_path):
    path = poly_file("g1.json", G1)
    a = tmp_path / "a.samples"
    b = tmp_path / "b.samples"
    code, out, _ = run_cli(capsys, "sample", path, "--samples", "5000", "--seed", "1", "--output", str(a))
    assert code == 0 and out == ""
    assert a.read_text().splitlines()[0].startswith("# seed=1 stream=0 generator=")
    code, _, _ = run_cli(
        capsys, "sample", path, "--samples", "5000", "--seed", "1", "--stream", "3", "--output", str(b)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "w2", str(a), str(b))
    assert code == 0
    data = json.loads(out)
    assert data["n_a"] == 5000 and data["w2"] < 0.1


def test_w2_on_malformed_sample_file_exits_2_and_names_line(capsys, tmp_path):
    good = tmp_path / "good.samples"
    bad = tmp_path / "bad.samples"
    good.write_text("# seed=1 stream=0 generator=g\n0.5\n1.5\n")
    bad.write_text("# seed=1 stream=0 generator=g\n0.5\n\nnot-a-number\n1.5\n")
    code, out, err = run_cli(capsys, "w2", str(good), str(bad))
    assert code == 2 and out == ""
    assert "line 4" in err and "not-a-number" in err
    assert str(bad) in err and str(good) not in err
    # a header field that is not an integer names line 1 and the field
    bad.write_text("# seed=abc stream=0 generator=g\n0.5\n1.5\n")
    code, out, err = run_cli(capsys, "w2", str(good), str(bad))
    assert code == 2 and out == ""
    assert "sample file line 1: bad seed 'abc'" in err


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
def test_w2_reads_a_sample_file_from_a_pipe(capsys, poly_file, tmp_path):
    """``w2 /dev/stdin b`` fed by a pipe, as ``w2 <(chaoscalc sample ...) b``
    would be: every value of the pipe is read, so the result equals that of
    the file the pipe carried."""
    path = poly_file("g1.json", G1)
    a = tmp_path / "a.samples"
    b = tmp_path / "b.samples"
    for target, seed in ((a, "1"), (b, "2")):
        code, _, _ = run_cli(capsys, "sample", path, "--samples", "5000", "--seed", seed,
                             "--output", str(target))
        assert code == 0
    code, out, _ = run_cli(capsys, "w2", str(a), str(b))
    assert code == 0 and json.loads(out)["n_a"] == 5000
    child = subprocess.run(
        [sys.executable, "-m", "chaoscalc", "w2", "/dev/stdin", str(b)],
        input=a.read_bytes(), capture_output=True, timeout=120,
    )
    assert (child.returncode, child.stdout.decode(), child.stderr) == (0, out, b"")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_w2_that_is_not_finite_exits_2_without_invalid_json(capsys, tmp_path, value):
    # NaN and Infinity are not JSON, so no result is written
    good = tmp_path / "good.samples"
    odd = tmp_path / "odd.samples"
    good.write_text("# seed=1 stream=0 generator=g\n0.5\n1.5\n")
    odd.write_text(f"# seed=1 stream=0 generator=g\n0.5\n{value}\n")
    code, out, err = run_cli(capsys, "w2", str(good), str(odd))
    assert code == 2 and out == ""
    assert err == f"error: {odd}: sample file line 3: value '{value}' is not finite\n"


@pytest.mark.parametrize("empty_first", [False, True])
def test_w2_on_an_empty_sample_file_exits_2_and_names_it(capsys, tmp_path, empty_first):
    good = tmp_path / "good.samples"
    empty = tmp_path / "empty.samples"
    good.write_text("# seed=1 stream=0 generator=g\n0.5\n1.5\n")
    # a header and a blank line, then a 0-byte file, which has no line 1 to name
    for text in ("# seed=1 stream=0 generator=g\n\n", ""):
        empty.write_text(text)
        files = (empty, good) if empty_first else (good, empty)
        code, out, err = run_cli(capsys, "w2", *map(str, files))
        assert code == 2 and out == ""
        assert err == f"error: {empty}: no samples to compare\n"


def test_invariance_and_influences_commands(capsys, tmp_path):
    p = MultilinearPoly(
        InputLaw.rademacher(),
        {frozenset({(k, 1)}): Fraction(1, 4) for k in range(1, 17)},
    )
    path = tmp_path / "p.json"
    path.write_text(canonical_json(json_value(p)))
    code, out, _ = run_cli(capsys, "invariance", str(path), "--samples", "20000", "--seed", "2")
    assert code == 0
    assert 0 < json.loads(out)["gap"] < 0.3
    code, out, _ = run_cli(capsys, "influences", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["1"]["exact"] == "1/16"


@pytest.mark.parametrize("command", ["sample", "diagnose", "invariance"])
def test_impossible_sample_count_exits_3_at_once(capsys, poly_file, tmp_path, command):
    # the 10**15-draw output array is allocated before any block is scheduled
    if command == "invariance":
        p = MultilinearPoly(InputLaw.rademacher(), {frozenset({(1, 1), (2, 1)}): 1})
        path = tmp_path / "p.json"
        path.write_text(canonical_json(json_value(p)))
        path = str(path)
    else:
        path = poly_file("f.json", HE2_1 + G1 * G2)
    code, out, err = run_cli(capsys, command, path, "--samples", str(10**15))
    assert code == 3 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("kind, level", [("uniform", 10**6), ("uniform", 171), ("gaussian", 171)])
def test_ensemble_level_over_the_cap_exits_3_at_once(capsys, tmp_path, kind, level):
    """An ensemble level above 170 stops before any moment is computed, where
    the 10**6-level ensemble would first build 2·10**6 + 1 moments and the
    Gaussian ``h_171 = 171!`` would leave the float range."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"law": {"kind": kind}, "terms": [{"coeff": "1", "vars": [[1, level]]}]}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "invariance", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err == f"error: ensemble level {level} exceeds cap 170\n"


def test_diagnose_rejects_the_sample_count_before_the_influence_scan(capsys, poly_file, monkeypatch):
    # the q = 1 basis of G1 G2 has dimension 2, above the cap of 1
    path = poly_file("f.json", G1 * G2)
    monkeypatch.setenv("CHAOSCALC_MAX_BASIS_DIM", "1")
    code, out, err = run_cli(capsys, "diagnose", path, "--samples", "0")
    assert code == 2 and out == ""
    assert "sample size must be >= 1" in err


@pytest.mark.parametrize(
    "law, terms, message",
    [
        ({"kind": "gaussian"}, 5, "'terms' must be an array"),
        ({"kind": "gaussian"}, [{"coeff": "1", "vars": 7}], "term 0: 'vars' must be an array"),
        ({"kind": "gaussian"}, [{"coeff": "1", "vars": [[1.7, 1]]}], "term 0: bad factor [1.7, 1]"),
        ({"kind": "gaussian"}, [{"coeff": "1", "vars": [[True, 1]]}], "term 0: bad factor [True, 1]"),
        ({"kind": "gaussian"}, [{"coeff": "1", "vars": [1]}, {"coeff": "1", "vars": [[2, 1.0]]}],
         "term 1: bad factor [2, 1.0]"),
        ({"kind": "gaussian"}, [{"coeff": "1", "vars": [False]}], "term 0: bad factor False"),
        ({"kind": "discrete", "points": 5, "probabilities": ["1"]}, [],
         "bad discrete law: 'points' must be an array"),
        ({"kind": "discrete", "points": ["-1", "1"], "probabilities": "1/2"}, [],
         "bad discrete law: 'probabilities' must be an array"),
        ({"kind": ["gaussian"]}, [], "unknown law kind ['gaussian']"),
        ({"kind": {}}, [], "unknown law kind {}"),
        ({"kind": "gaussian"}, [{"coeff": "1", "vars": [1, 1]}], "p.json: term 0: variable 1 repeats"),
        ({"kind": "gaussian"}, [{"coeff": "1", "vars": [2]}, {"coeff": "1", "vars": [[1, 1], [1, 1]]}],
         "p.json: term 1: variable 1 repeats"),
        ({"kind": "gaussian"}, [{"coeff": "1", "vars": [1]}, {"coeff": "1", "vars": [1]}],
         "p.json: term 1: duplicate term {1: 1}"),
        ({"kind": "gaussian"}, [{"coeff": "1", "vars": [1]}, {"coeff": "2", "vars": [[1, 1]]}],
         "p.json: term 1: duplicate term {1: 1}"),
        ({"kind": "gaussian"}, [{"coeff": "1", "vars": [1, 2]}, {"coeff": "-1", "vars": [2, 1]}],
         "p.json: term 1: duplicate term {1: 1, 2: 1}"),
        ({"kind": "gaussian"}, [{"coeff": "1", "vars": [0]}], "p.json: term 0: bad factor (0, 1)"),
        ({"kind": "gaussian"}, [{"coeff": "1", "vars": [[1, 0]]}], "p.json: term 0: bad factor (1, 0)"),
        ({"kind": "rademacher"}, [{"coeff": "1", "vars": [[1, 2]]}],
         "p.json: law 'rademacher' supports ensemble levels up to 1, but level 2 was used"),
        ({"kind": "discrete", "points": ["0", "2"], "probabilities": ["1/2", "1/2"]}, [],
         "p.json: discrete law is not centered: mean 1"),
        ({"kind": "discrete", "points": ["-2", "2"], "probabilities": ["1/2", "1/2"]}, [],
         "p.json: discrete law does not have unit variance: 4"),
        ('{"law": {"kind": "gaussian"}, "law": {"kind": "rademacher"}, "terms": []}', None,
         "p.json: duplicate key 'law'"),
    ],
    ids=[
        "terms-number", "vars-number", "float-variable", "bool-variable", "float-level",
        "bool-factor", "points-number", "probabilities-string", "kind-list", "kind-object",
        "repeated-id", "repeated-factor", "repeated-term", "repeated-term-two-spellings",
        "cancelling-terms", "variable-zero", "level-zero", "level-above-law", "law-not-centered",
        "law-not-unit-variance", "repeated-key",
    ],
)
def test_malformed_multilinear_file_exits_2_with_a_message(capsys, tmp_path, law, terms, message):
    path = tmp_path / "p.json"
    # a row whose law is text gives the whole file, which a dict could not hold
    path.write_text(law if isinstance(law, str) else json.dumps({"law": law, "terms": terms}))
    code, out, err = run_cli(capsys, "influences", str(path))
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["rho", "influences"])
def test_truncated_input_file_exits_2_and_names_file_line_and_column(capsys, tmp_path, command):
    path = tmp_path / "p.json"
    path.write_text('{"law": {"kind": "gaussian"}, "terms": [' if command == "influences" else '{"terms": [')
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: invalid JSON at line 1 column")


def test_missing_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "gamma", "/nonexistent/a.json", "/nonexistent/b.json")
    assert code == 2 and "cannot read" in err


@pytest.mark.parametrize("command", ["rho", "influences", "w2"])
def test_undecodable_input_file_exits_2_and_names_it(capsys, tmp_path, command):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00")
    argv = [command, str(path)] + ([str(path)] if command == "w2" else [])
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: ")


def test_undecodable_sample_file_body_exits_2_with_the_file_offset(capsys, tmp_path):
    # the bad byte lies past the first 8 KiB that the header read and the C
    # parser each decode at once, so the offset in the message is the whole text's
    good = tmp_path / "good.samples"
    good.write_text("# seed=1 stream=0 generator=g\n0.5\n1.5\n")
    bad = tmp_path / "bad.samples"
    bad.write_bytes(b"# seed=1 stream=0 generator=g\n" + b"0.5\n" * 5000 + b"\xff\n")
    with pytest.raises(UnicodeDecodeError) as exc:
        read_sample_file_whole_text(bad)
    code, out, err = run_cli(capsys, "w2", str(good), str(bad))
    assert code == 2 and out == ""
    assert err == f"error: cannot read {bad}: {exc.value}\n"
    assert "position 20030" in err


def test_unwritable_output_exits_2_with_a_message(capsys, poly_file, tmp_path):
    path = poly_file("p.json", G1 * G2)
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, "gamma", path, path, "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err and "Traceback" not in err
    assert not target.exists()


def test_unwritable_sample_output_exits_2_with_empty_stdout(capsys, poly_file, tmp_path):
    path = poly_file("p.json", HE2_1 + G2)
    target = tmp_path / "missing" / "out.samples"
    code, out, err = run_cli(capsys, "sample", path, "--samples", "1000", "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err and "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "n",
    [1, montecarlo.PIECE_LINES - 1, montecarlo.PIECE_LINES, montecarlo.PIECE_LINES + 1,
     2 * montecarlo.BLOCK_SIZE + 13],
)
def test_sample_stdout_and_output_bytes_equal_the_oracle_text(capsys, poly_file, tmp_path, n, workers):
    """Either destination gets the whole-text oracle's bytes, at piece
    boundaries and across blocks, at one and at two workers."""
    f = HE2_1 * Fraction(1, 3) + hermite_monomial({2: 1, 3: 1})
    path = poly_file("f.json", f)
    argv = ["sample", path, "--samples", str(n), "--seed", "8", "--stream", "4", "--workers", workers]
    expected = format_sample_file(sample(f, n, seed=8, stream=4)).encode()
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out.encode() == expected
    target = tmp_path / "out.samples"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_bytes() == expected


# (polynomial, a line that its sample file holds); 1e-9·G_1 writes every
# line in exponent notation, 1e15·G_1·G_2 reaches 16 digits before the
# point, and 1e16·G_1·G_2 crosses 1e16, where repr switches notation
EXPONENT_CASES = {
    "1e-9-G1": (G1 * Fraction(1, 10**9), re.compile(r"^-?\d(\.\d+)?e-\d\d$", re.M)),
    "1e15-G1G2": (hermite_monomial({1: 1, 2: 1}) * 10**15, re.compile(r"^-?\d{16}\.\d+$", re.M)),
    "1e16-G1G2": (hermite_monomial({1: 1, 2: 1}) * 10**16, re.compile(r"^-?\d(\.\d+)?e\+16$", re.M)),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", EXPONENT_CASES)
def test_sample_far_from_unit_scale_equals_the_oracle_text(capsys, poly_file, tmp_path, case, workers):
    """Either destination gets the whole-text oracle's bytes for values
    written in exponent notation and next to the notation switch at 1e16,
    across two blocks."""
    f, line = EXPONENT_CASES[case]
    n = montecarlo.BLOCK_SIZE + 5
    path = poly_file("f.json", f)
    argv = ["sample", path, "--samples", str(n), "--seed", "9", "--workers", workers]
    expected = format_sample_file(sample(f, n, seed=9)).encode()
    assert line.search(expected.decode())
    if case == "1e-9-G1":
        assert len(line.findall(expected.decode())) == n
    if case == "1e16-G1G2":
        assert re.search(r"^-?\d{16}\.\d+$", expected.decode(), re.M)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.encode() == expected
    target = tmp_path / "out.samples"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert (code, out, err) == (0, "", "")
    assert target.read_bytes() == expected


@pytest.mark.parametrize("workers", ["1", "2"])
def test_values_that_overflow_float64_exit_2_without_output(capsys, tmp_path, workers):
    """``1e308·He_4(G_1)`` and ``1e308·G_1^3 G_2^3`` overflow on most draws:
    ``sample`` and ``invariance`` exit 2 naming the first draw that is not
    finite, with no output, no ``--output`` file and no numpy warning,
    where ``sample`` used to write ``inf`` lines (which ``w2`` refuses)."""
    poly = tmp_path / "big.json"
    poly.write_text('{"terms":[{"coeff":"1e308","index":{"1":4}}]}')
    multilinear = tmp_path / "big-multilinear.json"
    multilinear.write_text('{"law":{"kind":"gaussian"},"terms":[{"coeff":"1e308","vars":[[1,3],[2,3]]}]}')
    target = tmp_path / "out.samples"
    for argv, first in (
        (["sample", str(poly), "--samples", "200000"], "draw 0 is inf"),
        (["invariance", str(multilinear), "--samples", "100000"], "draw 10 is -inf"),
    ):
        code, out, err = run_cli(capsys, *argv, "--workers", workers, "--output", str(target))
        assert (code, out, err) == (2, "", f"error: {first}: the values overflow float64\n")
        assert not target.exists()


def test_seed_and_stream_wrap_to_the_generator_key(capsys, poly_file):
    """The block key takes ``seed mod 2^64`` and ``stream mod 2^32``, so
    ``seed + 2^64`` and ``stream + 2^32`` give the same values, and a
    negative seed or stream (which ``SeedSequence`` would refuse as entropy)
    is the same as its residue.  The header echoes the seed and stream as
    given."""
    path = poly_file("f.json", HE2_1 + G1 * G2)

    def body(seed, stream):
        code, out, err = run_cli(capsys, "sample", path, "--samples", "1000",
                                 "--seed", str(seed), "--stream", str(stream))
        assert (code, err) == (0, "")
        header, _, values = out.partition("\n")
        assert header == f"# seed={seed} stream={stream} generator={montecarlo.GENERATOR_ID}"
        return values

    base = body(5, 3)
    assert body(5 + 2**64, 3) == base
    assert body(5, 3 + 2**32) == base
    assert body(-1, 3) == body(2**64 - 1, 3) != base
    assert body(5, -1) == body(5, 2**32 - 1) != base


def test_w2_reads_sample_files_of_an_earlier_generator(capsys, poly_file, tmp_path):
    """A file whose header names the previous generator is still a sample file:
    its values against the same values under the current header are 0 apart."""
    path = poly_file("g1.json", G1)
    current = tmp_path / "current.samples"
    code, _, _ = run_cli(capsys, "sample", path, "--samples", "500", "--output", str(current))
    assert code == 0
    header, _, values = current.read_text().partition("\n")
    assert header.endswith(f"generator={montecarlo.GENERATOR_ID}")
    earlier = tmp_path / "earlier.samples"
    earlier.write_text(f"# seed=42 stream=0 generator=philox4x64-block65536\n{values}")
    code, out, err = run_cli(capsys, "w2", str(earlier), str(current))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"w2": 0.0, "n_a": 500, "n_b": 500}


@pytest.mark.parametrize("samples, unbuffered", [(200_000, False), (200_000, True), (10, False)])
def test_a_closed_standard_output_exits_2_with_one_error_line(poly_file, samples, unbuffered):
    """A reader that closes the pipe early.  At 200000 draws it leaves after
    the header, as ``chaoscalc sample F --samples 200000 | head -1`` does,
    while 4 MB of text still fill the pipe; at 10 draws it leaves before the
    command starts, so the whole text waits in standard output's buffer
    (``PYTHONUNBUFFERED`` unset).  The command exits 2 with one ``error:``
    line, as an unwritable ``--output`` does, and no traceback or
    ``Exception ignored`` message from the interpreter's own flush at exit."""
    path = poly_file("he2.json", HE2_1)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen(
        [sys.executable, "-m", "chaoscalc", "sample", path, "--samples", str(samples)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        header = child.stdout.readline() if samples > 10 else None
        child.stdout.close()
        _, err = child.communicate(timeout=120)
    finally:
        child.kill()
        child.wait(timeout=120)
    if header is not None:
        assert header.startswith(b"# seed=42 stream=0 ")
    assert child.returncode == 2
    assert err.decode() == "error: [Errno 32] Broken pipe\n"


def test_sample_output_memory_is_bounded_by_the_chunk_and_a_piece(poly_file, tmp_path):
    """tracemalloc peak of ``sample --samples 262144 --output`` at one worker.

    Sampling finishes before the file is written, and the text is formatted
    one piece at a time, so the peak is bounded by
    * the sample, ``8·n`` bytes, alive in both phases;
    * while sampling, one chunk table of at most ``CHUNK_CELLS`` float64
      cells (a Gaussian input draws into it, with no temporary) and the
      kernel's product row, ``8·BLOCK_SIZE`` at most;
    * while writing, one piece of ``PIECE_LINES`` lines, formatted by
      ``_kernels.repr_lines``.  Its digit search holds at most 17 int64 and
      three byte-wide work arrays at once (139 bytes a line).  Its layout
      holds eight int64 arrays (the point, the mask code, the shift and its
      complement, a table column, a carry, three text words) and the
      40-byte row matrix, then the matrix, the 40-byte mask and the text
      (at most 25 bytes a line), then the text as bytes and as the
      returned piece (25 each); writing encodes the piece once more (25):
      under 200 bytes a line.  Measured alone, the writer peaked at 149;
    * 256 KiB for the parser, the input and the interpreter's caches.
    The sum of both phases bounds 262144 draws at 6.6 MB.  Measured 4.6 MB.
    The whole text, which the command built before it streamed, is 5.2 MB
    alone (20 bytes a line), and that run peaked at 13.1 MB."""
    n = 262144
    path = poly_file("f.json", HE2_1 * Fraction(1, 3) + hermite_monomial({2: 1, 3: 1}))
    target = tmp_path / "out.samples"
    bound = (8 * n + 8 * (montecarlo.CHUNK_CELLS + montecarlo.BLOCK_SIZE)
             + 200 * montecarlo.PIECE_LINES + (1 << 18))
    # a first run pays the imports and caches that are not the command's
    assert main(["sample", path, "--samples", "10", "--output", str(target)]) == 0
    tracemalloc.start()
    try:
        assert main(["sample", path, "--samples", str(n), "--output", str(target)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert target.read_bytes().count(b"\n") == n + 1
    assert peak <= bound


# (index, coefficient) pairs; F is scaled to unit norm by a float factor, as
# inputs built from float data are, which gives dyadic coefficients
PINNED_F = [
    ({1: 4}, Fraction(1, 2)),
    ({1: 2, 2: 2}, Fraction(3)),
    ({1: 3, 3: 1}, Fraction(-5, 3)),
    ({1: 1, 2: 1, 3: 2}, Fraction(-2)),
    ({2: 1, 3: 3}, Fraction(7, 4)),
    ({2: 2, 3: 2}, Fraction(1, 6)),
]
PINNED_G = [
    ({1: 1, 2: 2}, Fraction(2, 3)),
    ({3: 3}, Fraction(-1, 2)),
    ({1: 1, 2: 1, 3: 1}, Fraction(5)),
]
# F_4 = E_4 O_4, E_4 = sum_k He_2(G_2k) and O_4 = sum_k He_2(G_2k+1) for k = 1..4:
# the product family of the counterexample, whose strongest direction has q = 2
PINNED_F4 = [({2 * i: 2, 2 * j + 1: 2}, Fraction(1)) for i in range(1, 5) for j in range(1, 5)]
PINNED_DIGESTS = {
    "decompose": "0aff4479e8f8fe62f3142dea65f60d0e80ee87f552e06151a31dfc9c6452390a",
    "decompose_3": "ceda5cfcbd4953e17eebe617781f5cf7c9453e0fae83a428af769784cf771b56",
    "decompose_q2": "3d1973f8c9facb53a23e1009e31dbc28d7cc7fff36a4e211109603599b55abdb",
    "gamma": "e1835d05694f180f51b89be80fe2517323cc3bfbfc414bb490b3b712545adf97",
    "rho_2": "ff2774bf9e55a6794a11d1e2fbce91926b7943640f14d77727c4d0b2b9da1267",
    "rho_3": "5d875dac09e8ef36511507c337c27f4da71242428837ae7c0031339726baf960",
    "strongest": "fb51b0e320525ee9988b15358a1f6879fa8c70d95e4d3c939e55f77960d97e14",
}


def _pinned_json(terms, unit_norm: bool) -> str:
    scale = Fraction(1)
    if unit_norm:
        norm_sq = sum(c * c * math.prod(math.factorial(d) for d in idx.values()) for idx, c in terms)
        scale = Fraction(1.0 / math.sqrt(float(norm_sq)))
    payload = [{"coeff": str(c * scale), "index": {str(v): d for v, d in idx.items()}} for idx, c in terms]
    return json.dumps({"terms": payload})


def test_stdout_is_pinned_to_recorded_digests(capsys, tmp_path):
    """sha256 of stdout for ``gamma F G``, recorded before the integer-numerator
    product kernels, and for ``decompose F --threshold 0.05`` at
    ``--max-steps 1`` and ``3`` (two steps are taken), recorded when degree-1
    directions became exactly unit rationals (the stereographic snap in
    ``rho_q``).  ``strongest F`` was recorded before the influence form took
    its carre du champ from the Hermite raising rule, which must leave it
    unchanged.  ``rho F --q 2`` and ``rho F --q 3`` were recorded when the
    ``extra_variables_used`` key left ``rho``: each is the earlier default
    run's stdout without that key, re-encoded canonically.  ``test_decompose.py::
    test_cli_decomposition_is_exact_and_bounded_in_bits`` checks these
    decompositions for exact reassembly, decoupling and unit directions.

    ``gamma`` is exact arithmetic only.  The decompose digests also depend on
    the last bits of the eigenvectors that numpy's LAPACK returns for the
    degree-1 influences, and the ``rho`` and ``strongest`` digests on the
    eigensolves of every degree, so a different LAPACK build may change them.
    """
    f_path = tmp_path / "f.json"
    g_path = tmp_path / "g.json"
    f_path.write_text(_pinned_json(PINNED_F, unit_norm=True))
    g_path.write_text(_pinned_json(PINNED_G, unit_norm=False))
    requests = {
        "decompose": ["decompose", str(f_path), "--threshold", "0.05", "--max-steps", "1"],
        "decompose_3": ["decompose", str(f_path), "--threshold", "0.05", "--max-steps", "3"],
        "gamma": ["gamma", str(f_path), str(g_path)],
        "rho_2": ["rho", str(f_path), "--q", "2"],
        "rho_3": ["rho", str(f_path), "--q", "3"],
        "strongest": ["strongest", str(f_path)],
    }
    for name, argv in requests.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[name], name


def test_decompose_splits_without_the_general_substitution(capsys, tmp_path, monkeypatch):
    """The split is a rank-one update, and ``decompose`` has no other
    substitution: ``--max-steps 3`` on the pinned input takes two steps, makes
    one call of ``decompose._rank_one_substitute`` per step and gives the
    recorded bytes."""
    assert not hasattr(decompose, "_substitute")
    assert not hasattr(decompose, "_wick_correction")
    calls = []
    kernel = decompose._rank_one_substitute

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(decompose, "_rank_one_substitute", counted)
    f_path = tmp_path / "f.json"
    f_path.write_text(_pinned_json(PINNED_F, unit_norm=True))
    argv = ["decompose", str(f_path), "--threshold", "0.05", "--max-steps", "3"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS["decompose_3"]
    assert len(calls) == len(json.loads(out)["steps"]) == 2


def test_quadratic_decompose_stdout_is_pinned(capsys, tmp_path):
    """sha256 of stdout for ``decompose F_4 --threshold 0.9 --max-steps 1``,
    recorded when the q >= 2 split became an exact projection.  The run takes
    one q = 2 step, of norm ``sqrt(2/5)`` to 1e-12.  The digest also depends
    on the last bits of that step's direction, which come from numpy's
    LAPACK eigensolve of the q = 2 influence form."""
    f_path = tmp_path / "f4.json"
    f_path.write_text(_pinned_json(PINNED_F4, unit_norm=True))
    code, out, _ = run_cli(capsys, "decompose", str(f_path), "--threshold", "0.9", "--max-steps", "1")
    assert code == 0
    trace = json.loads(out)
    assert [step["q"] for step in trace["steps"]] == [2]
    assert trace["per_step_norms"][0] == pytest.approx(math.sqrt(2 / 5), abs=1e-12)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS["decompose_q2"]


# a chaos polynomial with a constant term and levels up to 4, and one
# multilinear polynomial per non-Gaussian law at the levels its ensemble admits
PINNED_SAMPLED_F = [
    ({}, Fraction(2, 3)),
    ({1: 2}, Fraction(1, 3)),
    ({2: 4}, Fraction(-1, 7)),
    ({1: 1, 3: 1}, Fraction(1)),
    ({1: 1, 2: 1, 3: 2}, Fraction(1, 5)),
]
PINNED_LAWS = {
    "uniform": (InputLaw.uniform(), [[], [(1, 1)], [(2, 2), (3, 1)], [(1, 3), (4, 1)], [(5, 2)]]),
    "rademacher": (InputLaw.rademacher(), [[], [(1, 1)], [(2, 1), (3, 1)], [(1, 1), (4, 1)], [(4, 1), (5, 1)]]),
    # three support points, so levels 1 and 2 exist
    "discrete": (
        InputLaw.discrete([-1, 0, 2], [Fraction(1, 3), Fraction(1, 2), Fraction(1, 6)]),
        [[], [(1, 1)], [(2, 2), (3, 1)], [(1, 2), (4, 1)], [(5, 2)]],
    ),
}
PINNED_MULTILINEAR_COEFFS = [Fraction(1, 7), Fraction(1, 2), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)]
PINNED_SAMPLER_DIGESTS = {
    "sample_workers_1": "d7c4e288c8c565af68814b5faff9e44d0e581219a44918668cdb5a79e6edddc2",
    "sample_workers_2": "d7c4e288c8c565af68814b5faff9e44d0e581219a44918668cdb5a79e6edddc2",
    "invariance_uniform": "f36a1d37ca4a6819455d3138dcb7a0b534ec352fe0dfb89913bfc29ce44b4df4",
    "invariance_rademacher": "5a4b4fd1b74c0af7766c97bbbebb8231e202d8a740bc8f53244275ccc5761a5f",
    "invariance_discrete": "7aac2fc0adff117c4d5d795e43bbb63b3a2013f8e2c6f36e95c5f0df6d103e36",
    "diagnose": "74fede4f36a1b917ef7f65187612b5919a1394d2d735c1301f0507274b2c51c3",
}


def _sampler_request(name: str, tmp_path):
    """argv of one pinned sampler request, and its ``--output`` file if any."""
    f_path = tmp_path / "f.json"
    f_path.write_text(_pinned_json(PINNED_SAMPLED_F, unit_norm=False))
    common = ["--samples", "70000", "--workers", "2"]
    if name.startswith("sample_workers_"):
        out = tmp_path / f"{name}.samples"
        argv = ["sample", str(f_path), "--samples", "70000", "--seed", "5", "--stream", "3",
                "--workers", name[-1], "--output", str(out)]
        return argv, out
    if name.startswith("invariance_"):
        law, factors = PINNED_LAWS[name.removeprefix("invariance_")]
        p = MultilinearPoly(law, [(frozenset(t), c) for t, c in zip(factors, PINNED_MULTILINEAR_COEFFS)])
        p_path = tmp_path / "p.json"
        p_path.write_text(canonical_json(json_value(p)))
        return ["invariance", str(p_path), "--seed", "9", *common], None
    return ["diagnose", str(f_path), "--seed", "4", *common], None


@pytest.mark.parametrize("name", sorted(PINNED_SAMPLER_DIGESTS))
def test_sampler_output_is_pinned_to_recorded_digests(capsys, tmp_path, name):
    """sha256 of the ``sample`` output file at one and two workers (equal), of
    ``invariance`` stdout over uniform, sign and three-point discrete inputs,
    and of ``diagnose`` stdout (which samples the Gaussian reference), all
    recorded when the block generators became SFC64 and Rademacher signs
    came from raw words.  70000 draws span two blocks.

    The ``diagnose`` digest also depends on the last bits of the eigenvalues
    that numpy's LAPACK returns for its influences.
    """
    argv, out_file = _sampler_request(name, tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    data = out_file.read_bytes() if out_file else out.encode()
    assert hashlib.sha256(data).hexdigest() == PINNED_SAMPLER_DIGESTS[name]


WIDE_DIGESTS = {
    "invariance_walk": "66e71481067c8d06c17309f7351b3bbe39141c460dfb93a1bb956803bbf68cbf",
    "sample_wide_workers_1": "1974fc3b742145b9759ee9af90e6f1078daac06e7d8bd11d9e45900c7bf58adb",
    "sample_wide_workers_2": "1974fc3b742145b9759ee9af90e6f1078daac06e7d8bd11d9e45900c7bf58adb",
}


def _wide_chaos() -> ChaosPoly:
    """120 variables at levels 1-3, and 17 products of two: width 264, so 1985-row chunks."""
    f = ChaosPoly.zero()
    for k in range(1, 121):
        f = f + hermite_monomial({k: 1 + k % 3}, Fraction(1, k + 1))
    for k in range(1, 120, 7):
        f = f + hermite_monomial({k: 1, k + 1: 2}, Fraction(-1, 3))
    return f


@pytest.mark.parametrize("name", sorted(WIDE_DIGESTS))
def test_wide_inputs_are_pinned_to_recorded_digests(capsys, tmp_path, name):
    """sha256 of ``invariance`` stdout on the 100-step sign walk, and of the
    ``sample`` file of a 120-variable chaos polynomial at one and two workers
    (equal), recorded when the block generators became SFC64 and Rademacher
    signs came from raw words (two words a walk row).  70000 draws span two
    blocks."""
    if name == "invariance_walk":
        walk = MultilinearPoly(
            InputLaw.rademacher(), {frozenset({(k, 1)}): Fraction(1, 10) for k in range(1, 101)}
        )
        path = tmp_path / "walk.json"
        path.write_text(canonical_json(json_value(walk)))
        code, out, _ = run_cli(capsys, "invariance", str(path), "--samples", "70000", "--seed", "9",
                               "--workers", "2")
        data = out.encode()
    else:
        path = tmp_path / "wide.json"
        path.write_text(canonical_json(json_value(_wide_chaos())))
        target = tmp_path / "wide.samples"
        code, _, _ = run_cli(capsys, "sample", str(path), "--samples", "70000", "--seed", "7",
                             "--stream", "1", "--workers", name[-1], "--output", str(target))
        data = target.read_bytes()
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == WIDE_DIGESTS[name]


def test_sample_output_file_matches_write_sample_file(capsys, poly_file, tmp_path):
    f = HE2_1 * Fraction(1, 3) + hermite_monomial({2: 1, 3: 1})
    path = poly_file("f.json", f)
    cli_out = tmp_path / "cli.samples"
    code, _, _ = run_cli(
        capsys, "sample", path, "--samples", "70000", "--seed", "5", "--stream", "2",
        "--output", str(cli_out),
    )
    assert code == 0
    lib_out = tmp_path / "lib.samples"
    write_sample_file(sample(f, 70000, seed=5, stream=2), lib_out)
    assert cli_out.read_bytes() == lib_out.read_bytes()
    assert np.array_equal(read_sample_file(cli_out).values, sample(f, 70000, seed=5, stream=2).values)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exits_2(capsys, poly_file, tmp_path, workers):
    # refused by the library's own check, as a bad --samples is, not by the parser
    walk = tmp_path / "p.json"
    walk.write_text(canonical_json(json_value(
        MultilinearPoly(InputLaw.rademacher(), {frozenset({(1, 1), (2, 1)}): 1})
    )))
    f = poly_file("f.json", HE2_1 + G1 * G2)
    target = tmp_path / "out.txt"
    for command, path in [("sample", f), ("diagnose", f), ("invariance", str(walk))]:
        argv = [command, path, "--samples", "10", "--workers", workers, "--output", str(target)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and not target.exists()
        assert err == f"error: worker count must be >= 1, got {workers}\n"


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, runs jobs serially."""

    created: list[int] = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return [fn(item) for item in iterable]


@pytest.mark.parametrize("cpus, expected", [(2, [2]), (8, [3]), (None, [])])
def test_sampler_threads_are_capped(capsys, poly_file, tmp_path, monkeypatch, cpus, expected):
    # three blocks at --workers 64: min(64, 3, cpu count) threads, or none
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "created", [])
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
    path = poly_file("f.json", HE2_1 + G2)
    n = str(3 * montecarlo.BLOCK_SIZE - 7)
    wide, serial = tmp_path / "wide.samples", tmp_path / "serial.samples"
    for workers, out in (("64", wide), ("1", serial)):
        code, _, _ = run_cli(capsys, "sample", path, "--samples", n, "--seed", "3",
                             "--workers", workers, "--output", str(out))
        assert code == 0
    assert _RecordingPool.created == expected
    assert wide.read_bytes() == serial.read_bytes()
