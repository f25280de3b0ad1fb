"""Command-line behavior: JSON on stdout only, exit codes, byte-determinism."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from chaoscalc import (
    ChaosPoly,
    InputLaw,
    MultilinearPoly,
    gaussian,
    hermite_monomial,
    poly_to_json,
    read_sample_file,
    sample,
    write_sample_file,
)
from chaoscalc import montecarlo
from chaoscalc.cli import main

G1 = gaussian(1)
HE2_1 = hermite_monomial({1: 2})


@pytest.fixture
def poly_file(tmp_path):
    def write(name, poly):
        path = tmp_path / name
        path.write_text(poly_to_json(poly))
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
    b = poly_file("b.json", gaussian(2))
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


def test_rho_constant_is_zero(capsys, poly_file):
    path = poly_file("c.json", ChaosPoly.constant(4))
    code, out, _ = run_cli(capsys, "rho", path, "--q", "2")
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_rho_oversized_basis_exits_3(capsys, poly_file):
    path = poly_file("p.json", G1 * gaussian(2))
    code, out, err = run_cli(capsys, "rho", path, "--q", "9", "--extra-vars", "40")
    assert code == 3 and out == ""
    assert "exceeds cap" in err


def test_strongest_honours_the_basis_cap_at_q_one(capsys, poly_file, monkeypatch):
    # five variables, degree 2: the q = 1 basis has dimension 5
    f = ChaosPoly.zero()
    for k in range(1, 5):
        f = f + gaussian(k) * gaussian(k + 1)
    path = poly_file("p.json", f)
    monkeypatch.setenv("CHAOSCALC_MAX_BASIS_DIM", "4")
    code, out, err = run_cli(capsys, "strongest", path, "--threshold", "0.5")
    assert code == 3 and out == ""
    assert "basis dimension 5 exceeds cap 4" in err


@pytest.mark.parametrize("raw", ["0", "-5"])
def test_basis_cap_below_one_exits_2(capsys, poly_file, monkeypatch, raw):
    path = poly_file("p.json", G1 * gaussian(2))
    monkeypatch.setenv("CHAOSCALC_MAX_BASIS_DIM", raw)
    code, out, err = run_cli(capsys, "rho", path, "--q", "1")
    assert code == 2 and out == ""
    assert f"CHAOSCALC_MAX_BASIS_DIM must be a positive integer, got {raw!r}" in err


def test_strongest_command(capsys, poly_file):
    path = poly_file("p.json", G1 * gaussian(2))
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
    path = poly_file("f.json", G1 * gaussian(2))
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


def test_invariance_and_influences_commands(capsys, tmp_path):
    p = MultilinearPoly(
        InputLaw.rademacher(),
        {frozenset({(k, 1)}): Fraction(1, 4) for k in range(1, 17)},
    )
    path = tmp_path / "p.json"
    path.write_text(p.to_json())
    code, out, _ = run_cli(capsys, "invariance", str(path), "--samples", "20000", "--seed", "2")
    assert code == 0
    assert 0 < json.loads(out)["gap"] < 0.3
    code, out, _ = run_cli(capsys, "influences", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["1"]["exact"] == "1/16"


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
    ],
    ids=[
        "terms-number", "vars-number", "float-variable", "bool-variable", "float-level",
        "bool-factor", "points-number", "probabilities-string",
    ],
)
def test_malformed_multilinear_file_exits_2_with_a_message(capsys, tmp_path, law, terms, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"law": law, "terms": terms}))
    code, out, err = run_cli(capsys, "influences", str(path))
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


def test_missing_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "gamma", "/nonexistent/a.json", "/nonexistent/b.json")
    assert code == 2 and "cannot read" in err


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
PINNED_DIGESTS = {
    "decompose": "2d184a79ce47edb30dbeb464ae6721ea4e893d3df0fe2a8603639311ab957a6c",
    "decompose_3": "2ffbecf956e8d20367448488f75733a9be326039937d4f10eeab9eec747f111c",
    "gamma": "e1835d05694f180f51b89be80fe2517323cc3bfbfc414bb490b3b712545adf97",
}


def _pinned_json(terms, unit_norm: bool) -> str:
    scale = Fraction(1)
    if unit_norm:
        norm_sq = sum(c * c * math.prod(math.factorial(d) for d in idx.values()) for idx, c in terms)
        scale = Fraction(1.0 / math.sqrt(float(norm_sq)))
    payload = [{"coeff": str(c * scale), "index": {str(v): d for v, d in idx.items()}} for idx, c in terms]
    return json.dumps({"terms": payload})


def test_stdout_is_pinned_to_recorded_digests(capsys, tmp_path):
    """sha256 of stdout for ``decompose F --threshold 0.05 --max-steps 1`` and
    ``gamma F G``, recorded before the integer-numerator product kernels, and
    for ``--max-steps 3`` (two steps are taken), recorded before the exact
    path read ``A_0`` off the split and shared one back-rotation.

    ``gamma`` is exact arithmetic only.  The decompose digests also depend on
    the last bits of the eigenvectors that numpy's LAPACK returns for the
    degree-1 influences, so a different LAPACK build may change them.
    """
    f_path = tmp_path / "f.json"
    g_path = tmp_path / "g.json"
    f_path.write_text(_pinned_json(PINNED_F, unit_norm=True))
    g_path.write_text(_pinned_json(PINNED_G, unit_norm=False))
    requests = {
        "decompose": ["decompose", str(f_path), "--threshold", "0.05", "--max-steps", "1"],
        "decompose_3": ["decompose", str(f_path), "--threshold", "0.05", "--max-steps", "3"],
        "gamma": ["gamma", str(f_path), str(g_path)],
    }
    for name, argv in requests.items():
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[name], name


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
    "sample_workers_1": "cba5aeba90c6049836fbe8dc88a8acbf22a6b1c3ca141d33a493196f04dabe6d",
    "sample_workers_2": "cba5aeba90c6049836fbe8dc88a8acbf22a6b1c3ca141d33a493196f04dabe6d",
    "invariance_uniform": "3edd7c59013ada1abf461018daafb03a148fd91dee7246fb417ea8034093c1d1",
    "invariance_rademacher": "138d63eee736973ff5afcde72a286c2ffde0db1f732c73a5b05e47daf2a46af4",
    "invariance_discrete": "dc42042c6554f01a1d28c3b62853913da0fd0d0c73d2504b48aeab7493cf4acd",
    "diagnose": "377693c8a8cbf5d72ad04c89b4038ab759e83fe811c35694ac9bcab8dfe794b4",
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
        p_path.write_text(p.to_json())
        return ["invariance", str(p_path), "--seed", "9", *common], None
    return ["diagnose", str(f_path), "--seed", "4", *common], None


@pytest.mark.parametrize("name", sorted(PINNED_SAMPLER_DIGESTS))
def test_sampler_output_is_pinned_to_recorded_digests(capsys, tmp_path, name):
    """sha256 of the ``sample`` output file at one and two workers (equal), of
    ``invariance`` stdout over uniform, sign and three-point discrete inputs,
    and of ``diagnose`` stdout (which samples the Gaussian reference), all
    recorded before the samplers were merged into one encoder.  70000 draws
    span two blocks.

    The ``diagnose`` digest also depends on the last bits of the eigenvalues
    that numpy's LAPACK returns for its influences.
    """
    argv, out_file = _sampler_request(name, tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    data = out_file.read_bytes() if out_file else out.encode()
    assert hashlib.sha256(data).hexdigest() == PINNED_SAMPLER_DIGESTS[name]


def test_sample_output_file_matches_write_sample_file(capsys, poly_file, tmp_path):
    f = HE2_1 * Fraction(1, 3) + gaussian(2) * gaussian(3)
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
def test_workers_below_one_exits_2(capsys, poly_file, workers):
    path = poly_file("g1.json", G1)
    with pytest.raises(SystemExit) as exc:
        main(["sample", path, "--samples", "10", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


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
    path = poly_file("f.json", HE2_1 + gaussian(2))
    n = str(3 * montecarlo.BLOCK_SIZE - 7)
    wide, serial = tmp_path / "wide.samples", tmp_path / "serial.samples"
    for workers, out in (("64", wide), ("1", serial)):
        code, _, _ = run_cli(capsys, "sample", path, "--samples", n, "--seed", "3",
                             "--workers", workers, "--output", str(out))
        assert code == 0
    assert _RecordingPool.created == expected
    assert wide.read_bytes() == serial.read_bytes()
