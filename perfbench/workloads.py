"""Seeded inputs, request rounds and output checks for the three workloads.

Every workload is a fixed *round*: an ordered list of CLI requests over inputs
generated from the seed.  The runner repeats whole rounds, so each run sees
the same mix of request kinds whatever its length.  The order within a round
is shuffled by the seed, so that a slow spell of the shared host does not
fall on one kind of request only.  The seed chooses
coefficients and monomials; sizes (variables, terms, degrees) follow a fixed
schedule, so two seeds give rounds of nearly equal cost.

Inputs are written as JSON by this module alone, without the library, so a
seed gives byte-identical input files whatever the program's version.

Checks run after the timed loop.  Each returns ``(slot, message)`` pairs for
the requests whose output is wrong; the runner counts every occurrence of a
failing slot as a failed request.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("influence", "exact", "montecarlo")

# influence: (variables, polynomials); the polynomials take `rho --q 2` and `strongest` in turn
INFLUENCE_SIZES = ((6, 6), (7, 12), (8, 8))
INFLUENCE_TERMS = (20, 25, 30, 35, 40)
CLT_STRONGEST = (4, 6)  # closed-form anchors: rho_1 = sqrt(2/n)
CLT_RHO2 = 5

# exact: decompositions of unit-norm degree-4 inputs, plus gamma and canonical2
DECOMPOSE_VARS = 4
DECOMPOSE_TERMS = (12, 13, 14, 15, 16)
DECOMPOSE_COUNT = 36
GAMMA_VARS = 6
GAMMA_TERMS = (10, 12, 14, 16)
CANONICAL_VARS = 12
CANONICAL_COUNT = 2

# montecarlo
SAMPLE_VARS = 12
SAMPLE_TERMS = 90
SAMPLE_SIZE = 262144
UNIFORM_VARS = 12
UNIFORM_TERMS = 40
WALK_STEPS = 100
DIAGNOSE_VARS = 8
DIAGNOSE_SAMPLES = 100000

REL_TOL = 1e-9

Mono = tuple  # sorted ((variable, degree), ...)


@dataclass
class Request:
    """One CLI call.  ``slot`` names it uniquely within the round."""

    slot: str
    argv: list[str]
    output: str | None = None  # the --output file, if any


@dataclass
class Plan:
    """One workload's round, set-up request and checks."""

    workload: str
    requests: list[Request]
    warmup: list[str]
    check: Callable[[dict[str, str]], list[tuple[str, str]]]
    computed: Callable[[dict[str, str]], dict[str, float]] = field(
        default=lambda outputs: {}
    )


# -- polynomial generation (independent of the library) ---------------------------


def monomials(nvars: int, degree: int) -> list[Mono]:
    """All Hermite multi-indices of total ``degree`` over variables 1..nvars, fixed order."""
    out: list[Mono] = []

    def extend(var: int, left: int, acc: list) -> None:
        if var > nvars:
            if left == 0:
                out.append(tuple(acc))
            return
        for deg in range(left, -1, -1):
            extend(var + 1, left - deg, acc + [(var, deg)] if deg else acc)

    extend(1, degree, [])
    return out


def small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))


def random_poly(rng: random.Random, nvars: int, degree: int, nterms: int) -> dict:
    """``nterms`` distinct degree-``degree`` monomials with small rational coefficients.

    Every one of the ``nvars`` variables occurs: a missing variable would
    shrink the influence basis and change a request's cost several-fold.
    """
    pool = monomials(nvars, degree)
    while True:
        chosen = rng.sample(pool, min(nterms, len(pool)))
        if len({v for mono in chosen for v, _ in mono}) == nvars:
            return {mono: small_rational(rng) for mono in chosen}


def weight(mono: Mono) -> int:
    return math.prod(math.factorial(deg) for _, deg in mono)


def unit_scaled(poly: dict) -> dict:
    """Scale to unit L2 norm through a float factor (dyadic, as the CLI users do)."""
    norm_sq = sum(c * c * weight(m) for m, c in poly.items())
    scale = Fraction(1.0 / math.sqrt(float(norm_sq)))
    return {m: c * scale for m, c in poly.items()}


def clt_poly(n: int) -> dict:
    """``sum_k He_2(G_k) / sqrt(2n)``; its degree-1 influence is exactly sqrt(2/n)."""
    coeff = Fraction(1.0 / math.sqrt(2 * n))
    return {((k, 2),): coeff for k in range(1, n + 1)}


def dense_quadratic(rng: random.Random, nvars: int, linear: bool) -> dict:
    poly = {mono: small_rational(rng) for mono in monomials(nvars, 2)}
    if linear:
        poly.update({mono: small_rational(rng) for mono in monomials(nvars, 1)})
    return poly


def poly_json(poly: dict) -> str:
    terms = [
        {"coeff": str(c), "index": {str(v): d for v, d in mono}}
        for mono, c in sorted(poly.items(), key=lambda item: (sum(d for _, d in item[0]), item[0]))
    ]
    return json.dumps({"terms": terms}, sort_keys=True, separators=(",", ":"))


def uniform_multilinear(rng: random.Random, nvars: int, nterms: int) -> str:
    """Multilinear polynomial over the uniform law, levels <= 3, every variable used."""
    terms: dict[frozenset, Fraction] = {}
    variables = list(range(1, nvars + 1))
    for var in variables:
        terms[frozenset({(var, rng.randint(1, 3))})] = small_rational(rng)
    while len(terms) < nterms:
        chosen = rng.sample(variables, rng.randint(2, 3))
        terms[frozenset((v, rng.randint(1, 3)) for v in chosen)] = small_rational(rng)
    body = [
        {"coeff": str(c), "vars": [[v, k] for v, k in sorted(t)]}
        for t, c in sorted(terms.items(), key=lambda item: (len(item[0]), sorted(item[0])))
    ]
    return json.dumps({"law": {"kind": "uniform"}, "terms": body}, sort_keys=True)


def walk_multilinear(steps: int) -> str:
    body = [{"coeff": f"1/{int(math.isqrt(steps))}", "vars": [[k, 1]]} for k in range(1, steps + 1)]
    return json.dumps({"law": {"kind": "rademacher"}, "terms": body}, sort_keys=True)


def _write(directory: Path, name: str, text: str) -> str:
    path = directory / name
    path.write_text(text)
    return str(path)


def path_of(requests: list[Request], slot: str) -> str:
    """The first positional argument (the input file) of the request in ``slot``."""
    return next(req.argv[1] for req in requests if req.slot == slot)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def build(workload: str, seed: int, directory: Path, smoke: bool = False) -> Plan:
    """The round for ``workload``; input files go to ``directory``.

    ``smoke`` keeps every request kind but shrinks sizes and counts, for the
    self-tests.
    """
    builders = {"influence": _influence, "exact": _exact, "montecarlo": _montecarlo}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    return builders[workload](_rng(workload, seed), Path(directory), smoke)


# -- shared check helpers ----------------------------------------------------------


def _lib():
    from chaoscalc import algebra, malliavin

    return algebra, malliavin


def _parse(text: str):
    algebra, _ = _lib()
    return algebra.poly_from_json(text)


def _rel_close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def _gamma_ratio(f, direction_dict: dict) -> float:
    """``||Gamma(f, x)|| / ||x||`` for the reported direction, exact up to the last sqrt."""
    algebra, malliavin = _lib()
    x = algebra.poly_from_json_dict(direction_dict)
    gamma = malliavin.gamma_gradient(f, x)
    ratio = algebra.inner_product(gamma, gamma) / algebra.inner_product(x, x)
    return math.sqrt(float(ratio))


def _json(outputs: dict[str, str], slot: str):
    return json.loads(outputs[slot])


# -- influence ---------------------------------------------------------------------


def _influence(rng: random.Random, directory: Path, smoke: bool) -> Plan:
    sizes = ((5, 2), (6, 2)) if smoke else INFLUENCE_SIZES
    clt_strongest = CLT_STRONGEST[:1] if smoke else CLT_STRONGEST
    clt_n: dict[str, int] = {}
    requests: list[Request] = []

    for n in clt_strongest:
        path = _write(directory, f"clt{n}.json", poly_json(clt_poly(n)))
        clt_n[f"strongest/clt{n}"] = n
        requests.append(Request(f"strongest/clt{n}", ["strongest", path]))
    path = _write(directory, f"clt{CLT_RHO2}.json", poly_json(clt_poly(CLT_RHO2)))
    requests.append(Request(f"rho/clt{CLT_RHO2}", ["rho", path, "--q", "2"]))

    index = 0
    for nvars, count in sizes:
        for j in range(count):
            nterms = INFLUENCE_TERMS[index % len(INFLUENCE_TERMS)]
            name = f"n{nvars}-{j}"
            path = _write(directory, f"{name}.json", poly_json(random_poly(rng, nvars, 4, nterms)))
            if index % 2:
                requests.append(Request(f"strongest/{name}", ["strongest", path]))
            else:
                requests.append(Request(f"rho/{name}", ["rho", path, "--q", "2"]))
            index += 1

    paths = {req.slot: req.argv[1] for req in requests}

    def check(outputs: dict[str, str]) -> list[tuple[str, str]]:
        bad: list[tuple[str, str]] = []
        for slot, path in paths.items():
            f = _parse(Path(path).read_text())
            data = _json(outputs, slot)
            if slot.startswith("rho/"):
                q, value, direction = 2, data["value"], data["direction"]
            else:
                q = data["q_star"]
                if q is None:
                    bad.append((slot, "no degree cleared the threshold"))
                    continue
                value, direction = data["rho_values"][str(q)], data["direction"]
            ratio = _gamma_ratio(f, direction)
            if not _rel_close(ratio, value):
                bad.append((slot, f"q={q}: ||Gamma(f,x)||/||x|| = {ratio!r}, reported {value!r}"))
            if slot in clt_n:
                n = clt_n[slot]
                rho1 = data["rho_values"]["1"]
                if not _rel_close(rho1, math.sqrt(2.0 / n)):
                    bad.append((slot, f"rho_1 = {rho1!r}, expected sqrt(2/{n})"))
        return bad

    warmup = ["rho", path_of(requests, f"rho/clt{CLT_RHO2}"), "--q", "2"]
    rng.shuffle(requests)
    return Plan("influence", requests, warmup, check)


# -- exact -------------------------------------------------------------------------


def _coeff_bits(text: str) -> int:
    """Largest numerator or denominator bit length among the output's coefficients."""
    best = 0

    def visit(node) -> None:
        nonlocal best
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "coeff":
                    c = Fraction(value)
                    best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
                else:
                    visit(value)
        elif isinstance(node, list):
            for item in node:
                visit(item)

    visit(json.loads(text))
    return best


def _exact(rng: random.Random, directory: Path, smoke: bool) -> Plan:
    requests: list[Request] = []
    inputs: dict[str, tuple] = {}

    for j in range(1 if smoke else CANONICAL_COUNT):
        poly = dense_quadratic(rng, 4 if smoke else CANONICAL_VARS, linear=True)
        path = _write(directory, f"quad{j}.json", poly_json(poly))
        inputs[f"canonical2/{j}"] = (path, poly)
        requests.append(Request(f"canonical2/{j}", ["canonical2", path]))
    for j, nterms in enumerate(GAMMA_TERMS[:1] if smoke else GAMMA_TERMS):
        f_path = _write(directory, f"gf{j}.json", poly_json(random_poly(rng, GAMMA_VARS, 4, nterms)))
        g_path = _write(directory, f"gg{j}.json", poly_json(random_poly(rng, GAMMA_VARS, 3, nterms)))
        inputs[f"gamma/{j}"] = (f_path, g_path)
        requests.append(Request(f"gamma/{j}", ["gamma", f_path, g_path]))
    for j in range(2 if smoke else DECOMPOSE_COUNT):
        nterms = DECOMPOSE_TERMS[j % len(DECOMPOSE_TERMS)]
        nvars = 3 if smoke else DECOMPOSE_VARS
        poly = unit_scaled(random_poly(rng, nvars, 4, nterms))
        path = _write(directory, f"dec{j}.json", poly_json(poly))
        inputs[f"decompose/{j}"] = (path,)
        requests.append(
            Request(
                f"decompose/{j}",
                ["decompose", path, "--threshold", "0.05", "--max-steps", "1"],
            )
        )

    def check(outputs: dict[str, str]) -> list[tuple[str, str]]:
        import numpy as np

        algebra, malliavin = _lib()
        bad: list[tuple[str, str]] = []
        for slot, args in inputs.items():
            data = _json(outputs, slot)
            if slot.startswith("decompose/"):
                f = _parse(Path(args[0]).read_text())
                total = algebra.poly_from_json_dict(data["residual"])
                for part in data["contributions"]:
                    total = total + algebra.poly_from_json_dict(part)
                if total != f:
                    bad.append((slot, "contributions + residual != input"))
                if len(data["steps"]) > 1:
                    bad.append((slot, f"{len(data['steps'])} steps with --max-steps 1"))
            elif slot.startswith("gamma/"):
                f = _parse(Path(args[0]).read_text())
                g = _parse(Path(args[1]).read_text())
                if algebra.poly_from_json_dict(data) != malliavin.gamma_gradient(f, g):
                    bad.append((slot, "gamma output != gamma_gradient(F, G)"))
            else:
                poly = args[1]
                nvars = max(v for mono in poly for v, _ in mono)
                s = np.zeros((nvars, nvars))
                for mono, c in poly.items():
                    if sum(d for _, d in mono) != 2:
                        continue
                    if len(mono) == 1:
                        s[mono[0][0] - 1, mono[0][0] - 1] = float(c)
                    else:
                        (v, _), (w, _) = mono
                        s[v - 1, w - 1] = s[w - 1, v - 1] = float(c) / 2
                expected = np.sort(np.linalg.eigvalsh(s))
                got = np.sort(np.array(data["eigenvalues"], dtype=float))
                scale = max(1.0, float(np.max(np.abs(expected))))
                if got.shape != expected.shape or np.max(np.abs(got - expected)) > REL_TOL * scale:
                    bad.append((slot, "eigenvalues differ from numpy.linalg.eigvalsh"))
        return bad

    def computed(outputs: dict[str, str]) -> dict[str, float]:
        bits = [_coeff_bits(outputs[slot]) for slot in inputs if slot.startswith("decompose/")]
        return {"decompose.coeff_bits_max": float(max(bits, default=0))}

    warmup = ["gamma", *inputs["gamma/0"]]
    rng.shuffle(requests)
    return Plan("exact", requests, warmup, check, computed)


# -- montecarlo --------------------------------------------------------------------


def file_digest(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _montecarlo(rng: random.Random, directory: Path, smoke: bool) -> Plan:
    samples = 70000 if smoke else SAMPLE_SIZE
    requests: list[Request] = []
    sample_seeds: dict[str, int] = {}
    files: dict[str, str] = {}

    def sample_request(slot: str, poly_path: str, seed: int, workers: int) -> None:
        out = str(directory / f"{slot.replace('/', '-')}.txt")
        files[slot] = out
        sample_seeds[slot] = seed
        argv = ["sample", poly_path, "--samples", str(samples), "--seed", str(seed),
                "--workers", str(workers), "--output", out]
        requests.append(Request(slot, argv, output=out))

    nvars = 6 if smoke else SAMPLE_VARS
    f1 = _write(directory, "f1.json", poly_json(random_poly(rng, nvars, 4, SAMPLE_TERMS)))
    f2 = _write(directory, "f2.json", poly_json(random_poly(rng, nvars, 4, SAMPLE_TERMS)))
    seed_a, seed_b = rng.randrange(1 << 31), rng.randrange(1 << 31)
    # equal seeds at one and two workers must give byte-identical files
    sample_request("sample/a1", f1, seed_a, 1)
    sample_request("sample/a2", f1, seed_a, 2)
    sample_request("sample/b2", f2, seed_b, 2)
    sample_request("sample/b1", f2, seed_b, 1)
    requests.append(Request("w2/aa", ["w2", files["sample/a1"], files["sample/a1"]]))
    requests.append(Request("w2/ab", ["w2", files["sample/a2"], files["sample/b1"]]))

    distance_slots = []
    for j in range(1 if smoke else 2):
        path = _write(directory, f"uniform{j}.json", uniform_multilinear(rng, UNIFORM_VARS, UNIFORM_TERMS))
        slot = f"invariance/uniform{j}"
        requests.append(Request(slot, ["invariance", path, "--seed", str(rng.randrange(1 << 31))]))
        distance_slots.append(slot)
    walk = _write(directory, "walk.json", walk_multilinear(WALK_STEPS))
    requests.append(Request("invariance/walk", ["invariance", walk, "--seed", str(rng.randrange(1 << 31))]))
    distance_slots.append("invariance/walk")
    for j in range(1 if smoke else 2):
        poly = dense_quadratic(rng, DIAGNOSE_VARS, linear=False)
        path = _write(directory, f"diag{j}.json", poly_json(poly))
        slot = f"diagnose/{j}"
        requests.append(
            Request(slot, ["diagnose", path, "--samples", str(DIAGNOSE_SAMPLES),
                           "--seed", str(rng.randrange(1 << 31))])
        )
        distance_slots.append(slot)

    def check(outputs: dict[str, str]) -> list[tuple[str, str]]:
        bad: list[tuple[str, str]] = []
        for slot, path in files.items():
            with open(path) as handle:
                header = handle.readline()
                lines = 1 + sum(1 for _ in handle)
            prefix = f"# seed={sample_seeds[slot]} stream=0 generator="
            if not header.startswith(prefix):
                bad.append((slot, f"bad header {header.strip()!r}"))
            if lines != samples + 1:
                bad.append((slot, f"{lines} lines, expected {samples + 1}"))
        for one, two in (("sample/a1", "sample/a2"), ("sample/b1", "sample/b2")):
            if file_digest(files[one]) != file_digest(files[two]):
                bad.append((two, f"differs from {one} at another worker count"))
        aa = _json(outputs, "w2/aa")
        if aa["w2"] != 0.0 or aa["n_a"] != samples:
            bad.append(("w2/aa", f"w2(A, A) = {aa['w2']!r}"))
        ab = _json(outputs, "w2/ab")
        if not (math.isfinite(ab["w2"]) and ab["w2"] > 0.0 and ab["n_b"] == samples):
            bad.append(("w2/ab", f"w2(A, B) = {ab['w2']!r}"))
        for slot in distance_slots:
            data = _json(outputs, slot)
            value = data["gap"] if "gap" in data else data["w2_to_gaussian"]
            if not (math.isfinite(value) and value >= 0.0):
                bad.append((slot, f"distance {value!r}"))
        return bad

    warmup = ["invariance", path_of(requests, "invariance/uniform0")]
    rng.shuffle(requests)
    # w2 reads the files that the round's sample requests write
    w2 = [req for req in requests if req.slot.startswith("w2/")]
    requests = [req for req in requests if req not in w2]
    last_sample = max(i for i, req in enumerate(requests) if req.slot.startswith("sample/"))
    requests[last_sample + 1:last_sample + 1] = w2
    return Plan("montecarlo", requests, warmup, check)
