"""Span recorder for the traced pass, kept entirely in the benchmark's files.

Each traced function of the package is replaced, for the traced requests
only, by a wrapper that records a span: name, start, end, parent span and
request id.  A function is patched under every module attribute that holds
it, which is where its callers look it up (``influence.jacobi_eigh``,
``decompose.jacobi_eigh``, ``montecarlo.accumulate_terms``, ``cli.sample``,
...); ``ChaosPoly.__mul__`` is patched once on the class.  A function that a
later version of the package no longer has is skipped, and its metrics read 0.

Spans stay in memory and are written out when the run ends.  Self time is
computed afterwards from the span tree: a span's duration minus the part of
it that its children cover.  A span opened on a worker thread with no open
span of its own takes the main thread's innermost open span as its parent.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

LAYERS = ("cli", "algebra", "malliavin", "influence", "decompose", "ensembles", "montecarlo", "kernels")
MODULES = ("cli", "algebra", "malliavin", "influence", "decompose", "ensembles", "montecarlo", "_kernels")


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.request_id = -1
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name_id: int) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(parent)
            self.request.append(self.request_id)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(index)
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def high(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def save(self, path: str) -> None:
        """Write every span (compressed arrays plus the name table)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def traced(recorder: Recorder, name: str, fn: Callable, after: Callable | None = None) -> Callable:
    """Wrap ``fn`` so that, while the recorder is active, each call records a span."""
    name_id = recorder.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        index = recorder.begin(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.finish(index)
        if after is not None:
            after(recorder, args, result)
        return result

    return wrapper


# -- count hooks (run after the span has closed) ------------------------------------


def _after_jacobi(rec: Recorder, args, result) -> None:
    dim = int(np.shape(args[0])[0])
    rec.add("kernels.jacobi_eigh.dim3_sum", dim**3)
    rec.high("kernels.jacobi_eigh.dim_max", dim)


def _after_accumulate(rec: Recorder, args, result) -> None:
    values, coeffs, _, term_slots = args[:4]
    rows, n = np.shape(values) if np.ndim(values) == 2 else (0, 0)
    terms, slots = len(coeffs), len(term_slots)
    # each term costs one multiply per factor and one add, per draw
    rec.add("kernels.accumulate_terms.flops", n * (slots + terms))
    # minimum traffic: read every factor row and the term tables once, write the output once
    rec.add("kernels.accumulate_terms.bytes", 8 * (rows * n + n + 2 * terms + 1 + slots))


def _after_influence(rec: Recorder, args, result) -> None:
    rec.add("influence.basis_dim.sum", result.basis_dimension)
    rec.high("influence.basis_dim.max", result.basis_dimension)


def _after_mul(rec: Recorder, args, result) -> None:
    rec.add("algebra.mul.out_terms", len(result.terms))


def _after_sample(rec: Recorder, args, result) -> None:
    rec.add("montecarlo.sample.draws", len(result.values))


def _after_read(rec: Recorder, args, result) -> None:
    rec.add("montecarlo.read_sample_file.bytes", os.path.getsize(args[0]))


def _after_iterate(rec: Recorder, args, result) -> None:
    rec.add("decompose.iterate_decomposition.steps", len(result.steps))


# (span name, defining module, attribute, count hook)
TRACED = (
    ("cli.load", "cli", "_load_poly", None),
    ("cli.load", "cli", "_load_multilinear", None),
    ("algebra.inner_product", "algebra", "inner_product", None),
    ("algebra.compose_hermite", "algebra", "compose_hermite", None),
    ("algebra.partial_derivative", "algebra", "partial_derivative", None),
    ("malliavin.gamma_gradient", "malliavin", "gamma_gradient", None),
    ("malliavin.carre_du_champ", "malliavin", "carre_du_champ", None),
    ("influence.rho_q", "influence", "rho_q", _after_influence),
    ("influence.rho_1", "influence", "rho_1", _after_influence),
    ("influence.strongest_influence", "influence", "strongest_influence", None),
    ("decompose.iterate_decomposition", "decompose", "iterate_decomposition", _after_iterate),
    ("decompose.decompose_along", "decompose", "decompose_along", None),
    ("decompose.rotate_basis", "decompose", "rotate_basis", None),
    ("decompose.canonical_quadratic", "decompose", "canonical_quadratic", None),
    ("ensembles.build_ensemble", "ensembles", "build_ensemble", None),
    ("ensembles.substitute_gaussian", "ensembles", "substitute_gaussian", None),
    ("montecarlo.sample", "montecarlo", "sample", _after_sample),
    ("montecarlo.read_sample_file", "montecarlo", "read_sample_file", _after_read),
    ("montecarlo.w2_1d", "montecarlo", "w2_1d", None),
    ("montecarlo.invariance_gap", "montecarlo", "invariance_gap", None),
    ("montecarlo.normality_report", "montecarlo", "normality_report", None),
    ("montecarlo.excess_kurtosis", "montecarlo", "excess_kurtosis", None),
    ("montecarlo.var_gamma", "montecarlo", "var_gamma", None),
    ("kernels.jacobi_eigh", "_kernels", "jacobi_eigh", _after_jacobi),
    ("kernels.accumulate_terms", "_kernels", "accumulate_terms", _after_accumulate),
)

ROOT = "cli"  # the request span, opened by the runner around cli.main


def install(recorder: Recorder) -> Callable[[], None]:
    """Patch every traced function where its callers look it up; return the undo."""
    import importlib

    package = importlib.import_module("chaoscalc")
    modules = {name: importlib.import_module(f"chaoscalc.{name}") for name in MODULES}
    holders = [package, *modules.values()]
    undo: list[tuple[object, str, object]] = []

    for span, home, attr, after in TRACED:
        original = getattr(modules[home], attr, None)
        if original is None:
            continue
        wrapper = traced(recorder, span, original, after)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, key, value))
                    setattr(holder, key, wrapper)

    poly_class = modules["algebra"].ChaosPoly
    mul = poly_class.__dict__["__mul__"]
    undo.append((poly_class, "__mul__", mul))
    setattr(poly_class, "__mul__", traced(recorder, "algebra.mul", mul, _after_mul))

    def restore() -> None:
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)

    return restore


# -- span-tree arithmetic -----------------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_totals(names, name, parent, start, end) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy (sum of durations) and self (busy minus child cover)."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, up in enumerate(parent):
        if up >= 0:
            children[up].append(index)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0})
    for index, name_id in enumerate(name):
        lo, hi = start[index], end[index]
        kids = children.get(index, ())
        inner = covered([(start[k], end[k]) for k in kids], lo, hi) if kids else 0.0
        entry = totals[names[name_id]]
        entry["calls"] += 1
        entry["busy"] += hi - lo
        entry["self"] += hi - lo - inner
    return totals


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


# -- per-layer metrics -------------------------------------------------------------

# (metric, unit, source); sources: ("span", name, field), ("count", key),
# ("max", key), ("layer", layer), ("computed", key) or ("special", key)
PER_LAYER: tuple[tuple[str, str, tuple], ...] = (
    ("kernels.jacobi_eigh.calls", "count/round", ("span", "kernels.jacobi_eigh", "calls")),
    ("kernels.jacobi_eigh.busy_s", "s/round", ("span", "kernels.jacobi_eigh", "busy")),
    ("kernels.jacobi_eigh.dim_max", "count", ("max", "kernels.jacobi_eigh.dim_max")),
    ("kernels.jacobi_eigh.dim3_sum", "count/round", ("count", "kernels.jacobi_eigh.dim3_sum")),
    ("influence.rho_q.calls", "count/round", ("span", "influence.rho_q", "calls")),
    ("influence.rho_q.busy_s", "s/round", ("span", "influence.rho_q", "busy")),
    ("influence.rho_q.self_s", "s/round", ("span", "influence.rho_q", "self")),
    ("influence.rho_1.calls", "count/round", ("span", "influence.rho_1", "calls")),
    ("influence.rho_1.busy_s", "s/round", ("span", "influence.rho_1", "busy")),
    ("influence.rho_1.self_s", "s/round", ("span", "influence.rho_1", "self")),
    ("influence.strongest_influence.calls", "count/round", ("span", "influence.strongest_influence", "calls")),
    ("influence.strongest_influence.busy_s", "s/round", ("span", "influence.strongest_influence", "busy")),
    ("influence.strongest_influence.self_s", "s/round", ("span", "influence.strongest_influence", "self")),
    ("influence.basis_dim.max", "count", ("max", "influence.basis_dim.max")),
    ("influence.basis_dim.sum", "count/round", ("count", "influence.basis_dim.sum")),
    ("malliavin.gamma_gradient.calls", "count/round", ("span", "malliavin.gamma_gradient", "calls")),
    ("malliavin.gamma_gradient.busy_s", "s/round", ("span", "malliavin.gamma_gradient", "busy")),
    ("malliavin.carre_du_champ.calls", "count/round", ("span", "malliavin.carre_du_champ", "calls")),
    ("malliavin.carre_du_champ.busy_s", "s/round", ("span", "malliavin.carre_du_champ", "busy")),
    ("algebra.inner_product.calls", "count/round", ("span", "algebra.inner_product", "calls")),
    ("algebra.inner_product.busy_s", "s/round", ("span", "algebra.inner_product", "busy")),
    ("algebra.mul.calls", "count/round", ("span", "algebra.mul", "calls")),
    ("algebra.mul.busy_s", "s/round", ("span", "algebra.mul", "busy")),
    ("algebra.mul.out_terms", "count/round", ("count", "algebra.mul.out_terms")),
    ("algebra.compose_hermite.busy_s", "s/round", ("span", "algebra.compose_hermite", "busy")),
    ("algebra.partial_derivative.busy_s", "s/round", ("span", "algebra.partial_derivative", "busy")),
    ("decompose.iterate_decomposition.busy_s", "s/round", ("span", "decompose.iterate_decomposition", "busy")),
    ("decompose.iterate_decomposition.steps", "count/round", ("count", "decompose.iterate_decomposition.steps")),
    ("decompose.decompose_along.busy_s", "s/round", ("span", "decompose.decompose_along", "busy")),
    ("decompose.rotate_basis.busy_s", "s/round", ("span", "decompose.rotate_basis", "busy")),
    ("decompose.canonical_quadratic.busy_s", "s/round", ("span", "decompose.canonical_quadratic", "busy")),
    ("decompose.coeff_bits_max", "bits", ("computed", "decompose.coeff_bits_max")),
    ("montecarlo.sample.calls", "count/round", ("span", "montecarlo.sample", "calls")),
    ("montecarlo.sample.busy_s", "s/round", ("span", "montecarlo.sample", "busy")),
    ("montecarlo.sample.self_s", "s/round", ("span", "montecarlo.sample", "self")),
    ("montecarlo.sample.draws", "count/round", ("count", "montecarlo.sample.draws")),
    ("montecarlo.draws_per_s", "1/s", ("special", "draws_per_s")),
    ("kernels.accumulate_terms.calls", "count/round", ("span", "kernels.accumulate_terms", "calls")),
    ("kernels.accumulate_terms.busy_s", "s/round", ("span", "kernels.accumulate_terms", "busy")),
    ("kernels.accumulate_terms.flops", "flop/round", ("count", "kernels.accumulate_terms.flops")),
    ("kernels.accumulate_terms.bytes", "bytes/round", ("count", "kernels.accumulate_terms.bytes")),
    ("montecarlo.read_sample_file.busy_s", "s/round", ("span", "montecarlo.read_sample_file", "busy")),
    ("montecarlo.read_sample_file.bytes", "bytes/round", ("count", "montecarlo.read_sample_file.bytes")),
    ("montecarlo.w2_1d.busy_s", "s/round", ("span", "montecarlo.w2_1d", "busy")),
    ("montecarlo.invariance_gap.busy_s", "s/round", ("span", "montecarlo.invariance_gap", "busy")),
    ("montecarlo.normality_report.busy_s", "s/round", ("span", "montecarlo.normality_report", "busy")),
    ("montecarlo.excess_kurtosis.busy_s", "s/round", ("span", "montecarlo.excess_kurtosis", "busy")),
    ("montecarlo.var_gamma.busy_s", "s/round", ("span", "montecarlo.var_gamma", "busy")),
    ("ensembles.build_ensemble.busy_s", "s/round", ("span", "ensembles.build_ensemble", "busy")),
    ("ensembles.substitute_gaussian.busy_s", "s/round", ("span", "ensembles.substitute_gaussian", "busy")),
    ("cli.self_s", "s/round", ("span", ROOT, "self")),
    ("cli.out_bytes", "bytes/round", ("count", "cli.out_bytes")),
    ("cli.load.busy_s", "s/round", ("span", "cli.load", "busy")),
    *((f"layer.{layer}.self_s", "s/round", ("layer", layer)) for layer in LAYERS),
    ("trace_overhead", "ratio", ("special", "trace_overhead")),
)


# derived from array sizes or outputs, not timed: they repeat exactly for a seed
COMPUTED = (
    "kernels.accumulate_terms.flops",
    "kernels.accumulate_terms.bytes",
    "kernels.jacobi_eigh.dim3_sum",
    "decompose.coeff_bits_max",
    "algebra.mul.out_terms",
)


def per_layer_metrics(
    recorder: Recorder,
    traced_rounds: int,
    computed: dict[str, float],
    special: dict[str, float],
) -> tuple[dict[str, dict], dict[str, float]]:
    """The PER_LAYER metrics, sums divided by ``traced_rounds``, and each layer's self-time share."""
    totals = span_totals(recorder.names, recorder.name, recorder.parent, recorder.start, recorder.end)
    layer_self: dict[str, float] = defaultdict(float)
    for span_name, entry in totals.items():
        layer_self[layer_of(span_name)] += entry["self"]
    rounds = max(traced_rounds, 1)
    sample = totals.get("montecarlo.sample")
    special = dict(special)
    special["draws_per_s"] = (
        recorder.counts["montecarlo.sample.draws"] / sample["busy"] if sample and sample["busy"] else 0.0
    )
    metrics: dict[str, dict] = {}
    for metric, unit, source in PER_LAYER:
        kind = source[0]
        if kind == "span":
            entry = totals.get(source[1])
            value = entry[source[2]] / rounds if entry else 0.0
        elif kind == "count":
            value = recorder.counts.get(source[1], 0.0) / rounds
        elif kind == "max":
            value = recorder.maxima.get(source[1], 0.0)
        elif kind == "layer":
            value = layer_self.get(source[1], 0.0) / rounds
        elif kind == "computed":
            value = computed.get(source[1], 0.0)
        else:
            value = special.get(source[1], 0.0)
        metrics[metric] = {"value": float(value), "unit": unit}
    whole = sum(layer_self.values())
    shares = {layer: (layer_self.get(layer, 0.0) / whole if whole else math.nan) for layer in LAYERS}
    return metrics, shares
