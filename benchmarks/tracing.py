"""Span recorder for the benchmark's traced run.

The recorder wraps the public functions and methods of six hvlab modules
from outside the package: no file under ``src/`` knows about it.  Each
call becomes a span (name, start, end, parent span, pass id) kept in
flat in-memory arrays and written out once, when the run ends.  Spans
are grouped into layers; a layer's time is the sum of its spans' self
times, where a span's self time is its duration minus that of its
direct children.  Counters record the work done at the same boundaries.

Modules import each other's functions by value (``cli`` binds
``mc_mean``, ``spectral_decompose`` and others, and keeps its
subcommands in a dispatch table), so every namespace that holds a
wrapped function is rebound, and ``install`` fails if one is missed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

MODULES = ("oracle", "distributions", "spin_half", "spin_one", "ks", "cli")

#: Layer of each traced callable that is not in its module's default layer.
LAYER_OF = {
    "oracle.spectral_decompose": "oracle.spectral",
    "oracle.build_basis": "oracle.basis",
    "oracle.linear_observable": "oracle.basis",
    "oracle.verify_ks_identity": "oracle.basis",
    "oracle.simultaneous_eigenbasis": "oracle.basis",
    "distributions.sign_mean_quadrature": "distributions.quadrature",
    "distributions.sign_product_mean_quadrature": "distributions.quadrature",
    "distributions.PowerLawDistribution.density": "distributions.quadrature",
    "distributions.PowerLawDistribution.sample": "distributions.sample",
    "distributions.mc_mean": "distributions.mc",
    "distributions.mc_mean_pair": "distributions.mc",
    "spin_one.OutcomeFormula.evaluate": "spin_one.evaluate",
    "spin_one.OutcomeFormula.evaluate_signs": "spin_one.evaluate",
    "ks.dispersion_scan": "ks.scan",
    "cli.emit_rows": "cli.emit",
}

#: Layer of every other public callable, by module.
DEFAULT_LAYER = {
    "oracle": "oracle.born",
    "distributions": "distributions.sign",
    "spin_half": "spin_half.outcome",
    "spin_one": "spin_one.build",
    "ks": "ks.outcomes",
    "cli": "cli.experiment",
}

LAYERS = tuple(dict.fromkeys([*DEFAULT_LAYER.values(), *LAYER_OF.values()]))

# ReportRow.passed is a per-row predicate, called twice per report row
# (half a million times per ks-scan pass); a span per call would make the
# trace measure itself.  Its time counts toward the calling cli span.
EXCLUDED = frozenset({"cli.ReportRow.passed"})


@dataclass(frozen=True)
class Call:
    args: tuple
    kwargs: dict
    result: Any
    error: BaseException | None
    before: Any

    def arg(self, position: int, name: str):
        return self.args[position] if len(self.args) > position else self.kwargs[name]


def _one(call: Call) -> int:
    return 1


def _result_size(call: Call) -> int:
    return int(getattr(call.result, "size", 1))


def _stream_of(args: tuple, kwargs: dict):
    stream = args[2] if len(args) > 2 else kwargs.get("stream")
    return stream if stream is not None else sys.stdout


@dataclass(frozen=True)
class Probe:
    counter: str
    measure: Callable[[Call], int]
    before: Callable[[tuple, dict], Any] | None = None


def _infeasible(call: Call) -> int:
    return int(type(call.error).__name__ == "InfeasibleCaseError")


#: Counters recorded at a traced callable, by callable.
PROBES = {
    "distributions.sign_mean_quadrature": (Probe("distributions.quadrature.calls", _one),),
    "distributions.sign_product_mean_quadrature": (Probe("distributions.quadrature.calls", _one),),
    "distributions.PowerLawDistribution.density": (
        Probe("distributions.quadrature.points", lambda c: int(getattr(c.arg(1, "x"), "size", 1))),
    ),
    "distributions.PowerLawDistribution.sample": (Probe("distributions.sample.draws", lambda c: int(c.arg(1, "size"))),),
    "distributions.mc_mean": (Probe("distributions.mc.passes", _one),),
    "distributions.mc_mean_pair": (Probe("distributions.mc.passes", _one),),
    "spin_one.OutcomeFormula.evaluate_signs": (Probe("spin_one.evaluate.outcomes", _result_size),),
    "spin_one.sign_targets": (Probe("spin_one.infeasible", _infeasible),),
    "spin_half.bell_outcome_original": (Probe("spin_half.outcome.values", _result_size),),
    "spin_half.bell_outcome_modified": (Probe("spin_half.outcome.values", _result_size),),
    "oracle.spectral_decompose": (Probe("oracle.spectral.calls", _one),),
    "oracle.build_basis": (Probe("oracle.basis.calls", _one),),
    "ks.dispersion_scan": (Probe("ks.scan.points", lambda c: len(c.result)),),
    "cli.emit_rows": (
        Probe("cli.rows", lambda c: len(c.arg(0, "rows"))),
        # the CLI writes ASCII, so characters written are bytes written
        Probe(
            "cli.emit.bytes",
            lambda c: _stream_of(c.args, c.kwargs).tell() - c.before,
            before=lambda args, kwargs: _stream_of(args, kwargs).tell(),
        ),
    ),
}

COUNTERS = tuple(dict.fromkeys(probe.counter for probes in PROBES.values() for probe in probes))

#: Unit of every per-layer metric.
UNITS = {
    **{f"{layer}.s": "s" for layer in LAYERS},
    **{counter: "count" for counter in COUNTERS},
    "cli.emit.bytes": "bytes",
    "trace.overhead_s": "s",
}

#: Spans that must fire at least once per traced pass of each workload.
EXPECTED_SPANS = {
    "sign-sweep": (
        "cli.run_sgn_averages",
        "cli.emit_rows",
        "distributions.mc_mean",
        "distributions.PowerLawDistribution.sample",
        "distributions.SignFunctionSpec.evaluate",
        "distributions.sign_mean_quadrature",
        "distributions.sign_product_mean_quadrature",
        "distributions.PowerLawDistribution.density",
    ),
    "mc-models": (
        "cli.run_spin_one",
        "cli.run_spin_half",
        "cli.run_ks_dispersion",
        "cli.emit_rows",
        "distributions.mc_mean",
        "distributions.mc_mean_pair",
        "distributions.PowerLawDistribution.sample",
        "distributions.SignFunctionSpec.evaluate",
        "spin_one.build_formula",
        "spin_one.beable_from_operator",
        "spin_one.sign_targets",
        "spin_one.OutcomeFormula.evaluate",
        "spin_one.OutcomeFormula.evaluate_signs",
        "spin_half.bell_outcome_modified",
        "spin_half.bell_outcome_original",
        "ks.ks_square_outcomes",
        "oracle.spectral_decompose",
    ),
    "ks-scan": ("cli.run_ks_dispersion", "cli.emit_rows", "ks.dispersion_scan"),
    "battery": (
        "cli.run_verify_all",
        "cli.run_oracle_check",
        "cli.run_homogeneity",
        "cli.run_ks_epsilon",
        "cli.emit_rows",
        "oracle.build_basis",
        "oracle.spectral_decompose",
        "oracle.born_distribution",
        "distributions.mc_mean",
        "distributions.mc_mean_pair",
        "distributions.sign_mean_quadrature",
        "spin_half.homogeneity_split",
        "ks.deformed_statistics",
        "ks.dispersion_scan",
    ),
}


def _public_callables(module):
    """(qualname, owner, attribute, function, descriptor type) of every
    public function of ``module`` and public method of its public classes."""
    names = getattr(module, "__all__", None) or [name for name in vars(module) if not name.startswith("_")]
    for name in names:
        obj = vars(module)[name]
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, module, name, obj, None
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    yield f"{name}.{attr}", obj, attr, raw.__func__, type(raw)
                elif inspect.isfunction(raw):
                    yield f"{name}.{attr}", obj, attr, raw, None


class Tracer:
    """Records spans and counters for calls into the hvlab modules."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_ids: list[int] = []
        self.name_ids = array("i")
        self.pass_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[tuple[int, str], int] = {}
        self.pass_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn: Callable, probes: tuple[Probe, ...]) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        self.layer_ids.append(LAYERS.index(layer))
        name_ids, pass_ids, parents = self.name_ids, self.pass_ids, self.parents
        starts, ends, stack, counts = self.starts, self.ends, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            pass_ids.append(self.pass_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            before = [probe.before(args, kwargs) if probe.before else None for probe in probes]
            result = error = None
            starts[index] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                ends[index] = clock()
                stack.pop()
                for probe, token in zip(probes, before):
                    key = (self.pass_id, probe.counter)
                    counts[key] = counts.get(key, 0) + probe.measure(Call(args, kwargs, result, error, token))

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, target, key: str, value) -> None:
        if isinstance(target, dict):
            self._undo.append((target, key, target[key]))
            target[key] = value
        else:
            self._undo.append((target, key, vars(target)[key]))
            setattr(target, key, value)

    def install(self, package: str = "hvlab") -> None:
        """Wrap every public callable of the traced modules and rebind
        each namespace (module globals and the dicts they hold) that
        refers to one."""
        modules = {short: importlib.import_module(f"{package}.{short}") for short in MODULES}
        namespaces = [vars(sys.modules[package])] + [vars(module) for module in modules.values()]
        namespaces += [value for ns in list(namespaces) for value in ns.values() if isinstance(value, dict)]
        originals = []
        for short, module in modules.items():
            for qualname, owner, attr, fn, descriptor in list(_public_callables(module)):
                name = f"{short}.{qualname}"
                if name in EXCLUDED:
                    continue
                layer = LAYER_OF.get(name, DEFAULT_LAYER[short])
                traced = self._wrap(name, layer, fn, PROBES.get(name, ()))
                originals.append((name, fn))
                if owner is module:
                    for ns in namespaces:
                        for key, value in list(ns.items()):
                            if value is fn:
                                self._set(ns, key, traced)
                else:
                    self._set(owner, attr, descriptor(traced) if descriptor else traced)
        missed = [
            f"{name} (as {key})"
            for name, fn in originals
            for ns in namespaces
            for key, value in ns.items()
            if value is fn
        ]
        if missed:
            self.uninstall()
            raise RuntimeError(f"unpatched references: {', '.join(missed)}")
        unknown = set(LAYER_OF) | set(PROBES)
        unknown -= {name for name, _ in originals}
        if unknown:
            self.uninstall()
            raise RuntimeError(f"traced names not found in the package: {sorted(unknown)}")

    def uninstall(self) -> None:
        while self._undo:
            target, key, value = self._undo.pop()
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    # -- results ---------------------------------------------------------------

    def fired(self, pass_id: int) -> set[str]:
        return {self.names[n] for n, p in zip(self.name_ids, self.pass_ids) if p == pass_id}

    def layer_metrics(self, pass_id: int) -> dict[str, float]:
        """Self time of every layer, in seconds, and every counter, for one pass."""
        child = [0.0] * len(self.starts)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[index] - self.starts[index]
        busy = [0.0] * len(LAYERS)
        for index, name_id in enumerate(self.name_ids):
            if self.pass_ids[index] == pass_id:
                busy[self.layer_ids[name_id]] += self.ends[index] - self.starts[index] - child[index]
        metrics = {f"{layer}.s": busy[k] for k, layer in enumerate(LAYERS)}
        metrics.update({counter: self.counts.get((pass_id, counter), 0) for counter in COUNTERS})
        return metrics

    def dump(self, path: Path, meta: dict) -> None:
        """Write every recorded span, with times relative to the first span."""
        origin = self.starts[0] if self.starts else 0.0
        spans = [
            [self.name_ids[k], self.pass_ids[k], self.parents[k], self.starts[k] - origin, self.ends[k] - origin]
            for k in range(len(self.starts))
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "meta": meta,
            "layers": LAYERS,
            "names": [[name, LAYERS[layer]] for name, layer in zip(self.names, self.layer_ids)],
            "span_fields": ["name", "pass", "parent", "start_s", "end_s"],
            "spans": spans,
        }
        path.write_text(json.dumps(document) + "\n")
