"""Per-layer timing taken from outside the program.

The tracer wraps public functions and methods of the ``repro`` package
in the namespaces where callers look them up: a module-level function is
replaced in its defining module *and* in every loaded ``repro`` module
that imported it by name; a method is replaced on its class.  Every
wrapped call is one span.  Spans nest through a stack, so a layer's self
time is its span time minus the time of the wrapped calls made inside
it, and the self times of all layers are disjoint slices of the traced
wall time.

Counters the program already emits (``engine.armada.*_rounds``,
``store.bytes_*``, ``store.hit``/``miss``) are read from a
``repro.telemetry.probes`` collector the tracer installs for the traced
call.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from random import Random
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layer name -> the (module, attribute) targets timed as that layer.
#: ``Class.method`` attributes are wrapped on the class.
LAYER_TARGETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "graphs.build": (
        ("repro.graphs.random_graphs", "gnp_random_graph"),
        ("repro.graphs.structured", "grid_graph"),
        ("repro.graphs.structured", "hex_lattice_graph"),
        ("repro.graphs.cliques", "theorem1_family"),
    ),
    "engine.operand": (
        ("repro.engine.fleet", "ArmadaSimulator.__init__"),
        ("repro.engine.fleet", "FleetSimulator.__init__"),
        ("repro.engine.messages", "MessageArmadaSimulator.__init__"),
        ("repro.engine.messages", "MessageFleetSimulator.__init__"),
        ("repro.engine.applications", "ApplicationArmadaSimulator.__init__"),
        ("repro.engine.applications", "ApplicationFleetSimulator.__init__"),
    ),
    "engine.run": (
        ("repro.engine.fleet", "ArmadaSimulator.run_armada"),
        ("repro.engine.fleet", "FleetSimulator.run_fleet"),
        ("repro.engine.messages", "MessageArmadaSimulator.run_armada"),
        ("repro.engine.messages", "MessageFleetSimulator.run_fleet"),
        ("repro.engine.applications", "ApplicationArmadaSimulator.run_armada"),
        ("repro.engine.applications", "ApplicationFleetSimulator.run_fleet"),
    ),
    "rng.draw": (
        ("repro.beeping.rng", "counter_uniforms"),
        ("repro.beeping.rng", "counter_values"),
        ("repro.beeping.rng", "counter_uniforms_at"),
        ("repro.beeping.rng", "uniform_block"),
    ),
    "verify": (("repro.graphs.validation", "verify_mis"),),
    "store.put": (("repro.sweep.store", "ResultStore.put"),),
    "store.get": (("repro.sweep.store", "ResultStore.get"),),
    "sweep": (("repro.sweep.orchestrator", "run_sweep"),),
    "runner": (
        ("repro.experiments.runner", "run_fleet_trials"),
        ("repro.experiments.runner", "run_trials"),
    ),
    "aggregate": (("repro.sweep.aggregate", "cell_point"),),
    "exact": (("repro.algorithms.exact", "maximum_independent_set"),),
    "bio.integrate": (("repro.bio.ode", "rk4_integrate"),),
    "render": (
        ("repro.experiments.html_report", "render_paper_report"),
        ("repro.experiments.records", "results_to_csv"),
    ),
    "rundb.append": (("repro.sweep.rundb", "RunDB.append"),),
}


def _graph_key(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
    """Identity of a generator call's output: its arguments, with any
    ``Random`` replaced by its state (the draw it will make)."""

    def plain(value: Any) -> Any:
        if isinstance(value, Random):
            return hash(value.getstate())
        return value

    return (
        tuple(plain(a) for a in args),
        tuple(sorted((k, plain(v)) for k, v in kwargs.items())),
    )


def _array_bytes(value: Any, depth: int = 0) -> int:
    """Bytes of the numpy arrays reachable from ``value`` (two levels)."""
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if depth >= 2:
        return 0
    if isinstance(value, (list, tuple)):
        return sum(_array_bytes(item, depth + 1) for item in value)
    if isinstance(value, dict):
        return sum(_array_bytes(item, depth + 1) for item in value.values())
    if hasattr(value, "__dict__") and type(value).__module__.startswith(
        "repro.engine"
    ):
        return sum(
            _array_bytes(item, depth + 1) for item in vars(value).values()
        )
    return 0


def _rk4_steps(t_span: Tuple[float, float], dt: float) -> int:
    """The step count of ``rk4_integrate``'s loop, replayed on ``t`` alone."""
    t, t1 = float(t_span[0]), float(t_span[1])
    steps = 0
    while t < t1 - 1e-12:
        t += min(dt, t1 - t)
        steps += 1
    return steps


def _trial_rounds(result: Any) -> int:
    """Sum of per-trial rounds over the run(s) an engine call returned."""
    runs = result if isinstance(result, list) else [result]
    return sum(int(np.asarray(run.rounds).sum()) for run in runs)


class Tracer:
    """Span stack plus per-layer self time, calls and work counts."""

    def __init__(self) -> None:
        self._stack: List[List[float]] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.graph_keys: set = set()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping --------------------------------------------------

    def _wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        before: Optional[Callable[..., None]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        stack = self._stack
        self_seconds = self.self_seconds
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_seconds[layer] += elapsed - frame[0]
                calls[layer] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _hooks(self, layer: str, attribute: str):
        """Work counters recorded around one target's calls."""
        if layer == "graphs.build":
            def before(args, kwargs):
                self.graph_keys.add((attribute, _graph_key(args, kwargs)))
            return before, None
        if layer == "engine.operand":
            def after(args, kwargs, _result):
                self.counts["engine.operand_bytes"] += _array_bytes(args[0])
            return None, after
        if layer == "engine.run":
            def after(args, kwargs, result):
                self.counts["engine.trial_rounds"] += _trial_rounds(result)
            return None, after
        if layer == "bio.integrate":
            def after(args, kwargs, _result):
                t_span = kwargs.get("t_span", args[2] if len(args) > 2 else None)
                dt = kwargs.get("dt", args[3] if len(args) > 3 else None)
                self.counts["bio.rk4_steps"] += _rk4_steps(t_span, dt)
            return None, after
        return None, None

    # -- installation ------------------------------------------------------

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every target of every layer wherever it is looked up.

        Import the program's entry modules first: a module loaded after
        this call keeps references to the unwrapped functions.
        """
        loaded = [
            module
            for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for layer, targets in LAYER_TARGETS.items():
            for module_name, attribute in targets:
                module = sys.modules[module_name]
                before, after = self._hooks(layer, attribute)
                if "." in attribute:
                    class_name, method = attribute.split(".")
                    owner = getattr(module, class_name)
                    original = owner.__dict__[method]
                    self._patch(
                        owner, method, self._wrap(layer, original, before, after)
                    )
                    continue
                original = getattr(module, attribute)
                wrapped = self._wrap(layer, original, before, after)
                for candidate in loaded:
                    for name, value in list(vars(candidate).items()):
                        if value is original:
                            self._patch(candidate, name, wrapped)

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, counters: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics of the traced call (see ``README.md``)."""
        s, calls, counts = self.self_seconds, self.calls, self.counts
        built = calls["graphs.build"]
        distinct = len(self.graph_keys)
        run_s = s["engine.run"]
        rounds = sum(
            counters.get(f"engine.{kind}.rounds", 0.0)
            for kind in ("armada", "fleet", "message", "application")
        )
        hits = counters.get("store.hit", 0.0)
        misses = counters.get("store.miss", 0.0)
        return {
            "graphs.build_s": s["graphs.build"],
            "graphs.built": float(built),
            "graphs.distinct": float(distinct),
            "graphs.redraw_ratio": built / distinct if distinct else 0.0,
            "engine.operand_s": s["engine.operand"],
            "engine.operand_mb": counts["engine.operand_bytes"] / 1e6,
            "engine.run_s": run_s,
            "engine.rounds": rounds,
            "engine.dense_rounds": counters.get("engine.armada.dense_rounds", 0.0),
            "engine.frontier_rounds": counters.get(
                "engine.armada.frontier_rounds", 0.0
            ),
            "engine.trial_rounds_per_s": (
                counts["engine.trial_rounds"] / run_s if run_s > 0 else 0.0
            ),
            "rng.draw_s": s["rng.draw"],
            "rng.draw_calls": float(calls["rng.draw"]),
            "verify.s": s["verify"],
            "verify.calls": float(calls["verify"]),
            "store.put_s": s["store.put"],
            "store.bytes_written": counters.get("store.bytes_written", 0.0),
            "store.get_s": s["store.get"],
            "store.bytes_read": counters.get("store.bytes_read", 0.0),
            "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "sweep.self_s": s["sweep"],
            "runner.self_s": s["runner"],
            "aggregate.s": s["aggregate"],
            "exact.s": s["exact"],
            "bio.integrate_s": s["bio.integrate"],
            "bio.runs": float(calls["bio.integrate"]),
            "bio.rk4_steps": float(counts["bio.rk4_steps"]),
            "render.s": s["render"],
            "rundb.append_s": s["rundb.append"],
        }

    def self_total(self) -> float:
        """Sum of every layer's self time."""
        return sum(self.self_seconds.values())
