"""Per-layer tracing from outside the program.

The tracer wraps the public entry point of each layer (a module function or
a class method) with a span. Spans nest: a span's *self time* is its
duration minus the durations of the spans it directly contains, so the self
times of all spans inside an operation, plus the operation's own
unattributed time, add up to the operation's duration exactly.

Wrapping is reversible (``install`` returns the undo callback) so a traced
run can alternate traced and untraced operations and report the tracing
overhead. Nothing inside ``repro`` is edited: module functions are replaced
in every loaded ``repro`` and ``perfbench`` module that imported them by
name.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.change_plan import ChangePlan
from repro.core.intents import Intent
from repro.ec import flow_ec
from repro.incremental.engine import IncrementalEngine
from repro.kfailure.blast import FailureBlastAnalyzer
from repro.kfailure.engine import KFailureEngine
from repro.rcl import eval as rcl_eval
from repro.routing import isis
from repro.routing.rib import GlobalRib
from repro.routing.simulator import RouteSimulator
from repro.traffic.simulator import TrafficSimulator
from repro.workload import changes, flows, routes, wan

#: span name of the time a span's counter hook spends reading results
HOOKS = "trace.hooks"

Hook = Callable[["Tracer", object, tuple], None]


class Tracer:
    """Span stack plus per-scope self-time and counter totals.

    A *scope* is ``"setup"`` or ``"op"``; the harness opens one root span
    per set-up or operation with :meth:`root`, and every wrapped call inside
    it is charged to that scope. Calls outside a root are not recorded.
    """

    def __init__(self) -> None:
        self.self_time: Dict[str, Counter] = {"setup": Counter(), "op": Counter()}
        self.counts: Dict[str, Counter] = {"setup": Counter(), "op": Counter()}
        self.roots: Dict[str, List[float]] = {"setup": [], "op": []}
        self._scope: Optional[str] = None
        #: open spans: [name, start, time covered by direct children]
        self._stack: List[list] = []
        self._gc_started: Optional[float] = None

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def root(self, scope: str) -> Iterator[None]:
        """One set-up or operation; its self time is the unattributed part."""
        self._scope = scope
        gc.callbacks.append(self._gc_callback)
        try:
            with self.span("root"):
                yield
        finally:
            gc.callbacks.remove(self._gc_callback)
            self._scope = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self._scope is None:
            yield
            return
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[1]
            self._stack.pop()
            self.self_time[self._scope][name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            elif name == "root":
                self.roots[self._scope].append(duration)

    def count(self, name: str, value: float = 1) -> None:
        if self._scope is not None:
            self.counts[self._scope][name] += value

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.count("runtime.gc_s", time.perf_counter() - self._gc_started)
            self.count("runtime.gc_collections")
            self._gc_started = None

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if hook is not None and tracer._scope is not None:
                with tracer.span(HOOKS):
                    hook(tracer, result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> Callable[[], None]:
        """Wrap every layer entry point; returns the undo callback."""
        undo: List[Callable[[], None]] = []
        for name, owner, attr, hook in _layer_points():
            undo.extend(self._patch(name, owner, attr, hook))

        def uninstall() -> None:
            for restore in reversed(undo):
                restore()

        return uninstall

    def _patch(self, name, owner, attr, hook) -> List[Callable[[], None]]:
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, hook))
            else:
                wrapped = self.wrap(name, raw, hook)
            setattr(owner, attr, wrapped)
            return [lambda: setattr(owner, attr, raw)]
        # A module function: replace it wherever ``from x import f`` bound it.
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, hook)
        undo = []
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if not module_name.startswith(("repro", "perfbench")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append(lambda m=module, k=key: setattr(m, k, original))
        return undo


# -- counter hooks -------------------------------------------------------------


def _route_sim_hook(tracer: Tracer, result, args) -> None:
    tracer.count("routing.route_sim_calls")
    tracer.count("routing.bgp_messages", result.bgp.stats.messages)
    tracer.count("routing.bgp_rounds", result.bgp.stats.rounds)
    tracer.count(
        "routing.rib_rows", sum(rib.route_count() for rib in result.device_ribs.values())
    )


def _flow_ecs_hook(tracer: Tracer, index, args) -> None:
    tracer.count("ec.flows", index.total_flows)
    tracer.count("ec.classes", len(index.classes))


def _intent_hook(tracer: Tracer, result, args) -> None:
    tracer.count("core.intents_checked")


def _class_key_hook(tracer: Tracer, result, args) -> None:
    tracer.count("kfailure.class_keys")


def _layer_points() -> List[Tuple[str, object, str, Optional[Hook]]]:
    """(span name, owner, attribute, counter hook) of every traced call."""
    points: List[Tuple[str, object, str, Optional[Hook]]] = [
        ("workload.generate", wan, "generate_wan", None),
        ("workload.generate", routes, "generate_input_routes", None),
        ("workload.generate", flows, "generate_flows", None),
        ("workload.generate", changes, "generate_change_corpus", None),
        ("routing.compute_igp", isis, "compute_igp", None),
        ("routing.route_sim", RouteSimulator, "simulate", _route_sim_hook),
        # ``simulate`` assembles through the private method and the public
        # ``assemble_ribs`` delegates to it: wrapping it covers both paths.
        ("routing.assemble_ribs", RouteSimulator, "_assemble_ribs", None),
        ("routing.global_rib", GlobalRib, "from_device_ribs", None),
        ("routing.global_rib", GlobalRib, "best_routes", None),
        ("traffic.sim", TrafficSimulator, "simulate", None),
        ("ec.flow_ecs", flow_ec, "compute_flow_ecs", _flow_ecs_hook),
        ("incremental.snapshot_base", IncrementalEngine, "snapshot_base", None),
        ("incremental.analyze", IncrementalEngine, "analyze", None),
        ("incremental.splice", IncrementalEngine, "splice", None),
        ("core.build_updated_model", ChangePlan, "build_updated_model", None),
        ("rcl.verify", rcl_eval, "verify", None),
        ("kfailure.prepare", KFailureEngine, "prepare", None),
        ("kfailure.class_key", FailureBlastAnalyzer, "class_key", _class_key_hook),
        ("kfailure.effect", FailureBlastAnalyzer, "effect", None),
    ]
    # Every intent class that defines its own ``evaluate``; the drain intent
    # of the change corpus is duck-typed rather than an Intent subclass.
    intent_classes = [changes._AvoidViaIgp]
    pending = [Intent]
    while pending:
        cls = pending.pop()
        intent_classes.append(cls)
        pending.extend(cls.__subclasses__())
    for cls in intent_classes:
        if "evaluate" in cls.__dict__:
            points.append(("core.intents", cls, "evaluate", _intent_hook))
    return points
