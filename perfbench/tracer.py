"""Span tracer for the traced benchmark run.

The tracer wraps the public entry points of each layer of ``repro``
from the benchmark's side -- no source under ``src/`` knows about it.
:meth:`Tracer.install` swaps each target attribute (a class method or a
module function) for a wrapper that times every call and adds it to the
aggregates of its span name: calls, total ns and self ns (its duration
minus the durations of its traced children on the same thread).
:meth:`Tracer.uninstall` restores the originals, so the benchmark can
alternate traced and untraced windows inside one process and state the
tracing overhead.

A target that no longer exists (a later refactor renamed it) is
skipped and listed in :attr:`Tracer.missing`; the runner then marks the
run incorrect, so a renamed entry point fails the benchmark instead of
reading as a zero-cost layer.
"""

from __future__ import annotations

import functools
import importlib
import threading
from time import perf_counter_ns

#: (module, attribute path, span name) of every traced entry point.
TARGETS = (
    ("repro.serve.registry", "ModelRegistry.run", "registry.run"),
    ("repro.device", "GemvPlan.park", "registry.park"),
    ("repro.device", "GemvPlan.unpark", "registry.unpark"),
    ("repro.apps.analytics", "_StreamPlan.park", "registry.park"),
    ("repro.apps.analytics", "_StreamPlan.unpark", "registry.unpark"),
    ("repro.device", "GemvPlan.__call__", "plan.call"),
    ("repro.device", "GemvPlan.run_many", "plan.run_many"),
    ("repro.apps.analytics", "HistogramPlan.run_many", "plan.run_many"),
    ("repro.engine.cluster", "BankCluster.dispatch", "engine.dispatch"),
    ("repro.engine.machine", "CountingEngine.run_waves", "engine.schedule"),
    ("repro.engine.machine", "CountingEngine.flush", "engine.flush"),
    ("repro.engine.machine", "CountingEngine.read_values", "engine.decode"),
    ("repro.dram.wordline", "WordlineSubarray.run_megaprogram",
     "trace.replay_mega"),
    ("repro.dram.wordline", "WordlineSubarray.run_program",
     "trace.replay_prog"),
    ("repro.isa.trace", "compile_trace", "trace.compile"),
    ("repro.isa.trace", "compile_megatrace", "trace.compile"),
    ("repro.dram.faults", "FaultModel.predraw", "faults.predraw"),
    ("repro.ecc.protection", "CIMProtection.run_protected", "ecc.protected"),
    ("repro.fleet.worker", "ShardHandle.call", "fleet.rtt"),
    ("repro.fleet.shm", "Arena.stage", "fleet.marshal"),
    ("repro.fleet.shm", "Arena.fetch", "fleet.marshal"),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, original, owned) or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None:
        return None
    # Remember whether the attribute lives on this owner or is
    # inherited, so uninstall restores exactly what was there.
    owned = attr in vars(owner)
    return owner, attr, original, owned


class Tracer:
    """Records spans around the layer entry points while installed."""

    def __init__(self):
        self._installed = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        #: targets that did not resolve in any install
        self.missing = []
        #: span name -> [calls, total ns, self ns]
        self.agg = {}
        #: event name -> count (e.g. registry attempts)
        self.counts = {}
        #: future -> ns when the server wave carrying it started
        self.wave_start = {}

    # ------------------------------------------------------------------
    def install(self) -> None:
        for module_name, path, span in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self._miss(f"{module_name}.{path}")
                continue
            owner, attr, original, owned = found
            setattr(owner, attr, self._wrap(span, original))
            self._installed.append((owner, attr, original, owned))
        self._install_special()

    def _install_special(self) -> None:
        """Hooks that need the call's arguments, not just its span."""
        found = _resolve("repro.serve.server", "Server._execute")
        if found is None:
            self._miss("repro.serve.server.Server._execute")
        else:
            owner, attr, original, owned = found
            starts = self.wave_start

            @functools.wraps(original)
            def execute(server, model, pendings, *rest, **kw):
                now = perf_counter_ns()
                for pending in pendings:
                    starts[pending.future] = now
                return original(server, model, pendings, *rest, **kw)

            setattr(owner, attr, execute)
            self._installed.append((owner, attr, original, owned))
        # Registry attempts: every invocation of the wave callback is an
        # attempt; a run that had to evict and retry makes several.
        for owner, attr, original, owned in list(self._installed):
            if attr != "run" or owner.__name__ != "ModelRegistry":
                continue
            traced = getattr(owner, attr)
            count = self.count

            @functools.wraps(original)
            def run(registry, name, fn, _traced=traced):
                def attempt(plan):
                    count("registry.attempts")
                    return fn(plan)
                count("registry.runs")
                return _traced(registry, name, attempt)

            setattr(owner, attr, run)

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._installed):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed = []

    def _miss(self, target: str) -> None:
        if target not in self.missing:
            self.missing.append(target)

    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, span: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(span, fn, args, kwargs)
        return traced

    def _call(self, name, fn, args, kwargs):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        parent = stack[-1] if stack else None
        frame = [0]                            # ns spent in traced children
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            dur = end - start
            if parent is not None:
                parent[0] += dur
            with self._lock:
                agg = self.agg.get(name)
                if agg is None:
                    agg = self.agg[name] = [0, 0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.agg.get(name, (0, 0, 0))[0]

    def total_ms(self, name: str) -> float:
        return self.agg.get(name, (0, 0, 0))[1] / 1e6

    def self_ms(self, name: str) -> float:
        return self.agg.get(name, (0, 0, 0))[2] / 1e6
