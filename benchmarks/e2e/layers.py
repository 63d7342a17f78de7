"""Layer table and span tracer for the end-to-end benchmark.

The library never reads the wall clock (the determinism analyzer keeps
it out of ``src/``), so layer attribution happens here, from outside:
:class:`Tracer` swaps each layer's public entry points (class
attributes or module functions named in :data:`LAYERS`) for timing
wrappers while it is installed, and puts the originals back when the
``with`` block ends. Nothing under ``src/`` knows it is being traced.

Self time is a span's duration minus the durations of the spans it
directly contains, kept with an explicit stack. A call into an entry
point of the layer already on top of the stack (``count`` calling
``count_multi``, ``ingest`` calling ``admit``) is not a new span, so
same-layer recursion is never counted twice. Because every child's
duration is subtracted from exactly one parent, the self times of all
layers sum to the root span's duration; :meth:`Tracer.check_sums`
asserts it.

Spans are kept in memory as tuples and exported once, as Chrome trace
events (:meth:`Tracer.chrome_trace`), which Perfetto and
``chrome://tracing`` load. Every span carries its layer, start, end,
parent span and request id. A request is one call into the workload's
*request layer* made outside any other request (one scheduler event on
the radio workloads, one ingested read on the billing replay); spans
are recorded for one request in ``record_every`` so the file stays
small, while self times and call counts include every call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time

#: The benchmark's own code inside the measured region: the root span of
#: every traced episode. Its self time is whatever no wrapped layer
#: claims (driver loop overhead, unwrapped glue).
ROOT = "bench"

#: Layer name -> entry points, each ``"module:Class.method"`` or
#: ``"module:function"``. Layer names are the modules' names under
#: ``repro``; one layer may span several modules (the billing plane).
LAYERS: dict[str, tuple[str, ...]] = {
    "sim.city.mesh": ("repro.sim.city.mesh:CityMesh.run",),
    "sim.city.parallel": ("repro.sim.city.parallel:run_sharded",),
    "sim.events": ("repro.sim.events:EventScheduler.step",),
    "sim.city.corridor": (
        "repro.sim.city.corridor:CityCorridor.run",
        "repro.sim.city.corridor:CityCorridor.finish",
    ),
    "sim.medium": (
        "repro.sim.medium:AirLog.heard_state",
        "repro.sim.medium:AirLog.any_query_overlapping",
        "repro.sim.medium:AirLog.record_query",
        "repro.sim.medium:AirLog.record_response",
        "repro.sim.medium:AirLog.corrupted_responses",
    ),
    "core.counting": (
        "repro.core.counting:CollisionCounter.count",
        "repro.core.counting:CollisionCounter.count_multi",
    ),
    "core.localization": (
        "repro.core.localization:AoAEstimator.estimate_for_cfo",
        "repro.core.localization:LaneProjectionLocalizer.locate",
    ),
    "core.mac": (
        "repro.core.mac:ReaderMac.can_transmit",
        "repro.core.mac:ReaderMac.next_opportunity",
    ),
    "sim.city.moving": (
        "repro.sim.city.moving:MovingCollisionSource.query",
        "repro.sim.city.moving:MovingCollisionSource.overhear",
    ),
    "sim.city.pool": (
        "repro.sim.city.pool:ResponsePool.publish",
        "repro.sim.city.pool:ResponsePool.harvest",
    ),
    "core.decoding": (
        "repro.core.decoding:DecodeSession.decode_all",
        "repro.core.decoding:DecodeSession.seed_capture",
        "repro.core.decoding:DecodeSession.donate_capture",
    ),
    "sim.city.backhaul": (
        "repro.sim.city.backhaul:BackhaulPlane.submit",
        "repro.sim.city.backhaul:BackhaulPlane.advance",
        "repro.sim.city.backhaul:BackhaulPlane.final_flush",
    ),
    "sim.city.directory": (
        "repro.sim.city.directory:IdentityDirectory.report",
        "repro.sim.city.directory:IdentityDirectory.apply_delta",
        "repro.sim.city.directory:IdentityDirectory.resolve",
    ),
    "apps.tolling": (
        "repro.apps.tolling.service:TollingService.ingest",
        "repro.apps.tolling.dedup:TollDedup.admit",
        "repro.apps.tolling.accounts:ShardedAccountStore.charge",
        "repro.apps.tolling.backend:DirectoryBackend.submit",
        "repro.apps.tolling.backend:DirectoryBackend.drain",
    ),
}

#: Every layer the tracer reports, root first.
LAYER_NAMES: tuple[str, ...] = (ROOT, *LAYERS)


def _count_tags(tracer, args, result) -> None:
    tracer.tags_counted += result.count


def _note_air_log(tracer, args, result) -> None:
    # Keep the log itself: its scan-pair count is computed after the
    # run, outside every timed region.
    tracer.air_logs.setdefault(id(args[0]), args[0])


#: Entry points whose return value (or receiver) feeds a traced-only
#: work counter. An observer gets ``(tracer, args, result)`` and runs
#: after its span has closed, so its cost lands in the parent's self time.
OBSERVERS = {
    "repro.core.counting:CollisionCounter.count": _count_tags,
    "repro.core.counting:CollisionCounter.count_multi": _count_tags,
    "repro.sim.medium:AirLog.corrupted_responses": _note_air_log,
}


def _resolve(entry: str):
    """``(owner, attribute name, original)`` for one entry point."""
    module_name, _, qualname = entry.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    """Install/restore context manager that attributes wall time to layers.

    ``with Tracer(request_layer="sim.events") as tracer:`` wraps every
    entry point in :data:`LAYERS`; :meth:`root` opens the root span
    around a measured region. Not thread-safe (the workloads are
    single-threaded; a forked shard worker would not see the wrappers,
    which is why traced sharded runs execute in-process).
    """

    def __init__(self, request_layer: str, record_every: int = 1) -> None:
        if request_layer not in LAYERS:
            raise ValueError(f"unknown request layer {request_layer!r}")
        self.request_layer = LAYER_NAMES.index(request_layer)
        self.record_every = max(1, int(record_every))
        self.self_s = [0.0] * len(LAYER_NAMES)
        self.calls = [0] * len(LAYER_NAMES)
        #: Wrapped entry points, and the self time of each (e.g. the
        #: AirLog sweep alone), index-aligned.
        self.entries: list[str] = []
        self.entry_self_s: list[float] = []
        #: Traced-only work: tags the counter reported, and the air
        #: logs the corruption sweep ran on (by id).
        self.tags_counted = 0
        self.air_logs: dict[int, object] = {}
        self.root_s = 0.0
        #: (layer index, start, end, span id, parent span id, request id)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._installed: list[tuple] = []

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for layer, entries in LAYERS.items():
                index = LAYER_NAMES.index(layer)
                for entry in entries:
                    owner, attr, original = _resolve(entry)
                    wrapped = self._wrap(original, index, entry)
                    setattr(owner, attr, wrapped)
                    self._installed.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- the hot path ------------------------------------------------------

    def _wrap(self, fn, layer: int, entry: str):
        # Everything the hot path touches is bound to a local: the
        # wrapper's own cost lands in its parent's self time.
        stack = self._stack
        push = stack.append
        pop = stack.pop
        spans = self.spans
        self_s = self.self_s
        calls = self.calls
        entry_self_s = self.entry_self_s
        entry_index = len(self.entries)
        self.entries.append(entry)
        entry_self_s.append(0.0)
        span_ids = self._span_ids
        request_ids = self._request_ids
        request_layer = self.request_layer
        every = self.record_every
        clock = time.perf_counter
        observe = OBSERVERS.get(entry)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                parent = stack[-1]
                if parent[0] == layer:
                    return fn(*args, **kwargs)
                request = parent[3]
            else:
                parent = None
                request = 0
            if request == 0 and layer == request_layer:
                request = next(request_ids)
            sampled = request % every == 0
            # frame: [layer, span id, child time, request]; ids are
            # only drawn for spans that will be recorded.
            frame = [layer, next(span_ids) if sampled else 0, 0.0, request]
            push(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                pop()
                duration = end - start
                own = duration - frame[2]
                self_s[layer] += own
                entry_self_s[entry_index] += own
                calls[layer] += 1
                if parent is not None:
                    parent[2] += duration
                if sampled:
                    spans.append(
                        (
                            layer,
                            start,
                            end,
                            frame[1],
                            0 if parent is None else parent[1],
                            request,
                        )
                    )
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def root(self, fn, *args, **kwargs):
        """Run ``fn`` as the root span of one measured region."""
        if self._stack:
            raise RuntimeError("the root span must be outermost")
        frame = [0, next(self._span_ids), 0.0, 0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.self_s[0] += (end - start) - frame[2]
            self.calls[0] += 1
            self.root_s += end - start
            self.spans.append((0, start, end, frame[1], 0, 0))

    # -- results -----------------------------------------------------------

    def entry_self(self, entry: str) -> float:
        """Self time of one wrapped entry point (0 if never wrapped)."""
        if entry not in self.entries:
            return 0.0
        return self.entry_self_s[self.entries.index(entry)]

    def check_sums(self, tolerance: float = 0.01) -> float:
        """Assert the per-layer self times add up to the root wall time
        (within ``tolerance`` of it); returns the relative gap."""
        total = sum(self.self_s)
        gap = abs(total - self.root_s) / self.root_s if self.root_s else 0.0
        if gap > tolerance:
            raise AssertionError(
                f"layer self times sum to {total:.6f} s but the root spans "
                f"cover {self.root_s:.6f} s ({gap:.2%} apart)"
            )
        return gap

    def layer_table(self) -> dict[str, dict]:
        """``{layer: {"self_s", "share", "calls"}}`` for every layer."""
        return {
            name: {
                "self_s": self.self_s[i],
                "share": self.self_s[i] / self.root_s if self.root_s else 0.0,
                "calls": self.calls[i],
            }
            for i, name in enumerate(LAYER_NAMES)
        }

    def chrome_trace(self) -> dict:
        """Recorded spans as Chrome trace events (microseconds)."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        t0 = min(span[1] for span in self.spans)
        events = []
        for layer, start, end, span_id, parent_id, request in sorted(
            self.spans, key=lambda s: (s[1], -s[2])
        ):
            name = LAYER_NAMES[layer]
            events.append(
                {
                    "name": name,
                    "cat": name,
                    "ph": "X",
                    "ts": (start - t0) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"span": span_id, "parent": parent_id, "request": request},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
