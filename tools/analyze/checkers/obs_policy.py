"""``obs-policy``: instrumentation goes through the nullable ``obs`` hook.

The observability contract (see ``src/repro/obs`` and
``docs/OBSERVABILITY.md``): library code never *owns* instrumentation
state — it receives a nullable hook via an ``obs=`` parameter and guards
every recording with ``if obs is not None``. That keeps disabled runs
zero-cost and bit-identical, and keeps metric/trace state out of module
globals where two simulations in one process would share it. This
checker flags the ways the contract breaks:

* ``import repro.obs`` (or ``from repro.obs import ...``) in library
  modules outside the obs package — instrumented code must stay
  import-decoupled from the hook implementation (the hook is duck-typed
  and arrives as a parameter, so ``repro.core`` / ``repro.sim`` never
  gain a dependency on ``repro.obs``).
* constructing ``Obs`` / ``MetricsRegistry`` / ``SpanTracer`` in library
  code outside the obs package — the application layer (examples,
  benches, tests) builds the hook; the library only threads it through.
  A module-level construction would be a de-facto process-global
  registry.
* wall-clock *references* (not just calls) inside the obs package —
  recordings must derive from sim time alone, so even storing
  ``time.perf_counter`` as a default timer function is a contract
  breach the determinism checker's call-site rule would miss.
* a formatted string — an f-string with a placeholder, a ``%``-format
  or a ``str.format`` call — passed as an ``EventScheduler.schedule``
  kind or as a label keyword of an obs hook call (``count``, ``gauge``,
  ``observe``, ``span``, ``begin``, ``instant``, ``labeled``) in
  library code. Each distinct label value is one more series, so a
  label built per car or per event grows a run's series with its
  length; labels come from fixed vocabularies or names.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..core import Checker, Finding, ModuleInfo, register
from ._ast_utils import call_name, dotted_name

#: The obs package — the one library location allowed to construct the
#: instrumentation classes (it defines them) and to import itself.
_OBS_PACKAGE = "src/repro/obs"

#: Classes library code may not construct directly: the hook must be
#: handed in, never minted where it is used.
_HOOK_CLASSES = {"Obs", "MetricsRegistry", "SpanTracer"}

#: Obs hook methods whose keyword arguments (``track`` aside) are
#: series or span labels.
_LABEL_METHODS = {"count", "gauge", "observe", "span", "begin", "instant", "labeled"}

#: Wall-clock reads the obs package may not even reference (the
#: determinism rule flags calls across all of src/; references could
#: still smuggle a clock in as a stored callable).
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


def _in_obs_package(module: ModuleInfo) -> bool:
    return module.rel_path.startswith(_OBS_PACKAGE)


def _formatted(node: ast.expr) -> bool:
    """An f-string with a placeholder, a ``%``-format of a string
    literal, or a ``.format`` call on one."""
    if isinstance(node, ast.JoinedStr):
        return any(isinstance(part, ast.FormattedValue) for part in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        return isinstance(node.left, ast.JoinedStr) or (
            isinstance(node.left, ast.Constant) and isinstance(node.left.value, str)
        )
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "format"
        and isinstance(node.func.value, ast.Constant)
        and isinstance(node.func.value.value, str)
    )


def _is_obs_receiver(node: ast.expr) -> bool:
    """``obs``, ``self.obs``, ``sobs``, ``self._station_obs[name]``: a
    receiver whose last name mentions ``obs``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    name = dotted_name(node)
    return name is not None and "obs" in name.rsplit(".", 1)[-1].lower()


def _label_values(call: ast.Call) -> Iterator[ast.expr]:
    """The arguments of ``call`` that become a series or span label: an
    ``EventScheduler.schedule`` kind, or an obs hook's label keywords."""
    func = call.func
    if not isinstance(func, ast.Attribute):
        return
    if func.attr == "schedule":
        if len(call.args) > 2:
            yield call.args[2]
        yield from (kw.value for kw in call.keywords if kw.arg == "kind")
    elif func.attr in _LABEL_METHODS and _is_obs_receiver(func.value):
        yield from (
            kw.value for kw in call.keywords if kw.arg not in (None, "track")
        )


@register
class ObsPolicyChecker(Checker):
    name = "obs-policy"
    description = (
        "library instrumentation must flow through the nullable obs= hook: "
        "no repro.obs imports or hook construction outside the obs package, "
        "no wall-clock references inside it, no formatted event kinds or "
        "obs labels"
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.in_library():
            return
        if _in_obs_package(module):
            yield from self._no_wall_clock_references(module)
        else:
            yield from self._no_obs_coupling(module)
        yield from self._no_formatted_labels(module)

    def _no_formatted_labels(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            for value in _label_values(node):
                if _formatted(value):
                    yield module.finding(
                        self.name,
                        value,
                        "formatted string used as an event kind or obs label "
                        "— every distinct value is one more series, so a "
                        "label built per car or per event grows with the run; "
                        "use a fixed vocabulary or a name",
                    )

    def _no_obs_coupling(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                target = node.module or ""
                if target == "repro.obs" or target.startswith("repro.obs."):
                    yield module.finding(
                        self.name,
                        node,
                        "library module imports `repro.obs` — the hook is "
                        "duck-typed and must arrive via an `obs=` parameter, "
                        "keeping instrumented code import-decoupled",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.obs" or alias.name.startswith(
                        "repro.obs."
                    ):
                        yield module.finding(
                            self.name,
                            node,
                            "library module imports `repro.obs` — the hook is "
                            "duck-typed and must arrive via an `obs=` "
                            "parameter, keeping instrumented code "
                            "import-decoupled",
                        )
            elif isinstance(node, ast.Call):
                name = call_name(node)
                if name is None:
                    continue
                leaf = name.rsplit(".", 1)[-1]
                if leaf in _HOOK_CLASSES:
                    yield module.finding(
                        self.name,
                        node,
                        f"library code constructs `{leaf}` — instrumentation "
                        "state belongs to the caller; accept a nullable "
                        "`obs=` hook instead of minting one",
                    )

    def _no_wall_clock_references(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            name = dotted_name(node)
            if name in _WALL_CLOCK:
                yield module.finding(
                    self.name,
                    node,
                    f"obs package references wall clock `{name}` — "
                    "recordings must derive from sim time and seeded state "
                    "only (profiling lives in benchmarks/ and tools/)",
                )
