"""``parallel-policy``: process parallelism stays in the sharding engine.

The library's determinism story depends on exactly one concurrency
model: ``repro.sim.city.parallel`` forks one shard per corridor edge
and merges their results canonically (worker-count invariance is
tested bit-for-bit). A second, ad-hoc pool elsewhere in ``src/`` —
a ``multiprocessing.Pool`` inside a DSP routine, a thread executor in a
simulator — would interleave RNG draws and float reductions in
scheduler-dependent order, silently breaking the reproducibility
contract the rest of the suite asserts.

This checker flags any ``import`` of the process/thread orchestration
modules (``multiprocessing``, ``concurrent.futures``, ``threading``) in
library code outside the sharding engine. Benches, examples, tools and
tests are free to parallelize however they like (they own their own
determinism trade-offs); library code routes scale-out through the one
audited engine.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..core import Checker, Finding, ModuleInfo, register

#: The one library module allowed to orchestrate processes.
_ENGINE = "src/repro/sim/city/parallel.py"

#: Orchestration modules whose import marks an ad-hoc parallelism site.
#: Matched on the root module name, so ``concurrent.futures`` and
#: ``from concurrent import futures`` are both caught via ``concurrent``.
_ORCHESTRATION_ROOTS = {"multiprocessing", "concurrent", "threading"}


@register
class ParallelPolicyChecker(Checker):
    name = "parallel-policy"
    description = (
        "process/thread orchestration imports belong to the sharded mesh "
        "engine (repro.sim.city.parallel) alone inside src/"
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.in_library() or module.rel_path == _ENGINE:
            return
        for node in ast.walk(module.tree):
            names: list[str] = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] if node.module else []
            for name in names:
                root = name.split(".")[0]
                if root in _ORCHESTRATION_ROOTS:
                    yield module.finding(
                        self.name,
                        node.lineno,
                        f"`{name}` imported outside the sharding engine — "
                        "library parallelism must go through "
                        "repro.sim.city.parallel (worker-count-invariant, "
                        "canonically merged); ad-hoc pools break the "
                        "determinism contract",
                    )
