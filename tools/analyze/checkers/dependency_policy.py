"""``dependency-policy``: the library imports numpy and the stdlib only.

The runtime dependency is numpy (README "Install"), and every process
that imports ``repro`` — each forked shard worker included — pays for
what the library loads. One convenience import of a heavy package can
outweigh the whole simulator: the library once called SciPy for a
band-pass baseline and a conic root that no city workload runs, and
those two imports loaded 530 modules, about 76 MB of resident memory
per process, and kept a checkout installed with numpy alone from
importing the package.

This checker flags any ``import`` or ``from ... import`` in library code,
at module level or inside a function, whose root module is not
``numpy``, a standard-library module (``sys.stdlib_module_names``) or
``repro`` itself; relative imports stay inside the package. Benches,
examples, tools and tests may import whatever their job needs (SciPy
serves the tests as an oracle).
"""

from __future__ import annotations

import ast
import sys
from typing import Iterable

from ..core import Checker, Finding, ModuleInfo, register

#: Root modules library code may import besides the standard library.
_ALLOWED_ROOTS = frozenset({"numpy", "repro"})


@register
class DependencyPolicyChecker(Checker):
    name = "dependency-policy"
    description = (
        "library imports (module level or inside a function) name numpy, "
        "the standard library or repro only"
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.in_library():
            return
        for node in ast.walk(module.tree):
            names: list[str] = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] if node.module else []
            for name in names:
                root = name.split(".")[0]
                if root in _ALLOWED_ROOTS or root in sys.stdlib_module_names:
                    continue
                yield module.finding(
                    self.name,
                    node.lineno,
                    f"`{name}` imported in library code — the runtime "
                    "dependency is numpy; use numpy or the standard "
                    "library (tests and benches may import it)",
                )
