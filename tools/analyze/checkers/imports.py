"""``unused-import``: imports a module never references.

``make analyze`` runs it on every check, so it covers machines where
``make lint`` finds no ruff. Rules:

* ``__init__.py`` files are skipped (imports there are re-exports);
* names listed in ``__all__`` are considered used;
* underscore-prefixed aliases (``import x as _``) are exempt;
* a bare ``import a.b`` counts usage of the root name ``a``;
* lines marked ``# noqa`` (bare, or with code F401) are skipped, in
  addition to the framework's ``# repro: allow[unused-import]`` pragma.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from ..core import Checker, Finding, ModuleInfo, register

_NOQA = re.compile(r"#\s*noqa(?::\s*[A-Z0-9, ]*F401[A-Z0-9, ]*)?\s*(?:\(|$)", re.I)


def _exported_names(tree: ast.Module) -> set[str]:
    """String entries of any top-level ``__all__`` literal."""
    names: set[str] = set()
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            continue
        for constant in ast.walk(node):
            if isinstance(constant, ast.Constant) and isinstance(constant.value, str):
                names.add(constant.value)
    return names


@register
class UnusedImportChecker(Checker):
    name = "unused-import"
    description = "imports the module never references (ruff F401 fallback)"

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if module.path.name == "__init__.py":
            return
        tree = module.tree
        exports = _exported_names(tree)
        lines = module.lines

        def suppressed(node: ast.stmt) -> bool:
            for lineno in range(node.lineno, (node.end_lineno or node.lineno) + 1):
                if _NOQA.search(lines[lineno - 1]):
                    return True
            return False

        imported: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and suppressed(node):
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    name = alias.asname or alias.name
                    imported.setdefault(name, node.lineno)

        used: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                root = node
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name):
                    used.add(root.id)

        for name, line in sorted(imported.items(), key=lambda kv: kv[1]):
            if name in used or name in exports or name.startswith("_"):
                continue
            yield Finding(
                rule=self.name,
                path=module.rel_path,
                line=line,
                message=f"unused import '{name}'",
            )
