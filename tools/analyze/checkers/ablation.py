"""``ablation-api``: ablation knobs must be documented.

The evaluation rests on ablation switches whose string values are
golden-pinned bit-for-bit (``combining="mrc"|"single"``,
``opportunistic="accept"|"ignore"``, ``scheduling="event"|"rounds"``,
``handoff`` policies). A public callable or dataclass exposing one of
these knobs without documenting the allowed values invites silent
misconfiguration — a typo'd policy string that falls through to a
default changes published numbers without an error. The rule: every
public function/method/dataclass in ``src/`` exposing an ablation
parameter must have a docstring that names the parameter and quotes at
least one allowed value (``"mrc"``-style).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from ..core import Checker, Finding, ModuleInfo, register

ABLATION_PARAMS = ("combining", "opportunistic", "scheduling", "handoff")

#: A double-quoted policy value somewhere in the docstring, e.g. ``"mrc"``.
_QUOTED_VALUE = re.compile(r'"[A-Za-z][A-Za-z0-9_|/-]*"')


def _documents(docstring: str | None, param: str) -> bool:
    if not docstring:
        return False
    if param not in docstring:
        return False
    return bool(_QUOTED_VALUE.search(docstring))


@register
class AblationApiChecker(Checker):
    name = "ablation-api"
    description = (
        "public ablation knobs (combining/opportunistic/scheduling/handoff) "
        "must document allowed values"
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if module.in_library():
            yield from self._documented_knobs(module)

    def _documented_knobs(self, module: ModuleInfo) -> Iterator[Finding]:
        def visit(node: ast.AST, cls: ast.ClassDef | None) -> Iterator[Finding]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from self._check_function(module, child, cls)
                    yield from visit(child, None)
                elif isinstance(child, ast.ClassDef):
                    yield from self._check_dataclass_fields(module, child)
                    yield from visit(child, child)
                else:
                    yield from visit(child, cls)

        yield from visit(module.tree, None)

    def _check_function(self, module, func, cls) -> Iterator[Finding]:
        public_method = not func.name.startswith("_") or func.name == "__init__"
        if not public_method or (cls is not None and cls.name.startswith("_")):
            return
        params = {a.arg for a in func.args.args + func.args.kwonlyargs}
        exposed = [p for p in ABLATION_PARAMS if p in params]
        if not exposed:
            return
        docs = [ast.get_docstring(func)]
        if func.name == "__init__" and cls is not None:
            # Dataclass-style classes document constructor knobs on the class.
            docs.append(ast.get_docstring(cls))
        owner = func.name if cls is None else f"{cls.name}.{func.name}"
        for param in exposed:
            if not any(_documents(doc, param) for doc in docs):
                yield module.finding(
                    self.name,
                    func,
                    f"`{owner}` exposes ablation knob `{param}` without "
                    'documenting its allowed values (quote them, e.g. "mrc")',
                )

    def _check_dataclass_fields(self, module, cls) -> Iterator[Finding]:
        if cls.name.startswith("_"):
            return
        doc = ast.get_docstring(cls)
        for stmt in cls.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            param = stmt.target.id
            if param in ABLATION_PARAMS and not _documents(doc, param):
                yield module.finding(
                    self.name,
                    stmt,
                    f"`{cls.name}` exposes ablation field `{param}` without "
                    'documenting its allowed values (quote them, e.g. "mrc")',
                )
