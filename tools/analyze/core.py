"""Framework plumbing: findings, checker registry, pragmas, baseline, runner.

A checker is a class with a ``name``, a ``description``, and a
``check(module)`` method yielding :class:`Finding`s. Checkers register
themselves with the :func:`register` decorator; the CLI discovers them
through the registry, so adding a rule is one new module under
``tools/analyze/checkers/`` plus an import in that package's
``__init__``.

Suppression happens at two layers:

* **Pragmas** — ``# repro: allow[rule]`` (or ``allow[rule-a,rule-b]``)
  on the offending line, or on a comment-only line immediately above
  it, silences those rules for that line. Anything after the closing
  bracket is the human justification and is encouraged.
* **Baseline** — ``tools/analyze/baseline.json`` holds grandfathered
  findings keyed by ``(rule, path, message)`` (line numbers are
  deliberately excluded so unrelated edits don't churn the file).
  Baselined findings are reported as such but don't fail the run;
  ``--update-baseline`` rewrites the file from the current findings.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"

#: Directories analyzed when the CLI gets no explicit paths. ``tools``
#: rides along so the analyzer keeps itself honest.
DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples", "tools")

_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([a-z0-9_,\s-]+)\]", re.I)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific site."""

    rule: str
    path: str  # repo-relative, posix separators
    line: int
    message: str

    def key(self) -> tuple[str, str, str]:
        """Baseline identity: stable across line-number drift."""
        return (self.rule, self.path, self.message)

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


class ModuleInfo:
    """One parsed source file plus the pragma map checkers consult."""

    def __init__(self, path: Path, rel_path: str, source: str):
        self.path = path
        self.rel_path = rel_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=rel_path)
        self._allow: dict[int, set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _PRAGMA.search(line)
            if not match:
                continue
            rules = {r.strip().lower() for r in match.group(1).split(",") if r.strip()}
            self._allow.setdefault(lineno, set()).update(rules)
            # A comment-only pragma line covers the next line of code.
            if line.split("#", 1)[0].strip() == "":
                self._allow.setdefault(lineno + 1, set()).update(rules)

    def allowed(self, line: int, rule: str) -> bool:
        rules = self._allow.get(line)
        return bool(rules) and (rule in rules or "*" in rules)

    def in_library(self) -> bool:
        """Whether this file is library code (``src/repro``)."""
        return self.rel_path.startswith("src/")

    def finding(self, rule: str, node_or_line, message: str) -> Finding:
        line = getattr(node_or_line, "lineno", node_or_line)
        return Finding(rule=rule, path=self.rel_path, line=int(line), message=message)


class Checker:
    """Base class: subclass, set ``name``/``description``, implement ``check``."""

    name: str = ""
    description: str = ""

    def check(self, module: ModuleInfo) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError


_REGISTRY: dict[str, Checker] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker instance to the registry."""
    if not cls.name:
        raise ValueError(f"checker {cls.__name__} has no name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate checker name {cls.name!r}")
    _REGISTRY[cls.name] = cls()
    return cls


def all_checkers() -> dict[str, Checker]:
    return dict(_REGISTRY)


def get_checker(name: str) -> Checker:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown rule {name!r} (known: {known})") from None


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            yield path
        elif path.is_dir():
            yield from sorted(path.rglob("*.py"))


def load_baseline(path: Path = DEFAULT_BASELINE) -> set[tuple[str, str, str]]:
    if not path.exists():
        return set()
    data = json.loads(path.read_text())
    return {
        (entry["rule"], entry["path"], entry["message"])
        for entry in data.get("findings", [])
    }


def write_baseline(findings: list[Finding], path: Path = DEFAULT_BASELINE) -> None:
    entries = [
        {"rule": rule, "path": rel_path, "message": message}
        for rule, rel_path, message in sorted(
            {f.key() for f in findings}, key=lambda k: (k[1], k[0], k[2])
        )
    ]
    payload = {
        "comment": (
            "Grandfathered repro-analyze findings. Entries are keyed by "
            "(rule, path, message) so line drift does not churn this file. "
            "Shrink it when you can; `python -m tools.analyze --update-baseline` "
            "rewrites it from the current tree."
        ),
        "findings": entries,
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    )


@dataclass
class AnalysisReport:
    """Everything one run produced, split by baseline status."""

    new: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def all_findings(self) -> list[Finding]:
        return self.new + self.baselined

    def to_json(self) -> dict:
        counts: dict[str, int] = {}
        for finding in self.new:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {
            "files_checked": self.files_checked,
            "parse_errors": self.parse_errors,
            "counts_by_rule": counts,
            "findings": [f.to_json() for f in sorted(self.new, key=Finding.key)],
            "baselined": [f.to_json() for f in sorted(self.baselined, key=Finding.key)],
        }


def run_analysis(
    paths: Iterable[Path],
    rules: Iterable[str] | None = None,
    baseline: set[tuple[str, str, str]] | None = None,
    *,
    on_module: Callable[[ModuleInfo], None] | None = None,
) -> AnalysisReport:
    """Run the selected checkers over every ``.py`` file under ``paths``."""
    checkers = (
        list(all_checkers().values())
        if rules is None
        else [get_checker(name) for name in rules]
    )
    baseline = baseline or set()
    report = AnalysisReport()
    for file_path in iter_python_files(paths):
        try:
            rel = file_path.resolve().relative_to(REPO_ROOT).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        try:
            module = ModuleInfo(file_path, rel, file_path.read_text())
        except (SyntaxError, UnicodeDecodeError) as exc:
            report.parse_errors.append(f"{rel}: {exc}")
            continue
        report.files_checked += 1
        if on_module is not None:
            on_module(module)
        for checker in checkers:
            for finding in checker.check(module):
                if module.allowed(finding.line, finding.rule):
                    continue
                if finding.key() in baseline:
                    report.baselined.append(finding)
                else:
                    report.new.append(finding)
    report.new.sort(key=lambda f: (f.path, f.line, f.rule))
    report.baselined.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
