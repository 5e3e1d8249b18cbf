"""The AST lint engine: file walking, rule dispatch, suppressions.

A :class:`Rule` visits one module's AST and yields :class:`Finding`
objects.  The engine parses each file once, fans the tree out to every
rule, and filters the results through ``# repro: allow[rule-id]``
suppression comments (on the flagged line or the line directly above).
"""

from __future__ import annotations

import ast
import re
import time
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .findings import Finding, Severity

__all__ = ["Rule", "LintEngine", "iter_python_files", "dotted_name",
           "allowed_rules", "is_suppressed", "RULE_GROUPS",
           "SUPPRESS_PATTERN"]

#: ``# repro: allow[rule-id]`` (several ids comma-separated, ``*`` for all).
SUPPRESS_PATTERN = re.compile(
    r"#\s*repro:\s*allow\[([A-Za-z0-9_\-*,\s]+)\]")

#: Group aliases for suppression comments: ``allow[group]`` covers every
#: rule id starting with one of the listed prefixes.
RULE_GROUPS: dict[str, tuple[str, ...]] = {
    "units": ("unit-",),
    "aliasing": ("view-escape", "hidden-copy", "pool-leak"),
    "effects": ("effect-",),
}

#: Directories never descended into (caches, checker test fixtures).
#: The ``fixtures`` entry keeps broad walks (e.g. the nightly sweep over
#: ``tests/``) out of the intentionally-buggy mutation fixtures; it only
#: applies *below* the requested root, so pointing a pass directly at a
#: fixture directory (as the fixture tests do) still audits it.
_SKIP_DIR_NAMES = {"__pycache__", ".git", ".pytest_cache", "fixtures"}


def dotted_name(node: ast.AST) -> Optional[str]:
    """Dotted text of a Name/Attribute chain (``a.b.c``), else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`summaries` (every rule id the rule reports ->
    its one-line summary) and implement :meth:`check`, yielding
    findings.  ``exempt_suffixes`` names path suffixes (POSIX style)
    where the rule never applies — e.g. the RNG containment rule exempts
    ``des/random_streams.py`` itself.
    """

    summaries: dict[str, str] = {}
    severity: Severity = Severity.ERROR
    exempt_suffixes: tuple[str, ...] = ()

    def applies_to(self, path: Path) -> bool:
        """False when ``path`` is exempt from this rule."""
        posix = path.as_posix()
        return not any(posix.endswith(suffix)
                       for suffix in self.exempt_suffixes)

    def check(self, tree: ast.Module, path: Path) -> Iterator[Finding]:
        """Yield findings for one parsed module."""
        raise NotImplementedError

    def finding(self, path: Path, node: ast.AST, message: str,
                rule_id: Optional[str] = None) -> Finding:
        """Convenience constructor anchored at ``node``; ``rule_id``
        defaults to the rule's first id."""
        return Finding(
            rule_id=rule_id or next(iter(self.summaries)),
            path=path,
            line=getattr(node, "lineno", 1),
            message=message,
            severity=self.severity,
        )


def iter_python_files(root: Path) -> Iterator[Path]:
    """Every ``.py`` file under ``root`` (a file path is yielded as-is)."""
    root = Path(root)
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        below_root = path.relative_to(root).parts[:-1]
        if not any(part in _SKIP_DIR_NAMES for part in below_root):
            yield path


def allowed_rules(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids allowed on that line.

    A trailing ``allow`` comment covers only its own line; a standalone
    comment line (nothing but the comment) covers the line below it, so
    a suppression can sit above the statement without silencing an
    unrelated neighbour.
    """
    allowed: dict[int, set[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = SUPPRESS_PATTERN.search(text)
        if not match:
            continue
        ids = {piece.strip() for piece in match.group(1).split(",")}
        ids.discard("")
        standalone = text.lstrip().startswith("#")
        covered = (number, number + 1) if standalone else (number,)
        for line in covered:
            allowed.setdefault(line, set()).update(ids)
    return allowed


def is_suppressed(finding: Finding, allowed: dict[int, set[str]]) -> bool:
    """True when an allow comment in ``allowed`` (see :func:`allowed_rules`)
    covers ``finding``: its id, ``*``, or its :data:`RULE_GROUPS` group."""
    granted = allowed.get(finding.line, ())
    return (finding.rule_id in granted or "*" in granted
            or any(group in granted and finding.rule_id.startswith(prefixes)
                   for group, prefixes in RULE_GROUPS.items()))


class LintEngine:
    """Parses each file once and runs every rule over it.

    ``seconds`` accumulates the time each rule spends in :meth:`Rule.check`,
    so one walk can still report a cost per pass.
    """

    def __init__(self, rules: Sequence[Rule]):
        self.rules: list[Rule] = list(rules)
        self.seconds: dict[Rule, float] = {rule: 0.0 for rule in self.rules}

    def check_file(self, path: Path) -> list[Finding]:
        """All findings in one file (empty on syntax errors is *not* an
        option: an unparseable file is itself reported)."""
        path = Path(path)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return [Finding(
                rule_id="syntax-error",
                path=path,
                line=exc.lineno or 1,
                message=f"file does not parse: {exc.msg}",
            )]
        allowed = allowed_rules(source)
        findings = []
        for rule in self.rules:
            if not rule.applies_to(path):
                continue
            start = time.perf_counter()  # repro: allow[wall-clock]
            findings.extend(finding for finding in rule.check(tree, path)
                            if not is_suppressed(finding, allowed))
            elapsed = time.perf_counter() - start  # repro: allow[wall-clock]
            self.seconds[rule] += elapsed
        return findings
