"""The unit of output every checker layer produces: a :class:`Finding`."""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from pathlib import Path


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail the build; ``WARNING`` findings are reported
    but do not affect the exit code (for heuristics that can
    legitimately fire on correct code; no shipped rule reports one).
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: Path
    line: int
    message: str
    severity: Severity = Severity.ERROR
    source: str = field(default="", compare=False)

    @property
    def fingerprint(self) -> str:
        """Stable short ID for this finding.

        Hashes the rule, the file *name* (not the absolute path, so the
        ID survives a checkout move) and the first line of the message
        (not the line number, so it survives unrelated edits above the
        finding).  CI can track, baseline, or waive findings by ID.
        """
        first_line = self.message.splitlines()[0] if self.message else ""
        key = f"{self.rule_id}|{self.path.name}|{first_line}"
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:10]

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by ``repro check --json``)."""
        return {
            "id": self.fingerprint,
            "rule": self.rule_id,
            "path": str(self.path),
            "line": self.line,
            "severity": self.severity.value,
            "message": self.message,
        }

    def format(self) -> str:
        """One-line human-readable form, editor-clickable."""
        return (f"{self.path}:{self.line}: "
                f"{self.severity.value} [{self.rule_id}] {self.message} "
                f"(id {self.fingerprint})")
