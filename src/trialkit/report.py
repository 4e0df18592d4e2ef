"""Deterministic check reports for the command-line certifier.

A report is a flat list of named checks with pass/fail status and an
optional witness string.  Rendering is stable: identical inputs give
byte-identical text or JSON (fixed ordering, no timestamps).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    witness: Optional[str] = None


@dataclass
class CertificationReport:
    algebra_id: str
    suite: str
    checks: List[CheckResult] = field(default_factory=list)

    def add(self, check_id: str, passed: bool, witness=None) -> None:
        text = None
        if not passed and witness is not None:
            text = witness if isinstance(witness, str) else repr(witness)
        self.checks.append(CheckResult(check_id, passed, text))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def counts(self) -> tuple:
        passed = sum(1 for c in self.checks if c.passed)
        return len(self.checks), passed, len(self.checks) - passed

    def to_text(self) -> str:
        lines = [f"certification report: {self.algebra_id}",
                 f"suite: {self.suite}"]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"  [{mark}] {c.check_id}"
            if c.witness:
                line += f"  witness: {c.witness}"
            lines.append(line)
        total, passed, failed = self.counts
        lines.append(f"summary: {total} checks, {passed} passed, {failed} failed")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        total, passed, failed = self.counts
        payload = {
            "algebra": self.algebra_id,
            "suite": self.suite,
            "checks": [
                {"id": c.check_id, "status": "pass" if c.passed else "fail",
                 "witness": c.witness}
                for c in self.checks
            ],
            "summary": {"total": total, "passed": passed, "failed": failed},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        return self.to_text()
