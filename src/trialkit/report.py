"""Deterministic check reports for the command-line certifier.

A report is one `Certificate`: a flat list of named checks with pass/fail
status and, for a failed check, a witness string.  Rendering is stable:
identical inputs give byte-identical text or JSON (fixed ordering, no
timestamps).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .triality import Certificate


@dataclass
class CertificationReport:
    algebra_id: str
    suite: str
    checks: Certificate = field(default_factory=Certificate)

    @property
    def summary(self) -> dict:
        total = len(self.checks.records)
        passed = sum(ok for _, ok, _ in self.checks.records)
        return {"total": total, "passed": passed, "failed": total - passed}

    def to_text(self) -> str:
        lines = [f"certification report: {self.algebra_id}",
                 f"suite: {self.suite}"]
        for check_id, ok, witness in self.checks.records:
            line = f"  [{'PASS' if ok else 'FAIL'}] {check_id}"
            if witness:
                line += f"  witness: {witness}"
            lines.append(line)
        s = self.summary
        lines.append(f"summary: {s['total']} checks, {s['passed']} passed, {s['failed']} failed")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "algebra": self.algebra_id,
            "suite": self.suite,
            "checks": [{"id": check_id, "status": "pass" if ok else "fail", "witness": witness}
                       for check_id, ok, witness in self.checks.records],
            "summary": self.summary,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        return self.to_text()
