"""Verification reports: per-check records with a stable JSON form.

Records carry no timings, so repeated runs with the same configuration
produce byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class CheckRecord:
    check_id: str
    anchor: str
    passed: bool
    detail: Any = None
    skipped: bool = False

    def to_json(self) -> dict:
        out = {"id": self.check_id, "anchor": self.anchor, "pass": self.passed}
        detail = self.detail
        if self.skipped:
            detail = {"skipped": True, **(detail or {})}
        out["detail"] = detail
        return out


@dataclass
class VerificationReport:
    rank: int
    records: list[CheckRecord] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(
        self,
        check_id: str,
        anchor: str,
        passed: bool,
        detail: Any = None,
        skipped: bool = False,
    ) -> CheckRecord:
        rec = CheckRecord(check_id, anchor, passed, detail, skipped)
        self.records.append(rec)
        return rec

    def extend(self, other: "VerificationReport", prefix: Optional[str] = None) -> None:
        """Merge another report into this one (associative: record order is
        concatenation order, data keys are namespaced by the prefix)."""
        for rec in other.records:
            rec2 = CheckRecord(
                rec.check_id if prefix is None else f"{prefix}.{rec.check_id}",
                rec.anchor,
                rec.passed,
                rec.detail,
                rec.skipped,
            )
            self.records.append(rec2)
        for key, value in other.data.items():
            self.data[key if prefix is None else f"{prefix}.{key}"] = value

    def checks_json(self) -> list[dict]:
        return [r.to_json() for r in self.records]
