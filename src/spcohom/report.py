"""Verification reports: per-check records with a stable JSON form.

A record is the four fields it prints: id, anchor, pass and detail.  A
check that a cap skips is an ordinary passing record whose detail begins
with "skipped": true, built where the skip is decided.  Records carry no
timings, so repeated runs with the same configuration produce
byte-identical output.
"""

from typing import Any, Optional


class CheckRecord:
    __slots__ = ("check_id", "anchor", "passed", "detail")

    def __init__(self, check_id: str, anchor: str, passed: bool, detail: Any = None):
        self.check_id = check_id
        self.anchor = anchor
        self.passed = passed
        self.detail = detail

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "anchor": self.anchor,
            "pass": self.passed,
            "detail": self.detail,
        }


class VerificationReport:
    __slots__ = ("rank", "records", "data")

    def __init__(self, rank: int, data: Optional[dict] = None):
        self.rank = rank
        self.records: list[CheckRecord] = []
        self.data = {} if data is None else data

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(self, check_id: str, anchor: str, passed: bool, detail: Any = None) -> CheckRecord:
        rec = CheckRecord(check_id, anchor, passed, detail)
        self.records.append(rec)
        return rec

    def extend(self, other: "VerificationReport", prefix: Optional[str] = None) -> None:
        """Merge another report into this one (associative: record order is
        concatenation order, data keys are namespaced by the prefix)."""
        for rec in other.records:
            check_id = rec.check_id if prefix is None else f"{prefix}.{rec.check_id}"
            self.add(check_id, rec.anchor, rec.passed, rec.detail)
        for key, value in other.data.items():
            self.data[key if prefix is None else f"{prefix}.{key}"] = value

    def checks_json(self) -> list[dict]:
        return [r.to_json() for r in self.records]
