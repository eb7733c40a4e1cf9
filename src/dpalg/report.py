"""Pass/fail records shared by the randomized checkers and the oracle."""

from dataclasses import dataclass, field


@dataclass
class CheckRecord:
    law: str
    passed: bool
    counterexample: str = ""

    def to_json(self):
        out = {"law": self.law, "status": "pass" if self.passed else "fail"}
        if self.counterexample:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class CheckReport:
    title: str
    records: list = field(default_factory=list)

    def record(self, law, passed, counterexample=""):
        self.records.append(CheckRecord(law, passed, counterexample))

    def check(self, law, lhs, rhs, context=""):
        """Record equality of two values under ``law``; keeps the first failure.

        ``context`` is a string or a zero-argument callable returning one; a
        callable is called only when the check fails, so a passing check
        builds no counterexample text.
        """
        if lhs == rhs:
            self.record(law, True)
        else:
            if callable(context):
                context = context()
            detail = f"{context}: {lhs} != {rhs}" if context else f"{lhs} != {rhs}"
            self.record(law, False, detail)

    def merge(self, other):
        self.records.extend(other.records)

    @property
    def passed(self):
        return all(r.passed for r in self.records)

    def failures(self):
        return [r for r in self.records if not r.passed]

    def condensed(self):
        """One record per law: pass iff every instance of the law passed."""
        seen = {}
        for r in self.records:
            if r.law not in seen:
                seen[r.law] = CheckRecord(r.law, r.passed, r.counterexample)
            elif not r.passed and seen[r.law].passed:
                seen[r.law] = CheckRecord(r.law, False, r.counterexample)
        return list(seen.values())

    def to_json(self):
        return {
            "title": self.title,
            "passed": self.passed,
            "checks": [r.to_json() for r in self.condensed()],
        }

    def summary(self):
        lines = [f"[{'ok' if self.passed else 'FAIL'}] {self.title}"]
        for r in self.condensed():
            mark = "ok" if r.passed else "FAIL"
            line = f"  [{mark}] {r.law}"
            if r.counterexample:
                line += f"  ({r.counterexample})"
            lines.append(line)
        return "\n".join(lines)
