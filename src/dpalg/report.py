"""Pass/fail records shared by the randomized checkers and the oracle."""

from .record import Record


class CheckRecord(Record):
    """One check of ``law``: whether it passed and, if not, a counterexample.
    A mutable slotted record."""

    __slots__ = _fields = ("law", "passed", "counterexample")

    def __init__(self, law, passed, counterexample=""):
        self.law = law
        self.passed = passed
        self.counterexample = counterexample

    def to_json(self):
        out = {"law": self.law, "status": "pass" if self.passed else "fail"}
        if self.counterexample:
            out["counterexample"] = self.counterexample
        return out


class CheckReport(Record):
    """The records of the checks made under ``title``, in order; a fresh
    list unless ``records`` is given.  A mutable slotted record."""

    __slots__ = _fields = ("title", "records")

    def __init__(self, title, records=None):
        self.title = title
        self.records = [] if records is None else records

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
