from dpalg.report import CheckReport


def _never():
    raise AssertionError("a passing check formatted its context")


def test_callable_context_is_not_called_on_a_pass():
    report = CheckReport("lazy")
    report.check("law", (1, 2), (1, 2), _never)
    report.check("law", 3, 3, context=_never)
    assert report.passed
    assert [r.counterexample for r in report.records] == ["", ""]


def test_callable_context_is_called_once_on_a_failure():
    calls = []

    def context():
        calls.append(1)
        return "a=x1, n=2"

    lazy, eager = CheckReport("lazy"), CheckReport("eager")
    lazy.check("law", (1, 0), (0, 1), context)
    eager.check("law", (1, 0), (0, 1), "a=x1, n=2")
    assert calls == [1]
    assert lazy.records == eager.records
    assert lazy.records[0].counterexample == "a=x1, n=2: (1, 0) != (0, 1)"


def test_string_contexts():
    report = CheckReport("eager")
    report.check("law", 1, 1, "unused")
    report.check("law", 1, 2, "n=3")
    report.check("law", 1, 2)
    assert [(r.passed, r.counterexample) for r in report.records] == [
        (True, ""),
        (False, "n=3: 1 != 2"),
        (False, "1 != 2"),
    ]


def test_condensed_reports_a_later_failure():
    report = CheckReport("laws")
    report.check("law", 1, 1, "first")
    report.check("other", 2, 2)
    report.check("law", 1, 2, "second")
    report.check("law", 3, 4, "third")
    assert [(r.law, r.passed, r.counterexample) for r in report.condensed()] == [
        ("law", False, "second: 1 != 2"),
        ("other", True, ""),
    ]
    assert "[FAIL] law  (second: 1 != 2)" in report.summary()


def test_to_json_carries_the_counterexample():
    report = CheckReport("laws")
    report.check("law", 1, 1)
    report.check("law", 1, 2, "n=3")
    report.check("other", 2, 2)
    assert report.to_json() == {
        "title": "laws",
        "passed": False,
        "checks": [
            {"law": "law", "status": "fail", "counterexample": "n=3: 1 != 2"},
            {"law": "other", "status": "pass"},
        ],
    }
