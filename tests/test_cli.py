import json
import subprocess
import sys

import pytest

from dpalg import dpcore
from dpalg.coeff import Ring, ZZ
from dpalg.cli import omega_to_json, run
from dpalg.dpcore import DPElement, divided_powers, free_spec, gamma_gen, mono_mul
from dpalg.kahler import universal_derivation


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys):
    code, out, _ = invoke(capsys, "normalize", "--ring", "z", "--gens", "1", "--trunc", "8", "g2(x1)*g3(x1)")
    assert code == 0
    assert out.strip() == "10*g5(x1)"


def test_normalize_json_roundtrip(capsys):
    code, out, _ = invoke(capsys, "normalize", "--gens", "2", "--json", "g2(x1 + x2)")
    assert code == 0
    assert json.loads(out) == {
        "ring": "z",
        "trunc": 8,
        "terms": [
            {"coeff": "1", "monomial": [[1, 2]]},
            {"coeff": "1", "monomial": [[1, 1], [2, 1]]},
            {"coeff": "1", "monomial": [[2, 2]]},
        ],
    }


def test_gamma_command(capsys):
    code, out, _ = invoke(capsys, "gamma", "2", "--gens", "1", "g2(x1)")
    assert code == 0
    assert out.strip() == "3*g4(x1)"


def test_gamma_of_a_huge_index_is_zero_at_once(capsys):
    # gamma_n(x1) weighs n > N; no sequence of n divided powers is built.
    code, out, _ = invoke(capsys, "gamma", "1000000000000", "x1")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = invoke(capsys, "normalize", "--gens", "2", "g1000000000000(x1 + x2)")
    assert code == 0
    assert out.strip() == "0"


def test_gamma_of_a_long_one_term_sequence(capsys):
    # gamma_n of one term is one monomial, so each index is one product.
    code, out, _ = invoke(capsys, "gamma", "3000", "x1", "--trunc", "3000")
    assert code == 0
    assert out.strip() == "g3000(x1)"


def test_one_term_divided_powers_make_one_product_per_index(capsys, monkeypatch):
    # The README's O(n) promise for one term, counted rather than timed:
    # gamma_k = a gamma_{k-1} / k is one monomial product for each k >= 2.
    products = []
    monkeypatch.setattr(dpcore, "mono_mul", lambda a, b: products.append(1) or mono_mul(a, b))
    code, out, _ = invoke(capsys, "gamma", "8000", "x1", "--trunc", "8000")
    assert code == 0
    assert out.strip() == "g8000(x1)"
    assert len(products) == 7999
    spec = free_spec(Ring(4), 2, 40, weights=(1, 2))
    for term in (gamma_gen(spec, 1, 1), (gamma_gen(spec, 0, 2) * gamma_gen(spec, 1, 1)).scale(3)):
        for n in (1, 2, 7, 10):
            del products[:]
            assert len(divided_powers(n, DPElement(spec, dict(term.terms)))) == n
            assert len(products) == n - 1


def test_diff_command_matches_example(capsys):
    code, out, _ = invoke(capsys, "diff", "--ring", "z", "--gens", "1", "--trunc", "4", "g4(x1)")
    assert code == 0
    assert out.strip() == "g3(x1)*dx1 + g2(x1)*ph2*dx1 + x1*ph3*dx1 + ph2^2*dx1"


def test_diff_json(capsys):
    code, out, _ = invoke(capsys, "diff", "--gens", "1", "--trunc", "4", "--json", "g2(x1)")
    assert code == 0
    data = json.loads(out)
    assert {"coeff": "1", "monomial": [], "dx": 1, "phi": [2, 1], "aug_scalar": "1"} in data["terms"]
    assert {"coeff": "1", "monomial": [[1, 1]], "dx": 1, "phi": "unit", "aug_scalar": "0"} in data["terms"]


def test_parse_error_exit_code(capsys):
    code, out, err = invoke(capsys, "normalize", "g0(x1)")
    assert code == 2
    assert "offset" in err


def test_unknown_generator_exit_code(capsys):
    code, _, err = invoke(capsys, "normalize", "--gens", "1", "x2")
    assert code == 2
    assert "unknown generator" in err


def test_usage_error_exit_code(capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, diagnostic",
    [
        (["normalize", "--ring", "zmod=1", "x1"], "argument --ring: zmod modulus must be >= 2"),
        (["normalize", "--ring", "q", "x1"], "argument --ring: unknown ring 'q' (use z or zmod=M)"),
        (["normalize", "--ring", "zmod=x", "x1"], "argument --ring: invalid parse_ring value: 'zmod=x'"),
        (["gamma", "0", "x1"], "error: gamma index must be >= 1"),
        (
            ["normalize", "2*3"],
            "error: bare scalar 6: the algebra is non-unital, every term needs a generator",
        ),
    ],
    ids=["zmod=1", "unknown-ring", "zmod=x", "gamma-0", "bare-scalar"],
)
def test_malformed_input_exits_two(capsys, argv, diagnostic):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert diagnostic in err


def test_zero_scalar_product_is_zero(capsys):
    assert invoke(capsys, "normalize", "0*3") == (0, "0\n", "")


def test_weights_validation(capsys):
    code, _, err = invoke(capsys, "normalize", "--gens", "2", "--weights", "1", "x1")
    assert code == 2


def test_non_positive_gens_and_trunc_are_refused(capsys):
    for flag, value in (("--gens", "-1"), ("--gens", "0"), ("--trunc", "-1"), ("--trunc", "0")):
        code, out, err = invoke(capsys, "oracle-omega", flag, value)
        assert code == 2
        assert f"{flag}: must be >= 1, got {value}" in err
        assert "--weights lists" not in err
        assert out == ""


def test_oracle_omega_mod6(capsys):
    code, out, _ = invoke(
        capsys, "oracle-omega", "--ring", "zmod=6", "--gens", "1", "--trunc", "4", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(check["status"] == "pass" for check in data["checks"])


def test_check_suite_exit_codes(capsys):
    assert invoke(capsys, "check", "gcd")[0] == 0
    assert invoke(capsys, "check", "congruence")[0] == 0


def test_check_rejects_non_positive_samples(capsys):
    for samples in ("-1", "0"):
        code, out, err = invoke(capsys, "check", "axioms", "--samples", samples)
        assert code == 2
        assert "--samples: must be >= 1" in err
        assert "[ok]" not in out


def test_check_rejects_options_the_suite_does_not_take(capsys):
    for suite, flags in (
        ("axioms", ("--gens", "3", "--trunc", "4", "--ring", "zmod=7")),
        ("axioms", ("--ring", "zmod=7")),
        ("axioms", ("--weights", "1,2")),
        ("axioms", ("--gens", "2")),
        ("beck", ("--trunc", "4")),
        ("gcd", ("--samples", "5")),
        ("inversion", ("--seed", "3")),
        ("congruence", ("--gens", "2")),
        ("remark54", ("--gens", "3")),
        ("remark54", ("--trunc", "6")),
    ):
        code, out, err = invoke(capsys, "check", suite, *flags)
        assert code == 2, (suite, flags)
        assert "unrecognized arguments" in err or "does not take" in err
        assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("normalize", "x1"),
        ("gamma", "2", "x1"),
        ("diff", "x1"),
        ("omega-basis",),
        ("indec",),
        ("oracle-omega",),
    ],
    ids=lambda argv: argv[0],
)
def test_seed_is_refused_outside_check(capsys, argv):
    code, out, err = invoke(capsys, *argv, "--seed", "5")
    assert code == 2
    assert "unrecognized arguments: --seed" in err
    assert out == ""


def test_check_honours_suite_options(capsys):
    code, out, _ = invoke(capsys, "check", "inversion", "--trunc", "5", "--json")
    assert code == 0
    assert json.loads(out)["title"] == "phi inversion identity at N=5 over Z"
    code, _, err = invoke(capsys, "check", "inversion", "--trunc", "1")
    assert code == 2
    assert "--trunc: must be >= 2" in err


def test_deep_nesting_exits_two(capsys):
    for expr in ("g2(" * 1500 + "x1" + ")" * 1500, "(" * 3000 + "x1" + ")" * 3000):
        code, _, err = invoke(capsys, "normalize", expr)
        assert code == 2
        assert "nesting deeper" in err


def test_failing_report_exits_one(capsys):
    from dpalg.cli import _emit_report
    from dpalg.report import CheckReport

    failing = CheckReport("deliberate failure")
    failing.record("broken law", False, "witness")
    assert _emit_report(failing, as_json=False) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_check_inversion(capsys):
    code, out, _ = invoke(capsys, "check", "inversion", "--trunc", "12", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_deterministic_output(capsys):
    args = ("check", "beck", "--samples", "30", "--seed", "7", "--json")
    first = invoke(capsys, *args)
    second = invoke(capsys, *args)
    assert first == second


def test_omega_basis_text(capsys):
    code, out, _ = invoke(capsys, "omega-basis", "--gens", "1", "--trunc", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w=1: dx1 [free]"
    assert lines[1] == "w=2: x1*dx1 [free], ph2*dx1 [ann 2]"


def test_indec_text(capsys):
    code, out, _ = invoke(capsys, "indec", "--gens", "1", "--trunc", "6")
    assert code == 0
    assert "w=6: (nothing)" in out


def test_console_script_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "dpalg.cli"],
        input="",
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2  # no subcommand is a usage error


def test_omega_json_shape():
    spec = free_spec(ZZ, 1, 6)
    omega = universal_derivation(gamma_gen(spec, 0, 4))
    data = omega_to_json(omega)
    assert len(data["terms"]) == 4
    for term in data["terms"]:
        assert set(term) == {"coeff", "monomial", "dx", "phi", "aug_scalar"}
