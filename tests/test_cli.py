import json
import random
import subprocess
import sys

from dpalg.coeff import Ring, ZZ
from dpalg.cli import element_from_json, element_to_json, omega_to_json, run
from dpalg.dpcore import free_spec, gamma_gen, random_element
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
    data = json.loads(out)
    assert data["ring"] == "z" and data["trunc"] == 8
    spec = free_spec(ZZ, 2, 8)
    from dpalg.parser import parse_and_evaluate

    assert element_from_json(data, spec) == parse_and_evaluate("g2(x1 + x2)", spec)


def test_gamma_command(capsys):
    code, out, _ = invoke(capsys, "gamma", "2", "--gens", "1", "g2(x1)")
    assert code == 0
    assert out.strip() == "3*g4(x1)"


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


def test_weights_validation(capsys):
    code, _, err = invoke(capsys, "normalize", "--gens", "2", "--weights", "1", "x1")
    assert code == 2


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


def test_element_json_roundtrip_random():
    rng = random.Random(3)
    for ring in (ZZ, Ring(6)):
        spec = free_spec(ring, 2, 6)
        for _ in range(50):
            el = random_element(spec, rng, max_terms=3)
            assert element_from_json(element_to_json(el), spec) == el


def test_omega_json_shape():
    spec = free_spec(ZZ, 1, 6)
    omega = universal_derivation(gamma_gen(spec, 0, 4))
    data = omega_to_json(omega)
    assert len(data["terms"]) == 4
    for term in data["terms"]:
        assert set(term) == {"coeff", "monomial", "dx", "phi", "aug_scalar"}
