"""Command-line front end.

Subcommands: normalize, gamma, diff, omega-basis, indec, oracle-omega, check.
Exit codes: 0 success/verified, 1 check failure, 2 usage or parse error.

With --json, algebra elements are printed in the schema below.  It is output
only: the CLI reads expressions, never JSON.  Generator indices are 1-based
and coefficients are decimal strings, to keep arbitrary precision intact:

    {"ring": "z" | {"zmod": M}, "trunc": N,
     "terms": [{"coeff": "-10", "monomial": [[i, e], ...]}, ...]}

Differential elements use the same term shape plus {"dx": i,
"phi": "unit" | [p, e], "aug_scalar": "digits"}; the A_+ unit component of a
coefficient is the term with empty "monomial" and aug_scalar = coeff.
"""

import argparse
import sys
from functools import cache

from .coeff import Ring, ZZ
from .dpcore import AlgebraSpec, divided_power
from .envelope import UNIT
from .kahler import indecomposables, omega_free_basis, universal_derivation
from .oracle import verify_indecomposables, verify_main_theorem
from .parser import EvalError, ParseError, parse_and_evaluate
from .suites import SUITES

USAGE_ERROR = 2
CHECK_FAILURE = 1


def ring_to_json(ring):
    return "z" if ring.modulus == 0 else {"zmod": ring.modulus}


def element_to_json(element):
    spec = element.spec
    terms = [
        {"coeff": str(c), "monomial": [[gen + 1, e] for gen, e in mono]}
        for mono, c in element.sorted_terms()
    ]
    return {"ring": ring_to_json(spec.ring), "trunc": spec.truncation, "terms": terms}


def omega_to_json(element):
    terms = [
        {
            "coeff": str(c),
            "monomial": [] if amono is None else [[g + 1, e] for g, e in amono],
            "dx": label[0][0] + 1,
            "phi": _phi_to_json(phi),
            "aug_scalar": str(c) if amono is None else "0",
        }
        for (label, phi, amono), c in element.sorted_terms()
    ]
    return {"ring": ring_to_json(element.spec.ring), "trunc": element.spec.truncation, "terms": terms}


def _phi_to_json(phi):
    return "unit" if phi == UNIT else [phi[0], phi[1]]


def parse_ring(text):
    if text == "z":
        return ZZ
    if text.startswith("zmod="):
        modulus = int(text.removeprefix("zmod="))
        if modulus < 2:
            raise argparse.ArgumentTypeError("zmod modulus must be >= 2")
        return Ring(modulus)
    raise argparse.ArgumentTypeError(f"unknown ring {text!r} (use z or zmod=M)")


def parse_weights(text):
    return tuple(int(part) for part in text.split(","))


def at_least(bound):
    """Argument type: an int no smaller than ``bound``."""

    def parse(text):
        value = int(text)
        if value < bound:
            raise argparse.ArgumentTypeError(f"must be >= {bound}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


# The flags each property suite takes, mapped to its keyword arguments.  A
# suite fixes everything else itself, so any other flag is refused rather
# than silently ignored.
SUITE_FLAGS = {
    "axioms": {"samples": "samples", "seed": "seed"},
    "beck": {"samples": "samples", "seed": "seed"},
    "inversion": {"trunc": "truncation"},
}


@cache
def build_parser():
    """The ``dpalg`` parser, built on first use and shared by every ``run``."""
    parser = argparse.ArgumentParser(
        prog="dpalg",
        description="exact computations in weight-truncated free divided power algebras",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="emit JSON")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument("--ring", type=parse_ring, default=ZZ, help="z or zmod=M")
    common.add_argument("--gens", type=at_least(1), default=1, help="number of generators")
    common.add_argument("--weights", type=parse_weights, default=None, help="w1,w2,...")
    common.add_argument("--trunc", type=at_least(1), default=8, help="weight truncation N")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("normalize", parents=[common], help="print the canonical form")
    p.add_argument("expr")
    p = sub.add_parser("gamma", parents=[common], help="apply the divided power gamma_N")
    p.add_argument("n", type=int)
    p.add_argument("expr")
    p = sub.add_parser("diff", parents=[common], help="universal derivation of an expression")
    p.add_argument("expr")
    sub.add_parser("omega-basis", parents=[common], help="closed-form basis of the differentials")
    sub.add_parser("indec", parents=[common], help="closed-form indecomposables A/A^2")
    sub.add_parser(
        "oracle-omega",
        parents=[common],
        help="verify the closed forms against the I/I^2 oracle",
    )
    # The suites fix their own rings and weights; see SUITE_FLAGS for which
    # suite takes which of the flags below.
    p = sub.add_parser("check", parents=[output], help="run a named property suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--samples", type=at_least(1), help="samples per configuration")
    p.add_argument("--seed", type=int, help="seed for randomized checks")
    p.add_argument("--trunc", type=at_least(2), help="weight truncation N")
    return parser


def build_spec(args):
    weights = args.weights if args.weights is not None else (1,) * args.gens
    if len(weights) != args.gens:
        raise ValueError(f"--weights lists {len(weights)} entries for {args.gens} generators")
    return AlgebraSpec(args.ring, weights, args.trunc)


def _print_json(payload):
    import json  # only --json output needs it, so other commands skip its import

    print(json.dumps(payload, indent=2))


def _emit_report(report, as_json):
    if as_json:
        _print_json(report.to_json())
    else:
        print(report.summary())
    return 0 if report.passed else CHECK_FAILURE


def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0

    try:
        if args.command in ("normalize", "gamma", "diff"):
            spec = build_spec(args)
            element = parse_and_evaluate(args.expr, spec)
            if args.command == "gamma":
                if args.n < 1:
                    raise EvalError("gamma index must be >= 1")
                element = divided_power(args.n, element)
            if args.command == "diff":
                element = universal_derivation(element)
            if args.json:
                _print_json((omega_to_json if args.command == "diff" else element_to_json)(element))
            else:
                print(element)
            return 0

        if args.command == "omega-basis":
            spec = build_spec(args)
            slices = omega_free_basis(spec)
            if args.json:
                payload = {
                    "ring": ring_to_json(spec.ring),
                    "trunc": spec.truncation,
                    "weights": {
                        str(w): [
                            {
                                "dx": e.label[0][0] + 1,
                                "phi": _phi_to_json(e.phi),
                                "monomial": [] if e.amono is None else [[g + 1, x] for g, x in e.amono],
                                "annihilator": e.annihilator,
                            }
                            for e in slices[w]
                        ]
                        for w in sorted(slices)
                    },
                }
                _print_json(payload)
            else:
                for w in sorted(slices):
                    entries = ", ".join(
                        f"{e} [{'free' if e.annihilator == 0 else f'ann {e.annihilator}'}]"
                        for e in slices[w]
                    )
                    print(f"w={w}: {entries if entries else '(nothing)'}")
            return 0

        if args.command == "indec":
            spec = build_spec(args)
            per_weight = indecomposables(spec)
            if args.json:
                payload = {
                    "ring": ring_to_json(spec.ring),
                    "trunc": spec.truncation,
                    "summands": [
                        {"weight": w, "generator": gen + 1, "annihilator": ann}
                        for w in sorted(per_weight)
                        for gen, ann in per_weight[w]
                    ],
                }
                _print_json(payload)
            else:
                for w in sorted(per_weight):
                    if not per_weight[w]:
                        print(f"w={w}: (nothing)")
                        continue
                    entries = ", ".join(
                        f"x{gen + 1} [{'free' if ann == 0 else f'ann {ann}'}]"
                        for gen, ann in per_weight[w]
                    )
                    print(f"w={w}: {entries}")
            return 0

        if args.command == "oracle-omega":
            spec = build_spec(args)
            report = verify_main_theorem(spec)
            report.merge(verify_indecomposables(spec))
            return _emit_report(report, args.json)

        if args.command == "check":
            accepted = SUITE_FLAGS.get(args.suite, {})
            given = {
                flag: getattr(args, flag)
                for flag in ("samples", "seed", "trunc")
                if getattr(args, flag) is not None
            }
            refused = [f"--{flag}" for flag in given if flag not in accepted]
            if refused:
                raise ValueError(f"check {args.suite} does not take {', '.join(refused)}")
            report = SUITES[args.suite](**{accepted[flag]: value for flag, value in given.items()})
            return _emit_report(report, args.json)
    except (ParseError, EvalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    raise AssertionError("unreachable")


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
