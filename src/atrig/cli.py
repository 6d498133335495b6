"""Command line surface: evaluation, decomposition, identity generation,
and verification suites with machine-readable output.

JSON goes to stdout, a human summary to stderr.  Exit codes: 0 success,
2 argument/parse error, 3 domain error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import core, verify
from .core import PrincipalPresentation, make_presentation, parse_element, preset
from .errors import AlgebraError, InvalidArgument
from .identities import adding_angle, de_moivre, render
from .spectral import find_roots
from .transcendental import BranchSpec, arg, exp, log, polar, trig_components

_PRESET_RE = re.compile(r"^(H|C|Gamma)(\d+)$")
_PRESET_KIND = {"H": "hyperbolic", "C": "complicated", "Gamma": "nil"}


def _add_common_options(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # Shared options are accepted both before and after the subcommand; the
    # SUPPRESS default keeps subparsers from clobbering values parsed earlier.
    default = (lambda v: v) if top_level else (lambda v: argparse.SUPPRESS)
    parser.add_argument(
        "--format",
        choices=("json", "csv", "latex"),
        default=default("json"),
        dest="format",
    )
    parser.add_argument(
        "--seed",
        type=_non_negative_int,
        default=default(None),
        help="sampling seed (default: ATRIG_SEED environment variable, then 0)",
    )


def _bounded(convert, accept, noun: str):
    """An argparse type: ``convert(text)`` where ``accept`` holds for it."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {noun}, got {text!r}")
        return value

    return parse


_non_negative_int = _bounded(int, lambda v: v >= 0, "a non-negative integer")
_positive_int = _bounded(int, lambda v: v > 0, "a positive integer")
_positive_float = _bounded(float, lambda v: 0.0 < v < math.inf, "a positive finite number")


#: Every command, in help order.
_COMMANDS = {
    "exp": "exponential of an element",
    "pyth": "Pythagorean value det(M(z))",
    "trig": "components of exp(k^m * theta)",
    "log": "log of an element",
    "arg": "arg of an element",
    "polar": "polar of an element",
    "roots": "spectral decomposition of the modulus",
    "identity": "generate symbolic identities",
    "verify": "run a verification suite",
}

#: The commands on one element --z: name -> (takes --branch, payload(z, branch),
#: summary, a format string filled from the payload).
_ELEMENT_COMMANDS = {
    "exp": (False, lambda z, _: {"exp": exp(z).coords.tolist()}, "exponential computed"),
    "pyth": (False, lambda z, _: {"pyth": core.pythagorean(z)}, "Pythagorean value computed"),
    "log": (True, lambda z, branch: {"log": log(z, branch).coords.tolist()}, "logarithm computed"),
    "arg": (True, lambda z, branch: {"arg": arg(z, branch).coords.tolist()}, "argument computed"),
    "polar": (True, lambda z, branch: polar(z, branch).to_json_dict(), "rho={rho!r}"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="atrig",
        description="Generalized trigonometry over principal algebras R[k]/<p(k)>.",
    )
    parser.add_argument(
        "--algebra",
        help="preset name (H<n>, C<n>, Gamma<n>) or comma-separated modulus "
        "coefficients c0,...,c_{n-1} of the monic p(k)",
    )
    parser.add_argument(
        "--algebra-file", help='JSON file {"label": ..., "coeffs": [c0, ...]}'
    )
    _add_common_options(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = {name: sub.add_parser(name, help=text) for name, text in _COMMANDS.items()}
    for name, (takes_branch, _, _) in _ELEMENT_COMMANDS.items():
        leaves[name].add_argument("--z", required=True, help='element literal "x1,x2,...,xn"')
        if takes_branch:
            leaves[name].add_argument(
                "--branch",
                help="comma-separated branch indices, one per complex pair "
                "(default: principal)",
            )
    leaves["trig"].add_argument("--m", type=int, default=1, help="generator power (default 1)")
    leaves["trig"].add_argument("--theta", type=float, required=True)
    leaves["roots"].add_argument(
        "--tol", type=_positive_float, default=None, help="root residual tolerance"
    )

    idsub = leaves.pop("identity").add_subparsers(dest="identity_kind", required=True)
    leaves["add-angle"] = idsub.add_parser("add-angle", help="adding-angle identities")
    leaves["de-moivre"] = idsub.add_parser("de-moivre", help="multiple-angle identities")
    leaves["de-moivre"].add_argument("--power", type=int, required=True)

    leaves["verify"].add_argument("--suite", choices=verify.SUITE_NAMES, required=True)
    leaves["verify"].add_argument("--samples", type=_positive_int, default=None)
    leaves["verify"].add_argument("--tol", type=_positive_float, default=None)

    # Common options come after each leaf's own, as in its usage line.
    for leaf in leaves.values():
        _add_common_options(leaf, top_level=False)
    return parser


def _resolve_algebra(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> PrincipalPresentation:
    if args.algebra and args.algebra_file:
        parser.error("supply exactly one of --algebra and --algebra-file")
    if args.algebra_file:
        try:
            with open(args.algebra_file) as handle:
                data = json.load(handle)
            return PrincipalPresentation.from_json_dict(data)
        except (OSError, ValueError, AlgebraError) as exc:
            parser.error(f"cannot load algebra file: {exc}")
    if not args.algebra:
        parser.error("an algebra is required (--algebra or --algebra-file)")
    text = args.algebra.strip()
    match = _PRESET_RE.match(text)
    if match:
        kind, n = _PRESET_KIND[match.group(1)], int(match.group(2))
        try:
            return preset(kind, n)
        except AlgebraError as exc:
            parser.error(str(exc))
    try:
        coeffs = [float(p) for p in text.split(",")]
        return make_presentation(coeffs)
    except (ValueError, AlgebraError):
        parser.error(
            f"bad algebra {text!r}: expected H<n>, C<n>, Gamma<n>, or a "
            "comma-separated coefficient list"
        )


def _parse_branch(text: str | None, parser: argparse.ArgumentParser) -> BranchSpec | None:
    if text is None:
        return None
    try:
        return BranchSpec(tuple(int(p) for p in text.split(",")))
    except ValueError as exc:
        parser.error(f"bad branch list {text!r}: {exc}")


def _seed(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.seed is not None:
        return args.seed
    try:
        return _non_negative_int(os.environ.get("ATRIG_SEED", "0"))
    except argparse.ArgumentTypeError as exc:
        parser.error(f"ATRIG_SEED {exc}")


def _csv_lines(payload: dict) -> list[str]:
    if "details" in payload:  # suite report
        lines = ["case,residual,pass"]
        for row in payload["details"]:
            lines.append(f"{row['case']},{row['residual']!r},{row['pass']}")
        return lines
    return [f"{key},{_csv_value(value)}" for key, value in payload.items()]


def _csv_value(value) -> str:
    if isinstance(value, list):
        return ",".join(
            " ".join(repr(float(x)) for x in item) if isinstance(item, list) else repr(float(item))
            for item in value
        )
    return repr(value)


def _emit(payload: dict, args: argparse.Namespace, summary: str) -> None:
    # Strict JSON has no Infinity or NaN; a result holding one is refused
    # in every format rather than printed.
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError:
        raise InvalidArgument("the result is not finite") from None
    if args.format == "csv":
        sys.stdout.write("\n".join(_csv_lines(payload)) + "\n")
    else:
        sys.stdout.write(text + "\n")
    print(summary, file=sys.stderr)


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    command = args.command

    if command == "verify":
        if args.format == "latex":
            parser.error("verify output supports json or csv")
        report = verify.run_suite(args.suite, args.samples, args.tol, _seed(args, parser))
        _emit(
            report.to_json_dict(),
            args,
            f"suite {report.suite}: {'pass' if report.passed else 'FAIL'} "
            f"(worst residual {report.worst_residual:.3e} over {report.cases} cases)",
        )
        return 0 if report.passed else 4

    pres = _resolve_algebra(args, parser)

    if command == "identity":
        if args.identity_kind == "add-angle":
            ids = adding_angle(pres)
        else:
            ids = de_moivre(pres, args.power)
        if args.format == "csv":
            parser.error("identity output supports json or latex")
        text = render(ids, "latex" if args.format == "latex" else "json")
        sys.stdout.write(text + "\n")
        print(f"{len(ids.formulas)} formulas for {pres}", file=sys.stderr)
        return 0

    if command == "roots":
        dec = find_roots(pres) if args.tol is None else find_roots(pres, args.tol)
        _emit(
            dec.to_json_dict(),
            args,
            f"{dec.real_count} real roots, {dec.complex_count} conjugate pairs",
        )
        return 0

    if command == "trig":
        values = trig_components(pres, args.m, args.theta)
        _emit({"trig": values.tolist()}, args, f"components of exp(k^{args.m} theta)")
        return 0

    takes_branch, evaluate, summary = _ELEMENT_COMMANDS[command]
    try:
        z = parse_element(pres, args.z)
    except ValueError as exc:
        parser.error(str(exc))
    payload = evaluate(z, _parse_branch(args.branch, parser) if takes_branch else None)
    _emit(payload, args, summary.format(**payload))
    return 0


# Options whose values may start with "-" (e.g. --z "-1,0"); fused into
# --opt=value form so argparse does not mistake the value for a flag.
_VALUE_OPTIONS = ("--z", "--branch", "--algebra")


def _normalize_argv(argv: list[str]) -> list[str]:
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token in _VALUE_OPTIONS and i + 1 < len(argv):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    raw = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(_normalize_argv(raw))
    try:
        # A result that overflows is refused by _emit, so numpy's warnings
        # about it are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            return _dispatch(args, parser)
    except AlgebraError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stdout.write(json.dumps(payload, allow_nan=False) + "\n")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
