"""Command-line front end: run verification suites, dump series and ray class
data, and search for relations.

`dump` has one subcommand per kind (theta, v, eta, rayclass for the skew
sets, class for one class's theta series), each taking only its own flags.

Exit status: 0 all checks passed, 1 a comparison failed, 2 bad usage, bad
parameters (a --bound below 2 among them), an unknown suite, an option
that no named suite takes, a flag of another dump kind, a truncation
below every term of both sides of a comparison or a search pool series
with no term at or below the truncation, 3 a certificate failure:
the certified number of ray classes needs generator primes of norm above
--bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import partial
from typing import Optional

from . import identities
from .parsing import ParseError, parse_class_spec, parse_conductor_expr, parse_fraction
from .qseries import eta, theta_gen, v_func
from .quadfield import field
from .rayclass import (
    CharacterPsi,
    ClosureError,
    Conductor,
    SkewOverlapError,
    compute_skew_sets,
    ray_theta,
    skew_sets_to_json,
)


def _emit_reports(reports, as_json: bool) -> None:
    if as_json:
        print(json.dumps([r.to_json_dict() for r in reports], sort_keys=True, indent=1))
    else:
        for r in reports:
            print(r.text_row())


def cmd_verify(args) -> int:
    table = identities.SUITES
    suites = args.suites or [name for name, suite in table.items() if suite.default]
    unknown = [s for s in suites if s not in table]
    if unknown:
        print(f"unknown suite(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(table)}", file=sys.stderr)
        return 2
    given = {key: getattr(args, key) for suite in table.values() for key in suite.options if getattr(args, key) is not None}
    stray = [key for key in given if all(key not in table[name].options for name in suites)]
    if stray:
        raise ValueError(f"no suite among {', '.join(suites)} takes --{', --'.join(stray)}")

    reports = []
    for name in suites:
        options = {key: value for key, value in given.items() if key in table[name].options}
        reports += identities.run_suite(name, **options)
    _emit_reports(reports, args.json)
    return 0 if all(r.passed for r in reports) else 1


def _dump(blob, args) -> int:
    print(json.dumps(blob(args), sort_keys=True))
    return 0


def _conductor(args):
    fld = field(args.D)
    return fld, Conductor(parse_conductor_expr(fld, args.F))


def _skew_sets(args) -> dict:
    _, F = _conductor(args)
    chi = CharacterPsi(args.D, args.Dp)
    A, S = compute_skew_sets(chi, F, args.bound)
    return skew_sets_to_json(chi, F, A, S, args.bound)


def _class_theta(args) -> dict:
    fld, F = _conductor(args)
    ref = parse_class_spec(fld, args.class_spec, F)
    theta = ray_theta(ref, args.d, args.trunc)
    return {"D": args.D, "F": list(F.ideal.key[1:]), "class": list(ref.canonical_key()[1:]), "theta": theta.to_json_dict()}


def cmd_search(args) -> int:
    if args.pool == "idp1":
        cfg = identities.idp1_pool(args.trunc)
    else:
        cfg = identities.id24_pool(args.trunc)
    if args.max_coeff is not None:
        from dataclasses import replace

        cfg = replace(cfg, max_coeff=args.max_coeff)
    rels = identities.search_relations(cfg)
    print(json.dumps(rels, sort_keys=True, indent=1))
    return 0


def _fraction_arg(text: str) -> Fraction:
    try:
        return parse_fraction(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raytheta",
        description=(
            "Exact verification of theta-function and Virasoro-character "
            "identities over imaginary quadratic fields."
        ),
        epilog=(
            "Named primes P2, P3, P3bar, ... resolve via prime splitting with "
            "the smaller Hermite-normal-form residue; 'bar' picks the "
            "conjugate.  Truncations are exact rationals like 20/1."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suites", nargs="*", help=f"suites: {', '.join(identities.SUITES)}")
    p_verify.add_argument("--trunc", type=_fraction_arg, default=None, help="truncation as num/den (every suite but pell)")
    p_verify.add_argument("--bound", type=int, default=None, help="norm cap on the generator primes of ray class groups")
    p_verify.add_argument("--json", action="store_true", help="machine-readable reports")
    p_verify.add_argument("--a", type=int, default=None, help="thm51: family parameter a")
    p_verify.add_argument("--r", type=int, default=None, help="thm51: odd index r")
    p_verify.add_argument("--eps", type=int, default=None, help="thm51: 0 or 1")
    p_verify.add_argument("--count", type=int, default=None, help="pell: number of solutions (default 2)")
    p_verify.add_argument(
        "--experimental", action="store_true", default=None, help="thm51: allow a outside 1 mod 4"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_dump = sub.add_parser("dump", help="print exact series or ray class data as JSON")
    kinds = p_dump.add_subparsers(dest="kind", required=True)

    def kind(name, blob, summary, trunc=True, conductor=False):
        p = kinds.add_parser(name, help=summary)
        if trunc:
            p.add_argument("--trunc", type=_fraction_arg, default=Fraction(10), help="truncation as num/den")
        if conductor:
            p.add_argument("-D", "--D", type=int, required=True, help="field discriminant root")
            p.add_argument("-F", "--F", required=True, help="conductor expression, e.g. 4*P2")
        p.set_defaults(func=partial(_dump, blob), usage=p)
        return p

    p = kind("theta", lambda a: theta_gen(a.ell, a.k, a.trunc).to_json_dict(), "level-k lattice sum theta(ell, k)")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--k", type=int, default=6)
    p = kind("v", lambda a: v_func(a.r, a.m, a.trunc).to_json_dict(), "the series V(r, m)")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--m", type=int, default=2)
    kind("eta", lambda a: eta(a.trunc).to_json_dict(), "the Dedekind eta series")
    p = kind("rayclass", _skew_sets, "skew class sets A/S cut out by a partner field", trunc=False, conductor=True)
    p.add_argument("--Dp", type=int, required=True, help="partner field")
    p.add_argument("--bound", type=int, default=None, help="norm cap on the generator primes")
    p = kind("class", _class_theta, "canonical representative and theta series of one ray class", conductor=True)
    p.add_argument("--class", dest="class_spec", metavar="SPEC", required=True, help="class spec, e.g. '[5+2*w]' or '[1,-1]@P3*4P2'")
    p.add_argument("--d", type=_fraction_arg, default=Fraction(16), metavar="SCALE", help="theta scale")

    p_search = sub.add_parser("search", help="integer-relation search over a product pool")
    p_search.add_argument("--pool", choices=["idp1", "id24"], default="idp1")
    p_search.add_argument("--trunc", type=_fraction_arg, default=Fraction(20))
    p_search.add_argument("--max-coeff", type=int, default=None)
    p_search.set_defaults(func=cmd_search)
    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    # parsing leaves the parser unchanged, so one process builds it once
    global _parser
    if _parser is None:
        _parser = build_parser()
    args, stray = _parser.parse_known_args(argv)
    if stray:
        # a dump kind reports a stray flag with its own usage line
        getattr(args, "usage", _parser).error(f"unrecognized arguments: {' '.join(stray)}")
    try:
        return args.func(args)
    except ClosureError as exc:
        print(f"enumeration failure: {exc}", file=sys.stderr)
        return 3
    except SkewOverlapError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ParseError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
