"""Command-line front end: run verification suites, dump series and ray class
data, and search for relations.

Exit status: 0 all checks passed, 1 a comparison failed, 2 bad usage, bad
parameters or an unknown suite, 3 a certificate failure: prime ideals up to
--bound did not generate the certified number of ray classes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
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


_CONFIG_KEYS = ("trunc", "bound", "json")
_JSON_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _read_config(path: Optional[str]) -> dict:
    """The key=value lines of a config file; unknown keys are bad usage."""
    if not path:
        return {}
    out: dict = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown config key {key!r} in {path}; known: {', '.join(_CONFIG_KEYS)}")
        out[key] = value
    if "trunc" in out:
        out["trunc"] = parse_fraction(out["trunc"])
    if "bound" in out:
        try:
            out["bound"] = int(out["bound"])
        except ValueError:
            raise ParseError(f"config key bound={out['bound']!r} is not an integer")
    if "json" in out:
        flag = _JSON_VALUES.get(out["json"].lower())
        if flag is None:
            raise ParseError(f"config key json={out['json']!r} is not one of {'/'.join(_JSON_VALUES)}")
        out["json"] = flag
    return out


def _emit_reports(reports, as_json: bool) -> None:
    if as_json:
        print(json.dumps([r.to_json_dict() for r in reports], sort_keys=True, indent=1))
    else:
        for r in reports:
            print(r.text_row())


def cmd_verify(args) -> int:
    cfg = _read_config(args.config)
    trunc = args.trunc if args.trunc is not None else cfg.get("trunc")
    bound = args.bound if args.bound is not None else cfg.get("bound")
    as_json = args.json or cfg.get("json", False)

    suites = args.suites or ["id1", "id2", "relations55", "thm51", "consolidate", "pell"]
    unknown = [s for s in suites if s not in identities.SUITE_NAMES]
    if unknown:
        print(f"unknown suite(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(identities.SUITE_NAMES)}", file=sys.stderr)
        return 2

    reports = []
    try:
        for name in suites:
            reports += identities.run_suite(
                name,
                trunc,
                bound=bound,
                a=args.a,
                r=args.r,
                eps=args.eps,
                count=args.count,
                experimental=args.experimental,
            )
    except ClosureError as exc:
        print(f"enumeration failure: {exc}", file=sys.stderr)
        return 3
    except SkewOverlapError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit_reports(reports, as_json)
    return 0 if all(r.passed for r in reports) else 1


def cmd_dump(args) -> int:
    trunc = args.trunc
    try:
        if args.kind == "theta":
            series = theta_gen(args.ell, args.k, trunc)
        elif args.kind == "v":
            series = v_func(args.r, args.m, trunc)
        elif args.kind == "eta":
            series = eta(trunc)
        else:  # rayclass
            return _dump_rayclass(args)
    except (ValueError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(series.to_json_dict(), sort_keys=True))
    return 0


def _dump_rayclass(args) -> int:
    if args.D is None or args.F is None:
        print("rayclass dump needs -D and -F", file=sys.stderr)
        return 2
    fld = field(args.D)
    try:
        F = Conductor(parse_conductor_expr(fld, args.F))
        if args.class_spec is not None:
            ref = parse_class_spec(fld, args.class_spec, F)
            out = {
                "D": args.D,
                "F": list(F.ideal.key[1:]),
                "class": list(ref.canonical_key()[1:]),
                "theta": ray_theta(ref, args.d, args.trunc).to_json_dict(),
            }
            print(json.dumps(out, sort_keys=True))
            return 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.Dp is None:
        print("skew-set dump needs --Dp as well", file=sys.stderr)
        return 2
    chi = CharacterPsi(args.D, args.Dp)
    try:
        A, S = compute_skew_sets(chi, F, args.bound)
    except ClosureError as exc:
        print(f"enumeration failure: {exc}", file=sys.stderr)
        return 3
    except SkewOverlapError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 2
    blob = skew_sets_to_json(chi, F, A, S, args.bound)
    print(json.dumps(blob, sort_keys=True))
    return 0


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
    p_verify.add_argument("suites", nargs="*", help=f"suites: {', '.join(identities.SUITE_NAMES)}")
    p_verify.add_argument("--trunc", type=_fraction_arg, default=None, help="truncation as num/den")
    p_verify.add_argument("--bound", type=int, default=None, help="norm cap on the generator primes of ray class groups")
    p_verify.add_argument("--json", action="store_true", help="machine-readable reports")
    p_verify.add_argument("--config", default=None, help="key=value config file; flags override")
    p_verify.add_argument("--a", type=int, default=None, help="thm51: family parameter a")
    p_verify.add_argument("--r", type=int, default=None, help="thm51: odd index r")
    p_verify.add_argument("--eps", type=int, default=None, help="thm51: 0 or 1")
    p_verify.add_argument("--count", type=int, default=2, help="pell: number of solutions")
    p_verify.add_argument(
        "--experimental", action="store_true", help="thm51: allow a outside 1 mod 4"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_dump = sub.add_parser("dump", help="print exact series or ray class data as JSON")
    p_dump.add_argument("kind", choices=["theta", "v", "eta", "rayclass"])
    p_dump.add_argument("--trunc", type=_fraction_arg, default=Fraction(10))
    p_dump.add_argument("--ell", type=int, default=1)
    p_dump.add_argument("--k", type=int, default=6)
    p_dump.add_argument("--r", type=int, default=1)
    p_dump.add_argument("--m", type=int, default=2)
    p_dump.add_argument("-D", "--D", type=int, default=None, help="field discriminant root")
    p_dump.add_argument("--Dp", type=int, default=None, help="partner field")
    p_dump.add_argument("-F", "--F", default=None, help="conductor expression, e.g. 4*P2")
    p_dump.add_argument(
        "--class",
        dest="class_spec",
        default=None,
        help="class spec, e.g. '[5+2*w]' or '[1,-1]@P3*4P2'; dumps its canonical representative and theta series",
    )
    p_dump.add_argument("--d", type=_fraction_arg, default=Fraction(16), help="theta scale for --class")
    p_dump.add_argument("--bound", type=int, default=None)
    p_dump.set_defaults(func=cmd_dump)

    p_search = sub.add_parser("search", help="integer-relation search over a product pool")
    p_search.add_argument("--pool", choices=["idp1", "id24"], default="idp1")
    p_search.add_argument("--trunc", type=_fraction_arg, default=Fraction(20))
    p_search.add_argument("--max-coeff", type=int, default=None)
    p_search.set_defaults(func=cmd_search)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
