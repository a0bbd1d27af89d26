"""Command-line front end.

Subcommands: build (dump root data), pairs (BFS over admissible pairs
with their diagrams), diagram (equivalence classes), verify (denominator
identity), qn (the q(n) alternating-sum identity), orbits (regular-orbit
scan).  Output is text or canonical JSON: keys sorted, rationals as
strings, no floats, so parse-and-redump is byte identical.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import diagrams, identity, simple
from .errors import (DomainError, ResourceLimitError, StructuralError,
                     ValidationError)
from .roots import SuperType, build, system_json

SCHEMA = "superdenom/1"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def canonical_json(payload) -> str:
    return json.dumps(_json_safe(payload), sort_keys=True,
                      separators=(",", ":"))


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if value is None or isinstance(value, (int, str)):
        return value
    return str(value)


def _stype(args) -> SuperType:
    if args.family in ("C", "Q"):
        return SuperType(args.family, n=args.n)
    return SuperType(args.family, args.m, args.n, sharp_choice=args.sharp)


def run(args: argparse.Namespace) -> tuple:
    """Execute parsed arguments.  Returns (exit_code, payload, text_lines)."""
    command = args.command
    if getattr(args, "height", 0) < 0:
        raise ValidationError("height must be >= 0, got %d" % args.height)
    if getattr(args, "cap", 0) < 0:
        raise ValidationError("cap must be >= 0, got %d" % args.cap)
    payload = {"schema": SCHEMA, "command": command}
    lines = []

    if command == "qn":
        report, a = identity.qn_identity(args.n, H=args.height)
        payload["result"] = report.to_json()
        payload["a"] = a
        lines.append("q(%d): |a(S)| = %d, identity %s" % (
            args.n, abs(a),
            "verified" if report.equal else "FAILED"))
        return (EXIT_OK if report.equal else EXIT_VERIFICATION,
                payload, lines)

    rs = build(_stype(args))
    payload["system"] = rs.stype.label()

    if command == "build":
        payload["result"] = system_json(rs)
        lines.append("%s: %d positive even roots, %d odd roots, defect %d"
                     % (rs.stype.label(), len(rs.positive_even),
                        len(rs.odd), rs.defect))
        return EXIT_OK, payload, lines

    if command == "pairs":
        pairs = simple.enumerate_admissible_pairs(rs, args.cap)
        entries = []
        for pair in sorted(pairs, key=lambda p: p.key()):
            entry = pair.to_json()
            try:
                entry["diagram"] = diagrams.from_pair(pair).to_json()
            except (DomainError, ValidationError):
                entry["diagram"] = None
            entries.append(entry)
        payload["result"] = {"count": len(entries), "pairs": entries}
        lines.append("%s: %d admissible pairs"
                     % (rs.stype.label(), len(entries)))
        return EXIT_OK, payload, lines

    if command == "diagram":
        classes = diagrams.equivalence_classes(rs, args.cap)
        payload["result"] = {
            "count": len(classes),
            "classes": [d.to_json() for d in classes],
        }
        lines.append("%s: %d equivalence class%s"
                     % (rs.stype.label(), len(classes),
                        "" if len(classes) == 1 else "es"))
        lines += ["  %s" % d.render() for d in classes]
        return EXIT_OK, payload, lines

    if command == "verify":
        reports = []
        ok = True
        pairs = simple.standard_pairs(rs) if args.variant is None \
            else [(args.variant, simple.standard_pair(rs, args.variant))]
        if args.variant not in (None, *simple.variants(rs)):
            # standard_pair has refused every other unlisted variant
            raise DomainError("%s is the step2 pair on %s; use --variant step2"
                              % (args.variant, rs.stype.label()))
        for name, pair in pairs:
            report = identity.verify(pair, H=args.height)
            entry = report.to_json()
            entry["variant"] = name
            reports.append(entry)
            ok = ok and report.equal
            lines.append("%s [%s] H=%d: %s (lhs %d terms, rhs %d terms)%s"
                         % (rs.stype.label(), name, args.height,
                            "equal" if report.equal else "NOT EQUAL",
                            report.lhs_terms, report.rhs_terms,
                            report.note and "; " + report.note))
        payload["result"] = {"reports": reports, "equal": ok}
        return (EXIT_OK if ok else EXIT_VERIFICATION, payload, lines)

    if command == "orbits":
        reps = identity.regular_orbit_scan(rs, H=args.height)
        payload["result"] = {"representatives": [str(w) for w in reps]}
        lines.append("%s: %d regular orbit%s in the height-%d region"
                     % (rs.stype.label(), len(reps),
                        "" if len(reps) == 1 else "s", args.height))
        lines += ["  %s" % w for w in reps]
        return EXIT_OK, payload, lines

    raise ValidationError("unknown command %r" % (command,))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superdenom",
        description="Exact checks of the super Weyl denominator identity")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, system=True):
        if system:
            p.add_argument("--family", required=True,
                           choices=["GL", "B", "C", "D", "Q"])
            p.add_argument("--m", type=int, default=1)
            p.add_argument("--n", type=int, default=0)
            p.add_argument("--sharp", choices=["B_side", "C_side"])
        p.add_argument("--output", choices=["text", "json"], default="text")

    common(sub.add_parser("build", help="dump the normalized root data"))
    p = sub.add_parser("pairs", help="enumerate admissible pairs")
    common(p)
    p.add_argument("--cap", type=int, default=10 ** 6)
    p = sub.add_parser("diagram", help="canonicalize bow diagrams")
    common(p)
    p.add_argument("--cap", type=int, default=10 ** 6)
    p = sub.add_parser("verify", help="verify the denominator identity")
    common(p)
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--variant", choices=list(simple.VARIANTS))
    p = sub.add_parser("qn", help="check the q(n) alternating-sum identity")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--height", type=int, default=8)
    p.add_argument("--output", choices=["text", "json"], default="text")
    p = sub.add_parser("orbits", help="scan for regular orbits in the cone")
    common(p)
    p.add_argument("--height", type=int, default=10)
    return parser


def main(argv: list | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code, payload, lines = run(args)
    except (ValidationError, DomainError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except StructuralError as exc:
        print("verification failure: %s" % exc, file=sys.stderr)
        return EXIT_VERIFICATION
    if args.output == "json":
        print(canonical_json(payload))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
