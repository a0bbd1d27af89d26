"""Command-line front end.

Subcommands: build (dump root data), pairs (BFS over admissible pairs
with their diagrams), diagram (equivalence classes), verify (denominator
identity), qn (the q(n) alternating-sum identity), orbits (regular-orbit
scan).  Output is text or canonical JSON: keys sorted, rationals as
strings, no floats, so parse-and-redump is byte identical.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 resource cap exceeded, 141 the reader closed the output early.

`main(argv)` is the in-process API and returns the exit code.  `entry()`
is the process entry of `python -m superdenom` and of the `superdenom`
script: it runs `main`, flushes stdout and stderr, and ends the process
with `os._exit` as soon as its output is flushed.  There is no
interpreter teardown (no final cyclic collection, no module teardown),
and atexit handlers do not run.  An uncaught exception still takes the
normal interpreter exit, traceback included.

Each run is a fresh process, so this module imports only what a command
uses.  `COMMANDS` is the one table of commands and flags: `parse_args`
reads argv against it and `_help` prints it, so neither `argparse` nor
`json` is loaded (both import `re`, and argparse's help formatter
`shutil`), and `run` imports `identity` and `diagrams` only for the
commands that call them.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from _json import encode_basestring_ascii as _quote

from . import simple
from .errors import (DomainError, ResourceLimitError, StructuralError,
                     ValidationError)
from .roots import SuperType, build, system_json

SCHEMA = "superdenom/1"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141     # the shell's code for a death by SIGPIPE

# flag -> (type, default, choices, required)
_SYSTEM = {
    "family": (str, None, ("GL", "B", "C", "D", "Q"), True),
    "m": (int, 1, None, False),
    "n": (int, 0, None, False),
    "sharp": (str, None, ("B_side", "C_side"), False),
}
_OUTPUT = {"output": (str, "text", ("text", "json"), False)}
_CAP = {"cap": (int, 10 ** 6, None, False)}

# command -> (help line, flags in the order the help lists them)
COMMANDS = {
    "build": ("dump the normalized root data", {**_SYSTEM, **_OUTPUT}),
    "pairs": ("enumerate admissible pairs", {**_SYSTEM, **_OUTPUT, **_CAP}),
    "diagram": ("canonicalize bow diagrams", {**_SYSTEM, **_OUTPUT, **_CAP}),
    "verify": ("verify the denominator identity", {
        **_SYSTEM, **_OUTPUT, "height": (int, 8, None, False),
        "variant": (str, None, simple.VARIANTS, False)}),
    "qn": ("check the q(n) alternating-sum identity", {
        "n": (int, None, None, True), "height": (int, 8, None, False),
        **_OUTPUT}),
    "orbits": ("scan for regular orbits in the cone", {
        **_SYSTEM, **_OUTPUT, "height": (int, 10, None, False)}),
}


class _Exit(Exception):
    """Ends parsing: help (code 0, for stdout) or a usage error (code 2)."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code
        self.text = text


def _metavar(name: str, spec: tuple) -> str:
    choices = spec[2]
    return "{%s}" % ",".join(choices) if choices else name.upper()


def _usage(command: str | None) -> str:
    """The usage line, wrapped at 79 columns like argparse's."""
    if command is None:
        return "usage: superdenom [-h] {%s} ..." % ",".join(COMMANDS)
    lead = "usage: superdenom %s" % command
    lines, line = [], lead + " [-h]"
    for name, spec in COMMANDS[command][1].items():
        flag = "--%s %s" % (name, _metavar(name, spec))
        flag = flag if spec[3] else "[%s]" % flag
        if len(line) + 1 + len(flag) > 79:
            lines.append(line)
            line = " " * len(lead)
        line += " " + flag
    return "\n".join(lines + [line])


def _help(command: str | None) -> str:
    lines = [_usage(command), ""]
    if command is None:
        lines += ["Exact checks of the super Weyl denominator identity", "",
                  "commands:"]
        lines += ["  %-9s %s" % (name, COMMANDS[name][0]) for name in COMMANDS]
        lines += ["", "Run `superdenom COMMAND -h` for its flags.  A flag "
                  "takes `--flag value` or `--flag=value`",
                  "and may be shortened to any unique prefix.  Exit codes: "
                  "0 success, 1 verification", "failure, 2 usage error, "
                  "3 resource cap exceeded, 141 reader left early."]
        return "\n".join(lines)
    rows = [("-h, --help", "show this help and exit")]
    for name, spec in COMMANDS[command][1].items():
        rows.append(("--%s %s" % (name, _metavar(name, spec)),
                     "required" if spec[3] else "optional" if spec[1] is None
                     else "default %s" % spec[1]))
    lines += [COMMANDS[command][0], "", "flags:"]
    for flag, note in rows:
        lines += ["  %-22s %s" % (flag, note)] if len(flag) <= 22 else \
            ["  " + flag, " " * 25 + note]
    return "\n".join(lines)


def _error(command: str | None, message: str) -> _Exit:
    return _Exit(EXIT_USAGE, "%s\nsuperdenom%s: error: %s" % (
        _usage(command), "" if command is None else " " + command, message))


def _is_value(token: str) -> bool:
    """Can token be a flag's value: not flag-like, or a negative number."""
    if not token.startswith("-") or token == "-":
        return True
    digits = token[1:].replace(".", "", 1)
    return digits.isdigit()


def _choices(values) -> str:
    return ", ".join(map(repr, values))


def _convert(command: str, name: str, spec: tuple, value: str):
    kind, _, choices, _ = spec
    if kind is int:
        try:
            value = int(value)
        except ValueError:
            raise _error(command, "argument --%s: invalid int value: %r"
                         % (name, value)) from None
    if choices is not None and value not in choices:
        raise _error(command, "argument --%s: invalid choice: %r (choose "
                     "from %s)" % (name, value, _choices(choices)))
    return value


def _flag_named(command: str, token: str) -> str | None:
    """The flag that token names exactly or by a unique prefix; None for help.

    token is the `--name` part of `--name` or `--name=value`.
    """
    names = [*COMMANDS[command][1], "help"]
    given = token[2:]
    found = [given] if given in names else \
        [name for name in names if name.startswith(given)]
    if not token.startswith("--") or not given or not found:
        raise _error(command, "unrecognized arguments: %s" % token)
    if len(found) > 1:
        raise _error(command, "ambiguous option: %s could match %s" % (
            token, ", ".join("--" + name for name in found)))
    return None if found[0] == "help" else found[0]


def parse_args(argv: list) -> SimpleNamespace:
    """Read argv against `COMMANDS`; raises _Exit for help or a bad line.

    A command line is `COMMAND --flag value ...` with `--flag=value` too,
    any unique prefix of a flag, the last of repeated flags winning, and
    negative numbers taken as values.  `-h` or `--help` asks for help.
    """
    if not argv or argv[0] in ("-h", "--help"):
        if argv:
            raise _Exit(EXIT_OK, _help(None))
        raise _error(None, "the following arguments are required: command")
    command = argv[0]
    if command not in COMMANDS:
        raise _error(None, "argument command: invalid choice: %r (choose "
                     "from %s)" % (command, _choices(COMMANDS)))
    flags = COMMANDS[command][1]
    values = {}
    k = 1
    while k < len(argv):
        token = argv[k]
        if token == "-h":
            raise _Exit(EXIT_OK, _help(command))
        head, eq, value = token.partition("=")
        name = _flag_named(command, head)
        if name is None:
            raise _Exit(EXIT_OK, _help(command))
        if not eq:
            if k + 1 == len(argv) or not _is_value(argv[k + 1]):
                raise _error(command,
                             "argument --%s: expected one argument" % name)
            k += 1
            value = argv[k]
        values[name] = _convert(command, name, flags[name], value)
        k += 1
    missing = ["--" + name for name, spec in flags.items()
               if spec[3] and name not in values]
    if missing:
        raise _error(command, "the following arguments are required: %s"
                     % ", ".join(missing))
    return SimpleNamespace(command=command, **{
        name: values.get(name, spec[1]) for name, spec in flags.items()})


def canonical_json(value) -> str:
    """value as `json.dumps(value, sort_keys=True, separators=(",", ":"))`
    writes it, byte for byte, after three conversions: dict keys become
    strings, tuples lists, and any value outside str, int, bool, None,
    dict and list its str.  Strings go through `encode_basestring_ascii`
    of `_json`, the escaper that json.dumps calls.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        items = {str(k): v for k, v in value.items()}
        return "{%s}" % ",".join(_quote(k) + ":" + canonical_json(items[k])
                                 for k in sorted(items))
    if isinstance(value, (list, tuple)):
        return "[%s]" % ",".join(map(canonical_json, value))
    return _quote(str(value))


def _stype(args) -> SuperType:
    if args.family in ("C", "Q"):
        return SuperType(args.family, n=args.n)
    return SuperType(args.family, args.m, args.n, sharp_choice=args.sharp)


def run(args: SimpleNamespace) -> tuple:
    """Execute parsed arguments.  Returns (exit_code, payload, text_lines)."""
    command = args.command
    if getattr(args, "height", 0) < 0:
        raise ValidationError("height must be >= 0, got %d" % args.height)
    if getattr(args, "cap", 0) < 0:
        raise ValidationError("cap must be >= 0, got %d" % args.cap)
    payload = {"schema": SCHEMA, "command": command}
    lines = []

    if command == "qn":
        from . import identity
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
        from . import diagrams
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
        from . import diagrams
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
        from . import identity
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
        from . import identity
        reps = identity.regular_orbit_scan(rs, H=args.height)
        payload["result"] = {"representatives": [str(w) for w in reps]}
        lines.append("%s: %d regular orbit%s in the height-%d region"
                     % (rs.stype.label(), len(reps),
                        "" if len(reps) == 1 else "s", args.height))
        lines += ["  %s" % w for w in reps]
        return EXIT_OK, payload, lines

    raise ValidationError("unknown command %r" % (command,))


def main(argv: list | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except _Exit as stop:
        print(stop.text, file=sys.stderr if stop.code else sys.stdout)
        return stop.code
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


def entry() -> None:
    """Run `main` on sys.argv, flush its output and end the process.

    The process ends by `os._exit`, which skips the interpreter's teardown
    and atexit handlers.  A reader that closes the pipe before the output
    is written gets exit EXIT_BROKEN_PIPE and no traceback: the unwritten
    bytes stay in their buffer, which `os._exit` never flushes.
    """
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    os._exit(code)
