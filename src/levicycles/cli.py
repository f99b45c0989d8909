"""Batch command-line front end.

Subcommands: ``build`` (family -> arrangement JSON), ``stats`` (incidence
census), ``levi`` (DOT / JSON export), ``cycles`` (existence, longest,
spectrum), ``verify`` (claim checkers), ``oracle-check`` (solver vs.
brute-force equivalence).  Exit codes: 0 success, 1 refuted/disagreement,
2 usage error, 3 budget exhausted before an answer, 141 (128 + SIGPIPE)
when the reader closed standard output early.

Output is deterministic for fixed flags; wall-clock timing is opt-in via
``--timing`` so default output stays byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .arrangement import (
    MAX_LINES,
    ArrangementError,
    arrangement_from_json,
    arrangement_to_json,
    modular_points,
    multiplicity_profile,
)
from .claims import CHECKERS, NAMED_CLAIMS, REFUTED, VERDICT_UNKNOWN, all_checkers, verify_named_claim
from .cycles import FOUND, NO_INDUCED_CYCLE, UNKNOWN, exists_cycle, longest_cycle, spectrum
from .families import FAMILIES, build_family
from .levi import build_levi, export_dot, export_json
from .oracle import TooLarge, oracle_induced_cycle_lengths

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a killed writer


def _parse_chosen(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated integers, got {text!r}")


def _load(path: str | None):
    if path is None:
        raise ArrangementError("an arrangement FILE is required with --all or a checker id")
    with open(path, "r", encoding="utf-8") as fh:
        return arrangement_from_json(fh.read())


def _witness_line(witness) -> str:
    return f"witness lines={list(witness.lines)} points={list(witness.points)}"


# The family parameters that build and verify take as flags (--m, --n, ...).
_FAMILY_FLAGS = ("m", "n", "k", "a", "b", "chosen")


def _family_params(args) -> dict:
    return {key: getattr(args, key) for key in _FAMILY_FLAGS if getattr(args, key) is not None}


def _cmd_build(args) -> int:
    arr = build_family(args.family, **_family_params(args))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(arrangement_to_json(arr, indent=2))
        fh.write("\n")
    print(f"wrote {args.output}: k = {arr.k}, s = {arr.s}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    arr = _load(args.file)
    prof = multiplicity_profile(arr)
    mods = sorted(modular_points(arr))
    if args.format == "json":
        doc = {
            "k": arr.k,
            "s": arr.s,
            "t": {str(r): c for r, c in sorted(prof.t.items())},
            "modular_points": mods,
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    print(f"k = {arr.k}")
    print(f"s = {arr.s}")
    for r, c in sorted(prof.t.items()):
        print(f"t_{r} = {c}")
    print("modular points: " + (", ".join(map(str, mods)) if mods else "none"))
    return EXIT_OK


def _cmd_levi(args) -> int:
    g = build_levi(_load(args.file))
    if args.dot:
        sys.stdout.write(export_dot(g))
    else:
        sys.stdout.write(export_json(g, indent=2))
        sys.stdout.write("\n")
    return EXIT_OK


def _cmd_cycles(args) -> int:
    arr = _load(args.file)
    budget = args.budget
    if args.longest:
        res = longest_cycle(arr, budget=budget)
        if args.format == "json":
            doc = {"status": res.status, "length": res.length, "nodes": res.nodes}
            if res.witness is not None:
                doc["witness"] = asdict(res.witness)
            print(json.dumps(doc, indent=2))
        elif res.status == FOUND:
            print(f"longest induced cycle: length {res.length} ({res.i} lines)")
            if args.witness and res.witness is not None:
                print(_witness_line(res.witness))
        elif res.status == NO_INDUCED_CYCLE:
            print("no induced cycle")
        else:
            print("unknown: budget exhausted")
        return EXIT_UNKNOWN if res.status == UNKNOWN else EXIT_OK
    if args.exists is not None:
        res = exists_cycle(arr, args.exists, budget=budget)
        if args.format == "json":
            doc = {"i": args.exists, "status": res.status, "nodes": res.nodes}
            if res.witness is not None:
                doc["witness"] = asdict(res.witness)
            print(json.dumps(doc, indent=2))
        else:
            print(f"length {2 * args.exists}: {res.status}")
            if args.witness and res.witness is not None:
                print(_witness_line(res.witness))
        return EXIT_UNKNOWN if res.status == UNKNOWN else EXIT_OK
    # A loadable document has at most MAX_LINES lines, so every longer length
    # is absent by counting; refusing larger N keeps the work bounded.
    if args.spectrum > MAX_LINES:
        raise ArrangementError(f"--spectrum needs MAX <= {MAX_LINES}, got {args.spectrum}")
    sp = spectrum(arr, i_max=args.spectrum, budget=budget)
    if args.format == "json":
        print(sp.to_json(indent=2))
    else:
        for i, res in sorted(sp.results.items()):
            line = f"i = {i:2d}  length {2 * i:3d}  {res.status}"
            if args.witness and res.witness is not None:
                line += "  " + _witness_line(res.witness)
            print(line)
    hit = any(r.status == UNKNOWN for r in sp.results.values())
    return EXIT_UNKNOWN if hit else EXIT_OK


def _report_doc(report, timing: bool) -> dict:
    doc = asdict(report)
    if not timing:
        doc.pop("wall_time")
    return doc


def _cmd_verify(args) -> int:
    budget = args.budget
    params = _family_params(args)
    if not args.all and args.claim not in CHECKERS:
        reports = [verify_named_claim(args.claim, params, budget=budget)]
    elif params:
        flags = ", ".join(f"--{key}" for key in params)
        raise ArrangementError(
            f"{flags}: family flags go with a named claim, not with --all or a checker id"
        )
    elif args.all:
        reports = all_checkers(_load(args.file), budget=budget)
    else:
        reports = [CHECKERS[args.claim](_load(args.file), budget=budget)]
    if args.format == "json":
        print(json.dumps([_report_doc(r, args.timing) for r in reports], indent=2))
    else:
        for idx, report in enumerate(reports):
            if idx:
                print()
            print(report.summary())
            if args.timing:
                print(f"  wall time: {report.wall_time:.3f} s")
    if any(r.verdict == REFUTED for r in reports):
        return EXIT_REFUTED
    if any(r.verdict == VERDICT_UNKNOWN for r in reports):
        return EXIT_UNKNOWN
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    arr = _load(args.file)
    edges = [(f"x{p}", f"y{j}") for p, j in build_levi(arr).edges]
    oracle_lengths = oracle_induced_cycle_lengths(edges)
    solver_lengths = {2 * i for i in spectrum(arr).found}
    print("solver lengths: " + (", ".join(map(str, sorted(solver_lengths))) or "none"))
    print("oracle lengths: " + (", ".join(map(str, sorted(oracle_lengths))) or "none"))
    if solver_lengths == oracle_lengths:
        print("agree")
        return EXIT_OK
    print("DISAGREE")
    return EXIT_REFUTED


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    for key in _FAMILY_FLAGS:
        if key == "chosen":
            p.add_argument("--chosen", type=_parse_chosen, help="comma-separated exponents for a_w_k")
        else:
            p.add_argument(f"--{key}", type=int)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levicycles",
        description="Induced cycles in Levi graphs of line arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a named family and write arrangement JSON")
    p.add_argument("family", choices=sorted(FAMILIES))
    _add_family_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("stats", help="print k, s, the t_r table and modular points")
    p.add_argument("file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("levi", help="export the Levi graph")
    p.add_argument("file")
    fmt = p.add_mutually_exclusive_group(required=True)
    fmt.add_argument("--dot", action="store_true")
    fmt.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_levi)

    p = sub.add_parser("cycles", help="run the induced-cycle solver")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--longest", action="store_true")
    mode.add_argument("--exists", type=int, metavar="I")
    mode.add_argument("--spectrum", type=int, metavar="MAX")
    p.add_argument("--budget", type=int)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_cycles)

    p = sub.add_parser("verify", help="run claim checkers and print reports")
    p.add_argument(
        "file", nargs="?", help="arrangement JSON; required with --all or a checker id"
    )
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument(
        "--claim",
        metavar="ID",
        help="checker id (%s) or named claim (%s); a named claim builds its "
        "family's arrangement and takes that family's flags, as build does"
        % (", ".join(sorted(CHECKERS)), ", ".join(NAMED_CLAIMS)),
    )
    which.add_argument("--all", action="store_true", help="run every checker on FILE")
    _add_family_flags(p)
    p.add_argument("--budget", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timing", action="store_true", help="include wall-clock time")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle-check", help="compare solver spectrum with the brute-force oracle")
    p.add_argument("file")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter shutdown
        return code
    except BrokenPipeError:
        # The reader stopped reading (``| head -1``): not an input error.  The
        # rest of the output goes to devnull, so the final flush is quiet too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ArrangementError, TooLarge, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
