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


def _parse_chosen(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ArrangementError(f"--chosen expects comma-separated integers, got {text!r}")


def _load(path: str | None):
    if path is None:
        raise ArrangementError("an arrangement FILE is required with --all or a checker id")
    with open(path, "r", encoding="utf-8") as fh:
        return arrangement_from_json(fh.read())


def _witness_line(witness) -> str:
    return f"witness lines={list(witness.lines)} points={list(witness.points)}"


def _family_params(args, keys: tuple[str, ...]) -> dict:
    """The family parameters given as flags, plus ``chosen`` when --chosen is."""
    params = {}
    for key in keys:
        value = getattr(args, key)
        if value is None:
            continue
        # Every family has at least as many lines as each of its parameters,
        # so a larger value only builds a document that no command loads.
        if value > MAX_LINES:
            raise ArrangementError(f"--{key} needs a value <= {MAX_LINES}, got {value}")
        params[key] = value
    chosen = _parse_chosen(args.chosen)
    if chosen is not None:
        params["chosen"] = chosen
    return params


def _cmd_build(args) -> int:
    arr = build_family(args.family, **_family_params(args, ("m", "n", "k", "a", "b")))
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
    if args.all:
        reports = all_checkers(_load(args.file), budget=budget)
    elif args.claim in CHECKERS:
        reports = [CHECKERS[args.claim](_load(args.file), budget=budget)]
    else:
        params = _family_params(args, ("n", "m", "k"))
        reports = [verify_named_claim(args.claim, params, budget=budget)]
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
    sp = spectrum(arr)
    if any(r.status == UNKNOWN for r in sp.results.values()):
        print("unknown: solver budget exhausted", file=sys.stderr)
        return EXIT_UNKNOWN
    solver_lengths = {2 * i for i in sp.found}
    print("solver lengths: " + (", ".join(map(str, sorted(solver_lengths))) or "none"))
    print("oracle lengths: " + (", ".join(map(str, sorted(oracle_lengths))) or "none"))
    if solver_lengths == oracle_lengths:
        print("agree")
        return EXIT_OK
    print("DISAGREE")
    return EXIT_REFUTED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levicycles",
        description="Induced cycles in Levi graphs of line arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a named family and write arrangement JSON")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--chosen", help="comma-separated exponents for a_w_k")
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
        help="checker id (%s) or named claim (%s); named claims use their "
        "own family arrangement and take --n/--m/--k/--chosen"
        % (", ".join(sorted(CHECKERS)), ", ".join(NAMED_CLAIMS)),
    )
    which.add_argument("--all", action="store_true", help="run every checker on FILE")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--chosen")
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
    except (ArrangementError, TooLarge, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
