"""The benchmark's workloads: set-up, timed operations and answer checks.

A workload's constructor is its set-up: it builds, relabels and writes every
input.  :attr:`Workload.ops` lists the operations of one pass; the harness
runs them in a seeded order, times them and calls :meth:`Workload.finish`
afterwards for the checks that are cheaper to make once per distinct input.
Every public call uses the package's default arguments (no ``threads=``,
no ``budget=``).

An operation fails when any of its answers is wrong: a witness that
``validate_witness`` rejects, a spectrum or longest cycle that disagrees
with the brute-force oracle or with a frozen answer, a verdict that differs
from its frozen value, or a CLI call that exits with the wrong code or
prints a traceback.  Hostile CLI inputs are probes, not operations that can
fail: each either ends in a clean rejection or it does not, and the share
that does not lowers ``ok_rate``.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
import subprocess
import sys
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import levicycles as lc
import levicycles.cli  # noqa: F401  (loaded so the traced run can shim cli.run)

import corpus

ORACLE_CAP = 40  # vertices; the oracle's default cap
CLI_TIMEOUT_S = 120


@dataclass
class Execution:
    """One run of one operation."""

    op: str
    nodes: int = 0
    failures: list[str] = field(default_factory=list)
    hostile: bool = False
    clean: bool = True  # hostile probes only: rejected with exit 2 and an error line
    child_cpu: float = 0.0
    child_rss_kb: int = 0
    record: object = None  # what finish() needs to check later

    @property
    def ok(self) -> bool:
        return not self.failures and self.clean


@dataclass
class Op:
    name: str
    run: Callable[[], Execution]


def check_witness(arr, witness, i, ex: Execution, what: str) -> None:
    if witness is None:
        ex.failures.append(f"{what}: found without a witness")
        return
    if len(witness.lines) != i:
        ex.failures.append(f"{what}: witness has {len(witness.lines)} lines, expected {i}")
    report = lc.validate_witness(arr, witness)
    if not report.passed:
        ex.failures.append(f"{what}: invalid witness: {report.failures[0]}")


def check_spectrum(arr, sp, ex: Execution, what: str) -> None:
    ex.nodes += sum(r.nodes for r in sp.results.values())
    for i, r in sorted(sp.results.items()):
        if r.status == lc.FOUND:
            check_witness(arr, r.witness, i, ex, f"{what} i={i}")
        elif r.status != lc.ABSENT:
            ex.failures.append(f"{what} i={i}: status {r.status}")


def levi_adjacency(arr) -> dict[str, list[str]]:
    """The Levi graph as plain adjacency lists, the oracle's input.

    Not ``LeviGraph.to_networkx``: ROADMAP item 2 may move that off the
    runtime path, and the oracle takes plain graph data as well.
    """
    g = lc.build_levi(arr)
    adj: dict[str, list[str]] = {f"x{p}": [] for p in range(g.s)}
    adj.update({f"y{j}": [] for j in range(g.k)})
    for p, j in g.edges:
        adj[f"x{p}"].append(f"y{j}")
        adj[f"y{j}"].append(f"x{p}")
    return adj


class OracleMemo:
    """Oracle cycle lengths per input label, computed once per run."""

    def __init__(self) -> None:
        self._lengths: dict[str, set[int]] = {}

    def lengths(self, label: str, arr) -> set[int]:
        if label not in self._lengths:
            self._lengths[label] = lc.oracle_induced_cycle_lengths(levi_adjacency(arr))
        return self._lengths[label]


class Workload:
    name = ""
    # "pass" when a user waits for a whole pass, "call" when for each op
    request_unit = "pass"
    # How cli_small starts the CLI: the environment of its child
    # interpreters, or in process (the traced run).  Unused elsewhere.
    env: dict | None = None
    in_process = False

    ops: list[Op]  # one pass, set by the constructor

    def finish(self, executions: list[Execution]) -> None:
        """Checks made once after the timed loop; they add failures."""


# ---------------------------------------------------------------------------


class AbsentSpectrum(Workload):
    """Absence proofs: full spectra and longest-cycle scans."""

    name = "absent_spectrum"
    SPECTRA = {
        "full": (("ceva", (6,)), ("supersolvable_mu3", (7,)), ("a_w_k", (7, 3)), ("hesse", ())),
        "tiny": (("hesse", ()), ("mu4", ())),
    }
    LONGEST = {
        "full": (("a_w_k", (7, 3)), ("hesse", ()), ("ceva", (5,)), ("supersolvable_mu3", (6,))),
        "tiny": (("ceva", (3,)), ("a_w_k", (5, 1))),
    }

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        rng = random.Random(seed)
        self.oracle = OracleMemo()
        self.ops = []
        for kind, specs, fn in (
            ("spectrum", self.SPECTRA[size], self._spectrum),
            ("longest", self.LONGEST[size], self._longest),
        ):
            for spec in specs:
                name = corpus.label(spec)
                arr = corpus.relabel(corpus.build(spec), rng)
                self.ops.append(Op(f"{kind}:{name}", partial(fn, name, arr)))

    def _spectrum(self, name, arr) -> Execution:
        ex = Execution(f"spectrum:{name}")
        sp = lc.spectrum(arr)
        check_spectrum(arr, sp, ex, ex.op)
        if sp.found != corpus.FROZEN_FOUND[name]:
            ex.failures.append(f"{ex.op}: found {sp.found}, frozen {corpus.FROZEN_FOUND[name]}")
        ex.record = (name, arr, set(sp.found))
        return ex

    def _longest(self, name, arr) -> Execution:
        ex = Execution(f"longest:{name}")
        res = lc.longest_cycle(arr)
        ex.nodes = res.nodes
        if res.status != lc.FOUND:
            ex.failures.append(f"{ex.op}: status {res.status}")
        else:
            check_witness(arr, res.witness, res.i, ex, ex.op)
        expected = max(corpus.FROZEN_FOUND[name])
        if res.i != expected:
            ex.failures.append(f"{ex.op}: longest i={res.i}, frozen {expected}")
        ex.record = (name, arr, res.i)
        return ex

    def finish(self, executions) -> None:
        for ex in executions:
            if ex.record is None:  # the call raised
                continue
            name, arr, answer = ex.record
            if arr.k + arr.s > ORACLE_CAP:
                continue
            lengths = {n // 2 for n in self.oracle.lengths(name, arr)}
            want = max(lengths, default=None) if ex.op.startswith("longest:") else lengths
            if answer != want:
                ex.failures.append(f"{ex.op}: answer {answer}, oracle {want}")


# ---------------------------------------------------------------------------


class ClaimsCoords(Workload):
    """Exact geometry, claim checkers, witness validation and the oracle."""

    name = "claims_coords"
    COORDS = {"full": corpus.COORDINATE_FAMILIES, "tiny": (("ceva", (3,)), ("mu4", ()))}
    POOL = {
        "full": corpus.FULL_POOL,
        "tiny": (("mu4", ()), ("nine_three", ()), ("near_pencil", (4,)), ("ceva", (5,))),
    }
    NAMED = {"full": corpus.NAMED_CLAIMS, "tiny": corpus.NAMED_CLAIMS[7:8] + corpus.NAMED_CLAIMS[-1:]}

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        rng = random.Random(seed)
        self.ops = []
        for spec in self.COORDS[size]:  # the seed permutes each family's lines
            builder = corpus.build(spec)
            perm = list(range(builder.k))
            rng.shuffle(perm)
            expected = {frozenset(perm[j] for j in fs) for fs in builder.point_lines}
            name = corpus.label(spec)
            self.ops.append(Op(f"coords:{name}", partial(self._coords, name, spec, perm, expected)))
        # The pool keeps its builder labels: relabeling it moves this pass's
        # node count by about 10 % between seeds (two_modular(5,6) from 5.8 k
        # to 10.2 k, a_w_k(6,2) from 1.7 k to 8.4 k) for searches that are
        # not what this workload measures.
        for spec in self.POOL[size]:
            name = corpus.label(spec)
            self.ops.append(Op(f"pool:{name}", partial(self._pool, name, corpus.build(spec))))
        self.oracle_only = {}
        for claim, params, spec, verdict in self.NAMED[size]:
            name = f"{claim}({','.join(f'{k}={v}' for k, v in params.items())})"
            arr = corpus.build(spec)
            if verdict is None:
                self.oracle_only[name] = (corpus.label(spec), arr)
            self.ops.append(Op(f"claim:{name}", partial(self._claim, name, claim, params, arr, verdict)))
        self.oracle = OracleMemo()

    def _coords(self, name, spec, perm, expected) -> Execution:
        ex = Execution(f"coords:{name}")
        lines = corpus.coordinate_lines(spec)
        permuted = [None] * len(lines)
        for j, line in enumerate(lines):
            permuted[perm[j]] = line
        arr = lc.arrangement_from_lines(permuted)
        if set(arr.point_lines) != expected:
            ex.failures.append(f"{ex.op}: coordinate incidences differ from the builder")
        back = lc.arrangement_from_json(lc.arrangement_to_json(arr))
        if back != arr or back.coordinates != arr.coordinates:
            ex.failures.append(f"{ex.op}: JSON round trip changed the arrangement")
        return ex

    def _pool(self, name, arr) -> Execution:
        ex = Execution(f"pool:{name}")
        frozen = corpus.FROZEN_VERDICTS.get(name, {})
        for report in lc.all_checkers(arr):
            ex.nodes += report.nodes
            what = f"{ex.op} {report.claim}"
            if report.verdict == lc.VERDICT_UNKNOWN:
                ex.failures.append(f"{what}: verdict Unknown")
            if frozen and frozen.get(report.claim) != report.verdict:
                ex.failures.append(f"{what}: {report.verdict}, frozen {frozen.get(report.claim)}")
            for w in report.witnesses:
                check_witness(arr, w, len(w.lines), ex, what)
        sp = lc.spectrum(arr)
        check_spectrum(arr, sp, ex, f"{ex.op} spectrum")
        if name in corpus.FROZEN_FOUND and sp.found != corpus.FROZEN_FOUND[name]:
            ex.failures.append(f"{ex.op}: found {sp.found}, frozen {corpus.FROZEN_FOUND[name]}")
        g = lc.build_levi(arr)
        girth = lc.girth(g)
        if girth != (2 * min(sp.found) if sp.found else float("inf")):
            ex.failures.append(f"{ex.op}: girth {girth} disagrees with spectrum {sp.found}")
        try:
            lengths = lc.oracle_induced_cycle_lengths(levi_adjacency(arr))
        except lc.TooLarge:
            if arr.k + arr.s <= ORACLE_CAP:
                ex.failures.append(f"{ex.op}: oracle refused a graph within its cap")
        else:
            if lengths != {2 * i for i in sp.found}:
                ex.failures.append(f"{ex.op}: spectrum {sp.found}, oracle lengths {sorted(lengths)}")
        return ex

    def _claim(self, name, claim, params, arr, verdict) -> Execution:
        ex = Execution(f"claim:{name}")
        report = lc.verify_named_claim(claim, dict(params))
        ex.nodes = report.nodes
        if report.verdict == lc.VERDICT_UNKNOWN:
            ex.failures.append(f"{ex.op}: verdict Unknown")
        if verdict is not None and report.verdict != verdict:
            ex.failures.append(f"{ex.op}: {report.verdict}, frozen {verdict}")
        for w in report.witnesses:
            check_witness(arr, w, len(w.lines), ex, ex.op)
        ex.record = max((w.length for w in report.witnesses), default=None)
        return ex

    def finish(self, executions) -> None:
        # Longest claims about builders without frozen answers: the longest
        # witness must be as long as the oracle's longest induced cycle.
        for ex in executions:
            name = ex.op.partition(":")[2]
            if ex.op.startswith("claim:") and name in self.oracle_only and not ex.failures:
                want = max(self.oracle.lengths(*self.oracle_only[name]), default=None)
                if ex.record != want:
                    ex.failures.append(f"{ex.op}: longest witness {ex.record}, oracle {want}")


# ---------------------------------------------------------------------------


@dataclass
class CallResult:
    code: int
    out: str
    err: str


class CliSmall(Workload):
    """One CLI call at a time on small JSON inputs, plus hostile inputs."""

    name = "cli_small"
    request_unit = "call"
    COORDINATE_INPUTS = (("ceva", (4,)), ("mu4", ()), ("a_w_k", (5, 1)))

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        rng = random.Random(seed)
        self.workdir = workdir
        os.makedirs(os.path.join(workdir, "inputs"), exist_ok=True)
        self.arrs: dict[str, lc.Arrangement] = {}
        self.paths: dict[str, str] = {}
        for spec in corpus.SMALL_POOL:
            self._write(corpus.label(spec), corpus.relabel(corpus.build(spec), rng))
        for spec in self.COORDINATE_INPUTS:
            self._write(corpus.label(spec) + "+coords", corpus.relabel(corpus.realized(spec), rng))
        self.oracle = OracleMemo()
        self.built = os.path.join(workdir, "built.json")
        self.invocations = self._invocations(size)
        self.ops = [Op(name, partial(self._call, name, argv, hostile)) for name, argv, _, hostile in self.invocations]
        self._checks = {name: check for name, _, check, _ in self.invocations}

    def _write(self, name: str, arr) -> None:
        path = os.path.join(self.workdir, "inputs", re.sub(r"[^A-Za-z0-9_+]+", "_", name).strip("_") + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(lc.arrangement_to_json(arr))
        self.arrs[name] = arr
        self.paths[name] = path

    # -- the invocation list ------------------------------------------------

    def _invocations(self, size: str):
        p = self.paths
        normal = [
            ("build", ["build", "supersolvable_mu3", "--m", "5", "-o", self.built], self._check_build),
            ("stats:near_pencil(5)", ["stats", p["near_pencil(5)"]], self._check_stats("near_pencil(5)")),
            ("stats-json:ceva(4)+coords", ["stats", p["ceva(4)+coords"], "--format", "json"],
             self._check_stats("ceva(4)+coords")),
            ("levi:two_modular(5,6)", ["levi", p["two_modular(5,6)"], "--json"], self._check_levi("two_modular(5,6)")),
            ("spectrum:nine_three", ["cycles", p["nine_three"], "--spectrum", "9"], self._check_spectrum("nine_three", 9)),
            ("spectrum:a_w_k(5,1)+coords", ["cycles", p["a_w_k(5,1)+coords"], "--spectrum", "10"],
             self._check_spectrum("a_w_k(5,1)+coords", 10)),
            ("longest:mu4+coords", ["cycles", p["mu4+coords"], "--longest", "--witness", "--format", "json"],
             self._check_longest("mu4+coords")),
            ("longest:ceva(3)", ["cycles", p["ceva(3)"], "--longest", "--witness", "--format", "json"],
             self._check_longest("ceva(3)")),
            ("exists:ten_line", ["cycles", p["ten_line"], "--exists", "8", "--witness", "--format", "json"],
             self._check_exists("ten_line", 8)),
            ("exists:ceva(4)+coords", ["cycles", p["ceva(4)+coords"], "--exists", "7", "--witness", "--format", "json"],
             self._check_exists("ceva(4)+coords", 7)),
            ("verify-all:generic(5)", ["verify", p["generic(5)"], "--all"], self._check_verify_all("generic(5)")),
            ("verify-all:a_w_k(5,0)", ["verify", p["a_w_k(5,0)"], "--all"], self._check_verify_all("a_w_k(5,0)")),
            ("claim:hesse-longest", ["verify", p["near_pencil(8)"], "--claim", "hesse-longest", "--format", "json"],
             self._check_claim(("hesse", ()), "Confirmed")),
            ("claim:ceva-range(4)", ["verify", p["two_modular(2,3)"], "--claim", "ceva-range", "--n", "4",
                                     "--format", "json"], self._check_claim(("ceva", (4,)), "Refuted")),
            ("oracle-check:two_modular(3,4)", ["oracle-check", p["two_modular(3,4)"]], self._check_agree),
            ("oracle-check:ceva(4)+coords", ["oracle-check", p["ceva(4)+coords"]], self._check_agree),
        ]
        if size == "tiny":
            keep = {"stats-json:ceva(4)+coords", "longest:mu4+coords", "claim:hesse-longest",
                    "oracle-check:two_modular(3,4)"}
            normal = [inv for inv in normal if inv[0] in keep]
        out = [(name, argv, check, False) for name, argv, check in normal]
        base = lc.arrangement_to_json(self.arrs["mu4+coords"])
        for name, template, text in corpus.hostile_documents(base):
            path = os.path.join(self.workdir, "inputs", f"hostile-{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [path if a == "{doc}" else a for a in template]
            if name == corpus.CONTROL[0]:
                out.append((f"control:{name}", argv, self._check_control, False))
            else:
                out.append((f"hostile:{name}", argv, None, True))
        return out

    # -- running one call -----------------------------------------------------

    def _call(self, name, argv, hostile) -> Execution:
        ex = Execution(name, hostile=hostile)
        res = self._run_in_process(argv) if self.in_process else self._run_child(argv, ex)
        if hostile:
            ex.clean = res.code == 2 and "error:" in res.err and "Traceback" not in res.err
        elif "Traceback" in res.err:
            ex.failures.append(f"{name}: traceback: {res.err.strip().splitlines()[-1]}")
        ex.nodes = _reported_nodes(res.out)
        ex.record = res
        return ex

    def _run_child(self, argv, ex: Execution) -> CallResult:
        cmd = [sys.executable, "-c", "from levicycles.cli import main; main()", *argv]
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        ex.child_cpu = usage.ru_utime + usage.ru_stime
        ex.child_rss_kb = usage.ru_maxrss
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return CallResult(proc.returncode, stdout, stderr)

    @staticmethod
    def _run_in_process(argv) -> CallResult:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = lc.cli.run(argv)
            except Exception:
                traceback.print_exc()
                code = 1  # what an uncaught exception exits with
        return CallResult(code, out.getvalue(), err.getvalue())

    # -- checks, made after the timed loop ---------------------------------

    def finish(self, executions) -> None:
        for ex in executions:
            check = self._checks[ex.op]
            if check is not None and ex.record is not None:
                ex.failures.extend(f"{ex.op}: {msg}" for msg in check(ex.record))

    def _lengths(self, name) -> set[int]:
        return {n // 2 for n in self.oracle.lengths(name, self.arrs[name])}

    def _witness(self, arr, doc, i) -> list[str]:
        w = lc.InducedCycleWitness(tuple(doc["lines"]), tuple(doc["points"]))
        ex = Execution("witness")
        check_witness(arr, w, i, ex, "witness")
        return ex.failures

    def _check_build(self, res):
        if res.code != 0:
            return [f"exit {res.code}"]
        with open(self.built, encoding="utf-8") as fh:
            arr = lc.arrangement_from_json(fh.read())
        return [] if arr == corpus.build(("supersolvable_mu3", (5,))) else ["built file differs from the builder"]

    def _check_stats(self, name):
        arr = self.arrs[name]
        prof = lc.multiplicity_profile(arr)
        mods = sorted(lc.modular_points(arr))

        def check(res):
            if res.code != 0:
                return [f"exit {res.code}"]
            if name.endswith("+coords"):
                doc = json.loads(res.out)
                got = (doc["k"], doc["s"], {int(r): c for r, c in doc["t"].items()}, doc["modular_points"])
            else:
                kv = dict(re.findall(r"^(\S+) = (\d+)$", res.out, re.M))
                mod_line = re.search(r"^modular points: (.*)$", res.out, re.M).group(1)
                got = (int(kv["k"]), int(kv["s"]),
                       {int(key[2:]): int(v) for key, v in kv.items() if key.startswith("t_")},
                       [] if mod_line == "none" else [int(x) for x in mod_line.split(", ")])
            want = (arr.k, arr.s, dict(prof.t), mods)
            return [] if got == want else [f"stats {got} != {want}"]

        return check

    def _check_levi(self, name):
        arr = self.arrs[name]

        def check(res):
            if res.code != 0:
                return [f"exit {res.code}"]
            doc = json.loads(res.out)
            edges = {(p, j) for p, fs in enumerate(arr.point_lines) for j in fs}
            ok = doc["s"] == arr.s and doc["k"] == arr.k and {tuple(e) for e in doc["edges"]} == edges
            return [] if ok else ["Levi graph differs from the incidences"]

        return check

    def _check_spectrum(self, name, i_max):
        def check(res):
            if res.code != 0:
                return [f"exit {res.code}"]
            got = {int(i): status for i, status in re.findall(r"^i =\s*(\d+)\s+length\s+\d+\s+(\S+)", res.out, re.M)}
            lengths = self._lengths(name)
            want = {i: ("found" if i in lengths else "absent") for i in range(3, i_max + 1)}
            return [] if got == want else [f"spectrum {got}, oracle {want}"]

        return check

    def _check_longest(self, name):
        def check(res):
            if res.code != 0:
                return [f"exit {res.code}"]
            doc = json.loads(res.out)
            want = max(self._lengths(name))
            if doc["status"] != "found" or doc["length"] != 2 * want:
                return [f"longest {doc['status']} {doc['length']}, oracle {2 * want}"]
            return self._witness(self.arrs[name], doc["witness"], want)

        return check

    def _check_exists(self, name, i):
        def check(res):
            if res.code != 0:
                return [f"exit {res.code}"]
            doc = json.loads(res.out)
            want = "found" if i in self._lengths(name) else "absent"
            if doc["status"] != want:
                return [f"status {doc['status']}, oracle {want}"]
            return self._witness(self.arrs[name], doc["witness"], i) if want == "found" else []

        return check

    def _check_verify_all(self, name):
        frozen = corpus.FROZEN_VERDICTS[name]

        def check(res):
            got = dict(re.findall(r"^(\S+): (\w+)$", res.out, re.M))
            want_code = 1 if "Refuted" in frozen.values() else 0
            if got != frozen or res.code != want_code:
                return [f"verdicts {got} exit {res.code}, frozen {frozen} exit {want_code}"]
            return []

        return check

    def _check_claim(self, spec, verdict):
        arr = corpus.build(spec)

        def check(res):
            want_code = 1 if verdict == "Refuted" else 0
            if res.code != want_code:
                return [f"exit {res.code}, expected {want_code}"]
            (doc,) = json.loads(res.out)
            if doc["verdict"] != verdict:
                return [f"verdict {doc['verdict']}, frozen {verdict}"]
            return [msg for w in doc["witnesses"] for msg in self._witness(arr, w, len(w["lines"]))]

        return check

    @staticmethod
    def _check_agree(res):
        return [] if res.code == 0 and res.out.rstrip().endswith("agree") else [f"exit {res.code}: {res.out!r}"]

    def _check_control(self, res):
        return [] if res.code == 0 and "k = 6" in res.out else [f"exit {res.code}: {res.err.strip()!r}"]


def _reported_nodes(stdout: str) -> int:
    """Search nodes a CLI call printed in its JSON output, if any."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return 0
    docs = doc if isinstance(doc, list) else [doc]
    return sum(d.get("nodes", 0) for d in docs if isinstance(d, dict) and isinstance(d.get("nodes"), int))


WORKLOADS = {w.name: w for w in (AbsentSpectrum, ClaimsCoords, CliSmall)}
