"""Span shims for the benchmark's traced run.

A :class:`Tracer` wraps public levicycles functions from outside the
package.  Each wrapped call records a span (name, start, end, parent span,
request id, outcome) in memory.  A shim replaces a function everywhere a
caller looks it up: in every loaded ``levicycles`` module and in the
package namespace.  So ``spectrum`` calling ``exists_cycle`` through the
``cycles`` globals, and ``claims``/``cli`` calling their own imported
copies, are all seen.  Names that a later version of the package drops are
skipped, and their metrics read 0.

The untraced run installs nothing.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

FAMILY_BUILDERS = (
    "near_pencil", "two_modular", "generic", "ceva", "hesse", "nine_three",
    "ten_line", "mu4", "supersolvable_mu3", "a_w_k", "build_family",
)
COORDINATE_LINES = (
    "ceva_coordinate_lines", "mu4_coordinate_lines",
    "supersolvable_mu3_coordinate_lines", "a_w_k_coordinate_lines",
)
CLAIM_REPORTS = (
    "verify_c6", "verify_c8", "verify_c10", "verify_t3_bounds",
    "verify_tq_bounds", "verify_no_2k_supersolvable", "verify_named_claim",
)

# module -> functions that get a span
SPANNED = {
    "cycles": ("exists_cycle", "longest_cycle", "spectrum", "validate_witness"),
    "families": FAMILY_BUILDERS + COORDINATE_LINES,
    "projective": ("arrangement_from_lines",),
    "claims": CLAIM_REPORTS + ("all_checkers",),
    "oracle": ("oracle_induced_cycle_lengths",),
    "levi": ("build_levi", "girth"),
    "arrangement": ("arrangement_from_json", "validate_arrangement", "arrangement_to_json"),
    "cli": ("run",),
}
# module -> functions that are only counted (too many calls for a span each)
COUNTED = {"projective": ("meet",)}
# (module, class, method) that get a span
SPANNED_METHODS = (("levi", "LeviGraph", "to_networkx"),)

SOLVER = ("cycles.exists_cycle", "cycles.longest_cycle")


class Tracer:
    """Collects spans and call counts while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent, request, outcome)
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "levicycles" or n.startswith("levicycles.")]
        for mod_name, names in SPANNED.items():
            for fname in names:
                self._replace(modules, mod_name, fname, lambda f, n: self._span_shim(n, f))
        for mod_name, names in COUNTED.items():
            for fname in names:
                self._replace(modules, mod_name, fname, lambda f, n: self._count_shim(n, f))
        for mod_name, cls_name, meth in SPANNED_METHODS:
            cls = getattr(sys.modules.get(f"levicycles.{mod_name}"), cls_name, None)
            orig = getattr(cls, meth, None)
            if orig is not None:
                self._patched.append((cls, meth, orig))
                setattr(cls, meth, self._span_shim(f"{mod_name}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _replace(self, modules, mod_name, fname, make) -> None:
        orig = getattr(sys.modules.get(f"levicycles.{mod_name}"), fname, None)
        if orig is None:
            return
        shim = make(orig, f"{mod_name}.{fname}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, shim)

    def _span_shim(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            outcome = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                outcome = _outcome(name, args, result)
                return result
            except Exception as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request, outcome)

        return shim

    def _count_shim(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return shim

    def to_json_ready(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "request", "outcome")
        return [dict(zip(keys, s)) for s in self.spans]


def _outcome(name, args, result):
    """The part of a result the layer metrics need."""
    if name in SOLVER:
        return (result.status, result.nodes)
    if name == "oracle.oracle_induced_cycle_lengths":
        g = args[0]
        return len(g) if hasattr(g, "__len__") else None
    return None


def layer_metrics(spans: list[tuple], offset: int, counts: Counter) -> dict[str, float]:
    """Per-layer totals over the spans of one traced pass.

    ``spans`` is the pass's slice of :attr:`Tracer.spans`, which starts at
    index ``offset`` of the full list.  Parent indices point into the full
    list; a pass starts with an empty span stack, so every parent lies in
    the slice.  ``counts`` holds the pass's call counts.
    """
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    parents = [None if s[3] is None else s[3] - offset for s in spans]
    child_time = [0.0] * len(spans)
    for i, p in enumerate(parents):
        if p is not None:
            child_time[p] += dur[i]

    def idx(*wanted):
        return [i for i, n in enumerate(names) if n in wanted]

    def under(i, prefix):
        return parents[i] is not None and names[parents[i]].startswith(prefix)

    def total(ix):
        return sum(dur[i] for i in ix)

    def mean_ms(ix):
        return 1000 * total(ix) / len(ix) if ix else 0.0

    def self_ms(ix):
        return 1000 * sum(dur[i] - child_time[i] for i in ix)

    exists = [i for i in idx("cycles.exists_cycle") if isinstance(spans[i][5], tuple)]
    found = [i for i in exists if spans[i][5][0] == "found"]
    absent = [i for i in exists if spans[i][5][0] == "absent"]
    absent_s = total(absent)
    absent_nodes = sum(spans[i][5][1] for i in absent)
    validate = idx("cycles.validate_witness")
    builders = idx(*(f"families.{b}" for b in FAMILY_BUILDERS))
    claims = [i for i, n in enumerate(names) if n.startswith("claims.")]
    oracle = idx("oracle.oracle_induced_cycle_lengths")
    from_json = idx("arrangement.arrangement_from_json")
    cli_runs = idx("cli.run")
    return {
        "cycles.absent_s": absent_s,
        "cycles.absent_nodes": absent_nodes,
        "cycles.absent_nodes_per_s": absent_nodes / absent_s if absent_s else 0.0,
        "cycles.nodes_per_answer": sum(spans[i][5][1] for i in exists) / len(exists) if exists else 0.0,
        "cycles.found_s": total(found),
        "cycles.found_nodes": sum(spans[i][5][1] for i in found),
        "cycles.longest_s": total(idx("cycles.longest_cycle")),
        "cycles.exists_calls": len(exists),
        "cycles.validate_witness_ms": mean_ms(validate),
        "cycles.witnesses": len(validate),
        "families.coordinate_lines_s": total(idx(*(f"families.{c}" for c in COORDINATE_LINES))),
        "projective.arrangement_from_lines_s": total(idx("projective.arrangement_from_lines")),
        "projective.meets": counts["projective.meet"],
        "families.build_s": total(i for i in builders if not under(i, "families.")),
        "claims.verify_s": total(i for i in claims if not under(i, "claims.")),
        "claims.self_ms": self_ms(claims),
        "claims.reports": len(idx(*(f"claims.{c}" for c in CLAIM_REPORTS))),
        "claims.solver_calls": sum(1 for i in idx(*SOLVER) if under(i, "claims.")),
        "oracle.lengths_s": total(oracle),
        "oracle.vertices": sum(spans[i][5] for i in oracle if isinstance(spans[i][5], int)),
        "oracle.too_large": sum(1 for i in oracle if spans[i][5] == "TooLarge"),
        "levi.build_levi_ms": mean_ms(idx("levi.build_levi")),
        "levi.girth_ms": mean_ms(idx("levi.girth")),
        "levi.to_networkx_ms": mean_ms(idx("levi.to_networkx")),
        "arrangement.from_json_ms": mean_ms(from_json),
        "arrangement.from_json_calls": len(from_json),
        "arrangement.validate_ms": mean_ms(idx("arrangement.validate_arrangement")),
        "arrangement.to_json_ms": mean_ms(idx("arrangement.arrangement_to_json")),
        "cli.run_ms": mean_ms(cli_runs),
        "cli.self_ms": self_ms(cli_runs) / len(cli_runs) if cli_runs else 0.0,
    }

