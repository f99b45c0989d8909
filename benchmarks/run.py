"""Benchmark for levicycles.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload absent_spectrum --seed 0 --seconds 40 --trace 0

Workloads (see DESIGN.md): ``absent_spectrum``, ``claims_coords`` and
``cli_small``.  The seed picks the random relabelings of every input and the
order of the operations in each pass.  The run sets up, then runs passes over
the workload's operations in a closed loop with one client until the next
operation would end after ``--seconds``, then checks every answer.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run, where every other pass runs with span shims installed.
Everything the run writes goes under ``.bench_build/`` in the checkout,
including the bytecode cache (``PYTHONPYCACHEPREFIX``), so nothing is
written under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
PYCACHE = os.path.join(BUILD, "pycache")
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    # From here on, the benchmark's modules and levicycles compile into the
    # benchmark's own cache, as the CLI children do.
    sys.pycache_prefix = PYCACHE
    sys.dont_write_bytecode = False

from spans import Tracer, layer_metrics  # noqa: E402

WORKLOAD_NAMES = ("absent_spectrum", "claims_coords", "cli_small")
SETUP_PROBES = 5  # fresh interpreters timed for setup_s; the median is reported
CLI_PROBES = 5  # fresh interpreters timed for cli.interp_ms and cli.import_ms


def metric_spec(trace: int) -> list[dict]:
    """The metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set up the workload and exit; used to time set-up in a fresh interpreter")
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_child(cmd, env) -> tuple[float, str]:
    """Wall seconds and standard output of one fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[:4]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return wall, proc.stdout


def p90(values) -> float:
    """The 90th percentile, interpolated between the samples around it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def measure(workload, args, tracer=None) -> dict:
    """Run passes until the deadline; return per-pass and per-request samples."""
    rng = random.Random(args.seed)
    min_passes = 2 if tracer else 1  # a traced run needs an untraced and a traced pass
    last: dict[str, float] = {}
    passes, requests, executions = [], [], []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        order = list(workload.ops)
        rng.shuffle(order)
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            first_span, counts_before = len(tracer.spans), tracer.counts.copy()
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        done = []
        try:
            for op in order:
                t0 = time.perf_counter()
                if len(passes) >= min_passes and t0 + last.get(op.name, 0.0) > deadline:
                    break
                if tracer is not None:
                    tracer.request += 1
                try:
                    ex = op.run()
                except Exception as exc:  # a crash is a failed operation, not a failed run
                    from workloads import Execution

                    ex = Execution(op.name, failures=[f"{op.name}: {type(exc).__name__}: {exc}"])
                last[op.name] = time.perf_counter() - t0
                done.append(ex)
                if workload.request_unit == "call":
                    requests.append(last[op.name])
        finally:
            if traced:
                tracer.uninstall()
        executions.extend(done)
        if len(done) < len(order):
            break
        entry = {
            "wall": time.perf_counter() - wall0,
            "cpu": time.process_time() - cpu0 + sum(ex.child_cpu for ex in done),
            "nodes": sum(ex.nodes for ex in done),
            "executions": done,
            "traced": traced,
        }
        if traced:
            entry["layers"] = layer_metrics(tracer.spans[first_span:], first_span, tracer.counts - counts_before)
        passes.append(entry)
        if workload.request_unit == "pass" and not traced:
            requests.append(entry["wall"])
        if time.perf_counter() >= deadline and len(passes) >= min_passes:
            break
    return {"passes": passes, "requests": requests, "executions": executions}


def end_to_end(run, setup_times) -> dict:
    passes = run["passes"]
    ok_shares = [sum(ex.ok for ex in p["executions"]) / len(p["executions"]) for p in passes]
    # the largest CLI child on cli_small, this process elsewhere
    rss_kb = max(ex.child_rss_kb for ex in run["executions"]) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median(p["wall"] for p in passes),
        "pass_cpu_s": statistics.median(p["cpu"] for p in passes),
        "request_ms_p50": 1000 * statistics.median(run["requests"]),
        "request_ms_p90": 1000 * p90(run["requests"]),
        "search_nodes": statistics.median_low(p["nodes"] for p in passes),
        "peak_rss_mb": rss_kb / 1024,
        "ok_rate": statistics.median(ok_shares),
    }


def per_layer(run, setup_layers, cli_probes) -> dict:
    passes = run["passes"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {key: statistics.median(p["layers"][key] for p in traced) for key in traced[0]["layers"]}
    metrics["families.build_s"] = setup_layers["families.build_s"]
    hostile = [ex for p in passes for ex in p["executions"] if ex.hostile]
    metrics["arrangement.rejects"] = sum(ex.clean for ex in hostile) / len(hostile) if hostile else 0.0
    metrics["cli.interp_ms"], metrics["cli.import_ms"] = cli_probes
    metrics["trace.overhead"] = statistics.median(p["wall"] for p in traced) / statistics.median(
        p["wall"] for p in plain
    )
    return metrics


def cli_probe_times(env) -> tuple[float, float]:
    """Median ms of a bare interpreter and of importing levicycles.cli in one."""
    bare = [timed_child([sys.executable, "-c", "pass"], env)[0] for _ in range(CLI_PROBES)]
    code = "import time; t = time.perf_counter(); import levicycles.cli; print(time.perf_counter() - t)"
    imports = [float(timed_child([sys.executable, "-c", code], env)[1]) for _ in range(CLI_PROBES)]
    return 1000 * statistics.median(bare), 1000 * statistics.median(imports)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "levicycles", "__init__.py")):
        print(f"error: no levicycles sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    workdir = os.path.join(BUILD, "work", f"{args.workload}-{args.seed}")
    env = child_env()

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        return 0

    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    setup_times = []
    if not args.trace:
        probe = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", "0", "--size", args.size, "--setup-only"]
        setup_times = [timed_child(probe, env)[0] for _ in range(SETUP_PROBES)]

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
    workload.env = env
    if tracer:
        tracer.uninstall()
        setup_layers = layer_metrics(tracer.spans, 0, tracer.counts)
        tracer.counts.clear()
        workload.in_process = True

    run = measure(workload, args, tracer)
    workload.finish(run["executions"])

    failures = [msg for ex in run["executions"] for msg in ex.failures]
    for msg in failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    if args.trace:
        cli_probes = cli_probe_times(env) if args.workload == "cli_small" else (0.0, 0.0)
        metrics = per_layer(run, setup_layers, cli_probes)
        with open(os.path.join(workdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json_ready(), fh)
    else:
        metrics = end_to_end(run, setup_times)
    passes = run["passes"]
    print("pass walls: " + " ".join(f"{p['wall']:.3f}" for p in passes), file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} complete passes, "
        f"{len(run['executions'])} operations, {len(run['requests'])} request samples, {len(failures)} failures",
        file=sys.stderr,
    )
    result = {
        "correct": not failures,
        "attempted": len(run["executions"]),
        "failed": sum(1 for ex in run["executions"] if ex.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in metric_spec(args.trace)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
