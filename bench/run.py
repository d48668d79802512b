"""uschub benchmark: seeded workloads, end-to-end metrics, traced per-layer metrics.

    python3 bench/run.py --workload {query,ring,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is taken from ``src/`` through
``sys.path`` and, for child processes, ``PYTHONPATH``.  Standard library only.

``--trace 0`` serves several seeded rounds of requests with no tracing;
throughput is the median over the cold rounds, the latency percentiles come
from every successful serving of every round, and every time is reported at
the reference machine speed of ``speed.py``.  The number of rounds is S over
the workload's nominal round time, kept within its ``min_rounds`` and
``max_rounds``; it never depends on the clock, so every run with the same
arguments does the same work.  ``--trace 1`` serves round 0 twice from cold
caches, once plain and once with every module's public functions wrapped
(see ``tracing.py``), and reports the per-layer metrics of the traced pass
plus its overhead against the plain one.

Outputs are checked after timing against independent routes the package
already has (see ``workloads.py``).  The report ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exit status: 0 when every output check passes, 1 when one fails, 2 when the
package is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import ExitStack
from time import perf_counter

from speed import CHILD_EVERY_S, CHILD_REF_S, KERNEL_EVERY_S, KERNEL_REF_S, Speedometer, child_kernel, kernel

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 7
# String hashing decides the layout of every dict keyed by variables, and with
# it a few percent of the run time: one fixed layout for every run.
HASH_SEED = "0"


def _declared(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, with their units, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


class Raised(str):
    """Marks a request that raised instead of returning an output."""


def _serve_one(serve, req):
    try:
        return serve(req)
    except Exception as exc:  # the loop must go on; the failure is counted
        return Raised(f"{type(exc).__name__}: {exc}")


def _serve_round(serve, requests, speed=None, in_process=True) -> tuple[list[tuple], list]:
    """Serve the requests one at a time; returns (timings, outputs).

    A timing is (start, end, seconds), where seconds leaves out the time
    ``speed``'s probe took in between.  For requests that start a child
    process, ``speed`` samples between requests instead.
    """
    gc.collect()  # every round starts with the same collector state
    busy = (lambda: speed.busy) if speed else (lambda: 0.0)
    timings, outputs = [], []
    for req in requests:
        if speed and not in_process:
            speed.tick()
        b0, t0 = busy(), perf_counter()
        out = _serve_one(serve, req)
        t1, b1 = perf_counter(), busy()
        timings.append((t0, t1, t1 - t0 - (b1 - b0)))
        outputs.append(out)
    return timings, outputs


def _at_ref(speed, timings) -> list[float]:
    """Each timing's seconds at the reference speed (see ``speed.py``)."""
    return [s * speed.scale(t0, t1) for t0, t1, s in timings]


def _spawn_seconds(code: str, marker: bytes | None = None) -> tuple[float, float]:
    """(start, end): spawning ``python -c code`` to its marker line (or to its exit)."""
    from workloads import CHILD_ENV

    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=CHILD_ENV, cwd=ROOT) as proc:
        line = proc.stdout.readline() if marker else b""
        t1 = perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or (marker and line.strip() != marker):
        raise RuntimeError(f"probe failed with exit {proc.returncode}: {code}")
    return (t0, t1) if marker else (t0, perf_counter())


def _setup_span(workload: str, seed: int) -> tuple[float, float]:
    """One fresh interpreter's time to start, import and generate the seeded inputs."""
    code = (f"import sys; sys.path[:0] = [{BENCH_DIR!r}, {SRC!r}]; "
            f"from workloads import WORKLOADS; WORKLOADS[{workload!r}]({seed}); print('ready', flush=True)")
    return _spawn_seconds(code, b"ready")


def _gate(workload, rounds_reqs: list[list], rounds_out: list[list]) -> tuple[dict, dict, dict]:
    """Check every distinct request once.

    ``rounds_out[r][i]`` is the output of request ``rounds_reqs[r][i]``.
    Returns (problems, request failures, {request: the output its checks
    saw}).  Outputs of time-outs take no part in any comparison: a time-out
    is a request failure only.
    """
    first: dict = {}
    problems: dict = {}
    servings: dict = {}
    timeouts: dict = {}
    for reqs, outputs in zip(rounds_reqs, rounds_out):
        for req, out in zip(reqs, outputs):
            servings[req] = servings.get(req, 0) + 1
            if isinstance(out, Raised):
                problems[req] = f"raised {out}"
            elif workload.timed_out(out):
                timeouts[req] = timeouts.get(req, 0) + 1
            elif workload.output_of(first.setdefault(req, out)) != workload.output_of(out):
                problems[req] = "the same request gave two different outputs"
    answered = [(req, out) for req, out in first.items() if req not in problems]
    found, request_failures = workload.check(answered)
    problems.update(found)
    for req, count in timeouts.items():
        request_failures[req] = f"no answer within the time limit in {count} of {servings[req]} servings"
    return problems, request_failures, first


def _round_count(workload, seconds: float) -> int:
    count = max(workload.min_rounds, round(seconds / workload.round_s))
    return min(count, workload.max_rounds) if workload.max_rounds else count


def _percentiles(latencies: list[float]) -> tuple[float, float]:
    if len(latencies) < 2:
        value = latencies[0] if latencies else float("nan")
        return value, value
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return cuts[4], cuts[8]


def _src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "uschub")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def _metadata(args, requests: int, rounds: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": requests,
        "rounds": rounds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _digest(workload, first: dict) -> str:
    from workloads import digest

    return digest((req, workload.output_of(first[req]) if req in first else "timeout")
                  for req in workload.requests)


# -- the two kinds of run ---------------------------------------------------------------

def timed_run(workload, args) -> dict:
    rounds = _round_count(workload, args.seconds)
    in_process = workload.name != "cli"
    setups, rounds_reqs, rounds_timing, rounds_out = [], [], [], []
    with ExitStack() as stack:
        spawns = stack.enter_context(Speedometer(child_kernel, CHILD_REF_S, CHILD_EVERY_S))
        speed = (stack.enter_context(Speedometer(kernel, KERNEL_REF_S, KERNEL_EVERY_S, timer=True, warmup=5))
                 if in_process else spawns)
        for r in range(rounds):
            # set-up is measured between the rounds, so that its samples see the
            # same spread of machine states as the rounds do
            while len(setups) < SETUP_REPEATS * (r + 1) / rounds:
                with speed.paused():
                    spawns.sample()
                    setups.append(_setup_span(workload.name, args.seed))
                    spawns.sample()
            requests = workload.round_requests(r)
            if workload.reset_each_round or not rounds_timing:
                workload.reset()
            timings, outputs = _serve_round(workload.serve, requests, speed, in_process)
            rounds_reqs.append(requests)
            rounds_timing.append(timings)
            rounds_out.append(outputs)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    problems, request_failures, first = _gate(workload, rounds_reqs, rounds_out)
    failed_reqs = set(problems) | set(request_failures)
    served = [[t for req, t in zip(reqs, timings) if req not in failed_reqs]
              for reqs, timings in zip(rounds_reqs, rounds_timing)]
    # throughput from the cold rounds, so that a warm ring pass never counts there
    cold = served if workload.reset_each_round else served[:1]
    rates = [len(timings) / sum(_at_ref(speed, timings)) for timings in cold if timings] or [0.0]
    p50, p90 = _percentiles(_at_ref(speed, [t for timings in served for t in timings]))
    raw_p50, raw_p90 = _percentiles([s for timings in served for _, _, s in timings])
    attempted = sum(len(reqs) for reqs in rounds_reqs)
    failed = attempted - sum(len(timings) for timings in served)
    metrics = {
        "throughput_rps": statistics.median(rates),
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(_at_ref(spawns, [(t0, t1, t1 - t0) for t0, t1 in setups])),
        "peak_rss_mb": peak_rss_mb,
        "success_ratio": 1.0 - failed / attempted,
    }
    wall = {
        "throughput_rps": statistics.median([len(timings) / sum(s for _, _, s in timings)
                                             for timings in cold if timings] or [0.0]),
        "latency_p50_ms": raw_p50 * 1e3,
        "latency_p90_ms": raw_p90 * 1e3,
        "setup_s": statistics.median(t1 - t0 for t0, t1 in setups),
    }
    return {
        "rounds": len(rounds_timing),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "request_failures": request_failures,
        "digest": _digest(workload, first),
        "metrics": _declared("end_to_end", metrics),
        "wall": wall,
        "speed": {"kernel": speed.ratio() if in_process else None, "child": spawns.ratio()},
    }


def traced_run(workload, args) -> dict:
    from tracing import Tracer

    workload.reset()
    t0 = perf_counter()
    plain_timing, plain = _serve_round(workload.serve, workload.requests)
    plain_elapsed = perf_counter() - t0
    workload.reset()
    tracer = Tracer()
    if workload.name == "cli":
        cli_layer = _cli_layer(workload, [t for _, _, t in plain_timing], plain)
        t0 = perf_counter()
        _, traced = _serve_round(lambda req: workload.serve(req, traced=True), workload.requests)
        traced_elapsed = perf_counter() - t0
        per_request = []
        for req, out in zip(workload.requests, traced):
            if not isinstance(out, Raised) and out[3] is not None:
                tracer.merge(out[3])
                per_request.append({"argv": list(req.argv), "aggregate": out[3]})
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, "cli.json"), "w") as fh:
            json.dump(per_request, fh)
    else:
        cli_layer = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0, "cli.verb_s": 0.0, "cli.timeouts": 0}

        def serve(req):
            tracer.request += 1
            return workload.serve(req)

        tracer.install()
        try:
            t0 = perf_counter()
            _, traced = _serve_round(serve, workload.requests)
            traced_elapsed = perf_counter() - t0
        finally:
            tracer.uninstall()
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, workload.name))
    problems, request_failures, first = _gate(workload, [workload.requests], [plain])
    for req, a, b in zip(workload.requests, plain, traced):
        if workload.timed_out(a) or workload.timed_out(b):
            continue
        if workload.output_of(a) != workload.output_of(b):
            problems[req] = "the traced pass gave a different output"
    failed_reqs = set(problems) | set(request_failures)
    layer = tracer.layer_metrics()
    layer.update(cli_layer)
    layer["trace.overhead_ratio"] = traced_elapsed / plain_elapsed - 1.0
    return {
        "rounds": 1,
        "attempted": len(workload.requests),
        "failed": sum(1 for req in workload.requests if req in failed_reqs),
        "problems": problems,
        "request_failures": request_failures,
        "digest": _digest(workload, first),
        "metrics": _declared("per_layer", layer),
        "shares": tracer.self_shares(),
    }


def _cli_layer(workload, latencies: list[float], outputs: list) -> dict:
    """Interpreter start and import cost, measured bare, and the rest of each request.

    The two probes alternate so that both see the same machine state.
    """
    interp, imported = [], []
    for _ in range(2 * SETUP_REPEATS):
        interp.append(_spawn_seconds("pass"))
        imported.append(_spawn_seconds("import uschub.cli"))
    interp = [t1 - t0 for t0, t1 in interp]
    imported = [t1 - t0 for t0, t1 in imported]
    interp_s, imported_s = statistics.median(interp), statistics.median(imported)
    served = [lat for lat, out in zip(latencies, outputs)
              if not isinstance(out, Raised) and not workload.timed_out(out)]
    n = len(served)
    return {
        "cli.interpreter_s": n * interp_s,
        "cli.import_s": n * (imported_s - interp_s),
        "cli.verb_s": sum(served) - n * imported_s,
        "cli.timeouts": sum(1 for out in outputs if not isinstance(out, Raised) and workload.timed_out(out)),
    }


# -- entry point ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("query", "ring", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    if hasattr(os, "sched_setaffinity"):
        # one CPU for this process and its children, so that the speed
        # reference (see speed.py) runs where the measured work runs
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "uschub", "__init__.py")):
        print(f"error: no uschub package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [BENCH_DIR, SRC]
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    result = traced_run(workload, args) if args.trace else timed_run(workload, args)
    correct = not result["problems"]
    meta = _metadata(args, len(workload.requests), result["rounds"])
    meta["digest"] = result["digest"]
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for name, value in result.get("wall", {}).items():
        print(f"wall-clock {name:21s} {value:.6g}")
    for probe, ratio in result.get("speed", {}).items():
        if ratio is not None:
            print(f"probe {probe:8s} time / reference {ratio:.4g}")
    for span, share in result.get("shares", {}).items():
        print(f"self-time share {span:28s} {share:.4f}")
    print(f"error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    for req, why in list(result["request_failures"].items())[:10]:
        print(f"request failure: {req!r}: {why}")
    for req, why in list(result["problems"].items())[:10]:
        print(f"OUTPUT CHECK FAILED: {req!r}: {why}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
