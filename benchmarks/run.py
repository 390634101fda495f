"""Closed-loop request benchmark for minkdev.

Usage::

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``NAME`` is ``catalogue_eval``, ``composite_eval``, ``polar_duality`` or
``all`` (each workload in its own process, then a summary table).  One
client thread sends the next request only after the previous one returned;
BLAS is pinned to one thread.

``--trace 0`` prints the end-to-end metrics: set-up time in fresh processes,
then a fixed number of requests, sized so that they take about ``S`` seconds
of request time at the baseline speed (see ``CYCLES_PER_SECOND``).
``--trace 1`` serves a fixed number of requests, each once untraced and
then twice with every layer wrapped (see ``tracing.py``), fails if the two
traced passes' counters differ, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run's full record (environment, sample counts, failures by class).
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, here and in every child process.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".benchwork"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 7

#: Stratification cycles served per second of ``--seconds``, measured at
#: the baseline speed in README.md.  A timed run serves a number of requests
#: set by its arguments alone, never by the clock, so the same seed always
#: sends the same ops and gets the same ``attempted`` and ``failed``.
CYCLES_PER_SECOND = {"catalogue_eval": 3.5, "composite_eval": 0.3, "polar_duality": 1.25}

#: Requests replayed by ``--trace 1``.  Fixed, so that counters repeat
#: exactly; each count covers whole stride cycles of its workload.
TRACE_REQUESTS = {"catalogue_eval": 200, "composite_eval": 90, "polar_duality": 120}

#: p90 latency is meaningful only from this many ops on.
MIN_OPS_FOR_P90 = 100

END_TO_END = (("setup_s", "s"), ("values_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def _fail(message: str) -> int:
    sys.stderr.write(f"benchmark error: {message}\n")
    return 2


# ---------------------------------------------------------------------------
# Serving requests
# ---------------------------------------------------------------------------

def _serve(workloads, req, workdir: Path):
    """Serve one request; return ``(seconds, outcome)``."""
    argv = workloads.write_inputs(req.payload, workdir) if req.op in ("eval", "boundary") else None
    serve = workloads.bind(req.payload, argv)
    start = time.perf_counter()
    try:
        response = serve()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        elapsed = time.perf_counter() - start
        return elapsed, workloads.Outcome(0, f"raised:{type(exc).__name__}",
                                          {"error": traceback.format_exception_only(exc)[-1].strip()})
    elapsed = time.perf_counter() - start
    return elapsed, workloads.verify(req, response)


class Tally:
    """Failed ops by class, with one example of each."""

    def __init__(self, known: dict[str, str]):
        self.known = known
        self.attempted = 0
        self.failed: Counter[str] = Counter()
        self.by_variant: Counter[str] = Counter()
        self.examples: dict[str, dict] = {}

    def add(self, req, outcome) -> None:
        self.attempted += 1
        if outcome.failure:
            self.failed[outcome.failure] += 1
            self.by_variant[req.variant] += 1
            self.examples.setdefault(outcome.failure, dict(outcome.detail, variant=req.variant))

    @property
    def unexplained(self) -> int:
        return sum(v for k, v in self.failed.items() if k not in self.known)

    def record(self) -> dict:
        total = sum(self.failed.values())
        return {"attempted": self.attempted, "failed": total,
                "error_rate": total / self.attempted if self.attempted else 0.0,
                "failed_by_class": dict(self.failed), "failed_by_variant": dict(self.by_variant),
                "known_defect_classes": {k: self.known[k] for k in self.failed if k in self.known},
                "examples": self.examples}


def _warm_up(workloads, workload: str, seed: int, workdir: Path) -> None:
    req = workloads.warmup_request(workload, seed)
    _, outcome = _serve(workloads, req, workdir)
    if outcome.failure:
        raise RuntimeError(f"warm-up request failed: {outcome.failure} {outcome.detail}")


def _setup_sample(workloads, workload: str, seed: int, workdir: Path) -> float:
    req = workloads.warmup_request(workload, seed)
    argv = workloads.write_inputs(req.payload, workdir) if req.op in ("eval", "boundary") else None
    path = workdir / "probe-request.json"
    path.write_text(json.dumps({"payload": req.payload, "argv": argv}), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), str(path)],
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def timed_run(workloads, workload: str, seed: int, seconds: float, workdir: Path):
    setup = [_setup_sample(workloads, workload, seed, workdir) for _ in range(SETUP_SAMPLES)]
    _warm_up(workloads, workload, seed, workdir)
    tally = Tally(workloads.KNOWN_DEFECTS)
    latencies: list[float] = []
    values: list[int] = []
    cycle = workloads.CYCLE[workload]
    for index in range(cycle * max(1, round(seconds * CYCLES_PER_SECOND[workload]))):
        req = workloads.make_request(workload, seed, index)
        elapsed, outcome = _serve(workloads, req, workdir)
        latencies.append(elapsed)
        values.append(outcome.verified)
        tally.add(req, outcome)
    busy = sum(latencies)
    # Throughput is the median over cycles, so that a slow stretch of a
    # shared machine moves it less than it moves the run's total.
    per_cycle = [sum(values[i:i + cycle]) / sum(latencies[i:i + cycle])
                 for i in range(0, len(latencies), cycle)]
    verified = sum(values)
    p50 = statistics.median(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    metrics = {
        "setup_s": statistics.median(setup),
        "values_per_s": statistics.median(per_cycle),
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    ops = len(latencies)
    samples = {"setup_s": SETUP_SAMPLES, "values_per_s": len(per_cycle), "op_p50_ms": ops,
               "op_p90_ms": ops, "peak_rss_mb": 1}
    extra = {"ops": ops, "cycles": len(per_cycle), "verified_values": verified, "busy_s": busy,
             "values_per_s_overall": verified / busy,
             "p90_valid": ops >= MIN_OPS_FOR_P90, "setup_samples_s": setup}
    return metrics, dict(END_TO_END), samples, tally, extra


def traced_run(workloads, workload: str, seed: int, workdir: Path):
    import tracing

    _warm_up(workloads, workload, seed, workdir)
    requests = [workloads.make_request(workload, seed, i) for i in range(TRACE_REQUESTS[workload])]
    first, second = tracing.Tracer(), tracing.Tracer()
    tally = Tally(workloads.KNOWN_DEFECTS)
    plain_s = traced_s = 0.0
    # Each request is served untraced, then once under each tracer, back to
    # back: the overhead ratio then compares like with like even when the
    # machine's speed drifts during the run.
    for index, req in enumerate(requests):
        plain_s += _serve(workloads, req, workdir)[0]
        for tracer in (first, second):
            tracer.request = index
            tracer.install()
            try:
                elapsed, outcome = _serve(workloads, req, workdir)
            finally:
                tracer.uninstall()
            if tracer is first:
                traced_s += elapsed
                tally.add(req, outcome)
    counters, repeat = first.counters(), second.counters()
    mismatched = sorted(k for k in counters.keys() | repeat.keys() if counters.get(k) != repeat.get(k))
    metrics = first.metrics(overhead=traced_s / plain_s - 1.0)
    units = dict(tracing.per_layer_names())
    samples = {name: len(requests) for name in units}
    spans_path = workdir / f"trace-{workload}-seed{seed}.json"
    origin = first.spans[0][1] if first.spans else 0.0
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start_s", "end_s", "parent", "request"],
         "spans": [[n, s - origin, e - origin, p, r] for n, s, e, p, r in first.spans]}),
        encoding="utf-8")
    extra = {"requests": len(requests), "untraced_s": plain_s, "traced_s": traced_s,
             "counters": counters, "counters_repeat": not mismatched,
             "counter_mismatches": mismatched, "spans": len(first.spans),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return {k: metrics[k] for k in units}, units, samples, tally, extra


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "minkdev").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "blas_threads": BLAS_PIN,
        "client_threads": 1,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _table(rows) -> str:
    lines = [f"{'workload':16s} {'metric':34s} {'value':>14s} {'unit':12s} samples"]
    lines += [f"{w:16s} {m:34s} {v:14.6g} {u:12s} {s}" for w, m, v, u, s in rows]
    return "\n".join(lines)


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    if args.trace:
        metrics, units, samples, tally, extra = traced_run(workloads, args.workload, args.seed, WORKDIR)
    else:
        metrics, units, samples, tally, extra = timed_run(workloads, args.workload, args.seed,
                                                          args.seconds, WORKDIR)
    for name in ("scenario.json", "probe-request.json"):
        (WORKDIR / name).unlink(missing_ok=True)
    correct = tally.unexplained == 0 and extra.get("counters_repeat", True)
    record = {"workload": args.workload, "mode": "traced" if args.trace else "timed",
              "seconds": args.seconds, "environment": environment(args.seed),
              "metrics": {k: {"value": metrics[k], "unit": units[k], "samples": samples[k]}
                          for k in metrics},
              "errors": tally.record(), **extra}
    errors = record["errors"]
    print(_table([(args.workload, k, metrics[k], units[k], samples[k]) for k in metrics]
                 + [(args.workload, "error_rate", errors["error_rate"], "ratio", errors["attempted"])]))
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": tally.attempted,
                      "failed": sum(tally.failed.values()),
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; one table and one combined result."""
    import workloads

    rows, results, code = [], [], 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            sys.stderr.write(proc.stderr)
            return _fail(f"{workload} printed no result (exit {proc.returncode})")
        code = max(code, proc.returncode)
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        results.append((workload, result))
        print(json.dumps({"record": record}, sort_keys=True))
        rows += lines[:-2][1:]  # the run's table, without its header
    print(_table([]))
    print("\n".join(rows))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{w}.{k}": m for w, r in results for k, m in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["catalogue_eval", "composite_eval", "polar_duality", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "minkdev" / "cli.py").is_file():
        return _fail(f"no minkdev sources under {SRC}; run from a full checkout")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
