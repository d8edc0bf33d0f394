"""Benchmark of icmverify: verdict latency and throughput per workload.

Run one workload in this process (BLAS pinned to one thread):

    python3 bench/run.py --workload table_large --seed 1 --seconds 35 --trace 0

or every workload, each in a fresh process, with a table of the results:

    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

A workload is a fixed list of ops built from the seed (``workloads.py``).
After an untimed warm-up at smoke size, a run repeats that list in passes
for about ``--seconds`` of wall time, one client in a closed loop, so
that both sides of a comparison time the same ops.  An op's latency is
the slowest of its timed repetitions: a shared 2-vCPU virtual machine
was seen to switch every few seconds between a fast state and one about
1.7x slower; the slow state showed in every run while the share of fast
spells varied from run to run, so the slowest repetition is the figure
that repeats (the fastest, or the pooled median, moved by 20-30% between
runs of the same code).

With ``--trace 0`` it reports ``verdict_s.p50``/``p90``, Harrell-Davis
estimates over the ops' latencies; ``verdicts_per_s``, ops over the sum
of their latencies; ``peak_rss_mb``; and ``setup_s``, the median cold
``import icmverify`` over several fresh interpreters.  With ``--trace 1``
it alternates untraced passes with passes that record spans around the
library's functions, and reports per-layer self time and counts (median
over the traced passes, each one pass of the list) plus the tracing
overhead.  Every verdict is checked against an answer known by
construction.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with provenance, goes to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy is imported, here and in children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, TARGETS, Tracer, write_spans
from workloads import WORKLOADS, Stopwatch

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_RUNS = 15
SETUP_PROBE = ("import time; t = time.perf_counter(); import icmverify; "
               "print(time.perf_counter() - t)")
UNITS = {"verdict_s.p50": "s", "verdict_s.p90": "s", "peak_rss_mb": "MB"}


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def run_pass(iv, workload, inputs, tracer=None) -> Pass:
    """Run every op of ``inputs`` once, timing the parts inside ``with sw:``."""
    done = Pass()
    for i, inp in enumerate(inputs):
        sw = Stopwatch(tracer)
        if tracer is not None:
            tracer.op_id = i
        try:
            problems = workload.run_op(iv, inp, sw)
        except Exception as exc:  # a raising op is a failed op, not a crash
            problems = [f"{type(exc).__name__}: {exc}"]
        done.times.append(sw.elapsed)
        if problems:
            done.failures.append(f"op {i} ({inp.kind}): {problems[0]}")
    return done


def make_inputs(workload, seed: int, n_ops: int | None = None, smoke: bool = False) -> list:
    return [workload.make_input(seed, i, smoke) for i in range(n_ops or workload.ops)]


def keep_going(started: float, passes: int, seconds: float) -> bool:
    """Start another pass while it would end nearer ``seconds`` than stopping."""
    elapsed = perf_counter() - started
    return passes == 0 or elapsed + elapsed / passes / 2 < seconds


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A mean of every order statistic, the ``i``-th weighted by the mass a
    Beta(q(n+1), (1-q)(n+1)) density puts on [(i-1)/n, i/n].  Where a
    workload's op sizes leave a gap at the quantile, the estimate moves
    smoothly instead of jumping across it as one op's time shifts.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = q * (n + 1) - 1.0, (1.0 - q) * (n + 1) - 1.0  # exponents of the density
    steps = 32  # midpoint rule within each interval
    logs = [[a * math.log(x) + b * math.log1p(-x)
             for x in ((i + (k + 0.5) / steps) / n for k in range(steps))]
            for i in range(n)]
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_metrics(passes: list[Pass]) -> dict[str, float]:
    """Median, 90th percentile and rate of the ops' slowest repetitions."""
    times = [max(op) for op in zip(*(p.times for p in passes))]
    return {
        "verdict_s.p50": harrell_davis(times, 0.5),
        "verdict_s.p90": harrell_davis(times, 0.9),
        "verdicts_per_s": len(times) / sum(times),
    }


def host_probe_s() -> float:
    """Median time of a fixed pure-Python loop.

    Not a metric: it shows how fast the shared host ran this process just
    before and after the timed passes, so drift between runs can be read.
    """
    samples = []
    for _ in range(5):
        t0 = perf_counter()
        acc = 0
        for k in range(200_000):
            acc += k * k % 7
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(runs: int = SETUP_RUNS) -> float:
    """Median time of ``import icmverify`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def _blas() -> tuple[str | None, int | None]:
    """OpenBLAS configuration and thread count as the loaded library reports."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    return get_config().decode(), get_threads()
    return None, None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def _why(workload: str) -> str | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w.get("name") == workload), None)


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "icmverify").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas_config, blas_threads = _blas()
    return {
        "workload": workload,
        "why": _why(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "machine": platform.machine(),
    }


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    import icmverify as iv

    workload = WORKLOADS[name]
    OUT.mkdir(exist_ok=True)
    result = {"provenance": provenance(name, seed, seconds, trace)}
    inputs = make_inputs(workload, seed)
    passes: list[Pass] = []
    warm = run_pass(iv, workload, make_inputs(workload, seed, workload.warmup, smoke=True))
    probe_before = host_probe_s()
    if trace == 0:
        setup_s = measure_setup()
        started = perf_counter()
        while keep_going(started, len(passes), seconds):
            passes.append(run_pass(iv, workload, inputs))
        metrics = {"setup_s": setup_s, **latency_metrics(passes), "peak_rss_mb": peak_rss_mb()}
        result["op_s"] = [[inp.kind, *times] for inp, *times in
                          zip(inputs, *(p.times for p in passes))]
    else:
        tracer = Tracer()
        plain, traced, per_pass, spans = [], [], [], None
        started = perf_counter()
        while keep_going(started, len(plain), seconds):
            plain.append(run_pass(iv, workload, inputs))
            tracer.install(iv)
            try:
                traced.append(run_pass(iv, workload, inputs, tracer))
            finally:
                tracer.uninstall()
            layer_metrics, pass_spans = tracer.take()
            per_pass.append(layer_metrics)
            spans = spans or pass_spans
            passes += [plain[-1], traced[-1]]
        metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
        plain_rate = latency_metrics(plain)["verdicts_per_s"]
        traced_rate = latency_metrics(traced)["verdicts_per_s"]
        metrics["trace.verdicts_per_s"] = traced_rate
        metrics["trace.overhead_ratio"] = plain_rate / traced_rate
        result["absent"] = tracer.absent
        result["absent_metrics"] = [f"{layer}_s" for layer in LAYERS if all(
            f"{t[1]}.{t[2]}" in tracer.absent for t in TARGETS if t[0] == layer)]
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        write_spans(spans, spans_path)
        result["spans"] = {"path": str(spans_path.relative_to(ROOT)), "count": len(spans),
                           "note": "first traced pass"}
    result["passes"] = len(passes)
    result["host_probe_s"] = {"before": probe_before, "after": host_probe_s()}

    attempted = sum(len(p.times) for p in (warm, *passes))
    failures = [f for p in (warm, *passes) for f in p.failures]
    result.update({
        "ops": attempted,
        "error_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    })
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")

    print("provenance " + json.dumps(result["provenance"]))
    for failure in failures[:5]:
        print("FAILED " + failure)
    if trace == 1 and result["absent"]:
        print("absent " + ", ".join(result["absent"]))
    print(f"{name}: {len(passes)} passes of {len(inputs)} ops, "
          f"error_ratio {result['error_ratio']:g} ratio, host probe "
          f"{probe_before * 1e3:.1f}/{result['host_probe_s']['after'] * 1e3:.1f} ms")
    for key, entry in result["metrics"].items():
        print(f"  {key:28s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result["metrics"]}))
    return 0


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    return "count"


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh process; one table of every metric."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: run failed (exit {done.returncode})\n{done.stderr}")
            ok = False
            continue
        last = json.loads(lines[-1])
        ok = ok and last["correct"]
        print(f"{name}  ({last['attempted']} ops)")
        print(f"  {'error_ratio':28s} {last['failed'] / last['attempted']:.6g} ratio")
        for key, entry in last["metrics"].items():
            print(f"  {key:28s} {entry['value']:.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "icmverify" / "__init__.py").is_file():
        print(f"bench: no icmverify sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
