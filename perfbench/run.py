#!/usr/bin/env python3
"""Run one sparse24 benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ship --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else. With ``--trace 0`` the run sets up several
times (``setup_s`` is the median) and then runs ops for ``--seconds``,
untraced, printing the end-to-end metrics, whose times are scaled to a
reference host speed (see ``REF_PROBE_S``). With ``--trace 1`` it sets up once
under the tracer, runs ops untraced for half the time and traced for the
other half (whole passes over the input pool), and prints the per-layer
metrics. Metric names and units come from ``BENCHMARK.json``. Every metric is
printed as ``name = value unit``; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
with a provenance block (machine, versions, git HEAD, seed, op count, run
length), is written under
``perfbench/out/results/`` (or ``--out``), and a traced run's spans under
``perfbench/out/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# numpy's BLAS runs on one thread. The workloads' matrices are too small to
# gain from a second one (same op times, 1.5x the CPU time), and with two the
# timings of `deploy` depended on whether the other CPU happened to be free.
# Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # ops above the reported tail latency

# Per-layer metrics that a workload's traced run does not compute: quality
# figures of the INT8 path, which only deploy has, and rates whose work the
# workload's ops never do. They stay out of the record; the result line, which
# holds every per-layer metric of BENCHMARK.json, prints them as 0 and a
# comment line names them. Any other metric that is missing fails the run.
NOT_COMPUTED = {
    "ship": (
        "accuracy_drop",
        "int8_rel_err",
        "kernels.mmacs_per_s",
        "kernels.madds_per_byte",
        "kernels.spmm_over_floor",
        "workflow.samples_per_s",
    ),
    "serve": (
        "accuracy_drop",
        "int8_rel_err",
        "pruning.permutation_gain_per_s",
        "pruning.retained_frac",
        "workflow.samples_per_s",
    ),
    "deploy": ("pruning.permutation_gain_per_s",),
}


def import_library() -> None:
    """Import sparse24 from the checkout's ``src/``; exit if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sparse24
    except ImportError as exc:
        raise SystemExit(f"error: cannot import sparse24 from {src}: {exc}")
    if Path(sparse24.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: sparse24 was imported from {sparse24.__file__}, not {src}")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# --- the op loop ------------------------------------------------------------


# Timings are scaled to a reference host speed. On a shared host the speed at
# which this process runs drifts by a quarter and more within minutes, with
# load from outside it. A fixed probe, timed just before and just after each
# op, measures that speed, and each op's wall time is scaled by REF_PROBE_S
# over the probes' mean. REF_PROBE_S is the probe's time on the machine where
# the benchmark was defined (2 vCPU Intel Xeon at 2.0 GHz, Python 3.11,
# numpy 2.4) at its faster speed, so scaled times read as milliseconds there.
# Raw wall-clock figures stay in the record.
REF_PROBE_S = 1.5e-3


def host_probe() -> float:
    """Seconds taken by a fixed loop of interpreter and small numpy work that
    does not touch sparse24."""
    import numpy as np

    a = np.arange(128, dtype=np.float64)
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(200):
        acc += float(np.sum(a * k))
    for k in range(10000):
        acc += k * k
    return time.perf_counter() - t0


def scaled(seconds: float, probe_before: float, probe_after: float) -> float:
    return seconds * 2.0 * REF_PROBE_S / (probe_before + probe_after)


class Phase:
    """Ops of one measured phase: times, failures and first-pass quality."""

    def __init__(self):
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self.probes: list[float] = []
        self.ok: list[bool] = []
        self.failures: list[str] = []
        self.cpu_s = 0.0
        self.quality: dict[int, dict] = {}

    @property
    def attempted(self) -> int:
        return len(self.wall)

    @property
    def failed(self) -> int:
        return self.ok.count(False)


def run_ops(wl, seconds: float, tracer=None) -> Phase:
    """Closed loop: run an op, then its check, until ``seconds`` have passed.

    The loop stops only at the end of a pass over the input pool, so every
    pool item has run (the quality figures need each once) and each ran
    equally often: rates and per-op counts do not depend on where the
    deadline fell within a pass.
    """
    from workloads import Check

    phase = Phase()
    deadline = time.perf_counter() + seconds
    i = 0
    while i % wl.pool_size or i == 0 or time.perf_counter() < deadline:
        error = None
        p0 = host_probe()
        if tracer is not None:
            tracer.begin(i)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out = wl.op(i)
        except Exception:  # a failed op is counted, not fatal to the run
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        phase.cpu_s += time.process_time() - c0
        if tracer is not None:
            tracer.end()
        p1 = host_probe()
        if error is None:
            try:
                check = wl.check(i, out)
            except Exception:
                error = traceback.format_exc(limit=3)
        if error is not None:
            check = Check([error])
        phase.wall.append(dt)
        phase.scaled.append(scaled(dt, p0, p1))
        phase.probes += [p0, p1]
        phase.ok.append(not check.failures)
        phase.failures.extend(check.failures)
        if tracer is not None:
            for key, value in check.facts.items():
                tracer.facts[key] += value
        phase.quality.setdefault(i % wl.pool_size, check.quality)
        i += 1
    return phase


def latency_metrics(times: list[float], ok: list[bool]) -> tuple[dict[str, float], dict]:
    good = sorted(t for t, passed in zip(times, ok) if passed)
    metrics = {
        "ops_per_s": len(good) / sum(times),
        "op_p50_ms": 1e3 * statistics.median(good) if good else float("nan"),
    }
    tail = {"tail_ops_beyond": TAIL_BEYOND, "ops": len(good)}
    # The highest percentile with TAIL_BEYOND ops above it; omitted when that
    # would not lie above the median.
    if len(good) >= 2 * TAIL_BEYOND:
        metrics["op_tail_ms"] = 1e3 * good[len(good) - TAIL_BEYOND - 1]
        tail["tail_percentile"] = 100.0 * (len(good) - TAIL_BEYOND) / len(good)
    return metrics, tail


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- provenance -------------------------------------------------------------


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def git_head(root: Path) -> str | None:
    head = _read(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(root / ".git" / ref)
    if sha is None:
        for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def environment() -> dict:
    import numpy

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / n) for n in ("level", "type", "size"))
        if level and size and kind != "Instruction":
            caches[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_head": git_head(ROOT),
    }


# --- one run ------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str, sizes=None, trace_path=None) -> dict:
    """Run one workload and return its full record (metrics are unfiltered)."""
    from workloads import WORKLOADS

    cls = WORKLOADS[workload]
    wl = cls(seed, workdir) if sizes is None else cls(seed, workdir, sizes)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if trace:
        metrics, failures = _run_traced(wl, seconds, record, trace_path)
    else:
        metrics, failures = _run_plain(wl, seconds, record)
    record["metrics"] = metrics
    record["failures"] = failures[:10]
    record["correct"] = not failures
    return record


def _run_plain(wl, seconds: float, record: dict):
    setup_wall, setup_scaled, failures = [], [], []
    for _ in range(SETUP_REPEATS):
        p0 = host_probe()
        t0 = time.perf_counter()
        failures = wl.setup()
        dt = time.perf_counter() - t0
        setup_wall.append(dt)
        setup_scaled.append(scaled(dt, p0, host_probe()))
    phase = run_ops(wl, seconds)
    metrics, tail = latency_metrics(phase.scaled, phase.ok)
    quality = wl.quality([q for q in phase.quality.values() if q])
    metrics.update(setup_s=statistics.median(setup_scaled), peak_rss_mb=peak_rss_mb(), **quality)
    metrics["failed_frac"] = phase.failed / phase.attempted
    raw = latency_metrics(phase.wall, phase.ok)[0]
    record.update(
        attempted=phase.attempted,
        failed=phase.failed,
        latency=tail,
        wall_clock={"setup_s": statistics.median(setup_wall), **raw},
        host_probe_ms=1e3 * statistics.median(phase.probes),
        # below 1 when the process waited for a CPU during ops
        op_cpu_over_wall=phase.cpu_s / sum(phase.wall),
        op_wall_ms=[round(1e3 * t, 3) for t in phase.wall],
        probe_ms=[round(1e3 * t, 4) for t in phase.probes],
    )
    return metrics, failures + phase.failures


def _run_traced(wl, seconds: float, record: dict, trace_path):
    from spans import Tracer, kernel_floors, layer_metrics, layer_self_times

    setup_tracer = Tracer()
    with setup_tracer:
        setup_tracer.begin("setup")
        failures = wl.setup()
        setup_tracer.end()
    plain = run_ops(wl, seconds / 2)
    tracer = Tracer()
    with tracer:
        traced = run_ops(wl, seconds / 2, tracer)
    n = traced.attempted
    metrics = layer_metrics(tracer, n, sum(traced.wall))
    metrics.update(kernel_floors(tracer, n))
    metrics.update({f"setup.{k}_s": v for k, v in layer_self_times(setup_tracer).items()})
    plain_rate = latency_metrics(plain.scaled, plain.ok)[0]["ops_per_s"]
    traced_rate = latency_metrics(traced.scaled, traced.ok)[0]["ops_per_s"]
    metrics["trace_overhead_frac"] = 1.0 - traced_rate / plain_rate
    quality = wl.quality([q for q in traced.quality.values() if q])
    metrics.update({k: quality[k] for k in ("accuracy_drop", "int8_rel_err") if k in quality})
    attempted, failed = plain.attempted + traced.attempted, plain.failed + traced.failed
    metrics["failed_frac"] = failed / attempted
    if tracer.facts["kernels.madds"] != tracer.facts["kernels.flops_closed_form"]:
        failures.append(
            f"kernels.madds {tracer.facts['kernels.madds']:.0f} != closed-form spmm_flops "
            f"{tracer.facts['kernels.flops_closed_form']:.0f}"
        )
    if trace_path is not None:
        tracer.dump(trace_path)
    record.update(
        attempted=attempted,
        failed=failed,
        traced_ops=n,
        untraced_ops=plain.attempted,
        quality=quality,
        trace_file=str(trace_path) if trace_path else None,
    )
    return metrics, failures + plain.failures + traced.failures


# --- command line ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ship", "serve", "deploy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out" / "results")
    args = parser.parse_args(argv)

    spec = load_spec()
    import_library()
    sys.path.insert(0, str(BENCH_DIR))

    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    started = time.perf_counter()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = BENCH_DIR / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            str(workdir),
            trace_path=BENCH_DIR / "out" / "traces" / f"{stem}.json" if args.trace else None,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["provenance"] = {
        **environment(),
        "workload": args.workload,
        "seed": args.seed,
        "ops": record["attempted"],
        "run_seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
    }

    metrics = record["metrics"]
    not_computed = set(NOT_COMPUTED[args.workload]) if args.trace else set()
    record["not_computed"] = sorted(not_computed & (units.keys() - metrics.keys()))
    missing = sorted(units.keys() - metrics.keys() - not_computed)
    if missing:
        record["correct"] = False
        record["failures"].append(f"metrics not measured: {', '.join(missing)}")
    shown = {
        k: {"value": metrics.get(k, 0.0), "unit": units[k]}
        for k in units
        if k in metrics or k in record["not_computed"]
    }
    record["reported"] = shown
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)

    for name, m in shown.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if record["not_computed"]:
        print(f"# not computed on {args.workload}, printed as 0: {', '.join(record['not_computed'])}")
    for name in sorted(metrics.keys() - units.keys() - {"failed_frac"}):
        print(f"# also measured: {name} = {metrics[name]:.6g}")
    if "latency" in record and "tail_percentile" in record["latency"]:
        lat = record["latency"]
        print(f"# op_tail_ms is p{lat['tail_percentile']:.2f} of {lat['ops']} correct ops ({TAIL_BEYOND} beyond it)")
    print(f"# failed_frac = {metrics['failed_frac']:.6g} ({record['failed']} of {record['attempted']} ops)")
    for reason in record["failures"]:
        print(f"# failure: {reason.strip().splitlines()[-1]}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": shown,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
