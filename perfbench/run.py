"""relphase benchmark: one workload, one seed, one closed-loop caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify|evolve|flows --seed N \\
        --seconds S --trace 0|1

The library is imported from ``src/`` of the same checkout; the run stops
with exit status 2 when that source tree is missing.

A run sets up several fresh processes (import plus the workload's first
unit), warms up in-process, and then runs units back to back, one caller in
one process, for ``--seconds`` seconds, checking every output.  With
``--trace 0`` the last line of standard output is the JSON result with the
end-to-end metrics; with ``--trace 1`` the run measures half the time
untraced and half traced and reports the per-layer metrics.

Every reported time is scaled to the reference speed of :mod:`calibrate`:
the host's speed is measured before and after each window of at least
``WINDOW_S`` seconds, and inside each set-up process, because a shared host
drifts by up to 2x for tens of seconds.  The raw figures, the speed factors,
the environment, the seed-42 ``verify`` residuals and, for traced runs, the
spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0
WINDOW_S = 0.5


def _import_relphase() -> dict:
    """Import every relphase layer from this checkout's source tree."""
    import importlib

    sys.path.insert(0, str(SRC))
    modules = {layer: importlib.import_module(f"relphase.{layer}") for layer in LAYERS}
    origin = Path(modules["core"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"relphase was imported from {origin}, not from {SRC}")
    return modules


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> dict:
    """In a fresh process: time the import and the workload's first unit."""
    t0 = time.perf_counter()
    _import_relphase()
    t1 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    unit = wl.cycle(0)[0]
    t2 = time.perf_counter()
    result = wl.run(unit)
    t3 = time.perf_counter()
    import calibrate  # imports numpy, so only after the import was timed

    return {"import_s": t1 - t0, "warmup_s": t3 - t2, "ok": bool(wl.check(unit, result)),
            "speed_factor": calibrate.REFERENCE_S / calibrate.seconds_per_iteration()}


def run_probes(workload: str, seed: int, count: int) -> list[dict]:
    """Run fresh-process set-up probes; each calibrates its own speed."""
    probes = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

class Phase:
    """Units run back to back, in windows of at least ``WINDOW_S`` seconds.

    The host's speed is calibrated before and after every window; latencies
    are kept scaled to the reference speed, the phase time both raw and
    scaled.
    """

    def __init__(self) -> None:
        self.latency_s = array("d")
        self.by_kind: dict[str, array] = {}
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @property
    def speed_factor(self) -> float:
        """Reference seconds per measured second, over the whole phase."""
        return self.busy_s / self.raw_busy_s if self.raw_busy_s else 1.0


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_phase(wl, first_cycle: int, seconds: float, min_units: int, extreme: bool,
              tracer=None) -> tuple[Phase, int]:
    """Run whole cycles from ``first_cycle`` until ``seconds`` have passed.

    Returns the phase and the next unused cycle.  Extreme units are checked
    but neither timed nor counted as attempted.
    """
    import calibrate

    phase = Phase()
    clock = time.perf_counter
    cycle = first_cycle
    start, cpu0 = clock(), _cpu()
    cal_before = calibrate.seconds_per_iteration()
    window: list[tuple[str | None, float]] = []
    window_start = clock()

    def close_window() -> None:
        nonlocal cal_before, window_start
        raw_s = clock() - window_start
        cal_after = calibrate.seconds_per_iteration()
        factor = calibrate.REFERENCE_S / (0.5 * (cal_before + cal_after))
        for kind, latency in window:
            phase.latency_s.append(latency * factor)
            if kind is not None:
                phase.by_kind.setdefault(kind, array("d")).append(latency * factor)
        phase.raw_busy_s += raw_s
        phase.busy_s += raw_s * factor
        window.clear()
        cal_before = cal_after
        window_start = clock()

    while True:
        for unit in wl.cycle(cycle, extreme):
            if tracer is not None:
                tracer.unit = phase.units
                tracer.on = True
            t0 = clock()
            try:
                result = wl.run(unit)
            except Exception as exc:  # a raising unit is a failed unit
                result = exc
            t1 = clock()
            if tracer is not None:
                tracer.on = False
            phase.units += 1
            if wl.is_extreme(unit):
                wl.check(unit, result)
            else:
                ok = not isinstance(result, Exception) and wl.check(unit, result)
                phase.attempted += 1
                phase.failed += not ok
                window.append((wl.kind(unit), t1 - t0))
            if t1 - window_start >= WINDOW_S:
                close_window()
        cycle += 1
        if clock() - start >= seconds and phase.attempted >= min_units:
            break
    close_window()
    phase.wall_s = clock() - start
    phase.cpu_s = _cpu() - cpu0
    return phase, cycle


def warm_up(wl) -> bool:
    """Run the first units of cycle 0 untimed; True when all pass their check."""
    ok = True
    for unit in wl.cycle(0)[:wl.warmup_units]:
        ok = bool(wl.check(unit, wl.run(unit))) and ok
    return ok


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _openblas_threads() -> dict:
    """Thread count of each OpenBLAS bundled with numpy and scipy."""
    import ctypes
    import glob

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[Path(path).name] = fn()
                    break
    return out


def environment(seed: int, phase: Phase, modules: dict) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    residuals = {c.id: c.residual
                 for _, checks in modules["verify"].run_all(42) for c in checks}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS") if k in os.environ},
        "cpu_wall_ratio": phase.cpu_s / phase.wall_s if phase.wall_s else 0.0,
        "seed": seed,
        "verify_seed42_residuals": residuals,
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _setup_median(probes: list[dict], *parts: str) -> float:
    return statistics.median(sum(p[k] for k in parts) * p["speed_factor"] for p in probes)


def end_to_end(wl, probes: list[dict], phase: Phase) -> dict:
    """Every end-to-end metric; times are at the reference speed."""
    import numpy as np

    lat_ms = np.frombuffer(phase.latency_s, dtype=np.float64) * 1e3
    return {
        "setup_s": _metric(_setup_median(probes, "import_s", "warmup_s"), "s"),
        "throughput": _metric(phase.attempted / phase.busy_s, "1/s"),
        "unit_ms_p50": _metric(np.percentile(lat_ms, 50.0), "ms"),
        "unit_ms_tail": _metric(np.percentile(lat_ms, wl.tail_q), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(wl, probes: list[dict], plain: Phase, traced: Phase, tracer,
              bytes_per_unit: float) -> dict:
    """Every per-layer metric.  Counts and times are per traced unit, and
    times are scaled to the reference speed by the traced phase's factor."""
    units = traced.units
    speed = traced.speed_factor
    metrics = {}
    for layer, (calls, self_s) in tracer.layer_totals().items():
        self_s *= speed
        metrics[f"{layer}.calls"] = _metric(calls / units, "calls/unit")
        metrics[f"{layer}.self_s"] = _metric(self_s / units, "s/unit")
        metrics[f"{layer}.us_per_call"] = _metric(self_s / calls * 1e6 if calls else 0.0, "us")

    projections = tracer.stat("liealgebra.qo_from_operator")[0]
    expm_calls, _, expm_s = tracer.stat("representations.expm")
    _, rk4_self_s, _ = tracer.stat("em.evolve_numeric")
    metrics["liealgebra.projections"] = _metric(projections / units, "calls/unit")
    metrics["representations.realize_per_image"] = _metric(
        tracer.realize_in_images / tracer.images if tracer.images else 0.0, "calls/image")
    metrics["representations.expm_calls"] = _metric(expm_calls / units, "calls/unit")
    metrics["representations.expm_s"] = _metric(expm_s * speed / units, "s/unit")
    metrics["em.rk4_steps"] = _metric(tracer.rk4_steps / units, "steps/unit")
    metrics["em.rk4_ns_per_step"] = _metric(
        rk4_self_s * speed / tracer.rk4_steps * 1e9 if tracer.rk4_steps else 0.0, "ns")
    metrics["cli.bytes_out"] = _metric(bytes_per_unit, "B/unit")
    metrics["cli.extreme_fail_frac"] = _metric(
        wl.extreme_failures / wl.extreme_runs if wl.extreme_runs else 0.0, "frac")

    suites = ("core", "triproduct", "liealgebra", "representations", "em")
    for suite in suites:
        times = plain.by_kind.get(suite)
        metrics[f"verify.{suite}_ms"] = _metric(statistics.median(times) * 1e3 if times else 0.0,
                                                "ms")
    metrics["verify.max_residual_ratio"] = _metric(wl.max_residual_ratio, "ratio")

    metrics["setup.import_s"] = _metric(_setup_median(probes, "import_s"), "s")
    metrics["setup.warmup_s"] = _metric(_setup_median(probes, "warmup_s"), "s")
    plain_rate = plain.units / plain.busy_s
    traced_rate = traced.units / traced.busy_s
    metrics["trace.overhead_frac"] = _metric(plain_rate / traced_rate - 1.0, "frac")
    return metrics


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              probes: int = SETUP_PROBES, min_units: int | None = None) -> dict:
    """Run one workload and return the result object (without printing it)."""
    modules = _import_relphase()
    import workloads

    setup = run_probes(workload, seed, probes)
    wl = workloads.WORKLOADS[workload](seed)
    ok = warm_up(wl) and all(p["ok"] for p in setup)
    if trace:
        plain, next_cycle = run_phase(wl, 1, seconds / 2, 0, extreme=True)
        tracer = Tracer()
        tracer.install(modules)
        bytes_before = wl.bytes_out
        try:
            traced, _ = run_phase(wl, next_cycle, seconds / 2, 0, extreme=True, tracer=tracer)
        finally:
            tracer.uninstall()
        bytes_per_unit = (wl.bytes_out - bytes_before) / traced.units
        phases = {"untraced": plain, "traced": traced}
        metrics = per_layer(wl, setup, plain, traced, tracer, bytes_per_unit)
    else:
        floor = wl.min_units if min_units is None else min_units
        plain, _ = run_phase(wl, 1, seconds, floor, extreme=False)
        phases = {"timed": plain}
        metrics = end_to_end(wl, setup, plain)

    attempted = sum(p.attempted for p in phases.values())
    failed = sum(p.failed for p in phases.values())
    result = {"correct": bool(ok and failed == 0), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    env = environment(seed, plain, modules)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        tracer.write_spans(OUT / f"{stem}-spans.jsonl")
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
                   "setup_probes": setup, "environment": env,
                   "phases": {name: {"units": p.units, "attempted": p.attempted,
                                     "failed": p.failed, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                                     "busy_s": p.busy_s, "raw_busy_s": p.raw_busy_s,
                                     "speed_factor": p.speed_factor}
                              for name, p in phases.items()},
                   "result": result}, fh, indent=1)
    print(f"[perfbench] {workload} seed={seed}: {attempted} units, {failed} failed, "
          f"cpu/wall {env['cpu_wall_ratio']:.2f}, BLAS threads {env['blas_threads']}",
          file=sys.stderr)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "evolve", "flows"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "relphase" / "__init__.py").is_file():
        print(f"error: no relphase source tree at {SRC}", file=sys.stderr)
        return 2
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
