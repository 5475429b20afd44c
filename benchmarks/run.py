"""Repository benchmark: times four workloads through the ``innaprop``
command line, checks every output against recorded references, and prints
one JSON result as its last line.

    python3 benchmarks/run.py --workload presets --seed 0 --seconds 25 --trace 0

Run it from a checkout that holds ``src/innaprop``; it imports the library
from there. Workloads are closed loops in one child process, with BLAS
pinned to one thread and no other load. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from a
traced run, with an untraced run beside it for the tracing overhead.

The shared host this was built on changes speed by up to 2x over seconds
and minutes, so ``wall_s`` and ``setup_s`` are reported at a reference host
speed: each start-up probe and each timed part (a command, or for
``check_all`` a suite) runs between reference loops of the kind the work
resembles (``workloads.LOOP_KIND``), and its time is scaled by how much
slower than on an idle host those loops ran (``hostspeed.py``). ``wall_s``
sums, over the parts of an iteration, each part's median over the
iterations of the run. The times as measured are printed beside them.

Scratch files go to ``.bench_work/`` in the checkout; the spans of the last
traced run of each workload stay there as ``spans-<workload>*.tsv``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import reference_loops, scaled
from workloads import GRID_WORKERS, LOOP_KIND, NAMES, config_seed, prepare

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")

# (name, unit, better, bound): bound is the share of the parent's median by
# which a metric may worsen before a change counts as a regression.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("steps_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

_OPTIMIZERS = ("innaprop", "adamw", "innaprop_naive")
_SUITES = ("equivalence", "gradients", "schedulers", "ode", "instability")

# (name, unit, better). Each metric comes from the traced workload when that
# workload reaches the metric's layer, and otherwise from a traced probe of
# the workload that does (grid_cifar, then check_all).
PER_LAYER = (
    ("problems.grad.calls", "count", "lower"),
    ("problems.grad.self_s", "s", "lower"),
    ("problems.grad.us_per_call", "us", "lower"),
    ("problems.sampler.self_s", "s", "lower"),
    ("problems.eval.calls", "count", "lower"),
    ("problems.eval.self_s", "s", "lower"),
    ("numerics.paramvector_init.calls", "count", "lower"),
    ("numerics.paramvector_init.self_s", "s", "lower"),
    ("optimizers.step.calls", "count", "lower"),
    ("optimizers.step.self_s", "s", "lower"),
    ("optimizers.step.ns_per_elem", "ns", "lower"),
    ("optimizers.step.bytes_moved_computed", "B", "lower"),
    *((f"optimizers.{o}.ns_per_elem.d1e{e}", "ns", "lower")
      for o in _OPTIMIZERS for e in (2, 4, 6)),
    *((f"optimizers.{o}.alloc_peak_bytes", "B", "lower") for o in _OPTIMIZERS),
    *((f"optimizers.{o}.state_bytes_computed", "B", "lower") for o in _OPTIMIZERS),
    ("schedulers.lr_at.calls", "count", "lower"),
    ("schedulers.lr_at.self_s", "s", "lower"),
    ("harness.config.build_problem.self_s", "s", "lower"),
    ("harness.runner.run_experiment.self_s", "s", "lower"),
    ("harness.runner.io.bytes_written", "B", "lower"),
    ("harness.runner.io.self_s", "s", "lower"),
    ("harness.grid.cells", "count", "higher"),
    ("harness.grid.ok_cells", "count", "higher"),
    ("harness.grid.cell_s.p50", "s", "lower"),
    ("harness.grid.cell_s.p90", "s", "lower"),
    ("harness.grid.parallel_efficiency", "ratio", "higher"),
    *((f"harness.checks.{s}.self_s", "s", "lower") for s in _SUITES),
    ("harness.checks.distinct_reports", "count", "lower"),
    ("ode.rk4_integrate.calls", "count", "lower"),
    ("ode.rk4_integrate.self_s", "s", "lower"),
    ("ode.discretization_gap.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Metrics measured by the layer pass, not by spans of a workload.
_LAYER_PASS = ("optimizers.innaprop.", "optimizers.adamw.", "optimizers.innaprop_naive.")
_PROBES = ("grid_cifar", "check_all")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, work: Path, **opts) -> dict:
    cs = config_seed(seed)
    options = {"root": str(ROOT), "workload": name, "config_seed": cs,
               "work": str(work / name), "warmup": True, "trace": False,
               "calibrate": None, "min_iter": 3, "max_iter": 1000,
               "spans": str(ROOT / ".bench_work" / f"spans-{name}.tsv")}
    options.update(opts)
    return run_child("workload", json.dumps(options))


def setup_seconds(name: str, seed: int, work: Path) -> tuple:
    """Median over fresh processes of start-up until the first library call,
    at reference host speed and as measured."""
    argv = list(prepare(name, config_seed(seed), work / name)[0].argv)
    samples, raw = [], []
    for _ in range(SETUP_PROBES):
        before = reference_loops("python")
        t0 = time.monotonic_ns()
        raw.append(run_child("setup", str(t0), json.dumps(argv))["setup_s"])
        samples.append(scaled(raw[-1], before + reference_loops("python"), "python"))
    return statistics.median(samples), statistics.median(raw)


def lscpu() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    fields = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
    keys = {"Model name": "cpu", "L1d cache": "l1d", "L2 cache": "l2", "L3 cache": "l3"}
    return {short: fields[k].strip() for k, short in keys.items() if k in fields}


def environment(worker_env: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)), **lscpu(), **worker_env,
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "grid_workers": GRID_WORKERS,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def cpu_ticks():
    """(steal, total) CPU ticks of the whole machine so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def measure(name: str, seed: int, seconds: int, work: Path):
    setup, raw_setup = setup_seconds(name, seed, work)
    before = cpu_ticks()
    kind = LOOP_KIND[name]
    res = run_workload(name, seed, work, seconds=seconds, calibrate=kind)
    after = cpu_ticks()
    # Each part's median over the iterations, summed over the parts.
    segments = res["segments"]
    raw = sum(statistics.median(s[label][0] for s in segments) for label in segments[0])
    wall = sum(statistics.median(scaled(*s[label], kind) for s in segments)
               for label in segments[0])
    metrics = {
        "wall_s": wall,
        "steps_per_s": res["steps"] / wall,
        "setup_s": setup,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }
    q1, q2, q3 = statistics.quantiles(res["walls"], n=4)
    notes = [f"wall_s ({kind} loop) and setup_s are at reference host speed (hostspeed.py); "
             f"as measured, wall_s is {raw:.4f} s and setup_s {raw_setup:.4f} s",
             f"wall_s sums the medians over {len(segments)} iterations of its "
             f"{len(segments[0])} parts; measured iteration quartiles "
             f"{q1:.4f} {q2:.4f} {q3:.4f} s, min {min(res['walls']):.4f} s",
             f"steps_per_s counts {res['steps']} optimizer steps per iteration",
             f"setup_s is the median of {SETUP_PROBES} process starts"]
    if before and after and after[1] > before[1]:
        # Time the hypervisor gave to other guests slows every timing here.
        steal = (after[0] - before[0]) / (after[1] - before[1])
        notes.append(f"host CPU steal during the timed worker: {steal:.1%} of all CPU time")
    return metrics, [res], notes


def traced(name: str, seed: int, seconds: int, work: Path):
    half = max(1.0, seconds / 2)
    plain = run_workload(name, seed, work, seconds=half, min_iter=1)
    own = run_workload(name, seed, work, seconds=half, min_iter=1, max_iter=3, trace=True)
    runs, sources = [plain, own], {}
    exercised = set(own["exercised"])
    span_metrics = [m for m, _, _ in PER_LAYER
                    if not m.startswith(_LAYER_PASS) and m != "trace.overhead_frac"]
    missing = {tracing_source(m) for m in span_metrics} - exercised
    probes = {}
    for probe in _PROBES:
        if probe != name and missing:
            spans = ROOT / ".bench_work" / f"spans-{name}.probe-{probe}.tsv"
            probes[probe] = run_workload(probe, seed, work, seconds=0, min_iter=1, max_iter=1,
                                         warmup=False, trace=True, spans=str(spans))
            runs.append(probes[probe])
            missing -= set(probes[probe]["exercised"])
    if missing:
        raise BenchError(f"no traced run reached {sorted(missing)}")

    layer_pass = run_child("layers", str(seed))
    metrics = dict(layer_pass["layers"])
    for m in span_metrics:
        src = name if tracing_source(m) in exercised else next(
            p for p, r in probes.items() if tracing_source(m) in r["exercised"])
        sources[m] = src
        if m == "harness.checks.distinct_reports":
            metrics[m] = len({d for r in ([plain, own] if src == name else [probes[src]])
                              for d in r["reports"]})
        else:
            metrics[m] = (own if src == name else probes[src])["layers"][m]
    metrics["trace.overhead_frac"] = (statistics.median(own["walls"])
                                      / statistics.median(plain["walls"]) - 1)

    total = sum(v for k, v in own["layers"].items() if k.endswith(".self_s"))
    shares = sorted(((v / total, k[:-7]) for k, v in own["layers"].items()
                     if k.endswith(".self_s")), reverse=True)
    notes = [f"{m} from the {s} probe" for m, s in sorted(sources.items()) if s != name]
    notes += [f"self-time share {share:6.1%} {layer}" for share, layer in shares[:8]]
    notes += [f"{k} = {v} B (computed)" for k, v in layer_pass["moved"].items()]
    notes.append(f"sweep rates are in-cache rates: one 1e6 f64 slot is 8 MB, "
                 f"last-level cache {lscpu().get('l3', 'unknown')}")
    notes.append(f"{own['spans']} spans written to .bench_work/spans-{name}.tsv; traced "
                 f"worker peak RSS {own['peak_rss_kb'] / 1024:.0f} MB")
    return metrics, runs, notes


def tracing_source(metric: str) -> str:
    """The span whose presence shows that a workload reached a metric's layer.

    Span names are those tracing.py records; this process does not import
    tracing.py, which needs the library.
    """
    if metric.startswith("harness.grid."):
        return "harness.grid.grid_search"
    if metric == "harness.checks.distinct_reports":
        return "harness.checks.run_suite"
    return metric.rsplit(".", 1)[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "innaprop" / "__init__.py").is_file():
        print(f"error: no src/innaprop under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        measure_fn = traced if args.trace else measure
        metrics, runs, notes = measure_fn(args.workload, args.seed, args.seconds, work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    specs = PER_LAYER if args.trace else END_TO_END
    print(f"workload={args.workload} seed={args.seed} config_seed={config_seed(args.seed)} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(runs[0]["env"]), sort_keys=True))
    for name, unit, *_ in specs:
        print(f"  {name:42s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':42s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    for note in notes:
        print(f"  # {note}")
    for problem in [p for r in runs for p in r["problems"]][:20]:
        print(f"  ! {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, *_ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
