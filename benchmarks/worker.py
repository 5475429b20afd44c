"""Child process of the benchmark; ``run.py`` starts it with ``src`` on the
path and BLAS pinned to one thread, and reads one JSON object from the last
line of its standard output.

Modes:
  setup <t0_ns> <argv-json>   start-up probe: seconds from ``t0_ns`` (the
                              parent's monotonic clock just before it started
                              this process) to the first call into
                              run_experiment, grid_search or run_suite
  workload <options-json>     closed-loop timing of one workload
  layers <seed>               optimizer step sweep and tracemalloc pass
"""

import json
import sys
import time


def setup(t0_ns: int, argv: list) -> dict:
    import innaprop.harness.cli as cli

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached(time.monotonic_ns())

    for attr in ("run_experiment", "grid_search", "run_suite"):
        setattr(cli, attr, reached)
    try:
        cli.main(argv)
    except Reached as hit:
        return {"setup_s": (hit.args[0] - t0_ns) / 1e9}
    raise RuntimeError(f"{argv} returned before reaching the library")


def _environment() -> dict:
    import platform

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def workload(opts: dict) -> dict:
    import contextlib
    import hashlib
    import io
    import resource
    import shutil
    import statistics
    from pathlib import Path

    import innaprop
    import innaprop.harness.cli as cli
    from hostspeed import reference_loops
    from tracing import COMMAND, STEP, Tracer, layer_metrics, write_spans
    from workloads import GRID_WORKERS, REFERENCE, check, prepare

    src = Path(opts["root"]) / "src"
    if not Path(innaprop.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"innaprop imported from {innaprop.__file__}, not from {src}")

    name, cs = opts["workload"], opts["config_seed"]
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    commands = prepare(name, cs, Path(opts["work"]))
    attempted = failed = 0
    problems, reports, ok_cells = [], set(), []

    def run_command(argv, tracer):
        try:
            main = cli.main if tracer is None else tracer.wrap(COMMAND, cli.main)
            return main(list(argv))
        except (Exception, SystemExit) as exc:  # one failed command must not stop the run
            return repr(exc)

    # Each part of the current iteration, a command or for check_all a suite:
    # its seconds and, when opts["calibrate"] names a kind of reference loop
    # (untraced runs), the seconds of those loops run just before and after it.
    parts = {}
    kind = opts["calibrate"]

    def timed(label, fn, *args):
        before = reference_loops(kind) if kind else []
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall = time.perf_counter() - t0
            parts[label] = (wall, before + (reference_loops(kind) if kind else []))

    def timed_suite(run_suite):
        return lambda suite: timed(suite, run_suite, suite)

    def iteration(tracer=None) -> tuple:
        nonlocal attempted, failed
        for cmd in commands:
            if cmd.out is not None:
                shutil.rmtree(cmd.out, ignore_errors=True)
        parts.clear()
        buf = io.StringIO()
        codes = []
        with contextlib.redirect_stdout(buf):
            for cmd in commands:
                if name == "check_all":
                    codes.append(run_command(cmd.argv, tracer))
                else:
                    codes.append(timed(cmd.label, run_command, cmd.argv, tracer))
        outcome = check(name, cs, commands, codes, buf.getvalue(), reference)
        attempted += outcome.attempted
        failed += outcome.failed
        problems.extend(outcome.problems)
        ok_cells.append(outcome.ok_cells)
        if outcome.report:
            reports.add(hashlib.sha256(outcome.report.encode()).hexdigest())
        # The iteration's wall time leaves out the reference loops.
        return sum(part[0] for part in parts.values()), dict(parts)

    steps = 0
    if opts["warmup"]:
        counter = Tracer(record=False).install()
        try:
            iteration()
        finally:
            counter.uninstall()
        steps = counter.counts()[STEP]

    tracer = Tracer(record=True).install() if opts["trace"] else None
    run_suite = cli.run_suite
    cli.run_suite = timed_suite(run_suite)
    walls, segments = [], []
    start = time.perf_counter()
    try:
        # Start another iteration only while it is expected to end in time.
        while len(walls) < opts["max_iter"] and (
                len(walls) < opts["min_iter"] or time.perf_counter() - start
                + statistics.median(walls) < opts["seconds"]):
            if tracer is not None:
                tracer.run_id = len(walls)
            wall, part = iteration(tracer)
            walls.append(wall)
            segments.append(part)
    finally:
        cli.run_suite = run_suite
        if tracer is not None:
            tracer.uninstall()

    result = {
        "walls": walls, "segments": segments, "steps": steps, "attempted": attempted,
        "failed": failed, "problems": problems[:20], "reports": sorted(reports),
        "env": _environment(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans, len(walls), GRID_WORKERS)
        result["exercised"] = sorted(layers.pop("calls"))
        if name == "grid_cifar":
            layers["harness.grid.ok_cells"] = ok_cells[-1]
        result["layers"] = layers
        write_spans(tracer.spans, opts["spans"])
        result["spans"] = len(tracer.spans)
    for cmd in commands:
        if cmd.out is not None:
            shutil.rmtree(cmd.out, ignore_errors=True)
    return result


def layers(seed: int) -> dict:
    """Per-call and per-element cost of three step functions at dims 1e2,
    1e4 and 1e6, then the tracemalloc peak of one step at 1e6.

    At 1e6 an f64 slot is 8 MB, which fits in the last-level cache of
    common server CPUs, so these are in-cache rates, not memory bandwidth.
    """
    import statistics
    import tracemalloc

    import numpy as np
    from innaprop.numerics import ParamVector
    from innaprop.optimizers import (InnapropConfig, ReferenceParams, innaprop_init,
                                     innaprop_naive_init, innaprop_naive_step, innaprop_step,
                                     reference_init, reference_step)
    from tracing import state_slots, step_bytes_moved

    cfg = InnapropConfig(alpha=0.1, beta=0.9, weight_decay=0.01)
    params = ReferenceParams(weight_decay=0.01)
    optimizers = {
        "innaprop": (lambda th: innaprop_init(cfg, th),
                     lambda s, g: innaprop_step(s, g, 1e-3, cfg)),
        "adamw": (lambda th: reference_init("AdamW", th, params),
                  lambda s, g: reference_step(s, g, 1e-3, params)),
        "innaprop_naive": (lambda th: innaprop_naive_init(cfg, th),
                           lambda s, g: innaprop_naive_step(s, g, 1e-3, cfg)),
    }
    rng = np.random.default_rng(seed)
    out, moved = {}, {}
    for exp, reps in ((2, 2000), (4, 400), (6, 12)):
        dim = 10 ** exp
        theta0 = ParamVector(rng.standard_normal(dim))
        g = ParamVector(rng.standard_normal(dim))
        for name, (init, step) in optimizers.items():
            state = step(init(theta0), g)
            times = []
            for _ in range(reps):
                t0 = time.perf_counter_ns()
                state = step(state, g)
                times.append(time.perf_counter_ns() - t0)
            out[f"optimizers.{name}.ns_per_elem.d1e{exp}"] = statistics.median(times) / dim
            moved[f"optimizers.{name}.bytes_moved_computed.d1e{exp}"] = step_bytes_moved(
                state, dim, g.data.itemsize)

    for name, (init, step) in optimizers.items():
        state = step(init(theta0), g)
        tracemalloc.start()
        try:
            step(state, g)
            out[f"optimizers.{name}.alloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[f"optimizers.{name}.state_bytes_computed"] = (
            state_slots(state) * theta0.dim * theta0.data.itemsize)
    return {"layers": out, "moved": moved}


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        result = setup(int(argv[1]), json.loads(argv[2]))
    elif mode == "workload":
        result = workload(json.loads(argv[1]))
    elif mode == "layers":
        result = layers(int(argv[1]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
