"""Spans around the calls the harness makes into each layer, recorded from
outside the library by wrapping module globals and class methods.

``Tracer.install`` replaces, for instance, ``runner.innaprop_step`` and
``ParamVector.__init__`` with wrappers; ``uninstall`` restores every
original. With ``record=False`` a wrapper only counts calls, which is cheap
enough for a warm-up pass. With ``record=True`` each call appends a span
``[name, start_ns, end_ns, parent, run_id, extra]`` to an in-memory list;
``write_spans`` saves them once the run is over.

Grid cells run on pool threads, whose span stacks start empty: a span opened
there takes the innermost open span of the installing thread as its parent,
so cells hang under ``harness.grid.grid_search``.
"""

from __future__ import annotations

import dataclasses
import pathlib
import statistics
import threading
import time
from collections import Counter, defaultdict

import innaprop.harness.checks as checks
import innaprop.harness.cli as cli
import innaprop.harness.grid as grid
import innaprop.harness.runner as runner
import innaprop.ode as ode
from innaprop.numerics import ParamVector
from innaprop.problems import MiniBatchSampler

STEP = "optimizers.step"
IO = "harness.runner.io"
GRID = "harness.grid.grid_search"
RUN = "harness.runner.run_experiment"
RUN_SUITE = "harness.checks.run_suite"
COMMAND = "cli.command"
SUITES = tuple(sorted(checks.SUITES))

_STEP_FUNCTIONS = ("innaprop_step", "innaprop_plain_step", "innaprop_momentum_step",
                   "innaprop_naive_step", "inna_step", "dinadam_step", "dinadam_direct_step",
                   "reference_step")

_slot_cache: dict = {}


def state_slots(state) -> int:
    """Full-dimension vectors a state holds (its ParamVector-valued fields)."""
    key = (type(state), getattr(state, "kind", None))
    if key not in _slot_cache:
        _slot_cache[key] = sum(isinstance(getattr(state, f.name), ParamVector)
                               for f in dataclasses.fields(state))
    return _slot_cache[key]


def step_bytes_moved(state, dim: int, itemsize: int) -> int:
    """Computed traffic of one step: every state slot read and written once
    plus the gradient read once. Temporaries are not counted."""
    return (2 * state_slots(state) + 1) * dim * itemsize


def _step_extra(args):
    data = args[1].data
    return data.size, step_bytes_moved(args[0], data.size, data.itemsize)


def _io_extra(args):
    return len(args[1]) if len(args) > 1 else 0


class Tracer:
    def __init__(self, record: bool = True):
        self.record = record
        self.spans: list = []
        self.run_id = 0
        self._local = threading.local()
        self._main_stack: list = []
        self._counters: list = []
        self._undo: list = []

    def wrap(self, name, fn, extra=None):
        local = self._local
        if not self.record:
            counters = self._counters

            def counted(*args, **kwargs):
                c = getattr(local, "counts", None)
                if c is None:
                    c = local.counts = Counter()
                    counters.append(c)
                c[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, main_stack, clock, tracer = self.spans, self._main_stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            rec = [name, 0, 0, parent, tracer.run_id, extra(args) if extra else None]
            spans.append(rec)
            stack.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return traced

    def counts(self) -> Counter:
        if self.record:
            return Counter(rec[0] for rec in self.spans)
        total = Counter()
        for c in self._counters:
            total.update(c)
        return total

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, replacement):
        original = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_fn(self, owner, attr, name, extra=None):
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr), extra))

    def instrument(self, problem):
        """The same problem with its grad, loss and test metric wrapped."""
        metric = problem.test_metric
        return dataclasses.replace(
            problem,
            grad=self.wrap("problems.grad", problem.grad),
            loss=self.wrap("problems.eval", problem.loss),
            test_metric=self.wrap("problems.eval", metric) if metric else None,
        )

    def _patch_factory(self, owner, attr, name=None):
        """Wrap a function that returns a problem or a list of problems."""
        inner = getattr(owner, attr)
        if name:
            inner = self.wrap(name, inner)
        instrument = self.instrument

        def factory(*args, **kwargs):
            out = inner(*args, **kwargs)
            return [instrument(p) for p in out] if isinstance(out, list) else instrument(out)
        self._patch(owner, attr, factory)

    def install(self):
        self._local.stack = self._main_stack
        for fn in _STEP_FUNCTIONS:
            for module in (runner, checks, ode):
                if hasattr(module, fn):
                    self._patch_fn(module, fn, STEP, _step_extra)
        self._patch_fn(ParamVector, "__init__", "numerics.paramvector_init")
        self._patch_fn(MiniBatchSampler, "next_batch", "problems.sampler")
        for module in (runner, checks):
            self._patch_fn(module, "lr_at", "schedulers.lr_at")
        self._patch_factory(runner, "build_problem", "harness.config.build_problem")
        # The check suites build their problems here; _slope_problem is the
        # instability suite's objective, with no public factory.
        for attr in ("make_problem", "shipped_problems", "_slope_problem"):
            self._patch_factory(checks, attr)
        for module in (cli, grid):
            self._patch_fn(module, "run_experiment", RUN)
        self._patch_fn(cli, "grid_search", GRID)
        self._patch_fn(cli, "run_suite", RUN_SUITE)
        for module in (checks, ode):
            self._patch_fn(module, "rk4_integrate", "ode.rk4_integrate")
        self._patch_fn(checks, "discretization_gap", "ode.discretization_gap")
        self._patch_fn(runner, "rows_to_csv", IO)
        self._patch_fn(grid.GridResult, "to_csv", IO)
        self._patch_fn(pathlib.Path, "write_text", IO, _io_extra)
        for suite in SUITES:
            original = checks.SUITES[suite]
            self._undo.append(lambda s=suite, fn=original: checks.SUITES.__setitem__(s, fn))
            checks.SUITES[suite] = self.wrap(f"harness.checks.{suite}", original)
        return self

    def uninstall(self):
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# Derived numbers
# ---------------------------------------------------------------------------


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover.

    Children of one span may overlap (grid cells on two threads), so their
    intervals are merged before they are subtracted.
    """
    kids = defaultdict(list)
    for rec in spans:
        if rec[3] is not None:
            kids[id(rec[3])].append(rec)
    out = []
    for rec in spans:
        start, end = rec[1], rec[2]
        covered = 0
        children = kids.get(id(rec))
        if children:
            children.sort(key=lambda c: c[1])
            lo = hi = None
            for c in children:
                s, e = max(c[1], start), min(c[2], end)
                if e <= s:
                    continue
                if hi is None or s > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = s, e
                else:
                    hi = max(hi, e)
            if hi is not None:
                covered += hi - lo
        out.append(end - start - covered)
    return out


def layer_metrics(spans, iterations: int, workers: int) -> dict:
    """Per-iteration layer numbers from the spans of ``iterations`` traced
    iterations of one workload."""
    selfs = self_times(spans)
    calls, self_ns = Counter(), Counter()
    elems = moved = written = 0
    grids, cells = [], []
    for rec, own in zip(spans, selfs):
        name = rec[0]
        calls[name] += 1
        self_ns[name] += own
        if name == STEP:
            elems += rec[5][0]
            moved += rec[5][1]
        elif name == IO and rec[5]:
            written += rec[5]
        elif name == GRID:
            grids.append(rec[2] - rec[1])
        elif name == RUN and rec[3] is not None and rec[3][0] == GRID:
            cells.append(rec[2] - rec[1])

    out = {"calls": calls}
    for name in calls:
        out[f"{name}.calls"] = calls[name] / iterations
        out[f"{name}.self_s"] = self_ns[name] / iterations / 1e9
    if calls["problems.grad"]:
        out["problems.grad.us_per_call"] = self_ns["problems.grad"] / calls["problems.grad"] / 1e3
    if elems:
        out[f"{STEP}.ns_per_elem"] = self_ns[STEP] / elems
        out[f"{STEP}.bytes_moved_computed"] = moved / iterations
    if calls[IO]:
        out[f"{IO}.bytes_written"] = written / iterations
    if cells:
        deciles = statistics.quantiles(cells, n=10) if len(cells) > 1 else [cells[0]] * 9
        out["harness.grid.cells"] = len(cells) / len(grids)
        out["harness.grid.cell_s.p50"] = statistics.median(cells) / 1e9
        out["harness.grid.cell_s.p90"] = deciles[8] / 1e9
        out["harness.grid.parallel_efficiency"] = sum(cells) / (sum(grids) * workers)
    return out


def write_spans(spans, path) -> None:
    """One tab-separated line per span: id, name, start, end, parent id, run id.
    Times are nanoseconds from the first span's start."""
    index = {id(rec): i for i, rec in enumerate(spans)}
    t0 = min((rec[1] for rec in spans), default=0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tname\tstart_ns\tend_ns\tparent\trun\n")
        for i, rec in enumerate(spans):
            parent = "" if rec[3] is None else index[id(rec[3])]
            fh.write(f"{i}\t{rec[0]}\t{rec[1] - t0}\t{rec[2] - t0}\t{parent}\t{rec[4]}\n")
