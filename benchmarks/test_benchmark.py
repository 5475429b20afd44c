"""Tests of the benchmark itself:

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import innaprop.harness.cli as cli  # noqa: E402
import innaprop.harness.runner as runner  # noqa: E402
from innaprop.numerics import ParamVector  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import REFERENCE, check, prepare  # noqa: E402

REF = json.loads(REFERENCE.read_text(encoding="utf-8"))


def _run_cifar(tmp_path):
    commands = [c for c in prepare("presets", 0, tmp_path) if c.label == "cifar_small"]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(list(c.argv)) for c in commands]
    return commands, codes


def test_corrupted_csv_counts_as_failure(tmp_path):
    commands, codes = _run_cifar(tmp_path)
    assert check("presets", 0, commands, codes, "", REF).failed == 0

    csv = commands[0].out / "run.csv"
    data = bytearray(csv.read_bytes())
    data[-3] ^= 1
    csv.write_bytes(bytes(data))
    outcome = check("presets", 0, commands, codes, "", REF)
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert "sha256" in outcome.problems[0]


def test_failed_check_line_and_exit_code_count(tmp_path):
    commands = prepare("check_all", 0, tmp_path)
    lines = "[PASS] a/b: ok\n[FAIL] a/c: off\n"
    outcome = check("check_all", 0, commands, [1], lines, REF)
    assert outcome.attempted == REF["check_all"]["checks"]
    assert outcome.failed == outcome.attempted


def test_tracing_leaves_outputs_and_library_unchanged(tmp_path):
    step, init = runner.innaprop_step, ParamVector.__init__
    tracer = Tracer(record=True).install()
    try:
        commands, codes = _run_cifar(tmp_path)
    finally:
        tracer.uninstall()
    assert check("presets", 0, commands, codes, "", REF).failed == 0
    assert runner.innaprop_step is step and ParamVector.__init__ is init
    counts = tracer.counts()
    assert counts["optimizers.step"] == 200 and counts["problems.sampler"] == 200


def test_self_time_subtracts_merged_child_intervals():
    parent = ["grid", 0, 100, None, 0, None]
    a = ["cell", 10, 60, parent, 0, None]
    b = ["cell", 40, 90, parent, 0, None]  # overlaps a on another thread
    inner = ["step", 20, 30, a, 0, None]
    assert self_times([parent, a, b, inner]) == [20, 40, 50, 10]


def test_scaled_time_follows_the_reference_loop():
    from hostspeed import KINDS, scaled

    idle = KINDS["python"][1]
    assert abs(scaled(3.0, [idle] * 6, "python") - 3.0) < 1e-12
    assert abs(scaled(3.0, [idle, 2 * idle, 3 * idle], "python") - 1.5) < 1e-12


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "presets",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_the_metrics_run_reports():
    import run
    from workloads import NAMES, WHY

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(n, WHY[n]) for n in NAMES]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(run.PER_LAYER)
