"""The four benchmark workloads: their inputs, their CLI commands and the
check of their outputs against the recorded reference.

Every workload drives the public ``innaprop`` command line in-process. Its
inputs come from the benchmark seed alone: the seed picks one of
``CONFIG_SEEDS`` config seeds, and ``reference.json`` holds the sha256 of
every CSV each command writes at that config seed.

Operations, the unit of ``attempted`` and ``failed``: one per ``run.csv``,
one per grid cell CSV plus one for ``grid.csv``, one per line of
``check all``. An operation fails when its command raised or exited non-zero,
when its CSV is missing or differs from the reference, or when its check
line is not ``[PASS]``. A ``diverged@k`` cell that matches the reference is
not a failure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("presets", "grid_cifar", "step_1e6", "check_all")

# Why each workload exists; mirrored in BENCHMARK.json.
WHY = {
    "presets": "real single runs at dim 7-234, where per-call cost in problems, optimizers and numerics dominates",
    "grid_cifar": "default 81-cell alpha-beta grid: orchestration, per-step log-row evaluation and CSV output",
    "step_1e6": "quadratic at dim 1e6, where per-element optimizer work and allocation dominate the loop",
    "check_all": "all 34 verification checks: the only workload reaching ode, harness.checks and f32",
}

# The kind of reference loop (hostspeed.py) each workload's work resembles;
# its wall_s is scaled by that loop's slowdown.
LOOP_KIND = {"presets": "python", "grid_cifar": "python", "step_1e6": "array",
             "check_all": "python"}

# The grid runs its cells on one thread. The library's thread pool gives no
# speed-up, as its cells hold the interpreter lock; with two threads on two
# shared CPUs the grid's time followed neither reference loop and spread
# twice as far between runs.
GRID_WORKERS = 1

PRESETS = ("gpt2_small", "lora_e2e", "cifar_small")
CONFIG_SEEDS = 8
REFERENCE = Path(__file__).with_name("reference.json")


def config_seed(seed: int) -> int:
    return seed % CONFIG_SEEDS


def step_1e6_config(cs: int) -> dict:
    return {
        "problem": "quadratic",
        "dim": 1_000_000,
        "optimizer": "innaprop",
        "alpha": 0.1,
        "beta": 0.9,
        "lr": 0.001,
        "steps": 100,
        "log_every": 100,
        "precision": "f64",
        "seed": cs,
    }


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple
    out: Path | None


def prepare(name: str, cs: int, work: Path) -> list[Command]:
    """Write the workload's input files under ``work``; return its commands."""
    work.mkdir(parents=True, exist_ok=True)
    seed = ("--seed", str(cs))
    if name == "presets":
        return [Command(p, ("run", "--config", f"preset:{p}", *seed, "--out", str(work / p)),
                        work / p) for p in PRESETS]
    if name == "grid_cifar":
        out = work / "grid"
        return [Command("grid", ("grid", "--config", "preset:cifar_small", *seed, "--out",
                                 str(out), "--workers", str(GRID_WORKERS)), out)]
    if name == "step_1e6":
        cfg = work / "quadratic_1e6.json"
        cfg.write_text(json.dumps(step_1e6_config(cs)), encoding="utf-8")
        out = work / "quadratic_1e6"
        return [Command("quadratic_1e6", ("run", "--config", str(cfg), "--out", str(out)), out)]
    if name == "check_all":
        return [Command("checks", ("check", "all"), None)]
    raise KeyError(f"unknown workload {name!r}; choose from {NAMES}")


def csv_hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    ok_cells: int = 0
    report: str = ""


def check(name: str, cs: int, commands: list[Command], codes: list, stdout: str,
          reference: dict) -> Outcome:
    """Count the operations of one workload iteration and those that failed.

    ``codes`` holds each command's exit code, or the repr of the exception
    it raised. ``stdout`` is everything the commands printed.
    """
    result = Outcome()
    if name == "check_all":
        expected = reference["check_all"]["checks"]
        lines = [ln for ln in stdout.splitlines() if ln.startswith("[")]
        passed = sum(ln.startswith("[PASS]") for ln in lines)
        result.attempted = max(expected, len(lines))
        result.failed = result.attempted - passed if codes == [0] else result.attempted
        result.problems += [ln for ln in lines if not ln.startswith("[PASS]")]
        if codes != [0]:
            result.problems.append(f"check all returned {codes[0]!r}")
        result.report = "\n".join(lines)
        return result

    for cmd, code in zip(commands, codes):
        want = reference[name][str(cs)][cmd.label]
        result.attempted += len(want)
        if code != 0:
            result.failed += len(want)
            result.problems.append(f"{cmd.label}: returned {code!r}")
            continue
        got = csv_hashes(cmd.out)
        for fname, digest in want.items():
            if got.get(fname) != digest:
                result.failed += 1
                result.problems.append(f"{cmd.label}/{fname}: sha256 differs from reference")
        if cmd.label == "grid" and "grid.csv" in got:
            rows = (cmd.out / "grid.csv").read_text(encoding="utf-8").splitlines()[1:]
            result.ok_cells += sum(r.rsplit(",", 1)[-1] == "ok" for r in rows)
    return result
