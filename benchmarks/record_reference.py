"""Record ``reference.json``: the sha256 of every CSV each workload writes at
each config seed, and the number of checks ``check all`` reports.

    PYTHONPATH=src python3 benchmarks/record_reference.py

Run it only at a commit whose outputs are known to be right; the benchmark
then counts every later difference as a failed operation.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import innaprop.harness.cli as cli
from workloads import CONFIG_SEEDS, REFERENCE, csv_hashes, prepare


def main() -> None:
    reference = {"config_seeds": CONFIG_SEEDS}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as tmp:
        for name in ("presets", "grid_cifar", "step_1e6"):
            reference[name] = {}
            for cs in range(CONFIG_SEEDS):
                commands = prepare(name, cs, Path(tmp) / f"{name}-{cs}")
                entry = reference[name][str(cs)] = {}
                for cmd in commands:
                    with contextlib.redirect_stdout(io.StringIO()):
                        if cli.main(list(cmd.argv)) != 0:
                            raise SystemExit(f"{name} {cmd.label} failed at config seed {cs}")
                    entry[cmd.label] = csv_hashes(cmd.out)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if cli.main(["check", "all"]) != 0:
                raise SystemExit("check all failed")
        reference["check_all"] = {"checks": sum(ln.startswith("[PASS]")
                                                for ln in buf.getvalue().splitlines())}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
