"""Config parsing, run records, grid/sweep behavior, CLI and determinism."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from innaprop.errors import ConfigError, ContractViolation
import innaprop.harness.runner as runner
from innaprop.harness.cli import main
from innaprop.harness.config import (
    content_hash,
    emit_config,
    load_preset,
    parse_config,
    parse_config_dict,
    preset_names,
    with_optimizer,
)
from innaprop.harness.grid import (
    DEFAULT_GRID,
    DEFAULT_LR_SWEEP,
    SweepRow,
    grid_search,
    lr_sweep,
)
from innaprop.harness.runner import row_at_step, rows_to_csv, run_experiment


MINIMAL = {"problem": "rosenbrock", "optimizer": "innaprop", "alpha": 0.1,
           "beta": 0.9, "lr": 1e-3, "steps": 100}


class TestConfig:
    def test_minimal_config_with_defaults(self):
        cfg = parse_config_dict(MINIMAL)
        assert cfg.sigma == 0.999
        assert cfg.epsilon == 1e-8
        assert cfg.weight_decay == 0.01
        assert cfg.beta1 == 0.9
        assert cfg.schedule == "constant"
        assert cfg.precision == "f64"

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="'learning_rate'"):
            parse_config_dict({**MINIMAL, "learning_rate": 1e-3})

    def test_type_mismatch_named(self):
        with pytest.raises(ConfigError, match="'steps'"):
            parse_config_dict({**MINIMAL, "steps": "many"})

    def test_well_posedness_rejected_at_parse(self):
        bad = {**MINIMAL, "lr": 1.0, "schedule": "cosine"}
        with pytest.raises(ConfigError, match="well-posedness"):
            parse_config_dict(bad)

    def test_beta2_alias_for_sigma(self):
        cfg = parse_config_dict({**MINIMAL, "beta2": 0.95})
        assert cfg.sigma == 0.95
        with pytest.raises(ConfigError, match="alias"):
            parse_config_dict({**MINIMAL, "beta2": 0.95, "sigma": 0.9})

    def test_inertial_optimizers_need_alpha_beta(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config_dict({"problem": "rosenbrock", "optimizer": "innaprop",
                               "lr": 1e-3, "steps": 10})

    def _rejected_before_compute(self, tmp_path, raw, match):
        with pytest.raises(ConfigError, match=match):
            parse_config_dict(raw)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("problem", ["quadratic", "rosenbrock"])
    def test_batch_size_needs_a_dataset(self, tmp_path, capsys, problem):
        raw = {**MINIMAL, "problem": problem, "batch_size": 8}
        self._rejected_before_compute(tmp_path, raw, "'batch_size'")

    def test_t_max_below_steps_rejected(self, tmp_path, capsys):
        raw = {**MINIMAL, "schedule": "cosine", "t_max": 5, "steps": 10}
        self._rejected_before_compute(tmp_path, raw, "'t_max'")

    def test_round_trip(self):
        cfg = parse_config_dict({**MINIMAL, "schedule": "cosine", "t_max": 200,
                                 "batch_size": None, "grad_clip": 1.0})
        assert parse_config_dict(emit_config(cfg)) == cfg
        assert content_hash(cfg) == content_hash(parse_config_dict(emit_config(cfg)))

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MINIMAL), encoding="utf-8")
        assert parse_config(path) == parse_config_dict(MINIMAL)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(path)

    def test_protocol_fidelity_on_optimizer_swap(self):
        cfg = parse_config_dict({**MINIMAL, "sigma": 0.99, "weight_decay": 0.1,
                                 "schedule": "cosine", "t_max": 200})
        paired = with_optimizer(cfg, "adamw")
        assert paired.sigma == cfg.sigma
        assert paired.weight_decay == cfg.weight_decay
        assert paired.schedule == cfg.schedule and paired.t_max == cfg.t_max
        assert paired.lr == cfg.lr and paired.seed == cfg.seed


class TestPresets:
    def test_shipped_names(self):
        assert preset_names() == ["cifar_small", "gpt2_small", "lora_e2e"]

    def test_gpt2_preset_values(self):
        cfg = load_preset("gpt2_small")
        assert cfg.sigma == 0.99
        assert cfg.weight_decay == 0.1
        assert cfg.lr == 6e-4
        assert cfg.grad_clip == 1.0
        assert cfg.schedule == "cosine_warmup" and cfg.t_warmup == 500
        assert (cfg.alpha, cfg.beta) == (0.1, 0.9)

    def test_cifar_preset_values(self):
        cfg = load_preset("cifar_small")
        assert cfg.sigma == 0.999 and cfg.weight_decay == 0.01
        assert cfg.lr == 1e-3 and cfg.schedule == "cosine" and cfg.t_max == 200

    def test_lora_preset_values(self):
        cfg = load_preset("lora_e2e")
        assert cfg.schedule == "linear_warmup" and cfg.t_warmup == 500
        assert cfg.sigma == 0.999 and cfg.weight_decay == 0.01

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("imagenet_full")


class TestRunExperiment:
    def test_quadratic_regression_bound(self):
        cfg = parse_config_dict({
            "problem": "quadratic", "spectrum": [1.0, 10.0], "optimizer": "innaprop",
            "alpha": 2.0, "beta": 2.0, "lr": 1e-3, "schedule": "cosine",
            "steps": 500, "weight_decay": 0.0, "init_scale": 0.1,
            "log_every": 100, "seed": 0,
        })
        rows, summary = run_experiment(cfg)
        assert summary.status == "ok"
        assert summary.final_train_loss < 1e-4

    def test_csv_byte_determinism(self):
        cfg = parse_config_dict({**MINIMAL, "steps": 50})
        a = rows_to_csv(run_experiment(cfg)[0])
        b = rows_to_csv(run_experiment(cfg)[0])
        assert a == b

    def test_rows_monotone_and_snapshot_present(self):
        cfg = parse_config_dict({**MINIMAL, "steps": 50, "log_every": 7})
        rows, _ = run_experiment(cfg)
        steps = [r.step for r in rows]
        assert steps == sorted(steps)
        assert row_at_step(rows, 5) is not None  # 10% snapshot
        assert rows[-1].step == 50

    def test_output_files(self, tmp_path):
        cfg = parse_config_dict({**MINIMAL, "steps": 20})
        run_experiment(cfg, out_dir=tmp_path, tag="demo")
        csv_text = (tmp_path / "demo.csv").read_text()
        assert csv_text.startswith("step,lr,train_loss,test_metric,status\n")
        summary = json.loads((tmp_path / "demo.json").read_text())
        assert summary["status"] == "ok"
        assert summary["config_hash"] == content_hash(cfg)
        assert summary["config"]["alpha"] == 0.1

    def test_f32_precision_runs(self):
        cfg = parse_config_dict({**MINIMAL, "steps": 20, "precision": "f32"})
        rows, summary = run_experiment(cfg)
        assert summary.status == "ok"

    def test_minibatch_run_deterministic(self):
        base = {"problem": "tiny_mlp", "dataset": "two_gaussians", "n_samples": 60,
                "dim": 2, "optimizer": "innaprop", "alpha": 0.1, "beta": 0.9,
                "lr": 1e-3, "steps": 30, "batch_size": 8, "seed": 5}
        a = rows_to_csv(run_experiment(parse_config_dict(base))[0])
        b = rows_to_csv(run_experiment(parse_config_dict(base))[0])
        assert a == b

    def test_mlp_accuracy_regression_on_separable_data(self):
        # Frozen after one baseline run: 500 aggressive-pairing steps on
        # clearly separable classes end above 95% test accuracy.
        cfg = parse_config_dict({
            "problem": "tiny_mlp", "dataset": "two_gaussians", "n_samples": 240,
            "dim": 2, "separation": 6.0, "hidden": [8], "optimizer": "innaprop",
            "alpha": 0.1, "beta": 0.9, "lr": 1e-3, "schedule": "cosine",
            "steps": 500, "batch_size": 32, "log_every": 50, "seed": 0,
        })
        rows, summary = run_experiment(cfg)
        final_metric = [r for r in rows if r.status == "ok"][-1].test_metric
        assert summary.status == "ok"
        assert final_metric > 0.95

    def test_degenerate_pair_matches_adamw_loss_columns(self):
        # Harness-level identity: the (1, 1) run and AdamW(beta1=0) on the
        # same seed/problem log the same loss column to 1e-12.
        base = parse_config_dict({
            "problem": "tiny_mlp", "dataset": "two_gaussians", "n_samples": 120,
            "dim": 2, "optimizer": "innaprop", "alpha": 1.0, "beta": 1.0,
            "lr": 1e-3, "steps": 120, "batch_size": 16, "log_every": 10, "seed": 4,
        })
        rows_ip, _ = run_experiment(base)
        rows_aw, _ = run_experiment(with_optimizer(base, "adamw", beta1=0.0))
        assert len(rows_ip) == len(rows_aw)
        for a, b in zip(rows_ip, rows_aw):
            assert a.step == b.step
            assert abs(a.train_loss - b.train_loss) <= 1e-12 * max(abs(b.train_loss), 1e-30)

    def test_momentum_form_key(self):
        base = {"problem": "quadratic", "optimizer": "innaprop_momentum",
                "alpha": 0.1, "beta": 0.9, "lr": 1e-3, "weight_decay": 0.0,
                "steps": 40, "log_every": 10, "seed": 2}
        direct = run_experiment(parse_config_dict({**base, "form": "direct"}))[1]
        reduced = run_experiment(parse_config_dict({**base, "form": "reduced"}))[1]
        assert direct.status == reduced.status == "ok"
        assert direct.final_train_loss == pytest.approx(reduced.final_train_loss,
                                                        rel=1e-10)


class TestNonFiniteGradient:
    @pytest.mark.parametrize("precision,bad", [("f64", np.inf), ("f64", np.nan),
                                               ("f32", 1e300)])
    def test_same_rows_and_status(self, monkeypatch, precision, bad):
        # The 7th gradient is non-finite (for f32: it overflows in the cast).
        # The run keeps the rows logged before step 7 and ends in a
        # diverged@7 row, as it did while the runner still copied each
        # gradient into a ParamVector.
        cfg = parse_config_dict({"problem": "quadratic", "optimizer": "innaprop",
                                 "alpha": 0.5, "beta": 1.0, "lr": 1e-2, "steps": 20,
                                 "log_every": 2, "precision": precision, "seed": 3})
        clean, _ = run_experiment(cfg)
        build = runner.build_problem

        def broken(config):
            problem = build(config)
            calls = []

            def grad(theta, batch=None):
                calls.append(batch)
                g = problem.grad(theta, batch)
                return np.full_like(g, bad) if len(calls) == 7 else g
            return replace(problem, grad=grad)

        monkeypatch.setattr(runner, "build_problem", broken)
        with np.errstate(over="ignore"):
            rows, summary = run_experiment(cfg)
        assert (summary.status, summary.steps_run) == ("diverged@7", 7)
        assert rows[:-1] == [r for r in clean if r.step < 7]
        last = rows[-1]
        assert (last.step, last.lr, last.test_metric, last.status) == (7, 1e-2, None,
                                                                       "diverged@7")
        assert np.isnan(last.train_loss)


class TestContentHash:
    @pytest.mark.parametrize("name,digest", [
        ("cifar_small", "f29cad71295f3ccaa086ca96a18fca3b8bbea788"),
        ("gpt2_small", "f0e596eab89f20a86c60813ed4deb758f20f04dc"),
        ("lora_e2e", "706b01e4c24bc673d49e85de7974718f19239d69"),
    ])
    def test_synthetic_preset_hash_unchanged(self, name, digest):
        # Recorded before the hash covered dataset files: a synthetic dataset
        # has no file, so the run.json of these presets keeps its hash.
        assert content_hash(load_preset(name)) == digest

    def test_csv_dataset_bytes_change_the_hash(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x,y,label\n0.5,1.0,0\n1.5,-2.0,1\n2.5,0.25,0\n3.5,4.0,1\n",
                        encoding="utf-8")
        cfg = parse_config_dict({"problem": "logistic_regression", "dataset": str(path),
                                 "label_column": "label", "optimizer": "adamw", "steps": 5})
        before = content_hash(cfg)
        data = bytearray(path.read_bytes())
        data[data.index(b"2.5")] = ord("7")  # one feature cell, 2.5 -> 7.5
        path.write_bytes(bytes(data))
        assert content_hash(cfg) != before


class TestGrid:
    BASE = {"problem": "quadratic", "spectrum": [1.0, 10.0], "optimizer": "innaprop",
            "alpha": 0.1, "beta": 0.9, "lr": 1e-3, "steps": 60, "weight_decay": 0.0,
            "log_every": 10, "seed": 1}

    def test_default_grid_values(self):
        assert DEFAULT_GRID == (0.1, 0.5, 0.9, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)

    def test_two_by_two_sorted(self):
        grid = grid_search(parse_config_dict(self.BASE), alphas=[2.0, 0.5],
                           betas=[1.5, 0.9])
        keys = [(c.alpha, c.beta) for c in grid.cells]
        assert keys == [(0.5, 0.9), (0.5, 1.5), (2.0, 0.9), (2.0, 1.5)]
        assert all(c.status == "ok" for c in grid.cells)

    def test_illposed_cell_rejected_up_front(self):
        cfg = parse_config_dict({**self.BASE, "lr": 0.5})
        with pytest.raises(ConfigError, match="well-posed"):
            grid_search(cfg, alphas=[1.0], betas=[0.4, 2.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_cell_isolated(self):
        # Unscaled steps on a stiff quadratic: beta=4 overshoots to overflow
        # while beta=0.5 converges; the grid must record both.
        cfg = parse_config_dict({"problem": "quadratic", "spectrum": [1.0, 50.0],
                                 "optimizer": "inna", "alpha": 0.1, "beta": 0.5,
                                 "lr": 0.05, "weight_decay": 0.0, "steps": 800,
                                 "log_every": 200, "seed": 0})
        grid = grid_search(cfg, alphas=[0.1], betas=[0.5, 4.0])
        statuses = {c.beta: c.status for c in grid.cells}
        assert statuses[0.5] == "ok"
        assert statuses[4.0].startswith("diverged@")

    def test_parallel_grid_byte_determinism(self, tmp_path):
        cfg = parse_config_dict(self.BASE)
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        grid_search(cfg, alphas=[0.5, 2.0], betas=[0.9], out_dir=out1)
        grid_search(cfg, alphas=[0.5, 2.0], betas=[0.9], out_dir=out2)
        assert (out1 / "grid.csv").read_bytes() == (out2 / "grid.csv").read_bytes()
        for a, name in ((0.5, "cell_a0.5_b0.9.csv"), (2.0, "cell_a2_b0.9.csv")):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
            standalone = run_experiment(replace(cfg, alpha=a, beta=0.9))[0]
            assert (out1 / name).read_text(encoding="utf-8") == rows_to_csv(standalone)

    def test_cell_matches_standalone_run(self):
        cfg = parse_config_dict(self.BASE)
        grid = grid_search(cfg, alphas=[2.0], betas=[2.0])
        standalone = run_experiment(replace(cfg, alpha=2.0, beta=2.0))[1]
        assert grid.cells[0].final_train_loss == standalone.final_train_loss


class TestSweep:
    BASE = {"problem": "quadratic", "spectrum": [1.0, 10.0], "optimizer": "adamw",
            "weight_decay": 0.0, "sigma": 0.9, "lr": 1e-3, "schedule": "constant",
            "steps": 1500, "log_every": 250, "seed": 0}

    def test_default_candidate_list(self):
        assert DEFAULT_LR_SWEEP == (1e-4, 5e-4, 1e-3, 5e-3, 1e-2)

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            lr_sweep(parse_config_dict(self.BASE), lrs=[1e-3, 1e-3])

    def test_interior_optimum_on_shipped_conditioning(self):
        rows = lr_sweep(parse_config_dict(self.BASE))
        losses = [r.final_train_loss for r in rows]
        best = int(np.argmin(losses))
        assert 0 < best < len(rows) - 1, f"best lr at endpoint: {losses}"


class TestLockStep:
    """A grid or sweep runs its cells in lock-step from one run_experiment
    call; every cell must come out as its own single run would."""

    MLP = {"problem": "tiny_mlp", "dataset": "two_gaussians", "n_samples": 120, "dim": 2,
           "separation": 4.0, "hidden": [8], "optimizer": "innaprop", "alpha": 0.1,
           "beta": 0.9, "lr": 1e-3, "schedule": "cosine", "steps": 40, "batch_size": 16,
           "log_every": 3, "seed": 2}
    LOGISTIC = {"problem": "logistic_regression", "dataset": "two_gaussians",
                "n_samples": 200, "dim": 6, "separation": 4.0, "optimizer": "innaprop",
                "alpha": 0.1, "beta": 0.9, "lr": 2e-4, "schedule": "linear_warmup",
                "t_warmup": 10, "t_max": 60, "steps": 60, "batch_size": 32, "log_every": 5,
                "seed": 1}
    DIVERGING = {"problem": "quadratic", "spectrum": [1.0, 50.0], "optimizer": "inna",
                 "alpha": 0.1, "beta": 0.5, "lr": 0.05, "weight_decay": 0.0, "steps": 800,
                 "log_every": 200, "seed": 0}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("base,alphas,betas", [
        (MLP, [0.1, 0.5, 2.0], [0.9, 2.0]),
        (LOGISTIC, [0.1, 1.0], [0.9, 1.0, 3.0]),
        (DIVERGING, [0.1], [0.5, 4.0]),
        ({**MLP, "precision": "f32"}, [0.1, 2.0], [0.9, 2.0]),
    ], ids=["tiny_mlp", "logistic_regression", "diverging_inna", "tiny_mlp_f32"])
    def test_every_cell_csv_equals_its_standalone_run(self, tmp_path, base, alphas, betas):
        cfg = parse_config_dict(base)
        grid_search(cfg, alphas=alphas, betas=betas, out_dir=tmp_path)
        statuses = set()
        for a in alphas:
            for b in betas:
                rows, summary = run_experiment(replace(cfg, alpha=a, beta=b))
                statuses.add(summary.status.split("@")[0])
                cell = (tmp_path / f"cell_a{a:g}_b{b:g}.csv").read_text(encoding="utf-8")
                assert cell == rows_to_csv(rows), (a, b)
        assert statuses == ({"ok", "diverged"} if base is self.DIVERGING else {"ok"})

    def test_sweep_rows_equal_standalone_runs(self):
        cfg = parse_config_dict({**self.MLP, "optimizer": "adamw", "steps": 60})
        lrs = [1e-4, 1e-3, 1e-2, 5e-2]
        for row, lr in zip(lr_sweep(cfg, lrs=lrs), lrs):
            rows, summary = run_experiment(replace(cfg, lr=lr))
            ok = [r for r in rows if r.status == "ok"]
            assert row == SweepRow(lr=lr, final_train_loss=summary.final_train_loss,
                                   test_metric=ok[-1].test_metric, status=summary.status)

    def test_sequence_returns_one_result_per_config(self):
        cfg = parse_config_dict({**MINIMAL, "steps": 30, "log_every": 10})
        configs = [replace(cfg, alpha=0.5), cfg, replace(cfg, lr=1e-2, beta=1.5)]
        results = run_experiment(configs, tag=["a", "b", "c"])
        assert len(results) == 3
        for cell, (rows, summary) in zip(configs, results):
            alone_rows, alone = run_experiment(cell)
            assert (rows, summary.final_train_loss) == (alone_rows, alone.final_train_loss)
        assert results[-1] == results[2] and results[1:] == [results[1], results[2]]
        with pytest.raises(IndexError):
            results[3]

    @pytest.mark.parametrize("change", [{"seed": 1}, {"steps": 31}, {"optimizer": "adamw"},
                                        {"precision": "f32"}, {"sigma": 0.99}])
    def test_configs_differing_in_another_key_rejected(self, change):
        cfg = parse_config_dict({**MINIMAL, "steps": 30})
        with pytest.raises(ContractViolation, match=next(iter(change))):
            run_experiment([cfg, replace(cfg, **change)], tag=["a", "b"])

    def test_one_tag_per_config(self):
        cfg = parse_config_dict({**MINIMAL, "steps": 30})
        for tag in ("run", ["a"]):
            with pytest.raises(ContractViolation, match="tag"):
                run_experiment([cfg, cfg], tag=tag)


class TestBenchmarkHooks:
    """The benchmark traces the harness by wrapping its module globals. A grid
    that stopped calling them would drop out of the traced run (no
    harness.grid.cells) or of the step count behind steps_per_s."""

    @staticmethod
    def _tracing():
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def _grid(tmp_path, tracer):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**MINIMAL, "steps": 20}), encoding="utf-8")
        tracer.install()
        try:
            assert main(["grid", "--config", str(cfg), "--alphas", "0.1", "0.5",
                         "--betas", "0.9", "1.5", "--out", str(tmp_path / "grid")]) == 0
        finally:
            tracer.uninstall()

    def test_traced_grid_reports_grid_and_run_metrics(self, tmp_path, capsys):
        tracing = self._tracing()
        tracer = tracing.Tracer(record=True)
        self._grid(tmp_path, tracer)
        layers = tracing.layer_metrics(tracer.spans, 1, 1)
        assert layers["harness.grid.cells"] == 1
        assert layers["harness.runner.run_experiment.self_s"] > 0

    def test_every_cell_step_is_counted(self, tmp_path, capsys):
        tracing = self._tracing()
        tracer = tracing.Tracer(record=False)
        self._grid(tmp_path, tracer)
        assert tracer.counts()[tracing.STEP] == 4 * 20


class TestCli:
    def _write_cfg(self, tmp_path, extra=None):
        path = tmp_path / "cfg.json"
        payload = {**MINIMAL, "steps": 20}
        if extra:
            payload.update(extra)
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_run_exit_zero_and_outputs(self, tmp_path, capsys):
        code = main(["run", "--config", self._write_cfg(tmp_path),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "run.csv").exists()
        assert "status=ok" in capsys.readouterr().out

    def test_seed_override(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        assert main(["run", "--config", cfg, "--seed", "9"]) == 0

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**MINIMAL, "bogus_key": 1}), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_three(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 3

    def test_check_suite_exit_zero(self, capsys):
        assert main(["check", "schedulers"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] schedulers/" in out and "[FAIL]" not in out

    def test_check_gradients_same_in_every_process(self):
        # The probe points must not depend on the interpreter's string-hash seed.
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            done = subprocess.run([sys.executable, "-m", "innaprop.harness.cli", "check", "gradients"],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        lines = outputs[0].splitlines()
        assert outputs[0] == outputs[1]
        assert len(lines) == 4 and all(line.startswith("[PASS] gradients/") for line in lines)

    def test_check_failure_exit_one(self, capsys, monkeypatch):
        from innaprop.harness import checks, cli

        def broken_suite():
            return checks.SuiteReport(
                "broken", (checks.CheckResult("always", False, "forced failure"),)
            )

        monkeypatch.setitem(cli.SUITES, "broken", broken_suite)
        assert main(["check", "broken"]) == 1
        assert "[FAIL] broken/always" in capsys.readouterr().out

    def test_grid_cli(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {"problem": "quadratic", "steps": 40})
        code = main(["grid", "--config", cfg, "--alphas", "0.5", "--betas", "0.9", "1.5",
                     "--out", str(tmp_path / "grid")])
        assert code == 0
        assert (tmp_path / "grid" / "grid.csv").exists()

    def test_sweep_cli(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {"problem": "quadratic", "optimizer": "adamw",
                                         "steps": 40})
        assert main(["sweep", "--config", cfg, "--lrs", "1e-4", "1e-3"]) == 0
        assert "lr=0.0001" in capsys.readouterr().out

    def test_ode_cli(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, {"problem": "quadratic", "t_end": 1.0,
                                         "ode_dt": 0.01})
        code = main(["ode", "--config", cfg, "--out", str(tmp_path / "ode")])
        assert code == 0
        header = (tmp_path / "ode" / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,theta0,theta1,loss"

    @pytest.mark.parametrize("command,name,sha256", [
        ("sweep", "sweep.csv", "6f2f2fd1922731547bc726b59503d0dc6ba0a56009bfc73bd45e04cd69e1fcba"),
        ("ode", "trajectory.csv", "902b2e66540149fae4330b98e6bff14e29582845b83f4f09748870560f5039d9"),
    ])
    def test_csv_bytes_pinned(self, tmp_path, capsys, command, name, sha256):
        # The sweep and trajectory writers, byte for byte, on a shipped preset.
        out = tmp_path / command
        assert main([command, "--config", "preset:cifar_small", "--seed", "0",
                     "--out", str(out)]) == 0
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha256

    def test_preset_loading_via_cli(self, tmp_path, capsys):
        # Presets are full runnable configs; cap the step count via a copy.
        cfg = load_preset("cifar_small")
        path = tmp_path / "preset_short.json"
        payload = emit_config(replace(cfg, steps=20, t_max=200))
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 0
