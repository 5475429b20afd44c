"""Config parsing, run records, grid/sweep behavior, CLI and determinism."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from innaprop.errors import ConfigError, ContractViolation
import innaprop.harness.checks as checks
import innaprop.harness.config as config_module
import innaprop.harness.runner as runner
from innaprop.harness.cli import main
from innaprop.harness.config import (
    OPTIMIZERS,
    RunConfig,
    build_problem,
    build_schedule,
    content_hash,
    emit_config,
    init_stream,
    load_preset,
    parse_config,
    parse_config_dict,
    preset_names,
    validate_config,
)
from innaprop.harness.grid import (
    DEFAULT_GRID,
    DEFAULT_LR_SWEEP,
    SweepRow,
    grid_search,
    lr_sweep,
)
from innaprop.harness.runner import rows_to_csv, run_experiment
from innaprop.numerics import ParamVector, RngStream, global_norm_clip
from innaprop.optimizers import (
    InnapropConfig,
    ReferenceParams,
    innaprop_init,
    innaprop_step,
    reference_init,
    reference_step,
)
from innaprop.problems import (
    ACTIVATIONS,
    SYNTHETIC_KINDS,
    MiniBatchSampler,
    generate_synthetic,
    make_problem,
)
from innaprop.schedulers import lr_at


def bench_tracing():
    """``benchmarks/tracing.py``, loaded by path as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MINIMAL = {"problem": "rosenbrock", "optimizer": "innaprop", "alpha": 0.1,
           "beta": 0.9, "lr": 1e-3, "steps": 100}

# The sha256 of everything ``innaprop check all`` prints.
CHECK_ALL_SHA256 = "807157cc8a961d4cf4fb5df5ac285d7d435fe3aa334ca56ffc3e740292f73aa8"


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

    @pytest.mark.parametrize("key,value", [("batch_order", "randomly"),
                                           ("activation", "sigmoid"),
                                           ("dataset", "three_moons")])
    @pytest.mark.parametrize("problem", ["rosenbrock", "tiny_mlp"])
    def test_unknown_choice_rejected(self, tmp_path, capsys, problem, key, value):
        # Rejected whether or not the problem reads the key.
        self._rejected_before_compute(tmp_path, {**MINIMAL, "problem": problem, key: value},
                                      f"'{key}'")

    def test_every_allowed_choice_accepted(self):
        for key, allowed in (("batch_order", MiniBatchSampler.ORDERS),
                             ("activation", ACTIVATIONS), ("dataset", SYNTHETIC_KINDS)):
            for value in allowed:
                assert getattr(parse_config_dict({**MINIMAL, key: value}), key) == value

    @pytest.mark.parametrize("problem", ["quadratic", "rosenbrock"])
    def test_batch_size_needs_a_dataset(self, tmp_path, capsys, problem):
        raw = {**MINIMAL, "problem": problem, "batch_size": 8}
        self._rejected_before_compute(tmp_path, raw, "'batch_size'")

    def test_t_max_below_steps_rejected(self, tmp_path, capsys):
        raw = {**MINIMAL, "schedule": "cosine", "t_max": 5, "steps": 10}
        self._rejected_before_compute(tmp_path, raw, "'t_max'")

    @pytest.mark.parametrize("optimizer,form", [("innaprop", "direct"), ("inna", "bogus")])
    def test_form_outside_the_optimizers_forms_rejected(self, tmp_path, capsys,
                                                        optimizer, form):
        raw = {**MINIMAL, "optimizer": optimizer, "form": form}
        self._rejected_before_compute(tmp_path, raw, "'form'")

    @pytest.mark.parametrize("change,match", [
        ({"optimizer": "adamw", "weight_decay": -5.0}, "'weight_decay'"),
        ({"optimizer": "adamw", "epsilon": -1.0}, "'epsilon'"),
        ({"optimizer": "dinadam", "epsilon": 0.0}, "'epsilon'"),
        ({"optimizer": "dinadam", "sigma1": 1.5}, "'sigma1'"),
        ({"optimizer": "sgd", "grad_clip": -1.0}, "'grad_clip'"),
        ({"optimizer": "innaprop", "sigma": 1.0}, "'bias_correction'"),
        ({"optimizer": "adam", "sigma": 1.0}, "'bias_correction'"),
        ({"optimizer": "adamw", "sigma": 1.0}, "'bias_correction'"),
    ], ids=["adamw-weight_decay", "adamw-epsilon", "dinadam-epsilon", "dinadam-sigma1",
            "sgd-grad_clip", "innaprop-bias_correction", "adam-bias_correction",
            "adamw-bias_correction"])
    def test_bad_optimizer_value_rejected(self, tmp_path, capsys, change, match):
        self._rejected_before_compute(tmp_path, {**MINIMAL, **change}, match)

    @pytest.mark.parametrize("change,match", [
        ({"problem": "quadratic", "dim": -1}, "'dim'"),
        ({"problem": "quadratic", "dim": 0}, "'dim'"),
        ({"problem": "rosenbrock", "dim": 0}, "'dim'"),
        ({"problem": "rosenbrock", "dim": 1}, "'dim'"),
        ({"problem": "tiny_mlp", "dim": 0}, "'dim'"),
        ({"problem": "logistic_regression", "dim": 0}, "'dim'"),
        ({"problem": "tiny_mlp", "separation": float("nan")}, "'separation'"),
        ({"problem": "quadratic", "spectrum": [1.0, float("nan")]}, "'spectrum'"),
        ({"problem": "quadratic", "spectrum": [float("inf"), 2.0]}, "'spectrum'"),
        ({"lr": float("inf")}, "'lr'"),
        ({"optimizer": "adamw", "weight_decay": float("inf")}, "'weight_decay'"),
        ({"alpha": float("-inf")}, "'alpha'"),
    ], ids=["quadratic-dim-negative", "quadratic-dim-zero", "rosenbrock-dim-zero",
            "rosenbrock-dim-one", "tiny_mlp-dim-zero", "logistic_regression-dim-zero",
            "separation-nan", "spectrum-nan", "spectrum-inf", "lr-inf", "weight_decay-inf",
            "alpha-minus-inf"])
    def test_nonpositive_dim_or_nonfinite_number_rejected(self, tmp_path, capsys, change,
                                                          match):
        self._rejected_before_compute(tmp_path, {**MINIMAL, **change}, match)

    @pytest.mark.parametrize("optimizer,key", [
        ("innaprop", "alpha"), ("innaprop_plain", "alpha"), ("innaprop_momentum", "alpha"),
        ("inna", "alpha"), ("dinadam", "alpha"), ("dinadam", "beta"),
    ])
    def test_negative_inertial_pair_rejected(self, tmp_path, capsys, optimizer, key):
        raw = {**MINIMAL, "optimizer": optimizer, key: -1.0}
        self._rejected_before_compute(tmp_path, raw, f"'{key}'")

    @pytest.mark.parametrize("change,match", [
        ({"problem": "quadratic", "spectrum": ["a", 1.0]}, "'spectrum'"),
        ({"problem": "quadratic", "spectrum": [True, 1.0]}, "'spectrum'"),
        ({"problem": "quadratic", "spectrum": [[1.0], 2.0]}, "'spectrum'"),
        ({"problem": "quadratic", "spectrum": [-1.0, 2.0]}, "'spectrum'"),
        ({"problem": "quadratic", "spectrum": []}, "'spectrum'"),
        ({"problem": "tiny_mlp", "hidden": ["x"]}, "'hidden'"),
        ({"problem": "tiny_mlp", "hidden": [2.7]}, "'hidden'"),
        ({"problem": "tiny_mlp", "hidden": [8, 2.0]}, "'hidden'"),
        ({"problem": "tiny_mlp", "hidden": [True]}, "'hidden'"),
        ({"problem": "tiny_mlp", "hidden": [0]}, "'hidden'"),
        ({"problem": "tiny_mlp", "hidden": None}, "'hidden'"),
        ({"steps": None}, "'steps'"),
        ({"beta2": "fast"}, "'beta2'"),
        ({"beta2": 0.9, "sigma": "fast"}, "'sigma'"),
    ], ids=["spectrum-string", "spectrum-bool", "spectrum-list", "spectrum-negative",
            "spectrum-empty", "hidden-string", "hidden-fraction", "hidden-float",
            "hidden-bool", "hidden-zero", "hidden-null", "steps-null", "beta2-string",
            "sigma-string-beside-beta2"])
    def test_bad_list_element_or_null_rejected(self, tmp_path, capsys, change, match):
        # Each raised ValueError or TypeError, or was truncated or run, before.
        self._rejected_before_compute(tmp_path, {**MINIMAL, **change}, match)

    def test_list_keys_keep_their_elements(self):
        cfg = parse_config_dict({**MINIMAL, "problem": "quadratic", "spectrum": [1, 2.5],
                                 "hidden": [16, 4]})
        assert cfg.spectrum == (1.0, 2.5) and type(cfg.spectrum[0]) is float
        assert cfg.hidden == (16, 4)
        assert parse_config_dict(emit_config(cfg)) == cfg

    @pytest.mark.parametrize("bias_correction", [True, False])
    def test_nadam_at_sigma_one_rejected(self, tmp_path, capsys, bias_correction):
        # NAdam divides by 1 - sigma^k whatever 'bias_correction' says.
        raw = {**MINIMAL, "optimizer": "nadam", "sigma": 1.0,
               "bias_correction": bias_correction}
        self._rejected_before_compute(tmp_path, raw, "'sigma'")
        assert parse_config_dict({**raw, "sigma": 0.999}).optimizer == "nadam"

    def test_zero_alpha_and_dinadam_zero_beta_accepted(self):
        # beta = 0 is DINAdam's Adam limit.
        assert parse_config_dict({**MINIMAL, "alpha": 0.0}).alpha == 0.0
        assert parse_config_dict({**MINIMAL, "optimizer": "dinadam", "beta": 0.0}).beta == 0.0

    def test_quadratic_dim_disagreeing_with_spectrum_rejected(self, tmp_path, capsys):
        raw = {**MINIMAL, "problem": "quadratic", "dim": 5, "spectrum": [1.0, 2.0]}
        self._rejected_before_compute(tmp_path, raw, "'dim'")
        assert parse_config_dict({**raw, "dim": 2}).dim == 2

    @pytest.mark.parametrize("change", [
        {"alpha": 2.0, "lr": 0.5},
        # the warm-up ramp emits 1.0 * 2 / 4 = 1 / alpha at step 2
        {"alpha": 2.0, "beta": 1.5, "lr": 1.0, "schedule": "linear_warmup", "t_warmup": 4},
    ], ids=["constant", "linear_warmup_step_2"])
    def test_singular_momentum_coefficient_rejected(self, tmp_path, capsys, change):
        raw = {**MINIMAL, "optimizer": "innaprop_momentum", **change}
        self._rejected_before_compute(tmp_path, raw, "singular coefficient")

    def test_grid_with_a_singular_momentum_cell_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**MINIMAL, "optimizer": "innaprop_momentum", "lr": 0.5}),
                        encoding="utf-8")
        assert main(["grid", "--config", str(path), "--alphas", "0.1", "2.0",
                     "--betas", "0.9", "--out", str(tmp_path / "grid")]) == 2
        assert not (tmp_path / "grid").exists()

    def test_singular_check_reads_the_schedule_only_when_it_can_bite(self, monkeypatch):
        # alpha * max lr < 1 keeps 1 - alpha * gamma above 0 at every step,
        # so no step size is looked at; otherwise each of the run's steps is.
        calls = []

        def counted(spec, k):
            calls.append(k)
            return lr_at(spec, k)

        monkeypatch.setattr(config_module, "lr_at", counted)
        parse_config_dict({**MINIMAL, "optimizer": "innaprop_momentum"})
        assert calls == []
        parse_config_dict({**MINIMAL, "optimizer": "innaprop_momentum", "alpha": 1.0,
                           "beta": 12.0, "lr": 10.0, "steps": 5})
        assert calls == [1, 2, 3, 4, 5]

    def test_t_decay_only_on_cosine_warmup(self, tmp_path, capsys):
        raw = {**MINIMAL, "schedule": "cosine", "t_decay": 5}
        self._rejected_before_compute(tmp_path, raw, "t_decay")
        assert build_schedule(load_preset("gpt2_small")).t_decay == 5000

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
        paired = replace(cfg, optimizer="adamw")
        validate_config(paired)
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
        assert any(r.step == 5 and r.status == "ok" for r in rows)  # 10% snapshot
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
        adamw = replace(base, optimizer="adamw", beta1=0.0)
        validate_config(adamw)
        rows_aw, _ = run_experiment(adamw)
        assert len(rows_ip) == len(rows_aw)
        for a, b in zip(rows_ip, rows_aw):
            assert a.step == b.step
            assert abs(a.train_loss - b.train_loss) <= 1e-12 * max(abs(b.train_loss), 1e-30)

    def test_dinadam_runs_to_a_schedule_end_at_zero_lr(self):
        # cosine with t_max = steps and lr_min = 0 gives the last step lr 0.
        cfg = parse_config_dict({"problem": "rosenbrock", "optimizer": "dinadam",
                                 "alpha": 0.1, "beta": 0.9, "schedule": "cosine",
                                 "steps": 20})
        rows, summary = run_experiment(cfg)
        assert summary.status == "ok"
        assert (rows[-1].step, rows[-1].lr, rows[-1].status) == (20, 0.0, "ok")

    def test_momentum_form_key(self):
        base = {"problem": "quadratic", "optimizer": "innaprop_momentum",
                "alpha": 0.1, "beta": 0.9, "lr": 1e-3, "weight_decay": 0.0,
                "steps": 40, "log_every": 10, "seed": 2}
        direct = run_experiment(parse_config_dict({**base, "form": "direct"}))[1]
        reduced = run_experiment(parse_config_dict({**base, "form": "reduced"}))[1]
        assert direct.status == reduced.status == "ok"
        assert direct.final_train_loss == pytest.approx(reduced.final_train_loss,
                                                        rel=1e-10)


class TestLabels:
    """A problem that cannot read its dataset's labels is rejected before any
    compute: CLI exit 2 and no output directory."""

    @staticmethod
    def _run(tmp_path, raw) -> tuple:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        out = tmp_path / "out"
        return main(["run", "--config", str(path), "--out", str(out)]), out.exists()

    @pytest.mark.parametrize("problem", ["tiny_mlp", "logistic_regression"])
    def test_regression_targets_rejected(self, tmp_path, capsys, problem):
        raw = {"problem": problem, "dataset": "linear_regression", "optimizer": "adamw",
               "steps": 5, "dim": 3}
        assert self._run(tmp_path, raw) == (2, False)

    @pytest.mark.parametrize("problem,labels,code", [
        ("tiny_mlp", [0, 1, -1], 2),
        ("tiny_mlp", [0, 1, 2], 0),
        ("logistic_regression", [0, 1, 2], 2),
    ], ids=["tiny_mlp-negative", "tiny_mlp-three_classes", "logistic_regression-three_classes"])
    def test_csv_labels(self, tmp_path, capsys, problem, labels, code):
        data = tmp_path / "data.csv"
        rows = [f"{0.1 * i},{1.0 - 0.2 * i},{labels[i % 3]}" for i in range(12)]
        data.write_text("x0,x1,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
        raw = {"problem": problem, "dataset": str(data), "label_column": "y",
               "optimizer": "adamw", "steps": 5}
        assert self._run(tmp_path, raw) == (code, code == 0)


class TestGradClip:
    """``grad_clip`` clips each cell's gradient in the run loop, once, before
    any optimizer's step."""

    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    def test_clip_applies_to_every_optimizer(self, optimizer):
        def csv(**change):
            cfg = parse_config_dict({**MINIMAL, "optimizer": optimizer, "steps": 20, **change})
            return rows_to_csv(run_experiment(cfg)[0])

        unclipped = csv()
        assert csv(grad_clip=1e-6) != unclipped
        assert csv(grad_clip=1e300) == unclipped

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    def test_lock_step_cell_clips_on_its_own_norm(self, optimizer, precision):
        # The cells of one lock-step call share a stacked gradient call; each
        # is clipped on the norm of its own row, as its single run would be.
        cfg = parse_config_dict({**MINIMAL, "optimizer": optimizer, "steps": 20,
                                 "precision": precision, "grad_clip": 1.0})
        lrs = [1e-4, 1e-3, 1e-2]
        cells = run_experiment([replace(cfg, lr=v) for v in lrs],
                               tag=[f"lr{v:g}" for v in lrs])
        for lr, (rows, _) in zip(lrs, cells):
            cell = rows_to_csv(rows)
            assert cell == rows_to_csv(run_experiment(replace(cfg, lr=lr))[0])
            assert cell != rows_to_csv(run_experiment(replace(cfg, lr=lr, grad_clip=None))[0])

    @pytest.mark.parametrize("optimizer", ["innaprop", "adamw"])
    def test_clip_then_step_by_hand(self, optimizer):
        cfg = parse_config_dict({**MINIMAL, "optimizer": optimizer, "steps": 20,
                                 "grad_clip": 1e-3})
        problem, schedule = build_problem(cfg), build_schedule(cfg)
        theta0 = ParamVector(problem.init_theta(init_stream(cfg).generator()))
        if optimizer == "innaprop":
            hyper = InnapropConfig(alpha=cfg.alpha, beta=cfg.beta, sigma=cfg.sigma,
                                   epsilon=cfg.epsilon, weight_decay=cfg.weight_decay)
            state, step = innaprop_init(hyper, theta0), innaprop_step
        else:
            hyper = ReferenceParams(beta1=cfg.beta1, beta2=cfg.sigma, epsilon=cfg.epsilon,
                                    weight_decay=cfg.weight_decay)
            state, step = reference_init("AdamW", theta0, hyper), reference_step
        want = [(0, lr_at(schedule, 0), problem.loss(theta0.data))]
        for k in range(1, cfg.steps + 1):
            g = ParamVector(problem.grad(state.theta.data))
            state = step(state, global_norm_clip(g, cfg.grad_clip), lr_at(schedule, k), hyper)
            want.append((k, lr_at(schedule, k), problem.loss(state.theta.data)))
        rows, _ = run_experiment(cfg)
        assert [(r.step, r.lr, r.train_loss) for r in rows] == want


class TestKeysRead:
    """The keys each optimizer's record in ``OPTIMIZERS`` reads, as README's
    table lists them; a key an optimizer does not read leaves its CSV
    unchanged."""

    CHANGE = {"alpha": 0.5, "beta": 1.5, "beta1": 0.5, "sigma": 0.99, "epsilon": 1e-3,
              "weight_decay": 0.5, "bias_correction": False, "sigma1": 0.5}

    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    def test_csv_changes_exactly_with_the_keys_read(self, optimizer):
        def csv(**change):
            cfg = parse_config_dict({**MINIMAL, "optimizer": optimizer, "steps": 20, **change})
            return rows_to_csv(run_experiment(cfg)[0])

        rule, plain = OPTIMIZERS[optimizer], csv()
        for key, value in self.CHANGE.items():
            assert (csv(**{key: value}) != plain) == (key in rule.reads), key
        assert bool(rule.forms) == ("form" in rule.reads)
        for form in rule.forms[1:]:
            assert csv(form=form) != plain

    def test_readme_table_matches(self):
        # README's optimizer/key table, one row per optimizer or pair of
        # optimizers, an "x" in each column of a key the optimizer reads.
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = iter(readme.read_text(encoding="utf-8").splitlines())
        header = next(line for line in lines if line.startswith("| optimizer |"))
        keys = [cell.strip(" `") for cell in header.split("|")[2:-1]]
        assert next(lines).startswith("|---")
        table = {}
        for line in lines:
            if not line.startswith("|"):
                break
            names, *marks = [cell.strip() for cell in line.split("|")[1:-1]]
            for name in names.split(","):
                table[name.strip(" `")] = {key for key, mark in zip(keys, marks) if mark == "x"}
        assert table == {name: rule.reads for name, rule in OPTIMIZERS.items()}


class TestNonFiniteGradient:
    @pytest.mark.parametrize("precision,bad", [("f64", np.inf), ("f64", np.nan),
                                               ("f32", 1e300)])
    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    def test_same_rows_and_status(self, monkeypatch, optimizer, precision, bad):
        # The 7th gradient is non-finite (for f32: it overflows in the cast).
        # The step rejects its non-finite result, so the run keeps the rows
        # logged before step 7 and ends in a diverged@7 row.
        cfg = parse_config_dict({"problem": "quadratic", "optimizer": optimizer,
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


class TestRunLoopMemory:
    """The paper's memory claim in the run loop: an optimizer holds its slots
    and one gradient beside the problem's own arrays."""

    @pytest.mark.parametrize("optimizer,form", [
        pytest.param(name, form, id=name if form is None else f"{name}-{form}")
        for name, rule in OPTIMIZERS.items() for form in rule.forms or [None]])
    def test_peak_is_the_problem_the_slots_and_one_gradient(self, optimizer, form):
        # Every step ends in optimizers._blocked_step, which writes an owned
        # state in place. Above optimizers._BLOCK the run loop keeps the
        # state's own slots; a copy of them into one block would double them.
        dim = 200_000
        cfg = parse_config_dict({"problem": "quadratic", "dim": dim, "optimizer": optimizer,
                                 "form": form, "alpha": 0.1, "beta": 0.9, "lr": 1e-3,
                                 "steps": 3})
        state, _, _ = OPTIMIZERS[optimizer].start(cfg, ParamVector([1.0, 2.0]))
        slots = sum(isinstance(getattr(state, f.name), ParamVector) for f in fields(state))
        assert slots == {"sgd": 1, "momentum": 2, "nesterov": 2, "inna": 2}.get(
            optimizer, 4 if form == "direct" else 3)
        tracemalloc.start()
        try:
            problem = build_problem(cfg)
            problem_bytes = tracemalloc.get_traced_memory()[0]
            del problem
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rows, summary = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert summary.status == "ok" and len(rows) == 4
        itemsize = np.dtype(np.float64).itemsize
        assert peak <= problem_bytes + (slots + 1) * dim * itemsize + 2 * 2**20


class TestRunCsvPinned:
    """Every optimizer's ``run.csv`` bytes in f32 and f64, without a clip and
    with ``grad_clip`` 0.05, on a converging config and on a diverging one,
    so that ``diverged@k`` rows are pinned too. In the diverging config
    ``sigma`` 1 keeps ``v`` at zero, so the scaled steps grow fast; most
    runs end in ``diverged@k``, and the clipped f64 runs stay ok. NAdam
    bias-corrects at every ``bias_correction``, so it is rejected at
    ``sigma`` 1 (its correction would divide 0 by 0 at step 1); it runs the
    diverging config at ``sigma`` 0.999 and ``lr`` 1e6 instead, where its
    unclipped f32 run diverges at step 2. That pin was recorded with the
    code from before the rejection."""

    CONFIGS = {
        "converging": {"problem": "rosenbrock", "alpha": 0.1, "beta": 0.9, "lr": 1e-3,
                       "steps": 40, "log_every": 3},
        "diverging": {"problem": "rosenbrock", "alpha": 1.0, "beta": 12.0, "lr": 10.0,
                      "weight_decay": 0.03, "sigma": 1.0, "bias_correction": False,
                      "steps": 30, "log_every": 1},
    }
    OVERRIDES = {("diverging", "nadam"): {"sigma": 0.999, "lr": 1e6}}
    # sha256 over the four run.csv files of (f32, f64) x (no clip, clip 0.05).
    SHA256 = {
        ("converging", "adam"): "15b49da2814441345c6bdd2ced3ec88350a641a087b63538ff03384042f41888",
        ("converging", "adamw"): "eda3588b73f7d6445c672ea170f9259e5c1999d6855cddb10470aaf22e7e01c9",
        ("converging", "dinadam"): "cae20354044d41b4c77e70e7e6cd0a539ab3b6baca2df19f1d359e586cbd3a08",
        ("converging", "inna"): "511ae571af7e4ac4b0355ee5e2c9c3bbfe0ed922513ddc8631225f87be9eb7f4",
        ("converging", "innaprop"): "e7c888954b4eb98d78186d39df3a0c2b091bde29e18ba7dc0901c8dbefcd3778",
        ("converging", "innaprop_momentum"): "31008830ea4c2277418f45b186e4219038df5640a5af48cb437bb10fb8358bc9",
        ("converging", "innaprop_plain"): "5301ca2a387a91b1b02d351814d11aae32437ad216f7dc22a7b7dac74af9428f",
        ("converging", "momentum"): "57c116a43fab80d91cc1ef97ca358c05c971bb48db9b16cbb570b9b4c412e7b9",
        ("converging", "nadam"): "675f2db1d28a67eff7de6e93554f418afac38ef5ca1689c51d3f1d22482dee8b",
        ("converging", "nesterov"): "05ca3557a658d2074921c3b435e51ad89e92b91fb136d438a923f7e5a766d01f",
        ("converging", "rmsprop_momentum"): "3fe124930e5ce3140690bca53408f9d16ee1edddc6f02831e0a91f1cc71ff99b",
        ("converging", "sgd"): "779e32d14e52de2e17efc20669bd821ca188d6936af54bed741a6fc67473fae4",
        ("diverging", "adam"): "d811bb95e8296ae64389a52f6fdacd5e68d88125c3af4a015e4ae444a3904c65",
        ("diverging", "adamw"): "8d332420d8b1f003774de3482012621352850b97d58aaca5eb845235d5e1e478",
        ("diverging", "dinadam"): "2ac017267fb76277d7921f5df6caa8ad5f604d46cfc4d5df5ea366eb6796b62d",
        ("diverging", "inna"): "b6c835feadd95d2c56e21964847a01ddb4b85249588b88c98f330bbdf5276745",
        ("diverging", "innaprop"): "be09909c6714cb2193c8005d9f9b9454c5c171e7344bcd62e6c4872dd9c1a7e0",
        ("diverging", "innaprop_momentum"): "664cdd3dde32407a757e21ae5958e5a20a556b44a9c204194daa3a91ac152675",
        ("diverging", "innaprop_plain"): "4bc9b19fd722e63704277581fea7299f86613c623848e8c6297418db12d69a53",
        ("diverging", "momentum"): "c2f92a0163db11546fe8e15dcb97f13141ef2c3ee5a59d89649e9865e34ec9dc",
        ("diverging", "nadam"): "e5504199e659e7865b837d2373778427c840251f8c3dc5c2010f5b9e4703082d",
        ("diverging", "nesterov"): "7a7f426504fddd35c07071a58dc84726c9db0cd9dc8fd4685e57e473cda44073",
        ("diverging", "rmsprop_momentum"): "6a554d59df48790757e005a20dcb76e584b3036f2675c1dabf56d6da3615284d",
        ("diverging", "sgd"): "152996bcfe3b64857f1dc8d4ac7ac98d5582e148fc2683a437390ed4f0cf3f35",
    }

    @pytest.mark.parametrize("config,optimizer", sorted(SHA256))
    def test_run_csv_bytes(self, tmp_path, config, optimizer):
        digest = hashlib.sha256()
        for precision in ("f32", "f64"):
            for clip in (None, 0.05):
                cfg = parse_config_dict({**self.CONFIGS[config], "optimizer": optimizer,
                                         **self.OVERRIDES.get((config, optimizer), {}),
                                         "precision": precision, "grad_clip": clip})
                out = tmp_path / f"{precision}_{clip}"
                run_experiment(cfg, out_dir=out)
                digest.update((out / "run.csv").read_bytes())
        assert digest.hexdigest() == self.SHA256[(config, optimizer)]


class TestCsvCells:
    """A CSV dataset with a non-finite cell is rejected before any compute:
    CLI exit 2, no output directory. A finite one trains as before."""

    @staticmethod
    def _run(tmp_path, problem, extra_row=None) -> tuple:
        rows = [f"{0.1 * i},{1.0 - 0.2 * i},{i % 2}" for i in range(12)]
        data = tmp_path / "data.csv"
        if extra_row is not None:
            rows.append(extra_row)
        data.write_text("x0,x1,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
        raw = {"problem": problem, "dataset": str(data), "label_column": "y",
               "optimizer": "adamw", "steps": 5}
        path, out = tmp_path / "cfg.json", tmp_path / "out"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return main(["run", "--config", str(path), "--out", str(out)]), out, raw

    @pytest.mark.parametrize("row,column", [("nan,0.3,1", "x0"), ("0.5,inf,0", "x1"),
                                            ("0.5,0.3,-Infinity", "y")])
    def test_non_finite_cell_rejected(self, tmp_path, capsys, row, column):
        # It used to train to diverged@1, with no step-0 row in run.csv.
        code, out, _ = self._run(tmp_path, "logistic_regression", row)
        assert (code, out.exists()) == (2, False)
        assert f"row 14, column {column!r}: non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("problem,digest", [
        ("logistic_regression", "b6a5b8359b05cf6efea77c34c29df08d90e699f1947e39ace226a36d23fd629d"),
        ("tiny_mlp", "af0e7831726f71b32306dee2802b1bedbe83c6fa968fc6bdb9eeaa9e477b5cd9"),
    ])
    def test_finite_csv_run_unchanged(self, tmp_path, capsys, problem, digest):
        # run.csv sha256 recorded before non-finite cells were rejected.
        code, out, raw = self._run(tmp_path, problem)
        assert code == 0
        assert hashlib.sha256((out / "run.csv").read_bytes()).hexdigest() == digest
        recorded = json.loads((out / "run.json").read_text())["config_hash"]
        assert recorded == content_hash(parse_config_dict(raw))


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

    def test_run_records_the_hash_of_the_bytes_it_trained_on(self, tmp_path, monkeypatch):
        # The dataset file changes after build_problem read it: run.json
        # records the hash of the bytes the run parsed and trained on.
        path = tmp_path / "data.csv"
        path.write_text("x,y,label\n0.5,1.0,0\n1.5,-2.0,1\n2.5,0.25,0\n3.5,4.0,1\n",
                        encoding="utf-8")
        cfg = parse_config_dict({"problem": "logistic_regression", "dataset": str(path),
                                 "label_column": "label", "optimizer": "adamw", "steps": 5})
        trained = content_hash(cfg)
        build = runner.build_problem

        def build_then_edit(config):
            problem = build(config)
            data = bytearray(path.read_bytes())
            data[data.index(b"2.5")] = ord("7")
            path.write_bytes(bytes(data))
            return problem

        monkeypatch.setattr(runner, "build_problem", build_then_edit)
        run_experiment(cfg, out_dir=tmp_path / "out")
        recorded = json.loads((tmp_path / "out" / "run.json").read_text())["config_hash"]
        assert recorded == trained != content_hash(cfg)


class TestDatasetProblems:
    @pytest.mark.parametrize("n_classes,sha256", [
        (3, "ac134ed4f61e51f3abcf87d266734ee94a2dffd39eb2d49777c585c426b20e6a"),
        (9, "987c245a8e1ca45c57b965805fececddbdfa31f539d0a41350aa2abe14706fb7"),
    ], ids=["3_classes", "9_classes"])
    def test_multi_class_run_csv_pinned(self, tmp_path, capsys, class_csv, n_classes, sha256):
        # Recorded before the class axis was reduced by columns: 3 logits take
        # the column fold, 9 numpy's own reduction.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "problem": "tiny_mlp", "dataset": str(class_csv(n_classes)), "label_column": "y",
            "optimizer": "innaprop", "alpha": 0.1, "beta": 0.9, "lr": 0.05, "steps": 40,
            "batch_size": 16}), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256((out / "run.csv").read_bytes()).hexdigest() == sha256

    EMPTY_TEST_SPLIT = {"optimizer": "adamw", "steps": 3, "split_fraction": 1.0}

    @pytest.mark.parametrize("problem", ["tiny_mlp", "logistic_regression"])
    def test_empty_test_split_runs_without_test_metric(self, tmp_path, capsys, problem):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.EMPTY_TEST_SPLIT, "problem": problem}),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "run.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 4
        assert all(line.split(",")[3:] == ["", "ok"] for line in lines[1:])
        assert json.loads((out / "run.json").read_text())["best_test_metric"] is None

    def test_empty_test_split_grid(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.EMPTY_TEST_SPLIT, "problem": "tiny_mlp",
                                   "optimizer": "innaprop", "alpha": 0.1, "beta": 0.9,
                                   "lr": 1e-3}), encoding="utf-8")
        out = tmp_path / "grid"
        assert main(["grid", "--config", str(cfg), "--alphas", "0.1", "0.5",
                     "--betas", "0.9", "1.5", "--out", str(out)]) == 0
        rows = [line.split(",") for line in
                (out / "grid.csv").read_text(encoding="utf-8").splitlines()[1:]]
        assert len(rows) == 4
        # short_test_metric, final_test_metric and best_test_metric are empty
        assert all(r[3] == r[5] == r[6] == "" and r[7] == "ok" for r in rows)
        assert len(list(out.glob("cell_*.csv"))) == 4


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

    def test_beta_below_lr_runs_for_an_optimizer_without_the_bound(self):
        # Only the inertial kinds that divide by beta - gamma need beta > lr;
        # DINAdam reads beta and does not.
        cfg = parse_config_dict({**self.BASE, "optimizer": "dinadam", "lr": 0.5})
        grid = grid_search(cfg, alphas=[1.0], betas=[0.4, 2.0])
        assert [c.beta for c in grid.cells] == [0.4, 2.0]
        assert all(c.status == "ok" for c in grid.cells)

    @pytest.mark.parametrize("optimizer", sorted(
        name for name, rule in OPTIMIZERS.items() if "alpha" not in rule.reads))
    def test_optimizer_without_alpha_or_beta_rejected(self, tmp_path, capsys, optimizer):
        # Its cells would all run the same numbers.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self.BASE, "optimizer": optimizer}), encoding="utf-8")
        out = tmp_path / "grid"
        assert main(["grid", "--config", str(path), "--alphas", "0.1", "0.5",
                     "--betas", "0.9", "1.5", "--out", str(out)]) == 2
        assert f"not {optimizer!r}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_each_cell_summary_and_last_row_built_once(self, tmp_path, monkeypatch):
        # The cell JSONs and grid.csv read one summary and one last row a
        # cell; the grid's short-horizon row is the only other row built.
        calls = {"_summary": 0, "_row": 0}
        for name in calls:
            original = getattr(runner.CellResults, name)

            def counted(self, *args, name=name, original=original):
                calls[name] += 1
                return original(self, *args)
            monkeypatch.setattr(runner.CellResults, name, counted)
        grid_search(parse_config_dict(self.BASE), alphas=[0.5, 2.0], betas=[0.9, 1.5],
                    out_dir=tmp_path)
        assert calls == {"_summary": 4, "_row": 8}
        assert len(list(tmp_path.glob("cell_*.json"))) == 4

    def test_cell_matches_standalone_run(self):
        cfg = parse_config_dict(self.BASE)
        grid = grid_search(cfg, alphas=[2.0], betas=[2.0])
        standalone = run_experiment(replace(cfg, alpha=2.0, beta=2.0))[1]
        assert grid.cells[0].final_train_loss == standalone.final_train_loss

    def test_default_grid_bytes_match_benchmark_reference(self, tmp_path, capsys):
        # The benchmark's grid_cifar workload at config seed 0: all 81 cell
        # CSVs and grid.csv, against the sha256s it checks its runs with,
        # and its 81 x 200 step calls, the count behind its steps_per_s.
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"
        want = json.loads(path.read_text(encoding="utf-8"))["grid_cifar"]["0"]["grid"]
        out = tmp_path / "grid"
        tracing = bench_tracing()
        tracer = tracing.Tracer(record=False).install()
        try:
            assert main(["grid", "--config", "preset:cifar_small", "--seed", "0",
                         "--out", str(out)]) == 0
        finally:
            tracer.uninstall()
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
        assert len(want) == 82 and got == want
        assert tracer.counts()[tracing.STEP] == 16_200

    def test_preset_step_calls_pinned(self, tmp_path, capsys):
        # The benchmark's presets workload runs each shipped preset once; its
        # steps_per_s counts their 200 + 5,000 + 2,000 step calls, made
        # through runner's step globals.
        tracing = bench_tracing()
        tracer = tracing.Tracer(record=False).install()
        try:
            for name in preset_names():
                assert main(["run", "--config", f"preset:{name}", "--seed", "0",
                             "--out", str(tmp_path / name)]) == 0
        finally:
            tracer.uninstall()
        assert tracer.counts()[tracing.STEP] == 7_200


class TestGridFileNames:
    """Each grid cell writes ``cell_a{alpha:g}_b{beta:g}.csv`` and ``.json``;
    a grid whose cells would share a name is rejected before any compute."""

    @pytest.mark.parametrize("alphas,betas", [
        (["0.1234567", "0.1234568"], ["2.0"]),  # two alphas, one name
        (["0.5", "0.5"], ["2.0"]),  # a repeated alpha
        (["0.5"], ["2.0", "2.0000001"]),  # two betas, one name
        (["0.5"], ["2.0", "2.0"]),  # a repeated beta
    ])
    def test_rejected_with_exit_two_and_no_output(self, tmp_path, capsys, alphas, betas):
        out = tmp_path / "grid"
        assert main(["grid", "--config", "preset:cifar_small", "--alphas", *alphas,
                     "--betas", *betas, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_the_shared_name_is_named(self):
        cfg = parse_config_dict(TestGrid.BASE)
        with pytest.raises(ConfigError, match="cell_a0.123457_b2"):
            grid_search(cfg, alphas=[0.1234567, 0.1234568], betas=[2.0])
        with pytest.raises(ConfigError, match="duplicate"):
            grid_search(cfg, alphas=[0.5, 0.5], betas=[2.0])


class TestSweep:
    BASE = {"problem": "quadratic", "spectrum": [1.0, 10.0], "optimizer": "adamw",
            "weight_decay": 0.0, "sigma": 0.9, "lr": 1e-3, "schedule": "constant",
            "steps": 1500, "log_every": 250, "seed": 0}

    def test_default_candidate_list(self):
        assert DEFAULT_LR_SWEEP == (1e-4, 5e-4, 1e-3, 5e-3, 1e-2)

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            lr_sweep(parse_config_dict(self.BASE), lrs=[1e-3, 1e-3])

    def test_rates_with_one_name_rejected_before_any_compute(self, tmp_path, monkeypatch):
        # 0.01 and 0.0100000001 are distinct rates with one name, lr0.01:
        # the sweep printed two "lr=0.01" lines with different losses.
        def no_compute(*args, **kwargs):
            raise AssertionError("the sweep ran")
        monkeypatch.setattr(runner, "build_problem", no_compute)
        with pytest.raises(ConfigError, match=r"\['lr0.01'\]"):
            lr_sweep(parse_config_dict(self.BASE), lrs=[1e-3, 0.01, 0.0100000001],
                     out_dir=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_interior_optimum_on_shipped_conditioning(self):
        rows = lr_sweep(parse_config_dict(self.BASE))
        losses = [r.final_train_loss for r in rows]
        best = int(np.argmin(losses))
        assert 0 < best < len(rows) - 1, f"best lr at endpoint: {losses}"


class TestSearchRejections:
    """Every grid and sweep rejection is a ConfigError raised before the
    problem is built, and leaves no output directory."""

    @pytest.mark.parametrize("search,change,values,match", [
        ("grid", {}, {"alphas": [0.5, 0.5], "betas": [2.0]}, "duplicate"),
        ("grid", {}, {"alphas": [0.5], "betas": [2.0, 2.0]}, "duplicate"),
        ("sweep", {}, {"lrs": [1e-3, 1e-3]}, "duplicate"),
        # 0.0 and -0.0 are one value with two names.
        ("grid", {}, {"alphas": [0.0, -0.0], "betas": [2.0]}, "duplicate"),
        ("grid", {}, {"alphas": [0.1234567, 0.1234568], "betas": [2.0]},
         r"\['cell_a0.123457_b2'\]"),
        ("grid", {}, {"alphas": [0.5], "betas": [2.0, 2.0000001]}, r"\['cell_a0.5_b2'\]"),
        ("sweep", {}, {"lrs": [0.01, 0.0100000001]}, r"\['lr0.01'\]"),
        ("grid", {}, {"alphas": [0.5], "betas": [1e-4, 2.0]}, "well-posedness"),
        ("sweep", {}, {"lrs": [1e-3, 0.0]}, "key 'lr' must be positive"),
        ("sweep", {}, {"lrs": [-1e-3]}, "key 'lr' must be positive"),
        ("sweep", {}, {"lrs": [float("inf")]}, "key 'lr' must be finite"),
        ("sweep", {}, {"lrs": [float("nan")]}, "key 'lr' must be finite"),
        ("grid", {"optimizer": "sgd"}, {"alphas": [0.1, 0.5], "betas": [0.9]}, "not 'sgd'"),
        ("grid", {}, {"alphas": [], "betas": [0.9]}, "at least one"),
    ], ids=["repeated_alpha", "repeated_beta", "repeated_rate", "signed_zero_alphas",
            "alphas_one_name", "betas_one_name", "rates_one_name", "ill_posed_cell",
            "zero_rate", "negative_rate", "infinite_rate", "nan_rate",
            "optimizer_without_alpha_or_beta", "no_alphas"])
    def test_rejected_before_any_compute(self, tmp_path, monkeypatch, search, change, values,
                                         match):
        def no_compute(*args, **kwargs):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(runner, "build_problem", no_compute)
        cfg = parse_config_dict({**TestGrid.BASE, **change})
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=match):
            (grid_search if search == "grid" else lr_sweep)(cfg, out_dir=out, **values)
        assert not out.exists()


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
    # The f32 INNAprop step overflows inside its kernel once the warm-up
    # brings gamma close to beta = 0.0901: (1 + gamma*(1 - alpha*beta)/(beta -
    # gamma)) * theta passes the f32 range at step 20, while the gradients
    # and losses stay finite. A state written in place is left partly
    # written there.
    KERNEL_DIVERGING = {"problem": "quadratic", "spectrum": [1e-20, 3e-20],
                        "optimizer": "innaprop", "alpha": 0.1, "beta": 0.9, "lr": 0.09,
                        "schedule": "linear_warmup", "t_warmup": 20, "t_max": 30,
                        "steps": 30, "log_every": 4, "precision": "f32",
                        "init_scale": 1e37, "seed": 0}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("base,alphas,betas", [
        (MLP, [0.1, 0.5, 2.0], [0.9, 2.0]),
        (LOGISTIC, [0.1, 1.0], [0.9, 1.0, 3.0]),
        (DIVERGING, [0.1], [0.5, 4.0]),
        ({**MLP, "precision": "f32"}, [0.1, 2.0], [0.9, 2.0]),
        (KERNEL_DIVERGING, [0.1, 2.0], [0.0901, 0.9]),
    ], ids=["tiny_mlp", "logistic_regression", "diverging_inna", "tiny_mlp_f32",
            "innaprop_f32_kernel_overflow"])
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
        diverging = base is self.DIVERGING or base is self.KERNEL_DIVERGING
        assert statuses == ({"ok", "diverged"} if diverging else {"ok"})

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("base,key,values,statuses", [
        (DIVERGING, "beta", [0.5, 4.0], ["ok", "diverged@"]),
        ({**DIVERGING, "beta": 4.0}, "lr", [1e-3, 0.05], ["ok", "diverged@"]),
        (MLP, "lr", [1e-4, 1e-3, 0.5], ["ok", "ok", "ok"]),
        ({**MLP, "precision": "f32"}, "alpha", [0.1, 2.0], ["ok", "ok"]),
        (KERNEL_DIVERGING, "beta", [0.0901, 0.9], ["diverged@", "ok"]),
    ], ids=["diverged_no_metric", "lr_lanes_diverged", "lr_lanes_metric", "tiny_mlp_f32",
            "innaprop_f32_kernel_overflow"])
    def test_streamed_cell_csv_equals_rows_to_csv(self, tmp_path, base, key, values, statuses):
        # run_experiment writes each cell's CSV from CellResults.csv_texts,
        # which builds it column-wise; it must be rows_to_csv of the cell's rows.
        configs = [replace(parse_config_dict(base), **{key: v}) for v in values]
        tags = [f"cell{i}" for i in range(len(values))]
        results = run_experiment(configs, out_dir=tmp_path, tag=tags)
        texts = results.csv_texts()
        for tag, status, (rows, summary) in zip(tags, statuses, results):
            text = next(texts)
            assert summary.status.startswith(status), tag
            assert text == rows_to_csv(rows), tag
            assert (tmp_path / f"{tag}.csv").read_text(encoding="utf-8") == text
        assert next(texts, None) is None

    def test_adamw_lr_cells_equal_standalone_runs(self, tmp_path):
        # Every cell's AdamW state is written in place by its step; no cell
        # may share an array with another, or m with v.
        cfg = parse_config_dict({**self.MLP, "optimizer": "adamw", "weight_decay": 0.01})
        lrs = [1e-4, 1e-3, 1e-2, 5e-2]
        tags = [f"lr{v:g}" for v in lrs]
        run_experiment([replace(cfg, lr=v) for v in lrs], out_dir=tmp_path, tag=tags)
        for lr, tag in zip(lrs, tags):
            rows, _ = run_experiment(replace(cfg, lr=lr))
            assert (tmp_path / f"{tag}.csv").read_text(encoding="utf-8") == rows_to_csv(rows)

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

    def test_repeated_tag_rejected_before_compute(self, tmp_path, monkeypatch):
        # Both cells would write a.csv, the second over the first.
        cfg = parse_config_dict({**MINIMAL, "steps": 30})
        monkeypatch.setattr(runner, "build_problem", None)  # no compute
        with pytest.raises(ConfigError, match=r"share the names \['a'\]"):
            run_experiment([cfg, replace(cfg, lr=1e-2)], out_dir=tmp_path / "out",
                           tag=["a", "a"])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config,match", [
        (RunConfig(), "needs keys 'alpha' and 'beta'"),
        (RunConfig(optimizer="nope"), "unknown optimizer 'nope'"),
        (RunConfig(alpha=0.1, beta=0.9, lr=2.0), "well-posedness"),
        (RunConfig(alpha=0.1, beta=0.9, sigma=1.5), "key 'sigma' must lie in"),
    ], ids=["no_alpha", "unknown_optimizer", "ill_posed", "sigma_above_one"])
    def test_invalid_config_rejected_before_compute(self, tmp_path, monkeypatch, config,
                                                    match):
        # A library call is validated as a config file is, before the
        # problem is built.
        monkeypatch.setattr(runner, "build_problem", None)  # no compute
        for configs, tags in ((config, "run"), ([config, config], ["a", "b"])):
            with pytest.raises(ConfigError, match=match):
                run_experiment(configs, out_dir=tmp_path / "out", tag=tags)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tag", ["../escape", "sub/a", "", ".", ".."])
    def test_tag_that_is_not_a_plain_file_name_rejected(self, tmp_path, monkeypatch, tag):
        cfg = parse_config_dict({**MINIMAL, "steps": 30})
        monkeypatch.setattr(runner, "build_problem", None)  # no compute
        out = tmp_path / "deep" / "out"
        for config, tags in ((cfg, tag), ([cfg], [tag])):
            with pytest.raises(ContractViolation, match="plain file name"):
                run_experiment(config, out_dir=out, tag=tags)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("optimizer,form", [(name, form) for name, rule in OPTIMIZERS.items()
                                                for form in rule.forms or [None]])
    def test_initial_state_slots_share_no_array(self, optimizer, form):
        # The run loop makes every slot of a cell's state writable, for the
        # blocked steps to write in place; so no two slots may share an array.
        cfg = parse_config_dict({**MINIMAL, "optimizer": optimizer, "form": form})
        state, _, _ = OPTIMIZERS[optimizer].start(cfg, ParamVector([1.0, 2.0]))
        slots = [getattr(state, f.name).data for f in fields(state)
                 if isinstance(getattr(state, f.name), ParamVector)]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(slots) for b in slots[i + 1:])

    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    def test_run_holds_one_state_and_one_gradient(self, monkeypatch, optimizer):
        # Each step writes the cell's new slots over its old ones, so every
        # gradient is taken at the same parameter array, and the previous
        # gradient is gone before the next one is computed.
        cfg = parse_config_dict({**MINIMAL, "optimizer": optimizer, "steps": 12})
        clean, _ = run_experiment(cfg)
        build = runner.build_problem
        params, previous = [], []

        def watched(config):
            problem = build(config)

            def grad(theta, batch=None):
                assert all(ref() is None for ref in previous)
                params.append(theta.base)
                g = problem.grad(theta, batch)
                previous.append(weakref.ref(g))
                return g
            return replace(problem, grad=grad)

        monkeypatch.setattr(runner, "build_problem", watched)
        rows, _ = run_experiment(cfg)
        assert rows == clean and len(params) == 12
        assert all(p is params[0] for p in params)


class TestBenchmarkHooks:
    """The benchmark traces the harness by wrapping its module globals. A grid
    that stopped calling them would drop out of the traced run (no
    harness.grid.cells) or of the step count behind steps_per_s."""

    @staticmethod
    def _grid(tmp_path, tracer, optimizer="innaprop", form=None):
        """Four lock-step cells of 20 steps: a 2 x 2 grid, or, for an
        optimizer that reads neither alpha nor beta, a sweep of four lrs."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**MINIMAL, "optimizer": optimizer, "form": form,
                                   "steps": 20}), encoding="utf-8")
        # --workers 1 as the benchmark's grid workload passes it.
        argv = (["grid", "--alphas", "0.1", "0.5", "--betas", "0.9", "1.5", "--workers", "1",
                 "--out", str(tmp_path / "grid")] if "alpha" in OPTIMIZERS[optimizer].reads
                else ["sweep", "--lrs", "1e-4", "2e-4", "5e-4", "1e-3"])
        tracer.install()
        try:
            assert main([*argv, "--config", str(cfg)]) == 0
        finally:
            tracer.uninstall()

    def test_traced_grid_reports_grid_and_run_metrics(self, tmp_path, capsys):
        tracing = bench_tracing()
        tracer = tracing.Tracer(record=True)
        self._grid(tmp_path, tracer)
        layers = tracing.layer_metrics(tracer.spans, 1, 1)
        assert layers["harness.grid.cells"] == 1
        assert layers["harness.runner.run_experiment.self_s"] > 0

    @pytest.mark.parametrize("optimizer,form", [
        pytest.param(name, form, id=name if form is None else f"{name}-{form}")
        for name, rule in OPTIMIZERS.items() for form in rule.forms or [None]])
    def test_every_cell_step_is_counted(self, tmp_path, capsys, optimizer, form):
        # The run loop calls every step through runner's global of its name,
        # which the tracer wraps; a step called as the object OPTIMIZERS
        # holds would count 0.
        tracing = bench_tracing()
        tracer = tracing.Tracer(record=False)
        self._grid(tmp_path, tracer, optimizer, form)
        assert tracer.counts()[tracing.STEP] == 4 * 20

    def test_check_steps_go_through_checks_globals(self):
        # check_all's steps_per_s counts the steps that the memory-reduction
        # check makes through the checks module's globals: 10 naive, 10 reduced.
        tracing = bench_tracing()
        quad = make_problem("quadratic", spectrum=(1.0, 10.0))
        theta0 = ParamVector(quad.init_theta(RngStream(1, 1).generator()))
        tracer = tracing.Tracer(record=False).install()
        try:
            tracing.checks.memory_reduction_dev(quad, theta0, n_steps=10)
        finally:
            tracer.uninstall()
        assert tracer.counts()[tracing.STEP] == 20

    @pytest.mark.parametrize("suite,steps", [
        ("equivalence", 9800), ("gradients", 0), ("schedulers", 0),
        ("ode", 10700), ("instability", 48000),
    ])
    def test_suite_step_calls_pinned(self, suite, steps):
        # check_all's steps_per_s divides a fixed step count by the wall time,
        # so a suite must make the same step calls through the checks and
        # ode module globals, however it evaluates its problems.
        tracing = bench_tracing()
        tracer = tracing.Tracer(record=False).install()
        try:
            assert tracing.checks.run_suite(suite).passed
        finally:
            tracer.uninstall()
        assert tracer.counts()[tracing.STEP] == steps

    def test_traced_run_reads_state_and_gradient_of_each_step(self, tmp_path, capsys):
        # The tracer reads the state and the gradient from a step's first two
        # positional arguments; a step called otherwise would lose its bytes.
        tracing = bench_tracing()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**MINIMAL, "steps": 20}), encoding="utf-8")
        tracer = tracing.Tracer(record=True).install()
        try:
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer.spans, 1, 1)
        assert layers[f"{tracing.STEP}.calls"] == 20
        # theta, psi and v read and written once, the gradient read once
        assert layers[f"{tracing.STEP}.bytes_moved_computed"] == 20 * 7 * 2 * 8


def test_every_blocked_step_of_the_workloads_is_on_an_owned_state(monkeypatch):
    # The run loop and the check loops own every state they step, so every
    # blocked step of `check all`, a preset run and a 2 x 2 grid gets a
    # state carrying the record that ``_own`` made for it, and writes it in
    # place.
    import innaprop.optimizers as optimizers

    owned, unowned = [], []
    blocked = optimizers._blocked_step

    def spy(state, *args):
        record = state.__dict__.get("_owned")
        (owned if isinstance(record, optimizers._Owned) else unowned).append(type(state))
        return blocked(state, *args)

    monkeypatch.setattr(optimizers, "_blocked_step", spy)
    for suite in sorted(checks.SUITES):
        assert checks.run_suite(suite).passed
    suites = len(owned)
    run_experiment(load_preset("cifar_small"))
    grid_search(load_preset("cifar_small"), alphas=[0.1, 0.5], betas=[0.9, 1.5])
    assert unowned == []
    assert (suites, len(owned)) == (67_400, 67_400 + 200 + 4 * 200)


def test_workloads_at_their_dims_start_no_thread(monkeypatch):
    # A step of one block and a quadratic gradient of at most two run on the
    # calling thread alone: `check all`, a preset run and a 2 x 2 grid never
    # reach the block runner, nor ask for its pool.
    import threading

    import innaprop.numerics as numerics
    import innaprop.optimizers as optimizers
    import innaprop.problems as problems

    asked = []
    monkeypatch.setattr(numerics, "_block_pool", lambda: asked.append(1))
    for module in (optimizers, problems):
        monkeypatch.setattr(module, "share_blocks", lambda *args: asked.append(args))
    threads = threading.active_count()
    for suite in sorted(checks.SUITES):
        assert checks.run_suite(suite).passed
    run_experiment(load_preset("cifar_small"))
    grid_search(load_preset("cifar_small"), alphas=[0.1, 0.5], betas=[0.9, 1.5])
    assert asked == [] and threading.active_count() == threads


def test_repeated_coefficients_are_cast_once_per_kernel_and_precision(monkeypatch):
    # The instability loop repeats its reduced-momentum coefficients on
    # every step, so each of its two states, one per precision, casts the
    # tuple once. A preset run changes its step size or its bias correction
    # on every step, so it never casts.
    import innaprop.optimizers as optimizers

    casts = []
    cast = optimizers._cast

    def counted(coeffs, dtype):
        casts.append(np.dtype(dtype).name)
        return cast(coeffs, dtype)

    monkeypatch.setattr(optimizers, "_cast", counted)
    assert checks.run_suite("instability").passed
    assert sorted(casts) == ["float32", "float64"]
    casts.clear()
    for name in preset_names():
        run_experiment(load_preset(name))
    assert casts == []


class TestCheckMeasurementsPinned:
    """Every number behind the check suites' reports, recorded before the
    check loops owned their states and wrote them in place. The printed
    report rounds to three digits, so its sha256 pin alone would not show a
    change in the last bits; floats are compared by ``repr``."""

    def test_stagnation_report(self):
        assert repr(checks.stagnation_report()) == repr({
            "f32": {"noop_fraction": 1.0, "window_strictly_decreasing": True,
                    "m_frozen_over_window": True,
                    "window_theta_mean_abs": 1.1117479801177979,
                    "final_loss": 0.00014183419545554134},
            "f64": {"noop_fraction": 0.0, "window_strictly_decreasing": True,
                    "m_frozen_over_window": False,
                    "window_theta_mean_abs": 1.1119518759812688,
                    "final_loss": 0.0001415492717214282},
        })

    def test_ode_report(self):
        assert repr(checks.ode_report()) == repr({
            "richardson_ratio": 16.348317751321083,
            "gap_ratio_1": 2.0364156121593227,
            "gap_ratio_2": 2.0177847480077125,
            "tiny_gap": 0.00013366624237260552,
            "loss_start": 3.92,
            "loss_end": 1.4840306106498456e-09,
            "equilibrium_residual": 0.0,
            "min_offequilibrium_residual": 1.760012766888732,
        })

    def test_equivalence_deviations(self):
        # The nine measurements of equivalence_suite, with its arguments.
        rosen = make_problem("rosenbrock", dim=2)
        quad = make_problem("quadratic", spectrum=(1.0, 10.0))
        data = generate_synthetic("two_gaussians", n=200, dim=2, seed=7)
        mlp = make_problem("tiny_mlp", dataset=data, hidden=(8,), activation="tanh")
        mlp_theta0 = ParamVector(mlp.init_theta(RngStream(5, 0).generator()))
        quad_theta0 = ParamVector(quad.init_theta(RngStream(1, 1).generator()))
        devs = [
            checks.adam_equivalence_dev(rosen, ParamVector([-1.2, 1.0]), 0.0),
            checks.adam_equivalence_dev(rosen, ParamVector([-1.2, 1.0]), 0.01),
            checks.adam_equivalence_dev(mlp, mlp_theta0, 0.01),
            checks.memory_reduction_dev(quad, quad_theta0),
            checks.memory_reduction_dev(rosen, ParamVector([-1.2, 1.0])),
            checks.inna_rewrite_dev(),
            checks.momentum_forms_dev(),
            checks.dinadam_reduction_dev(),
            checks.dinadam_forms_dev(),
        ]
        assert repr(devs) == repr([
            0.0, 0.0, 0.0, 1.7535277967214144e-11, 1.5461896812191254e-13,
            6.058195197977388e-15, 8.079210205452966e-16, 1.1827323952860678e-16,
            1.7577439141258913e-16,
        ])


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

    @pytest.mark.parametrize("change", [{}, TestRunCsvPinned.CONFIGS["diverging"]],
                             ids=["converging", "diverging"])
    def test_run_builds_no_rows_and_writes_what_run_experiment_writes(
            self, tmp_path, capsys, monkeypatch, change):
        cfg = self._write_cfg(tmp_path, change)
        summary = run_experiment(parse_config(cfg), out_dir=tmp_path / "api")[1]
        built = []
        row = runner.RunRow
        monkeypatch.setattr(runner, "RunRow",
                            lambda *args, **kwargs: built.append(args) or row(*args, **kwargs))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert built == []
        assert capsys.readouterr().out == (
            f"status={summary.status} steps={summary.steps_run} "
            f"final_train_loss={summary.final_train_loss} "
            f"best_test_metric={summary.best_test_metric}\n")
        assert (tmp_path / "out" / "run.csv").read_bytes() == (
            tmp_path / "api" / "run.csv").read_bytes()
        records = [json.loads((tmp_path / out / "run.json").read_text(encoding="utf-8"))
                   for out in ("api", "out")]
        for record in records:
            record.pop("wall_time_s")
        assert records[0] == records[1]

    def test_seed_override(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        assert main(["run", "--config", cfg, "--seed", "9"]) == 0

    def test_config_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**MINIMAL, "bogus_key": 1}), encoding="utf-8")
        assert main(["run", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("broken", ["config", "dataset"])
    def test_non_utf8_input_exit_two(self, tmp_path, capsys, broken):
        # Byte 0xe9 (Latin-1 e-acute) is not UTF-8; the run is refused
        # before it makes its output directory.
        data = tmp_path / "data.csv"
        data.write_bytes(b"x,y\n0.5,0\n1.5,1\n2.5,0\n3.5,1\n"
                         + (b"4.5,1\xe9\n" if broken == "dataset" else b""))
        raw = {"problem": "logistic_regression", "dataset": str(data), "label_column": "y",
               "optimizer": "adamw", "steps": 5}
        path = tmp_path / "cfg.json"
        path.write_bytes(json.dumps(raw).encode()[:-1]
                         + (b', "note": "caf\xe9"}' if broken == "config" else b"}"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert str(path if broken == "config" else data) in err and "0xe9" in err
        assert not out.exists()

    def test_csv_with_byte_order_mark_trains(self, tmp_path, capsys):
        # A UTF-8 byte-order mark is not part of the first column's name: the
        # run trains as on the file without it. The recorded content hash
        # covers the bytes read, the mark included.
        rows = "y,x1,x2\n" + "".join(f"{i % 2},{0.1 * i},{1.0 - 0.2 * i}\n" for i in range(12))
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(rows, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + rows.encode())
        outputs = {}
        for data in (plain, marked):
            raw = {"problem": "logistic_regression", "dataset": str(data),
                   "label_column": "y", "optimizer": "adamw", "steps": 5}
            path = tmp_path / f"{data.stem}.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            out = tmp_path / f"out_{data.stem}"
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            record = json.loads((out / "run.json").read_text(encoding="utf-8"))
            assert record["config_hash"] == content_hash(parse_config_dict(raw))
            outputs[data.stem] = (out / "run.csv").read_bytes()
        assert outputs["marked"] == outputs["plain"]

    def test_config_with_byte_order_mark_trains(self, tmp_path):
        # Some editors save UTF-8 with a leading byte-order mark; the run
        # trains as on the file without it.
        text = json.dumps({"problem": "rosenbrock", "optimizer": "innaprop", "alpha": 0.1,
                           "beta": 0.9, "lr": 1e-3, "steps": 10})
        outputs = {}
        for name, data in (("plain", text.encode()), ("marked", b"\xef\xbb\xbf" + text.encode())):
            path, out = tmp_path / f"{name}.json", tmp_path / f"out_{name}"
            path.write_bytes(data)
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            outputs[name] = (out / "run.csv").read_bytes()
        assert outputs["marked"] == outputs["plain"]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    @pytest.mark.parametrize("command", [["run"],
                                         ["grid", "--alphas", "0.1", "0.5", "--betas", "0.9"]],
                             ids=["run", "grid"])
    def test_large_run_same_bytes_on_one_cpu(self, tmp_path, command):
        # Above two blocks a step and the quadratic's gradient, of one vector
        # or of a grid's (cells, dim) stack, share their blocks with a worker
        # thread, unless the process may run on one CPU only: the bytes are
        # the same.
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"problem": "quadratic", "dim": 100_000,
                                    "optimizer": "innaprop", "alpha": 0.1, "beta": 0.9,
                                    "lr": 1e-3, "steps": 20, "log_every": 5}), encoding="utf-8")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def one_cpu():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        outputs = []
        for pin in (one_cpu, None):
            out = tmp_path / f"out_{len(outputs)}"
            done = subprocess.run([sys.executable, "-m", "innaprop.harness.cli", *command,
                                   "--config", str(path), "--out", str(out)],
                                  env=env, preexec_fn=pin, capture_output=True, text=True,
                                  timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append({f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))})
        csvs = outputs[0]
        assert outputs[0] == outputs[1]
        assert len(csvs) == (1 if command == ["run"] else 3)
        assert all(data.count(b"\n") == 7 for name, data in csvs.items() if name != "grid.csv")

    def test_missing_file_exit_three(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 3

    def test_check_suite_exit_zero(self, capsys):
        assert main(["check", "schedulers"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] schedulers/" in out and "[FAIL]" not in out

    def test_check_all_same_in_every_process(self):
        # Every report line, the gradients suite's probe points among them,
        # must not depend on the BLAS thread count or the interpreter's
        # string-hash seed: two processes, run at once, print the pinned bytes.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        runs = [subprocess.Popen([sys.executable, "-m", "innaprop.harness.cli", "check", "all"],
                                 env={**os.environ, "OPENBLAS_NUM_THREADS": setting,
                                      "PYTHONHASHSEED": setting, "PYTHONPATH": path},
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                for setting in ("1", "2")]
        for run in runs:
            out, err = run.communicate(timeout=120)
            assert run.returncode == 0, err.decode()
            assert hashlib.sha256(out).hexdigest() == CHECK_ALL_SHA256
            assert out.decode().count("[PASS] gradients/") == 4

    def test_check_all_report_pinned(self, capsys):
        # Every line of every suite's report, byte for byte.
        assert main(["check", "all"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CHECK_ALL_SHA256

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

    @pytest.mark.parametrize("optimizer,lr", [("adamw", 0.5), ("dinadam", 0.1)])
    def test_ode_checks_lr_below_beta_before_integrating(self, tmp_path, capsys, monkeypatch,
                                                         optimizer, lr):
        # validate_config holds lr below beta for the inertial family only;
        # the ode command steps the recursion at lr for every optimizer.
        from innaprop.harness import cli

        def refuse(*args):
            raise AssertionError("integrated before the check")

        monkeypatch.setattr(cli, "rk4_integrate", refuse)
        cfg = self._write_cfg(tmp_path, {"problem": "quadratic", "optimizer": optimizer,
                                         "alpha": 0.5, "beta": 0.1, "lr": lr, "t_end": 20.0,
                                         "ode_dt": 5e-4})
        out = tmp_path / "ode"
        assert main(["ode", "--config", cfg, "--out", str(out)]) == 2
        assert "0 < lr < beta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [[], ["--precision", "f32"]], ids=["config", "flag"])
    def test_ode_rejects_f32_before_integrating(self, tmp_path, capsys, monkeypatch, flag):
        # The flow is integrated in f64 only; an f32 request is a config
        # error, not an f64 run under the f32 name.
        from innaprop.harness import cli

        def refuse(*args):
            raise AssertionError("integrated before the check")

        monkeypatch.setattr(cli, "build_problem", refuse)
        monkeypatch.setattr(cli, "rk4_integrate", refuse)
        cfg = self._write_cfg(tmp_path, {"problem": "quadratic", "t_end": 1.0, "ode_dt": 0.01,
                                         "precision": "f64" if flag else "f32"})
        out = tmp_path / "ode"
        assert main(["ode", "--config", cfg, "--out", str(out), *flag]) == 2
        assert "f64 only, not 'f32'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["file", "preset"])
    def test_repeated_key_exit_two(self, tmp_path, capsys, monkeypatch, source):
        # json keeps the last of two values silently; the config would run SGD.
        text = ('{"problem": "rosenbrock", "optimizer": "adamw", "lr": 1e-3, "steps": 5, '
                '"optimizer": "sgd"}')
        path = tmp_path / "repeated.json"
        path.write_text(text, encoding="utf-8")
        if source == "preset":
            monkeypatch.setattr(config_module.resources, "files", lambda package: tmp_path)
        out = tmp_path / "out"
        config = str(path) if source == "file" else "preset:repeated"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert "key 'optimizer' is repeated" in capsys.readouterr().err
        assert not out.exists()

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
