"""Bit-exactness and shape properties of the learning-rate schedules."""

import math

import numpy as np
import pytest

from innaprop.errors import ContractViolation
from innaprop.schedulers import ScheduleSpec, lr_at, max_lr, stays_below


class TestSpotValues:
    def test_cosine_endpoints_and_midpoint(self):
        spec = ScheduleSpec(kind="cosine", gamma0=1e-3, t_max=200)
        assert lr_at(spec, 0) == 1e-3
        assert lr_at(spec, 200) == 0.0
        assert abs(lr_at(spec, 100) - 5e-4) <= np.spacing(5e-4)

    def test_cosine_with_floor(self):
        spec = ScheduleSpec(kind="cosine", gamma0=1e-3, gamma_min=1e-5, t_max=100)
        assert lr_at(spec, 100) == pytest.approx(1e-5, abs=1e-20)
        assert lr_at(spec, 0) == pytest.approx(1e-3, abs=1e-19)

    def test_cosine_warmup_ramp_and_boundary(self):
        spec = ScheduleSpec(kind="cosine_warmup", gamma0=1e-3, t_max=200,
                            t_warmup=30, t_decay=180)
        assert abs(lr_at(spec, 15) - 5e-4) <= np.spacing(5e-4)
        assert lr_at(spec, 30) == 1e-3  # post-warmup branch owns the boundary
        assert lr_at(spec, 195) == 0.0  # beyond t_decay

    def test_linear_warmup_ramp_and_terminal(self):
        spec = ScheduleSpec(kind="linear_warmup", gamma0=1e-3, t_max=10000, t_warmup=500)
        assert abs(lr_at(spec, 250) - 5e-4) <= np.spacing(5e-4)
        assert lr_at(spec, 500) == 1e-3
        assert lr_at(spec, 10000) == 0.0

    def test_constant(self):
        spec = ScheduleSpec(kind="constant", gamma0=3e-4, t_max=10)
        assert all(lr_at(spec, k) == 3e-4 for k in range(11))


class TestShapeProperties:
    def test_warmup_exactly_linear(self):
        for kind in ("cosine_warmup", "linear_warmup"):
            spec = ScheduleSpec(kind=kind, gamma0=1e-3, t_max=1000, t_warmup=137,
                                t_decay=900 if kind == "cosine_warmup" else None)
            ramp = np.array([lr_at(spec, k) for k in range(spec.t_warmup)])
            assert np.max(np.abs(np.diff(ramp, n=2))) <= 4 * np.spacing(spec.gamma0)

    def test_cosine_monotone_nonincreasing(self):
        for t_max in (7, 200, 1000):
            spec = ScheduleSpec(kind="cosine", gamma0=1e-3, t_max=t_max)
            vals = [lr_at(spec, k) for k in range(t_max + 1)]
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_cosine_warmup_decay_branch_monotone(self):
        spec = ScheduleSpec(kind="cosine_warmup", gamma0=6e-4, t_max=5000,
                            t_warmup=500, t_decay=5000)
        vals = [lr_at(spec, k) for k in range(500, 5001)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_everywhere_at_most_gamma0(self):
        specs = [
            ScheduleSpec(kind="constant", gamma0=1e-3, t_max=50),
            ScheduleSpec(kind="cosine", gamma0=1e-3, t_max=50),
            ScheduleSpec(kind="cosine_warmup", gamma0=1e-3, t_max=50, t_warmup=10),
            ScheduleSpec(kind="linear_warmup", gamma0=1e-3, t_max=50, t_warmup=10),
        ]
        for spec in specs:
            vals = [lr_at(spec, k) for k in range(spec.t_max + 1)]
            assert max(vals) <= spec.gamma0
            assert max_lr(spec) == spec.gamma0

    def test_pure_function_bitwise(self):
        spec = ScheduleSpec(kind="cosine", gamma0=math.pi * 1e-4, t_max=977)
        for k in (0, 1, 31, 976, 977):
            assert lr_at(spec, k) == lr_at(spec, k)


class TestValidation:
    def test_domain_errors(self):
        spec = ScheduleSpec(kind="cosine", gamma0=1e-3, t_max=10)
        with pytest.raises(ContractViolation):
            lr_at(spec, -1)
        with pytest.raises(ContractViolation):
            lr_at(spec, 11)
        with pytest.raises(ContractViolation):
            lr_at(spec, 1.5)

    def test_spec_invariants(self):
        with pytest.raises(ContractViolation):
            ScheduleSpec(kind="cosine", gamma0=0.0, t_max=10)
        with pytest.raises(ContractViolation):
            ScheduleSpec(kind="cosine", gamma0=1e-3, gamma_min=2e-3, t_max=10)
        with pytest.raises(ContractViolation):
            ScheduleSpec(kind="linear_warmup", gamma0=1e-3, t_max=10, t_warmup=10)
        with pytest.raises(ContractViolation):
            ScheduleSpec(kind="cosine_warmup", gamma0=1e-3, t_max=10, t_warmup=5, t_decay=3)
        with pytest.raises(ContractViolation):
            ScheduleSpec(kind="mystery", gamma0=1e-3, t_max=10)
        with pytest.raises(ContractViolation):
            ScheduleSpec(kind="cosine", gamma0=1e-3, t_max=10, t_decay=5)

    def test_well_posedness_predicate(self):
        spec = ScheduleSpec(kind="cosine", gamma0=1e-3, t_max=100)
        assert stays_below(spec, 0.9)
        assert not stays_below(ScheduleSpec(kind="constant", gamma0=1.0, t_max=5), 0.9)
