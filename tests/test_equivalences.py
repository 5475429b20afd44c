"""Algebraic identities between the derivational forms of the optimizers.

These are the dual-route checks: each identity is measured by running both
recursions side by side and bounding the relative trajectory deviation.
"""

import tracemalloc

import numpy as np
import pytest

from innaprop.harness.checks import (
    _paired_max_dev,
    _rel_dev,
    adam_equivalence_dev,
    dinadam_forms_dev,
    dinadam_reduction_dev,
    inna_rewrite_dev,
    memory_reduction_dev,
    momentum_forms_dev,
)
from innaprop.numerics import ParamVector, RngStream
from innaprop.optimizers import (
    _BLOCK,
    _own,
    InnapropConfig,
    innaprop_init,
    innaprop_momentum_init,
    innaprop_momentum_step,
    innaprop_naive_init,
    innaprop_naive_step,
    innaprop_step,
)
from innaprop.problems import generate_synthetic, make_problem


def test_adam_special_case_rosenbrock():
    dev0 = adam_equivalence_dev(make_problem("rosenbrock"), ParamVector([-1.2, 1.0]), 0.0)
    dev1 = adam_equivalence_dev(make_problem("rosenbrock"), ParamVector([-1.2, 1.0]), 0.01)
    assert dev0 < 1e-12 and dev1 < 1e-12


def test_adam_special_case_mlp():
    data = generate_synthetic("two_gaussians", n=200, dim=2, seed=7)
    mlp = make_problem("tiny_mlp", dataset=data, hidden=(8,), activation="tanh")
    theta0 = ParamVector(mlp.init_theta(RngStream(5, 0).generator()))
    assert adam_equivalence_dev(mlp, theta0, 0.0) < 1e-12
    assert adam_equivalence_dev(mlp, theta0, 0.01) < 1e-12


def test_six_slot_vs_three_slot_500_steps():
    quad = make_problem("quadratic", spectrum=(1.0, 10.0))
    theta0 = ParamVector(quad.init_theta(RngStream(1, 1).generator()))
    assert memory_reduction_dev(quad, theta0, 500) < 1e-10
    assert memory_reduction_dev(make_problem("rosenbrock"), ParamVector([-1.2, 1.0]), 500) < 1e-10


def test_three_slot_step_allocates_only_its_slots():
    # The paper's memory claim: one reduced step holds the three new slots
    # (theta, psi, v) and nothing else of full size.
    dim = 10**6
    cfg = InnapropConfig(alpha=0.1, beta=0.9, weight_decay=0.01)
    rng = RngStream(4, 0).generator()
    theta0 = ParamVector(rng.standard_normal(dim))
    g = ParamVector(rng.standard_normal(dim))
    state = innaprop_step(innaprop_init(cfg, theta0), g, 1e-3, cfg)
    tracemalloc.start()
    try:
        innaprop_step(state, g, 1e-3, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * dim * theta0.data.itemsize + 2 * 2**20


def test_owned_step_allocates_only_scratch():
    # A step given an owned state (``_own``) writes the new slots over the
    # old ones: beyond the state it holds only two block scratch buffers.
    dim = 10**6
    cfg = InnapropConfig(alpha=0.1, beta=0.9, weight_decay=0.01)
    rng = RngStream(4, 0).generator()
    theta0 = ParamVector(rng.standard_normal(dim))
    g = ParamVector(rng.standard_normal(dim))
    state = _own(innaprop_step(innaprop_init(cfg, theta0), g, 1e-3, cfg))
    slots = (state.theta.data, state.psi.data, state.v.data)
    tracemalloc.start()
    try:
        state = innaprop_step(state, g, 1e-3, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.k == 2
    assert all(new is old for new, old in zip((state.theta.data, state.psi.data,
                                               state.v.data), slots))
    assert peak < 2 * 2**20


def test_naive_bootstrap_matches_reduced_exactly():
    # The forced bootstrap makes the two forms coincide from the very first
    # step, not just asymptotically.
    cfg = InnapropConfig(alpha=0.7, beta=1.3, sigma=0.99, epsilon=1e-8,
                         bias_correction=False)
    rng = RngStream(8, 0).generator()
    theta0 = ParamVector(rng.standard_normal(5))
    g0 = ParamVector(rng.standard_normal(5))
    reduced = innaprop_step(innaprop_init(cfg, theta0), g0, 0.01, cfg)
    naive = innaprop_naive_step(innaprop_naive_init(cfg, theta0), g0, 0.01, cfg)
    rel = np.max(np.abs(reduced.theta.data - naive.theta.data)) / np.max(
        np.abs(reduced.theta.data)
    )
    assert rel < 1e-15


def test_inna_rewrite_100_steps():
    assert inna_rewrite_dev(100) < 1e-12


def test_momentum_direct_vs_reduced_200_steps():
    assert momentum_forms_dev(200) < 1e-10


def test_dinadam_reduces_to_adam_500_steps():
    assert dinadam_reduction_dev(500) < 1e-12


def test_dinadam_direct_vs_mtilde_100_steps():
    assert dinadam_forms_dev(100) < 1e-12


@pytest.mark.parametrize("dim", [2, _BLOCK + 1])
def test_paired_run_never_writes_the_callers_theta0(dim):
    # Both recursions start from one shared theta0 and write their own states
    # in place: as the rows of one block at dim 2, as their own separate
    # slots above _BLOCK. The caller's vector stays as it was, read-only, and
    # the deviation is that of the same pair stepped on public states.
    quad = make_problem("quadratic", spectrum=np.linspace(1.0, 10.0, dim))
    theta0 = ParamVector(np.linspace(-1.0, 1.5, dim))
    before = theta0.data.copy()
    cfg = InnapropConfig(alpha=0.1, beta=0.9, sigma=0.999)
    pair = (lambda th: innaprop_momentum_init(cfg, th, "direct"),
            lambda s, g: innaprop_momentum_step(s, g, 1e-3, cfg),
            lambda th: innaprop_momentum_init(cfg, th, "reduced"),
            lambda s, g: innaprop_momentum_step(s, g, 1e-3, cfg))
    dev = _paired_max_dev(quad, 5, theta0, *pair)
    assert not theta0.data.flags.writeable
    assert np.array_equal(theta0.data, before)

    init_a, step_a, init_b, step_b = pair
    a, b, want = init_a(theta0), init_b(theta0), 0.0
    for _ in range(5):
        a = step_a(a, ParamVector(quad.grad(a.theta.data)))
        b = step_b(b, ParamVector(quad.grad(b.theta.data)))
        want = max(want, _rel_dev(a.theta.data, b.theta.data))
    assert dev == want > 0.0
