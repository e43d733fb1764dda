"""Unit tests for optimizers and schedules (repro.nn.optim/schedule)."""

import numpy as np
import pytest

from repro.nn import (Adam, AdamW, ConstantLR, CosineWarmupLR, LinearWarmupLR,
                      Parameter, clip_grad_norm, schedule_from_name)


def quadratic_loss_param(start=5.0):
    """A parameter whose loss is (p - 2)^2 — minimum at p = 2."""
    return Parameter(np.array([start], dtype=np.float32))


def step_quadratic(optimizer, param, n_steps):
    for _ in range(n_steps):
        param.grad = (2.0 * (param.data - 2.0)).astype(np.float32)
        optimizer.step()
        param.grad = None


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_loss_param()
        step_quadratic(Adam([p], lr=0.3), p, 200)
        assert p.data[0] == pytest.approx(2.0, abs=1e-2)

    def test_first_step_size_equals_lr(self):
        # With bias correction the first Adam step is ~lr regardless of
        # gradient magnitude.
        p = Parameter(np.array([0.0], dtype=np.float32))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1000.0], dtype=np.float32)
        opt.step()
        assert p.data[0] == pytest.approx(-0.1, rel=1e-3)

    def test_l2_weight_decay_changes_update(self):
        a = Parameter(np.array([1.0], dtype=np.float32))
        b = Parameter(np.array([1.0], dtype=np.float32))
        for p, wd in ((a, 0.0), (b, 0.5)):
            opt = Adam([p], lr=0.1, weight_decay=wd)
            p.grad = np.array([0.0], dtype=np.float32)
            opt.step()
        assert a.data[0] == pytest.approx(1.0)
        assert b.data[0] < 1.0

    def test_skips_none_grads(self):
        p = Parameter(np.ones(2))
        opt = Adam([p], lr=0.1)
        opt.step()  # no grad set
        np.testing.assert_array_equal(p.data, np.ones(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], lr=0.0)


class TestAdamW:
    def test_decay_applies_only_to_matrices(self):
        matrix = Parameter(np.ones((2, 2), dtype=np.float32))
        bias = Parameter(np.ones(2, dtype=np.float32))
        opt = AdamW([matrix, bias], lr=0.1, weight_decay=0.5)
        matrix.grad = np.zeros((2, 2), dtype=np.float32)
        bias.grad = np.zeros(2, dtype=np.float32)
        opt.step()
        assert matrix.data[0, 0] < 1.0
        assert bias.data[0] == pytest.approx(1.0)

    def test_converges(self):
        p = quadratic_loss_param()
        opt = AdamW([p], lr=0.3, weight_decay=0.0)
        step_quadratic(opt, p, 200)
        assert p.data[0] == pytest.approx(2.0, abs=5e-2)


class TestClipGradNorm:
    def test_clips_when_over(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0, dtype=np.float32)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, rel=1e-4)

    def test_no_clip_when_under(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.1, dtype=np.float32)
        clip_grad_norm([p], max_norm=100.0)
        np.testing.assert_allclose(p.grad, np.full(4, 0.1))

    def test_empty_returns_zero(self):
        assert clip_grad_norm([Parameter(np.zeros(2))], 1.0) == 0.0


class TestSchedules:
    def test_constant(self):
        sched = ConstantLR(0.5)
        assert sched.lr_at(0) == 0.5
        assert sched.lr_at(10_000) == 0.5

    def test_linear_warmup_then_decay(self):
        sched = LinearWarmupLR(1.0, warmup_steps=10, total_steps=110)
        assert sched.lr_at(0) == pytest.approx(0.1)
        assert sched.lr_at(9) == pytest.approx(1.0)
        assert sched.lr_at(60) == pytest.approx(0.5)
        assert sched.lr_at(110) == pytest.approx(0.0)
        assert sched.lr_at(10_000) == pytest.approx(0.0)

    def test_cosine_endpoints(self):
        sched = CosineWarmupLR(1.0, warmup_steps=0, total_steps=100,
                               final_lr=0.1)
        assert sched.lr_at(0) == pytest.approx(1.0)
        assert sched.lr_at(100) == pytest.approx(0.1)
        # midpoint of cosine = average of endpoints
        assert sched.lr_at(50) == pytest.approx(0.55, abs=1e-6)

    def test_cosine_monotone_after_warmup(self):
        sched = CosineWarmupLR(1.0, warmup_steps=5, total_steps=50)
        values = [sched.lr_at(s) for s in range(5, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_factory(self):
        for name, cls in [("constant", ConstantLR),
                          ("linear", LinearWarmupLR),
                          ("cosine", CosineWarmupLR)]:
            assert isinstance(schedule_from_name(name, 0.1, 5, 50), cls)
        with pytest.raises(ValueError):
            schedule_from_name("exponential", 0.1, 5, 50)

    def test_apply_writes_lr(self):
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1.0)
        sched = LinearWarmupLR(1.0, warmup_steps=10, total_steps=20)
        sched.apply(opt, 0)
        assert opt.lr == pytest.approx(0.1)
