"""Additional nn coverage: mixed-op graphs, dtype behavior, edge shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (Adam, Tensor, clip_grad_norm, no_grad, Parameter)
from repro.nn import functional as F


class TestMixedGraphs:
    def test_shared_subexpression_gradient(self):
        """A value used by several ops accumulates all contributions."""
        x = Tensor([2.0], requires_grad=True)
        shared = x * 3.0
        out = shared.exp() + shared * shared + shared
        out.backward(np.array([1.0], dtype=np.float32))
        # d/dx [e^(3x) + 9x^2 + 3x] = 3e^(3x) + 18x + 3 at x=2
        expected = 3 * np.exp(6.0) + 36 + 3
        assert x.grad[0] == pytest.approx(expected, rel=1e-4)

    def test_gradient_through_reductions_and_reshape(self):
        x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4),
                   requires_grad=True)
        out = (x.reshape(4, 3).sum(axis=0) ** 2).mean()
        out.backward()
        assert x.grad.shape == (3, 4)
        assert np.isfinite(x.grad).all()

    def test_concat_of_computed_values(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        parts = [a * 2, a.tanh(), a + 1]
        out = F.concat(parts, axis=1).sum()
        out.backward()
        expected = 2.0 + (1 - np.tanh(1.0) ** 2) + 1.0
        np.testing.assert_allclose(a.grad, np.full((2, 2), expected),
                                   rtol=1e-5)

    def test_no_grad_inside_graph_building(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2
        with no_grad():
            frozen = y * 10  # not recorded
        z = y + frozen.detach()
        z.backward(np.array([1.0], dtype=np.float32))
        assert x.grad[0] == pytest.approx(2.0)


class TestDtypeAndShape:
    def test_scalar_tensor_ops(self):
        x = Tensor(np.float32(3.0), requires_grad=True)
        (x * x).backward()
        assert x.grad == pytest.approx(6.0)

    def test_empty_axis_sum(self):
        x = Tensor(np.ones((0, 4), dtype=np.float32), requires_grad=True)
        out = x.sum()
        assert out.item() == 0.0

    def test_float32_preserved_through_ops(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        for op in (lambda t: t + 1, lambda t: t.exp(), lambda t: t * 2.5):
            assert op(x).dtype == np.float32

    def test_grad_dtype_matches_data(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (x * 2).sum().backward()
        assert x.grad.dtype == np.float32


class TestOptimizerEdges:
    def test_adam_state_tracks_parameters(self):
        p = Parameter(np.zeros(4))
        opt = Adam([p], lr=0.1)
        p.grad = np.ones(4, dtype=np.float32)
        opt.step()
        opt.step()
        assert opt.step_count == 2

    def test_lr_mutation_respected(self):
        """Schedules mutate optimizer.lr between steps; under a constant
        gradient each Adam step moves a parameter by about ``lr``."""
        p = Parameter(np.zeros(1))
        opt = Adam([p], lr=1.0)
        p.grad = np.ones(1, dtype=np.float32)
        opt.step()
        first = p.data.copy()
        opt.lr = 0.1
        p.grad = np.ones(1, dtype=np.float32)
        opt.step()
        second_delta = p.data - first
        assert second_delta[0] == pytest.approx(-0.1)

    def test_clip_handles_zero_gradients(self):
        p = Parameter(np.zeros(4))
        p.grad = np.zeros(4, dtype=np.float32)
        assert clip_grad_norm([p], 1.0) == 0.0


@given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_softmax_shapes_property(batch, rows, cols):
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((batch, rows, cols)).astype(np.float32))
    out = F.softmax(x, axis=-1)
    assert out.shape == (batch, rows, cols)
    np.testing.assert_allclose(out.data.sum(axis=-1),
                               np.ones((batch, rows)), rtol=1e-4)


@given(st.integers(2, 50))
@settings(max_examples=25, deadline=None)
def test_cross_entropy_uniform_property(vocab):
    logits = Tensor(np.zeros((3, vocab), dtype=np.float32))
    loss = F.cross_entropy(logits, np.zeros(3, dtype=np.int64))
    assert loss.item() == pytest.approx(np.log(vocab), rel=1e-4)
