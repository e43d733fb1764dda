"""Unit tests for the autograd engine (repro.nn.tensor)."""

import numpy as np
import pytest

from repro.models import distilgpt2
from repro.nn import Tensor, no_grad, ones, zeros
from repro.nn.tensor import DEFAULT_DTYPE, _unbroadcast


def numeric_grad(f, x0, eps=1e-3):
    """Central-difference gradient of scalar-valued f at x0."""
    grad = np.zeros_like(x0, dtype=np.float64)
    for index in np.ndindex(*x0.shape):
        plus = x0.copy()
        plus[index] += eps
        minus = x0.copy()
        minus[index] -= eps
        grad[index] = (float(f(Tensor(plus)).data)
                       - float(f(Tensor(minus)).data)) / (2 * eps)
    return grad


def assert_grad_close(f, x0, atol=2e-2):
    x = Tensor(x0, requires_grad=True)
    f(x).backward()
    assert x.grad is not None
    np.testing.assert_allclose(x.grad, numeric_grad(f, x0), atol=atol)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestConstruction:
    def test_float64_downcast(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == DEFAULT_DTYPE

    def test_int_preserved(self):
        t = Tensor(np.arange(3))
        assert t.dtype.kind == "i"

    def test_shape_properties(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert len(t) == 2

    def test_item_scalar(self):
        assert Tensor(np.float32(2.5)).item() == pytest.approx(2.5)

    def test_zeros_ones_helpers(self):
        assert zeros((2, 2)).data.sum() == 0
        assert ones((2, 2)).data.sum() == 4

    def test_detach_breaks_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad
        assert y._backward is None


class TestArithmetic:
    def test_add(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        assert_grad_close(lambda x: (x + 2.0).sum(), a)

    def test_radd(self):
        x = Tensor([1.0], requires_grad=True)
        y = 3.0 + x
        y.backward(np.array([1.0], dtype=np.float32))
        assert x.grad[0] == pytest.approx(1.0)

    def test_sub_and_rsub(self):
        x = Tensor([2.0], requires_grad=True)
        (5.0 - x).backward(np.array([1.0], dtype=np.float32))
        assert x.grad[0] == pytest.approx(-1.0)

    def test_mul_grad(self, rng):
        a = rng.standard_normal((2, 3)).astype(np.float32)
        b = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        assert_grad_close(lambda x: (x * b).sum(), a)

    def test_div_grad(self, rng):
        a = rng.standard_normal((2, 3)).astype(np.float32) + 3.0
        b = Tensor(rng.standard_normal((2, 3)).astype(np.float32) + 3.0)
        assert_grad_close(lambda x: (x / b).sum(), a)
        assert_grad_close(lambda x: (b / x).sum(), a)

    def test_neg(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        (-x).sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, -1.0])

    def test_pow(self, rng):
        a = np.abs(rng.standard_normal((3,))).astype(np.float32) + 0.5
        assert_grad_close(lambda x: (x ** 3).sum(), a)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_broadcast_add_grad_shape(self):
        x = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
        b = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        (x + b).sum().backward()
        assert x.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, [3.0] * 4)

    def test_broadcast_keepdim_axis(self):
        x = Tensor(np.ones((3, 1), dtype=np.float32), requires_grad=True)
        y = Tensor(np.ones((3, 5), dtype=np.float32))
        (x * y).sum().backward()
        np.testing.assert_allclose(x.grad, [[5.0]] * 3)


class TestMatmul:
    def test_2d_grads(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
        assert_grad_close(lambda x: (x @ b).sum(), a)

    def test_batched_matmul(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(rng.standard_normal((2, 4, 5)).astype(np.float32),
                   requires_grad=True)
        (a @ b).sum().backward()
        assert a.grad.shape == (2, 3, 4)
        assert b.grad.shape == (2, 4, 5)

    def test_broadcast_batched_matmul(self, rng):
        # (2, 3, 4) @ (4, 5): the RHS is broadcast over the batch.
        a = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32))
        b = Tensor(rng.standard_normal((4, 5)).astype(np.float32),
                   requires_grad=True)
        (a @ b).sum().backward()
        assert b.grad.shape == (4, 5)


class TestShapeOps:
    def test_reshape_roundtrip_grad(self, rng):
        a = rng.standard_normal((2, 6)).astype(np.float32)
        assert_grad_close(lambda x: (x.reshape(3, 4) * 2).sum(), a)

    def test_reshape_tuple_arg(self):
        x = Tensor(np.zeros((2, 6), dtype=np.float32))
        assert x.reshape((3, 4)).shape == (3, 4)

    def test_transpose_default_reverses(self):
        x = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
        assert x.transpose().shape == (4, 3, 2)

    def test_transpose_grad(self, rng):
        a = rng.standard_normal((2, 3)).astype(np.float32)
        w = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
        assert_grad_close(lambda x: (x.transpose(1, 0) * w.transpose(1, 0)).sum(), a)

    def test_swapaxes_grad(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3),
                   requires_grad=True)
        x.swapaxes(0, 1).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_getitem_slice_grad(self):
        x = Tensor(np.arange(10, dtype=np.float32), requires_grad=True)
        x[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
        idx = np.array([1, 1, 2])
        x[idx].sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 2.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis_keepdims(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        assert_grad_close(lambda x: (x.sum(axis=1, keepdims=True) ** 2).sum(), a)

    def test_mean_matches_manual(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3),
                   requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1 / 6), rtol=1e-6)

    def test_mean_axis(self):
        x = Tensor(np.ones((2, 4), dtype=np.float32), requires_grad=True)
        x.mean(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 4), 0.25))

    def test_max_grad_unique(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0]], dtype=np.float32),
                   requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0]])

    def test_max_grad_ties_split(self):
        x = Tensor(np.array([[3.0, 3.0]], dtype=np.float32), requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5]])


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "tanh", "sigmoid",
                                    "relu", "gelu"])
    def test_gradient_matches_numeric(self, op, rng):
        a = np.abs(rng.standard_normal((3, 3))).astype(np.float32) + 0.5
        assert_grad_close(lambda x: getattr(x, op)().sum(), a)

    def test_relu_zero_region(self):
        x = Tensor(np.array([-1.0, 2.0], dtype=np.float32), requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0])

    def test_sigmoid_range(self, rng):
        x = Tensor(rng.standard_normal(100).astype(np.float32) * 10)
        out = x.sigmoid().data
        assert out.min() >= 0.0 and out.max() <= 1.0


def _gelu_grid():
    """Float32 inputs past what the property suites draw: signed zeros,
    subnormals, NaN, infinities and |x| >= 7e12, where the cube
    overflows to +-inf, beside a dense realistic range and random
    magnitudes from 1e-6 to 1e13."""
    rng = np.random.default_rng(3)
    edges = [0.0, -0.0, 1e-45, -1e-45, 1e-40, -2.5e-39, 1.1754942e-38,
             np.nan, -np.nan, np.inf, -np.inf, 6.9e12, 7e12, -7e12, 1e20,
             -1e20, 3.4e38, -3.4e38]
    magnitudes = 10.0 ** rng.uniform(-6, 13, 4096)
    signs = rng.choice([-1.0, 1.0], 4096)
    return np.concatenate([np.array(edges), np.linspace(-8, 8, 4001),
                           signs * magnitudes]).astype(np.float32)


def _gelu_reference(x):
    c = np.float32(np.sqrt(2.0 / np.pi))
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * ((x * x) * x))))


class TestGeluBits:
    """Both forward paths evaluate one formula, cube included, bit for
    bit (compared as uint32 so -0.0 and NaN payloads count)."""

    @pytest.fixture(autouse=True)
    def _quiet_overflow(self):
        with np.errstate(over="ignore", invalid="ignore"):
            yield

    def test_tensor_gelu_is_the_reference_formula(self):
        x = _gelu_grid()
        with no_grad():
            got = Tensor(x).gelu().data
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got.view(np.uint32),
                                      _gelu_reference(x).view(np.uint32))

    def test_kernels_gelu_equals_tensor_gelu(self):
        kernels = distilgpt2(vocab_size=8, context_length=8).enable_kernels()
        x = _gelu_grid()
        got = x.copy()
        kernels._gelu(got, np.empty_like(x))
        with no_grad():
            want = Tensor(x).gelu().data
        np.testing.assert_array_equal(got.view(np.uint32),
                                      want.view(np.uint32))


class TestBackward:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 3
        y.backward(np.array([1.0], dtype=np.float32))
        y2 = x * 3
        y2.backward(np.array([1.0], dtype=np.float32))
        assert x.grad[0] == pytest.approx(6.0)

    def test_diamond_graph(self):
        # x feeds two paths that rejoin: grads must sum.
        x = Tensor([2.0], requires_grad=True)
        y = x * 3
        z = y + y * y
        z.backward(np.array([1.0], dtype=np.float32))
        # dz/dx = 3 + 2*(3x)*3 = 3 + 18x = 39 at x=2
        assert x.grad[0] == pytest.approx(39.0)

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.backward(np.array([1.0], dtype=np.float32))
        assert x.grad[0] == pytest.approx(1.0)

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).backward(np.array([1.0], dtype=np.float32))
        x.zero_grad()
        assert x.grad is None


class TestNoGrad:
    def test_no_graph_built(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad
        assert y._backward is None

    def test_restored_after_exception(self):
        from repro.nn import is_grad_enabled
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()

    def test_nested(self):
        from repro.nn import is_grad_enabled
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_thread_local_isolation(self):
        """Regression: concurrent no_grad in server threads must not
        disable autograd for the training thread (the flag is
        thread-local, not process-global)."""
        import threading
        from repro.nn import is_grad_enabled

        barrier = threading.Barrier(5)
        failures = []

        def worker():
            try:
                barrier.wait(timeout=5)
                for _ in range(300):
                    with no_grad():
                        x = Tensor([1.0], requires_grad=True)
                        y = x * 2
                        assert not y.requires_grad
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        barrier.wait(timeout=5)
        # main thread keeps training while workers toggle the flag
        for _ in range(300):
            x = Tensor([1.0], requires_grad=True)
            y = x * 3
            assert y.requires_grad, "autograd disabled by another thread"
        for thread in threads:
            thread.join()
        assert not failures
        assert is_grad_enabled()


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert _unbroadcast(g, (2, 3)) is g

    def test_leading_axes_summed(self):
        g = np.ones((5, 2, 3))
        assert _unbroadcast(g, (2, 3)).shape == (2, 3)
        np.testing.assert_allclose(_unbroadcast(g, (2, 3)), np.full((2, 3), 5.0))

    def test_size_one_axes_summed(self):
        g = np.ones((2, 3))
        np.testing.assert_allclose(_unbroadcast(g, (2, 1)), [[3.0], [3.0]])

    def test_scalar_target(self):
        g = np.ones((4, 4))
        assert _unbroadcast(g, ()) == pytest.approx(16.0)
