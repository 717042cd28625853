import numpy as np
import pytest

from opstab import autodiff as ad
from opstab import deeponet as dn

from conftest import rel_err, trunk_jet


def make_mlp(widths, seed):
    """Plain tanh MLP weights for engine tests (no operator structure)."""
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        layers.append((rng.normal(0, 0.5, size=(fan_out, fan_in)),
                       rng.normal(0, 0.5, size=(fan_out, 1))))
    return layers


def mlp_scalar(layers, x):
    """Scalar output: sum of final layer activations."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = ad.add(ad.matmul(w, h), b)
        if i < len(layers) - 1:
            h = ad.tanh(h)
    return ad.total(h)


class TestGrad:
    def test_square_rule(self):
        tape = ad.Tape()
        x = tape.leaf(3.0)
        y = ad.mul(x, x)
        assert ad.grad(y, [x])[x] == pytest.approx(6.0, abs=0)

    def test_tanh_at_zero(self):
        tape = ad.Tape()
        x = tape.leaf(0.0)
        y = ad.tanh(x)
        assert ad.grad(y, [x])[x] == pytest.approx(1.0, abs=0)

    def test_two_layer_mlp_matches_finite_differences(self):
        layers = make_mlp((4, 8, 1), seed=0)
        x0 = np.random.default_rng(1).standard_normal((4, 1))
        tape = ad.Tape()
        x = tape.leaf(x0)
        g = ad.grad(mlp_scalar(layers, x), [x])[x]
        h = 1e-5
        for j in range(4):
            xp, xm = x0.copy(), x0.copy()
            xp[j, 0] += h
            xm[j, 0] -= h
            fd = (float(mlp_scalar(layers, xp))
                  - float(mlp_scalar(layers, xm))) / (2 * h)
            assert abs(g[j, 0] - fd) / max(abs(fd), 1e-12) < 1e-6

    def test_weight_gradients_match_finite_differences(self):
        layers = make_mlp((3, 5, 1), seed=2)
        x0 = np.random.default_rng(3).standard_normal((3, 1))
        tape = ad.Tape()
        w0 = tape.leaf(layers[0][0])
        lifted = [(w0, layers[0][1]), layers[1]]
        g = ad.grad(mlp_scalar(lifted, x0), [w0])[w0]
        h = 1e-5
        rng = np.random.default_rng(4)
        for _ in range(5):
            i, j = rng.integers(0, 5), rng.integers(0, 3)
            wp = [(layers[0][0].copy(), layers[0][1]), layers[1]]
            wm = [(layers[0][0].copy(), layers[0][1]), layers[1]]
            wp[0][0][i, j] += h
            wm[0][0][i, j] -= h
            fd = (float(mlp_scalar(wp, x0)) - float(mlp_scalar(wm, x0))) / (2 * h)
            assert abs(g[i, j] - fd) / max(abs(fd), 1e-10) < 1e-5

    def test_gradient_reusable_tape(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        y = ad.total(ad.square(x))
        g1 = ad.grad(y, [x])[x]
        g2 = ad.grad(y, [x])[x]
        assert np.array_equal(g1, g2)
        assert np.array_equal(g1, [2.0, 4.0])

    def test_independent_leaf_gets_zero_gradient(self):
        tape = ad.Tape()
        x = tape.leaf(2.0)
        z = tape.leaf(5.0)
        y = ad.square(x)
        assert ad.grad(y, [z])[z] == 0.0

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "matmul"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_constant_operand_gives_leaf_operand_gradient(self, op, side):
        # grad skips the rule of an operand that needs no gradient; the
        # other operand's gradient must not change by a bit
        rng = np.random.default_rng(11)
        shapes = [(3, 4), (4, 5)] if op == "matmul" else [(3, 4), (1, 4)]
        values = [rng.uniform(0.5, 1.5, size=s) for s in shapes]
        fn = getattr(ad, op)

        def gradient(other_is_leaf):
            tape = ad.Tape()
            wrt = tape.leaf(values[side])
            other = (tape.leaf(values[1 - side]) if other_is_leaf
                     else values[1 - side])
            args = (wrt, other) if side == 0 else (other, wrt)
            return ad.grad(ad.total(ad.tanh(fn(*args))), [wrt])[wrt]

        assert np.array_equal(gradient(False), gradient(True))

    def test_nonscalar_output_rejected(self):
        tape = ad.Tape()
        x = tape.leaf([1.0, 2.0])
        with pytest.raises(ad.NonScalarOutputError):
            ad.grad(ad.square(x), [x])

    def test_foreign_leaf_rejected(self):
        tape_a, tape_b = ad.Tape(), ad.Tape()
        x = tape_a.leaf(1.0)
        z = tape_b.leaf(1.0)
        with pytest.raises(ad.MissingLeafError):
            ad.grad(ad.square(x), [z])

    def test_non_leaf_node_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(1.0)
        y = ad.square(x)
        with pytest.raises(ad.MissingLeafError):
            ad.grad(ad.square(y), [y])


PRIMITIVE_CASES = [
    ("add", lambda x: ad.add(x, 1.7), lambda v: v + 1.7),
    ("sub", lambda x: ad.sub(2.5, x), lambda v: 2.5 - v),
    ("mul", lambda x: ad.mul(x, x), lambda v: v * v),
    ("tanh", ad.tanh, np.tanh),
    ("square", ad.square, np.square),
]


class TestPrimitives:
    @pytest.mark.parametrize("name,op,ref", PRIMITIVE_CASES)
    def test_gradients_match_finite_differences_100_seeds(self, name, op, ref):
        h = 1e-5
        for seed in range(100):
            v = float(np.random.default_rng(seed).uniform(0.1, 1.5))
            tape = ad.Tape()
            x = tape.leaf(v)
            y = ad.total(op(x))
            g = float(ad.grad(y, [x])[x])
            fd = (float(ref(v + h)) - float(ref(v - h))) / (2 * h)
            assert abs(g - fd) <= 1e-5 * max(abs(fd), 1.0)

    def test_matmul_grad(self):
        a0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        b0 = np.array([[0.5], [-1.0]])
        tape = ad.Tape()
        a = tape.leaf(a0)
        b = tape.leaf(b0)
        y = ad.total(ad.matmul(a, b))
        grads = ad.grad(y, [a, b])
        assert np.allclose(grads[a], np.tile(b0.T, (2, 1)))
        assert np.allclose(grads[b], [[4.0], [6.0]])

    def test_mean_gradient(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3))
        g = ad.grad(ad.mean(x), [x])[x]
        assert np.array_equal(g, np.full((2, 3), 1 / 6))

    def test_broadcast_add_unbroadcasts(self):
        tape = ad.Tape()
        b = tape.leaf(np.zeros((3, 1)))
        x = np.ones((3, 4))
        y = ad.total(ad.add(x, b))
        assert np.array_equal(ad.grad(y, [b])[b], np.full((3, 1), 4.0))


class TestSecondDerivative:
    """Second coordinate derivatives of a tanh MLP by the Laplacian of
    conftest.trunk_jet over one axis, whose closed-form rules are
    composed from these primitives."""

    def test_axis_out_of_range(self):
        layers = make_mlp((1, 4, 1), seed=0)
        with pytest.raises(dn.ArchError):
            trunk_jet(layers, np.array([[0.5]]), laplacian=(2,))

    def test_mlp_against_central_difference(self):
        layers = make_mlp((1, 16, 16, 1), seed=7)

        def u(y):
            return float(trunk_jet(layers, np.array([[y]])).u[0, 0])

        y0, h = 0.37, 1e-4
        fd = (u(y0 + h) - 2 * u(y0) + u(y0 - h)) / h ** 2
        exact = float(trunk_jet(layers, np.array([[y0]]),
                                laplacian=(0,)).lap[0, 0])
        assert abs(exact - fd) / max(abs(fd), 1e-10) < 1e-4

    def test_second_axis_of_two(self):
        # u(x, t) = w2 . tanh(W1 (x, t) + b1) + b2:
        # d2u/dt2 = w2 . (-2 h (1 - h^2) W1[:, 1]^2) with h = tanh(...)
        layers = make_mlp((2, 6, 1), seed=3)
        (w1, b1), (w2, _) = layers
        point = np.array([[0.5], [2.0]])
        h = np.tanh(w1 @ point + b1)
        want = (w2 @ (-2 * h * (1 - h * h) * w1[:, 1:2] ** 2)).item()
        got = float(trunk_jet(layers, point, laplacian=(1,)).lap[0, 0])
        assert got == pytest.approx(want, rel=1e-12)


class TestJvpVjp:
    def test_dimension_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(ad.ShapeMismatchError):
            ad.matmul(tape.leaf(np.eye(2)), np.ones(3))
        with pytest.raises(ad.ShapeMismatchError):
            ad.add(tape.leaf(np.ones(2)), np.ones(3))

    @pytest.mark.parametrize("seed", range(20))
    def test_bilinear_identity_random_mlp(self, seed):
        # w . (J v) from the closed-form forward product equals
        # (J^T w) . v from a reverse sweep, J the Jacobian of
        # f -> u(y) of a DeepONet with random tanh MLPs
        arch = dn.ArchSpec((5, 9, 4), (1, 9, 4))
        params = dn.glorot_init(arch, seed)
        rng = np.random.default_rng(1000 + seed)
        grid = dn.GridModel(params, rng.uniform(0, 1, 3))
        x0 = rng.standard_normal((1, 5))
        v = rng.standard_normal((1, 5))
        w = rng.standard_normal((1, 3))

        tape = ad.Tape()
        x = tape.leaf(x0)
        back = ad.grad(ad.total(ad.mul(grid(x), w)), [x])[x]
        lhs = float(np.sum(w * grid.jvp(x0, v)))
        rhs = float(np.sum(back * v))
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


class TestTape:
    def test_mixed_tapes_rejected(self):
        ta, tb = ad.Tape(), ad.Tape()
        with pytest.raises(ad.AutodiffError):
            ad.add(ta.leaf(1.0), tb.leaf(2.0))
