import os

import numpy as np
import pytest

from opstab import autodiff as ad
from opstab import deeponet as dn


def small_arch(transform="none", coord_dim=1):
    return dn.ArchSpec((12, 16, 16), (coord_dim, 16, 16), transform=transform)


class TestInit:
    def test_glorot_variance_first_layer(self):
        arch = dn.ArchSpec((100, 128, 128, 128), (1, 128, 128, 128))
        params = dn.glorot_init(arch, 0)
        w1 = params.branch_layers[0][0]
        assert w1.shape == (100, 128)
        target = 2.0 / 228.0
        assert abs(w1.var() - target) / target < 0.15

    def test_deterministic_per_seed(self):
        arch = small_arch()
        a = dn.glorot_init(arch, 5)
        b = dn.glorot_init(arch, 5)
        for (_, x), (_, y) in zip(dn.param_items(a), dn.param_items(b)):
            assert np.array_equal(x, y)
        c = dn.glorot_init(arch, 6)
        assert not np.array_equal(a.branch_layers[0][0],
                                  c.branch_layers[0][0])

    def test_biases_and_output_bias_zero(self):
        params = dn.glorot_init(small_arch(), 3)
        for _, b in params.branch_layers + params.trunk_layers:
            assert np.count_nonzero(b) == 0
        assert float(params.output_bias) == 0.0

    def test_invalid_widths_rejected(self):
        with pytest.raises(dn.ArchError):
            dn.ArchSpec((0, 4), (1, 4))
        with pytest.raises(dn.ArchError):
            dn.ArchSpec((3, 4), (1, 5))  # latent mismatch
        with pytest.raises(dn.ArchError):
            dn.ArchSpec((3, 4), (1, 4), transform="bogus")


class TestForward:
    def test_zero_params_give_output_bias(self):
        params = dn.glorot_init(small_arch(), 0)
        zeroed = dn.with_param_values(
            params, [np.zeros_like(a) for _, a in dn.param_items(params)])
        out = dn.forward(zeroed, np.ones(12), np.linspace(0, 1, 9))
        assert np.array_equal(out, np.zeros(9))

    def test_matches_hand_rolled_matrix_arithmetic(self):
        arch = dn.ArchSpec((50, 32, 32, 32), (1, 32, 32, 32))
        params = dn.glorot_init(arch, 0)
        f = np.ones(50)
        y = np.array([0.5])
        got = dn.forward(params, f, y)

        h = f[None, :]
        for i, (w, b) in enumerate(params.branch_layers):
            h = h @ w + b
            if i < len(params.branch_layers) - 1:
                h = np.tanh(h)
        t = y[None, :]
        for i, (w, b) in enumerate(params.trunk_layers):
            t = w @ t + b
            if i < len(params.trunk_layers) - 1:
                t = np.tanh(t)
        want = (h @ t + float(params.output_bias))[0]
        assert np.abs(got - want).max() < 1e-12

    def test_batched_forward_matches_loop(self):
        params = dn.glorot_init(small_arch(), 2)
        rows = np.random.default_rng(0).standard_normal((4, 12))
        coords = np.linspace(0, 1, 7)
        batched = dn.forward(params, rows, coords)
        # BLAS may pick different kernels per shape; agreement is to rounding
        for i in range(4):
            assert np.allclose(batched[i], dn.forward(params, rows[i], coords),
                               rtol=1e-13, atol=1e-15)

    def test_shape_validation(self):
        params = dn.glorot_init(small_arch(), 2)
        with pytest.raises(dn.ArchError):
            dn.forward(params, np.ones(13), np.linspace(0, 1, 5))
        with pytest.raises(dn.ArchError):
            dn.forward(params, np.ones(12), np.zeros((5, 2)))

    def test_branch_linearity_of_raw_merge(self):
        params = dn.glorot_init(small_arch(), 4)
        cols = np.linspace(0, 1, 6)[None, :]
        branch = dn.branch_apply(params, np.random.default_rng(1)
                                 .standard_normal((1, 12)))
        trunk = dn.trunk_apply(params, cols)
        u1 = dn.merge(params, branch, trunk, cols)
        u2 = dn.merge(params, 2.0 * branch, trunk, cols)
        bias = float(params.output_bias)
        assert np.allclose(u2 - bias, 2.0 * (u1 - bias), rtol=0, atol=1e-15)

    def test_determinism_of_forward(self):
        params = dn.glorot_init(small_arch(), 9)
        f = np.random.default_rng(3).standard_normal(12)
        coords = np.linspace(0, 1, 11)
        assert np.array_equal(dn.forward(params, f, coords),
                              dn.forward(params, f, coords))


GRID_CASES = [("none", np.linspace(0, 1, 9)),
              ("dirichlet_1d", np.linspace(0, 1, 9)),
              ("dirichlet_2d_space", np.random.default_rng(5).uniform(0, 1, (40, 2))),
              ("zero_ic_dirichlet_bc", np.random.default_rng(6).uniform(0, 1, (40, 2)))]


class TestGridModel:
    @pytest.mark.parametrize("transform,coords", GRID_CASES)
    def test_equals_apply_net_bit_for_bit(self, transform, coords):
        arch = small_arch(transform, coord_dim=1 if coords.ndim == 1 else 2)
        params = dn.glorot_init(arch, 3)
        params.output_bias = np.array(0.3)
        rows = np.random.default_rng(1).standard_normal((4, 12))
        cols = dn._as_coord_cols(coords)
        want = dn.apply_net(params, rows, cols)
        grid = dn.GridModel(params, coords)
        assert np.array_equal(grid(rows), want)
        assert np.array_equal(dn.forward(params, rows, coords), want)
        assert np.array_equal(dn.forward(grid, rows, coords), want)

        direction = np.random.default_rng(2).standard_normal((4, 12))
        jvp_grid = ad.tangent_of(grid(ad.Dual(rows, direction)))
        jvp_net = ad.tangent_of(dn.apply_net(params, ad.Dual(rows, direction), cols))
        assert np.array_equal(jvp_grid, jvp_net)

        grads = []
        for fn in (grid, lambda f: dn.apply_net(params, f, cols)):
            tape = ad.Tape()
            f_var = tape.leaf(rows)
            grads.append(ad.grad(ad.total(ad.square(fn(f_var))), [f_var])[f_var])
        assert np.array_equal(grads[0], grads[1])

    def test_reused_only_on_its_own_coordinates(self):
        params = dn.glorot_init(small_arch(), 4)
        coords = np.linspace(0, 1, 7)
        grid = dn.on_grid(params, coords)
        assert dn.on_grid(grid, coords.copy()) is grid
        with pytest.raises(dn.ArchError):
            dn.on_grid(grid, np.linspace(0, 1, 8))
        with pytest.raises(dn.ArchError):
            dn.forward(grid, np.ones(12), coords[::-1])


class TestTransforms:
    def test_dirichlet_1d_zero_at_ends(self):
        params = dn.glorot_init(small_arch("dirichlet_1d"), 1)
        f = np.random.default_rng(0).standard_normal(12)
        out = dn.forward(params, f, np.array([0.0, 1.0]))
        assert np.array_equal(out, np.zeros(2))

    def test_dirichlet_2d_zero_on_square_boundary(self):
        params = dn.glorot_init(small_arch("dirichlet_2d_space", coord_dim=2), 1)
        f = np.random.default_rng(0).standard_normal(12)
        rng = np.random.default_rng(42)
        edge = rng.uniform(0, 1, 1000)
        side = rng.integers(0, 4, 1000)
        pts = np.empty((1000, 2))
        pts[:, 0] = np.where(side == 0, 0.0,
                             np.where(side == 1, 1.0, edge))
        pts[:, 1] = np.where(side == 2, 0.0,
                             np.where(side == 3, 1.0, edge))
        out = dn.forward(params, f, pts)
        assert np.abs(out).max() == 0.0

    def test_zero_ic_dirichlet_bc_mask(self):
        params = dn.glorot_init(small_arch("zero_ic_dirichlet_bc",
                                           coord_dim=2), 1)
        f = np.random.default_rng(0).standard_normal(12)
        rng = np.random.default_rng(7)
        t = rng.uniform(0, 1, 1000)
        x_edge = rng.integers(0, 2, 1000).astype(float)
        boundary = np.column_stack([x_edge, t])
        initial = np.column_stack([rng.uniform(0, 1, 1000), np.zeros(1000)])
        assert np.abs(dn.forward(params, f, boundary)).max() == 0.0
        assert np.abs(dn.forward(params, f, initial)).max() == 0.0


class TestGradF:
    def test_matches_finite_differences(self):
        params = dn.glorot_init(small_arch(), 8)
        f = np.random.default_rng(2).standard_normal(12)
        coords = np.array([0.25, 0.75])
        g = dn.forward_grad_f(params, f, coords)
        h = 1e-5
        for j in range(12):
            fp, fm = f.copy(), f.copy()
            fp[j] += h
            fm[j] -= h
            fd = (dn.forward(params, fp, coords).sum()
                  - dn.forward(params, fm, coords).sum()) / (2 * h)
            assert abs(g[j] - fd) / max(abs(fd), 1e-10) < 1e-5

    def test_zero_trunk_output_gives_zero_gradient(self):
        params = dn.glorot_init(small_arch(), 0)
        zeroed_trunk = [(np.zeros_like(w), np.zeros_like(b))
                        for w, b in params.trunk_layers]
        params = dn.DeepONetParams(params.arch, params.branch_layers,
                                   zeroed_trunk, params.output_bias)
        g = dn.forward_grad_f(params, np.ones(12), np.array([0.5]))
        assert np.array_equal(g, np.zeros(12))

    def test_identity_like_single_latent(self):
        # branch = f @ w (one latent), trunk output frozen at 1:
        # functional u(y0) has gradient exactly w.
        arch = dn.ArchSpec((3, 1), (1, 1))
        params = dn.glorot_init(arch, 0)
        w = np.array([[0.3], [-0.7], [1.1]])
        trunk_w = np.array([[0.0]])
        trunk_b = np.array([[1.0]])
        params = dn.DeepONetParams(arch, [(w, np.zeros((1, 1)))],
                                   [(trunk_w, trunk_b)], np.zeros(()))
        g = dn.forward_grad_f(params, np.ones(3), np.array([0.4]))
        assert np.allclose(g, w[:, 0], rtol=0, atol=0)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params = dn.glorot_init(small_arch("dirichlet_1d"), 11)
        path = os.path.join(tmp_path, "model.npz")
        dn.save_checkpoint(path, params, seed=11, step=1234)
        loaded, seed, step = dn.load_checkpoint(path)
        assert seed == 11 and step == 1234
        assert loaded.arch == params.arch
        for (na, a), (nb, b) in zip(dn.param_items(params),
                                    dn.param_items(loaded)):
            assert na == nb
            assert np.array_equal(a, b)

    def test_bad_format_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bogus.npz")
        np.savez(path, meta=np.frombuffer(b'{"format": "nope"}',
                                          dtype=np.uint8))
        with pytest.raises(ValueError):
            dn.load_checkpoint(path)
