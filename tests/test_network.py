import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opstab import autodiff as ad
from opstab import deeponet as dn

from conftest import rel_err, unfolded_jet


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
        # doubling the branch's last (linear) layer doubles the branch
        # features, and the folded merge is linear in them
        params = dn.glorot_init(small_arch(), 4)
        params.output_bias = np.array(0.25)
        w, b = params.branch_layers[-1]
        doubled = dn.DeepONetParams(
            params.arch, params.branch_layers[:-1] + [(2.0 * w, 2.0 * b)],
            params.trunk_layers, params.output_bias)
        f = np.random.default_rng(1).standard_normal(12)
        coords = np.linspace(0, 1, 6)
        u1 = dn.forward(params, f, coords)
        u2 = dn.forward(doubled, f, coords)
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
    def test_folded_paths_agree_bit_for_bit(self, transform, coords):
        arch = small_arch(transform, coord_dim=1 if coords.ndim == 1 else 2)
        params = dn.glorot_init(arch, 3)
        params.output_bias = np.array(0.3)
        rows = np.random.default_rng(1).standard_normal((4, 12))
        grid = dn.GridModel(params, coords)
        want = grid(rows)
        assert np.array_equal(dn.forward(params, rows, coords), want)
        assert np.array_equal(dn.forward(grid, rows, coords), want)
        unfolded = unfolded_jet(params, rows, dn._as_coord_cols(coords)).u
        assert rel_err(want, unfolded) <= 1e-12

        tape = ad.Tape()
        f_var = tape.leaf(rows)
        grad = ad.grad(ad.total(ad.square(grid(f_var))), [f_var])[f_var]
        # the closed-form vjp takes the reverse sweep's steps in its order
        assert np.array_equal(grid.vjp(rows, 2.0 * want), grad)

    @pytest.mark.parametrize("transform,coords", GRID_CASES)
    def test_jvp_matches_central_differences(self, transform, coords):
        arch = small_arch(transform, coord_dim=1 if coords.ndim == 1 else 2)
        params = dn.glorot_init(arch, 3)
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((2, 12))
        direction = rng.standard_normal((2, 12))
        grid = dn.GridModel(params, coords)
        h = 1e-6
        fd = (grid(rows + h * direction) - grid(rows - h * direction)) / (2 * h)
        assert np.linalg.norm(grid.jvp(rows, direction) - fd) \
            <= 1e-8 * np.linalg.norm(fd)

    def test_reused_only_on_its_own_coordinates(self):
        params = dn.glorot_init(small_arch(), 4)
        coords = np.linspace(0, 1, 7)
        grid = dn.on_grid(params, coords)
        assert dn.on_grid(grid, coords.copy()) is grid
        with pytest.raises(dn.ArchError):
            dn.on_grid(grid, np.linspace(0, 1, 8))
        with pytest.raises(dn.ArchError):
            dn.forward(grid, np.ones(12), coords[::-1])


JET_CASES = [("none", 1), ("none", 2), ("dirichlet_1d", 1),
             ("dirichlet_1d", 2), ("dirichlet_2d_space", 2),
             ("zero_ic_dirichlet_bc", 2)]


# the axes each transform's mask varies along
MASKED_AXES = {"none": set(), "dirichlet_1d": {0},
               "dirichlet_2d_space": {0, 1}, "zero_ic_dirichlet_bc": {0, 1}}


class TestJet:
    """GridModel.jet against central differences of dn.forward."""

    @pytest.mark.parametrize("transform,dim", JET_CASES)
    def test_matches_central_differences(self, transform, dim):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((3, 12))
        points = rng.uniform(0.1, 0.9, (20, dim))
        axes = tuple(range(dim))
        eye = np.eye(dim)
        for depth in (1, 2, 3):
            arch = dn.ArchSpec((12, 16, 16), (dim,) + (16,) * depth,
                               transform=transform)
            params = dn.glorot_init(arch, 5)
            for _, a in dn.param_items(params):  # nonzero biases too
                a += 0.1 * rng.standard_normal(a.shape)

            def u(shift):
                return dn.forward(params, rows, points + shift)

            # the Laplacian over every axis, and over each single one
            for lap_axes in dict.fromkeys((axes, (0,), (dim - 1,))):
                jet = dn.GridModel(params, points, first=axes,
                                   laplacian=lap_axes).jet(
                    dn.fold(params, rows))
                assert np.array_equal(jet.u, u(0.0))
                for a in axes:
                    d1 = (u(1e-5 * eye[a]) - u(-1e-5 * eye[a])) / 2e-5
                    assert np.linalg.norm(jet.first[a] - d1) \
                        <= 1e-6 * np.linalg.norm(d1)
                if depth == 1 and not set(lap_axes) & MASKED_AXES[transform]:
                    # linear along these axes: the differences see rounding
                    assert not np.any(jet.lap)
                    continue
                lap = sum((u(2e-4 * eye[a]) - 2 * u(0.0) + u(-2e-4 * eye[a]))
                          / 4e-8 for a in lap_axes)
                assert np.linalg.norm(jet.lap - lap) \
                    <= 1e-6 * np.linalg.norm(lap)

    def test_single_layer_trunk_is_linear_in_coordinates(self):
        params = dn.glorot_init(dn.ArchSpec((12, 16), (1, 16)), 5)
        rows = np.ones((2, 12))
        jet = dn.GridModel(params, np.linspace(0, 1, 5), first=(0,),
                           laplacian=(0,)).jet(dn.fold(params, rows))
        w = params.trunk_layers[0][0]
        # the single layer folds onto the raw coordinates
        assert np.array_equal(jet.first[0], dn.branch_apply(params, rows) @ w)
        assert np.array_equal(jet.lap, np.zeros((2, 1)))

    def test_only_requested_axes_without_mask(self):
        params = dn.glorot_init(small_arch(coord_dim=2), 5)
        grid = dn.GridModel(params, np.full((4, 2), 0.5), first=(1,),
                            laplacian=(0,))
        jet = grid.jet(dn.fold(params, np.ones((1, 12))))
        assert set(jet.first) == {1} and jet.lap.shape == (1, 4)

    def test_only_requested_first_axes_with_mask(self):
        # the mask's product rule reads the hidden first streams along
        # the Laplacian's axes, but the output carries only those asked for
        params = dn.glorot_init(small_arch("zero_ic_dirichlet_bc",
                                           coord_dim=2), 5)
        grid = dn.GridModel(params, np.full((4, 2), 0.5), first=(1,),
                            laplacian=(0,))
        jet = grid.jet(dn.fold(params, np.ones((1, 12))))
        assert set(grid.hidden.first) == {0, 1}
        assert set(jet.first) == {1} and jet.lap.shape == (1, 4)
        assert dn.GridModel(params, np.full((4, 2), 0.5)).jet(
            dn.fold(params, np.ones((1, 12)))).lap is None


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


def grad_f(params, f, coords):
    """Gradient of the sum of the outputs on coords w.r.t. the sensors."""
    grid = dn.GridModel(params, coords)
    return grid.vjp(np.asarray(f)[None, :], np.ones((1, len(coords))))[0]


class TestGradF:
    def test_matches_finite_differences(self):
        params = dn.glorot_init(small_arch(), 8)
        f = np.random.default_rng(2).standard_normal(12)
        coords = np.array([0.25, 0.75])
        g = grad_f(params, f, coords)
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
        g = grad_f(params, np.ones(12), np.array([0.5]))
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
        g = grad_f(params, np.ones(3), np.array([0.4]))
        assert np.allclose(g, w[:, 0], rtol=0, atol=0)


@st.composite
def small_networks(draw, trunk_depths=(1, 2, 3)):
    """A random small network with nonzero biases and random coordinates
    for it, with its own rng."""
    transform = draw(st.sampled_from(dn.TRANSFORMS))
    dim = 1 if transform == "dirichlet_1d" else (
        2 if transform != "none" else draw(st.sampled_from((1, 2))))
    m = draw(st.integers(1, 6))
    p = draw(st.integers(1, 5))
    branch = [m] + draw(st.lists(st.integers(1, 5), max_size=2)) + [p]
    depth = draw(st.sampled_from(trunk_depths))
    trunk = [dim] + draw(st.lists(st.integers(1, 5), min_size=depth - 1,
                                  max_size=depth - 1)) + [p]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    params = dn.glorot_init(dn.ArchSpec(branch, trunk, transform=transform),
                            int(rng.integers(2 ** 31)))
    # nonzero biases, so every bias enters the products
    params = dn.with_param_values(params, [
        a + 0.1 * rng.standard_normal(a.shape)
        for _, a in dn.param_items(params)])
    npts = draw(st.integers(1, 6))
    coords = rng.uniform(0, 1, npts if dim == 1 else (npts, dim))
    return params, coords, rng


def grid_models():
    """A random small network on a random grid, with its own rng."""
    return small_networks().map(
        lambda case: (dn.GridModel(case[0], case[1]), case[2]))


def unfolded_jacobian(params, rows, cols):
    """d u[r, j] / d rows[r] of the unfolded formula, (batch, npts, m),
    by one reverse sweep per point (the rows are decoupled)."""
    columns = []
    for e in np.eye(cols.shape[1]):
        tape = ad.Tape()
        f_var = tape.leaf(rows)
        u = unfolded_jet(params, f_var, cols).u
        columns.append(ad.grad(ad.total(ad.mul(u, e)), [f_var])[f_var])
    return np.stack(columns, axis=1)


class TestFoldProperties:
    """The folded merge against the unfolded u = b (W_L h + b_L) + b0."""

    @settings(max_examples=40, deadline=None)
    @given(small_networks(trunk_depths=(1, 3)), st.integers(1, 3))
    def test_matches_unfolded_formula(self, case, batch):
        params, coords, rng = case
        arch = params.arch
        axes = tuple(range(arch.coord_dim))
        rows = rng.standard_normal((batch, arch.sensor_count))
        grid = dn.GridModel(params, coords, first=axes, laplacian=axes)
        cols = grid.cols
        got = grid.jet(dn.fold(params, rows))
        want = unfolded_jet(params, rows, cols, axes, axes)
        assert rel_err(got.u, want.u) <= 1e-12
        for a in axes:
            assert rel_err(got.first[a], want.first[a]) <= 1e-12
        assert rel_err(got.lap, want.lap) <= 1e-12
        assert rel_err(grid(rows), want.u) <= 1e-12

        jac = unfolded_jacobian(params, rows, cols)
        v = rng.standard_normal(rows.shape)
        w = rng.standard_normal((batch, cols.shape[1]))
        assert rel_err(grid.jvp(rows, v),
                       np.einsum("bjm,bm->bj", jac, v)) <= 1e-12
        assert rel_err(grid.vjp(rows, w),
                       np.einsum("bjm,bj->bm", jac, w)) <= 1e-12


class TestJvpVjpProperties:
    @settings(max_examples=25, deadline=None)
    @given(grid_models(), st.integers(1, 3))
    def test_adjoint_identity(self, case, batch):
        # w . (J v) == (J^T w) . v for every row of the batch
        grid, rng = case
        m = grid.params.arch.sensor_count
        rows = rng.standard_normal((batch, m))
        v = rng.standard_normal((batch, m))
        w = rng.standard_normal((batch, grid.cols.shape[1]))
        jv, jtw = grid.jvp(rows, v), grid.vjp(rows, w)
        lhs, rhs = np.sum(w * jv, axis=1), np.sum(jtw * v, axis=1)
        scale = (np.linalg.norm(w, axis=1) * np.linalg.norm(jv, axis=1)
                 + np.linalg.norm(jtw, axis=1) * np.linalg.norm(v, axis=1))
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * (1.0 + scale))

    @settings(max_examples=25, deadline=None)
    @given(grid_models())
    def test_vjp_matches_central_differences(self, case):
        grid, rng = case
        m = grid.params.arch.sensor_count
        f = rng.standard_normal((1, m))
        w = rng.standard_normal((1, grid.cols.shape[1]))
        h = 1e-6
        fd = np.array([
            (np.sum(w * grid(f + h * e)) - np.sum(w * grid(f - h * e)))
            / (2 * h) for e in np.eye(m)[:, None, :]])
        g = grid.vjp(f, w)[0]
        assert np.linalg.norm(g - fd) <= 1e-6 * (1.0 + np.linalg.norm(fd))


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

    def test_wrong_block_shape_named(self, tmp_path):
        params = dn.glorot_init(small_arch(), 1)
        path = os.path.join(tmp_path, "model.npz")
        dn.save_checkpoint(path, params, seed=1, step=0)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["branch_0_w"] = arrays["branch_0_w"][:-1]  # 11 sensors, not 12
        np.savez(path, **arrays)
        with pytest.raises(dn.ArchError, match=r"branch\.0\.w"):
            dn.load_checkpoint(path)

    def test_bad_format_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bogus.npz")
        np.savez(path, meta=np.frombuffer(b'{"format": "nope"}',
                                          dtype=np.uint8))
        with pytest.raises(ValueError):
            dn.load_checkpoint(path)
