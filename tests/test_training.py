from dataclasses import replace

import numpy as np
import pytest

from opstab import deeponet as dn
from opstab import problems as pb
from opstab import training as tr
from opstab.attacks import AttackConfig
from opstab.config import RunConfig


def tiny_config(steps=20, seed=0, **kw):
    prob = pb.default_problem("poisson1d", sensor_count=12,
                              collocation_counts=(10, 2, 0))
    arch = pb.default_arch(prob, width=8)
    defaults = dict(problem=prob, arch=arch, steps=steps, batch_size=4,
                    seed=seed,
                    attack=AttackConfig(epsilon=0.1, relative=True, n_iter=3))
    defaults.update(kw)
    return RunConfig(**defaults)


def params_equal(a, b):
    return all(np.array_equal(x, y) for (_, x), (_, y)
               in zip(dn.param_items(a), dn.param_items(b)))


class TestAdam:
    def test_zero_gradient_leaves_params_and_bumps_counter(self):
        p = [np.ones((2, 2)), np.array(0.5)]
        g = [np.zeros((2, 2)), np.array(0.0)]
        state = tr.AdamState.init_like(p)
        p2, state2 = tr.adam_step(p, g, state, 1e-3, 0.9, 0.999, 1e-8)
        assert state2.t == 1
        for a, b in zip(p, p2):
            assert np.array_equal(a, b)

    def test_first_update_matches_hand_formula(self):
        # constant unit gradient: mhat = vhat = 1, step = -lr / (1 + eps)
        p = [np.array(0.0)]
        g = [np.array(1.0)]
        state = tr.AdamState.init_like(p)
        p2, _ = tr.adam_step(p, g, state, 1e-3, 0.9, 0.999, 1e-8)
        assert float(p2[0]) == pytest.approx(-1e-3 / (1 + 1e-8), rel=1e-12)

    def test_two_runs_bit_identical(self):
        rng = np.random.default_rng(0)
        p = [rng.standard_normal((3, 3))]
        trajectories = []
        for _ in range(2):
            cur = [p[0].copy()]
            state = tr.AdamState.init_like(cur)
            out = []
            for step in range(5):
                g = [np.sin(cur[0]) + step]
                cur, state = tr.adam_step(cur, g, state, 1e-2, 0.9, 0.999, 1e-8)
                out.append(cur[0].copy())
            trajectories.append(out)
        for a, b in zip(*trajectories):
            assert np.array_equal(a, b)

    def test_nonfinite_gradient_names_block(self):
        p = [np.zeros(2), np.zeros(2)]
        g = [np.zeros(2), np.array([1.0, np.nan])]
        state = tr.AdamState.init_like(p)
        with pytest.raises(tr.NonFiniteGradError) as err:
            tr.adam_step(p, g, state, 1e-3, 0.9, 0.999, 1e-8,
                         block_names=["first", "second"])
        assert "second" in str(err.value)


class TestTrainLoop:
    def test_seed_determinism_end_to_end(self):
        a = tr.train(tiny_config(seed=3))
        b = tr.train(tiny_config(seed=3))
        assert params_equal(a.params, b.params)
        assert [e.total for e in a.log] == [e.total for e in b.log]

    def test_different_seeds_differ(self):
        a = tr.train(tiny_config(seed=3))
        b = tr.train(tiny_config(seed=4))
        assert not params_equal(a.params, b.params)

    def test_log_length_and_additivity(self):
        res = tr.train(tiny_config(steps=25))
        assert len(res.log) == 25
        for entry in res.log:
            assert entry.total == entry.physics + entry.bc + entry.ic

    def test_alternation_contract(self):
        cfg = tiny_config(steps=30, warmup_fraction=0.2,
                          adversarial_cadence=3)
        res = tr.train(cfg)
        adversarial = {e.step for e in res.log if e.phase == "adversarial"}
        expected = {j for j in range(1, 31) if j > 0.2 * 30 and j % 3 == 0}
        assert adversarial == expected

    def test_warmup_one_means_no_adversarial_phases(self):
        res = tr.train(tiny_config(steps=20, warmup_fraction=1.0))
        assert all(e.phase == "warmup" for e in res.log)

    def test_baseline_equals_warmup_one_bit_exactly(self):
        cfg = tiny_config(steps=20)
        a = tr.train(replace(cfg, mode="baseline"))
        b = tr.train(replace(cfg, warmup_fraction=1.0))
        assert params_equal(a.params, b.params)
        assert a.log == b.log

    def test_baseline_never_calls_the_attack(self, monkeypatch):
        def no_attack(*args, **kwargs):
            raise AssertionError("the baseline called the attack")

        monkeypatch.setattr(tr, "attack_physics_loss_batch", no_attack)
        res = tr.train(tiny_config(steps=10, mode="baseline",
                                   warmup_fraction=0.0, adversarial_cadence=1))
        assert [e.phase for e in res.log] == ["warmup"] * 10

    def test_zero_epsilon_attack_matches_baseline_trajectory(self):
        cfg = tiny_config(steps=20,
                          attack=AttackConfig(epsilon=0.0, n_iter=3))
        adv = tr.train(cfg)
        base = tr.train(replace(cfg, mode="baseline"))
        assert params_equal(adv.params, base.params)
        assert [e.total for e in adv.log] == [e.total for e in base.log]

    def test_progress_sink_sees_every_step(self):
        seen = []
        tr.train(tiny_config(steps=12),
                 progress_sink=lambda e, p: seen.append(e.step))
        assert seen == list(range(1, 13))

    def test_arch_problem_mismatch_rejected(self):
        cfg = tiny_config()
        bad_arch = dn.ArchSpec((13, 8, 8), (1, 8, 8))
        with pytest.raises(ValueError):
            tr.train(replace(cfg, arch=bad_arch))

    def test_step_log_csv_round_trip(self, tmp_path):
        res = tr.train(tiny_config(steps=8))
        path = tmp_path / "log.csv"
        tr.write_step_log(path, res.log)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == tr.STEP_LOG_HEADER
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[5]) == res.log[0].total


class TestTrainedQuality:
    def test_desk_scale_baseline_reaches_five_percent(
            self, trained_poisson_baseline):
        from opstab import evaluation as ev
        prob, params = trained_poisson_baseline
        grid = pb.eval_grid(prob)
        errs = []
        for i in range(100):
            s = pb.sample_input(prob, 7_500_000 + i)
            u = ev.reference_solution(prob, s, grid)
            errs.append(ev.relative_l2(dn.forward(params, s.values, grid), u))
        assert float(np.mean(errs)) <= 0.05
