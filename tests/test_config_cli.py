import csv
import os
import subprocess
import sys

import numpy as np
import pytest

from opstab import cli
from opstab import deeponet as dn
from opstab import problems as pb
from opstab.config import (RunConfig, ValidationError, parse_config,
                           parse_config_string, write_config)


MINIMAL = """
[problem]
kind = poisson1d
"""

SMALL_RUN = """
[run]
output_dir = {out}
seed = 0
mode = {mode}

[problem]
kind = poisson1d
sensor_count = 12
interior_points = 10
boundary_points = 2

[arch]
width = 8

[train]
steps = 12
batch_size = 3
checkpoint_every = 6

[attack]
epsilon = 0.1
relative = true
n_iter = 2

[eval]
n_samples = 3
eval_points = 10
spectral_functions = 1
plot_samples = 1
"""


# the physical constants each kind takes, and no other kind
KIND_CONSTANTS = {
    "antiderivative": (),
    "poisson1d": (),
    "poisson2d": (),
    "helmholtz_neumann": ("shift",),
    "heat_ic": ("alpha",),
    "heat_source": ("alpha",),
    "diffrec_source": ("diffusion", "reaction"),
    "diffrec_coeff": ("diffusion",),
}


def test_constant_table_covers_every_kind():
    assert set(KIND_CONSTANTS) == set(pb.KINDS)


class TestConfigParsing:
    def test_minimal_config_materializes_defaults(self):
        rc = parse_config_string(MINIMAL)
        assert rc.problem.kind == "poisson1d"
        assert rc.problem.sensor_count == 100
        assert rc.problem.collocation_counts == (100, 2, 0)
        assert rc.arch.branch_widths == (100, 128, 128, 128)
        assert rc.steps == 8000
        assert rc.attack.relative is True

    def test_missing_problem_kind_names_the_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config_string("[train]\nsteps = 10\n")
        assert "kind" in str(err.value)

    def test_unknown_key_rejected_by_name(self):
        with pytest.raises(ValidationError) as err:
            parse_config_string(MINIMAL + "\n[train]\nstepz = 10\n")
        assert "stepz" in str(err.value)

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_config_string(MINIMAL + "\n[extra]\nx = 1\n")
        assert "extra" in str(err.value)

    def test_unknown_problem_kind_rejected(self):
        with pytest.raises(ValidationError):
            parse_config_string("[problem]\nkind = wave9d\n")

    def test_constant_for_wrong_kind_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_config_string("[problem]\nkind = poisson1d\nalpha = 0.5\n")
        assert "alpha" in str(err.value)

    @pytest.mark.parametrize("kind", ["poisson1d", "poisson2d"])
    def test_nonpositive_sensor_count_rejected(self, kind):
        with pytest.raises(ValidationError, match="sensor_count"):
            parse_config_string(f"[problem]\nkind = {kind}\nsensor_count = -4\n")

    def test_invalid_transform_combination_rejected(self):
        text = "[problem]\nkind = helmholtz_neumann\n[arch]\ntransform = dirichlet_1d\n"
        with pytest.raises(ValidationError):
            parse_config_string(text)

    def test_unparseable_value_names_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config_string(MINIMAL + "\n[train]\nsteps = many\n")
        assert "steps" in str(err.value)

    def test_round_trip_identity(self, tmp_path):
        rc = parse_config_string(SMALL_RUN.format(out="x", mode="stable"))
        path = tmp_path / "echo.ini"
        write_config(path, rc)
        assert parse_config(path) == rc

    def test_round_trip_identity_heat(self, tmp_path):
        rc = parse_config_string(
            "[problem]\nkind = heat_ic\nalpha = 0.02\n[eval]\neval_points = 30\n")
        assert rc.problem.constants["alpha"] == 0.02
        path = tmp_path / "echo.ini"
        write_config(path, rc)
        assert parse_config(path) == rc

    @pytest.mark.parametrize("kind", pb.KINDS)
    def test_round_trip_identity_every_kind(self, kind, tmp_path):
        rc = parse_config_string(f"[problem]\nkind = {kind}\n")
        path = tmp_path / "echo.ini"
        write_config(path, rc)
        assert parse_config(path) == rc

    @pytest.mark.parametrize("kind", pb.KINDS)
    def test_constants_accepted_only_by_their_kind(self, kind):
        own = KIND_CONSTANTS[kind]
        rc = parse_config_string(f"[problem]\nkind = {kind}\n"
                                 + "".join(f"{c} = 0.5\n" for c in own))
        assert rc.problem.constants == {c: 0.5 for c in own}
        others = {c for cs in KIND_CONSTANTS.values() for c in cs} - set(own)
        for name in sorted(others):
            with pytest.raises(ValidationError, match=name):
                parse_config_string(
                    f"[problem]\nkind = {kind}\n{name} = 0.5\n")

    def test_round_trip_identity_diffrec(self, tmp_path):
        rc = parse_config_string("[problem]\nkind = diffrec_coeff\n")
        assert rc.problem.sampler.rescale == (1.0, 5.0)
        path = tmp_path / "echo.ini"
        write_config(path, rc)
        assert parse_config(path) == rc


def write_small_config(tmp_path, mode="stable", name="cfg.ini"):
    out = tmp_path / f"out_{mode}"
    path = tmp_path / name
    path.write_text(SMALL_RUN.format(out=out, mode=mode))
    return path, out


class TestCliTrain:
    def test_train_writes_artifacts(self, tmp_path):
        path, out = write_small_config(tmp_path)
        assert cli.main(["train", "--config", str(path)]) == 0
        assert (out / "checkpoint_stable.npz").exists()
        assert (out / "checkpoint_stable_step6.npz").exists()
        assert (out / "checkpoint_stable_step12.npz").exists()
        assert (out / "step_log_stable.csv").exists()
        resolved = out / "resolved_config.ini"
        assert resolved.exists()
        assert parse_config(resolved).problem.kind == "poisson1d"

    def test_identical_configs_give_identical_checkpoints(self, tmp_path):
        path, out = write_small_config(tmp_path)
        cli.main(["train", "--config", str(path)])
        first, _, _ = dn.load_checkpoint(out / "checkpoint_stable.npz")
        cli.main(["train", "--config", str(path)])
        second, _, _ = dn.load_checkpoint(out / "checkpoint_stable.npz")
        for (_, a), (_, b) in zip(dn.param_items(first),
                                  dn.param_items(second)):
            assert np.array_equal(a, b)

    def test_mode_difference_shows_only_in_phase_column(self, tmp_path):
        path_s, out_s = write_small_config(tmp_path, mode="stable")
        path_b, out_b = write_small_config(tmp_path, mode="baseline",
                                           name="cfg_b.ini")
        cli.main(["train", "--config", str(path_s)])
        cli.main(["train", "--config", str(path_b)])
        rows_s = (out_s / "step_log_stable.csv").read_text().splitlines()
        rows_b = (out_b / "step_log_baseline.csv").read_text().splitlines()
        phases_s = [r.split(",")[1] for r in rows_s[1:]]
        phases_b = [r.split(",")[1] for r in rows_b[1:]]
        assert "adversarial" in phases_s
        assert set(phases_b) == {"warmup"}
        # before the first adversarial step the trajectories coincide
        first_adv = phases_s.index("adversarial")
        assert rows_s[1:first_adv + 1] == [
            r.replace("warmup", phases_s[i]) for i, r in
            enumerate(rows_b[1:first_adv + 1])]

    def test_missing_config_is_validation_error(self):
        assert cli.main(["train", "--config", "/nonexistent.ini"]) == 1

    def test_invalid_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[problem]\nkind = nope\n")
        assert cli.main(["train", "--config", str(bad)]) == 1


class TestCliEvaluate:
    def test_end_to_end_tiny(self, tmp_path):
        path, out = write_small_config(tmp_path)
        cli.main(["train", "--config", str(path)])
        cli.main(["train", "--config", str(path), "--mode", "baseline"])
        base = out / "checkpoint_baseline.npz"
        stab = out / "checkpoint_stable.npz"
        code = cli.main(["evaluate", "--config", str(path),
                         "--baseline", str(base), "--stable", str(stab)])
        assert code == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 5  # header + 4 model/dataset rows
        datasets = {(r[1], r[2]) for r in rows[1:]}
        assert datasets == {("baseline", "base"), ("baseline", "robustness"),
                            ("stable", "base"), ("stable", "robustness")}
        assert (out / "errors.csv").exists()
        plot = out / "plot_poisson1d_0_base.csv"
        assert plot.exists()

    def test_repeated_evaluate_keeps_source_cache_size(self, tmp_path):
        path, out = write_small_config(tmp_path)
        cli.main(["train", "--config", str(path)])
        ckpt = str(out / "checkpoint_stable.npz")
        argv = ["evaluate", "--config", str(path), "--baseline", ckpt,
                "--stable", ckpt]
        assert cli.main(argv) == 0
        cached = len(pb._SOURCE_MATRIX_CACHE)
        assert cli.main(argv) == 0
        assert len(pb._SOURCE_MATRIX_CACHE) == cached

    def test_arch_mismatch_is_validation_error(self, tmp_path):
        path, out = write_small_config(tmp_path)
        cli.main(["train", "--config", str(path)])
        other = tmp_path / "other.ini"
        other.write_text(SMALL_RUN.format(out=out, mode="stable")
                         .replace("width = 8", "width = 16"))
        code = cli.main(["evaluate", "--config", str(other),
                         "--baseline", str(out / "checkpoint_stable.npz"),
                         "--stable", str(out / "checkpoint_stable.npz")])
        assert code == 1


class TestCliOther:
    def test_attack_and_jacobian_and_generate(self, tmp_path):
        path, out = write_small_config(tmp_path)
        cli.main(["train", "--config", str(path)])
        ckpt = str(out / "checkpoint_stable.npz")
        assert cli.main(["attack", "--config", str(path),
                         "--checkpoint", ckpt, "--n-samples", "2"]) == 0
        assert (out / "attack_traces.csv").exists()
        assert (out / "attacked_inputs.csv").exists()
        assert cli.main(["jacobian", "--config", str(path),
                         "--checkpoint", ckpt]) == 0
        assert (out / "jacobian_norms.csv").exists()
        assert cli.main(["generate-data", "--config", str(path),
                         "--checkpoint", ckpt]) == 0
        for name in ("inputs_base.csv", "inputs_robustness.csv",
                     "solutions_base.csv", "solutions_robustness.csv",
                     "eval_grid.csv"):
            assert (out / name).exists()
        with open(out / "inputs_base.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[:2] == ["f0", "f1"]
        assert header[-3:] == ["kind", "seed", "length_scale"]

    def test_import_loads_no_scipy(self):
        # scipy.integrate alone takes ~0.4 s to import; only the oracles
        # that need scipy import it, when they run. numba is not used.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("import sys, opstab.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('scipy', 'numba')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_selftest_passes(self, capsys):
        assert cli.cmd_selftest(None) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 10
