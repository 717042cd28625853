import csv
import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from opstab import autodiff as ad
from opstab import cli
from opstab import deeponet as dn
from opstab import problems as pb
from opstab import training as tr
from opstab.attacks import AttackConfig
from opstab.config import (EvalOptions, RunConfig, ValidationError, _values,
                           default_config, parse_config, write_config)


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


@pytest.fixture
def parse_text(tmp_path):
    """parse_config on a file holding the given text."""
    def parse(text):
        path = tmp_path / "parsed.ini"
        path.write_text(text)
        return parse_config(path)
    return parse


def test_constant_table_covers_every_kind():
    assert set(KIND_CONSTANTS) == set(pb.KINDS)


class TestConfigParsing:
    def test_minimal_config_materializes_defaults(self, parse_text):
        rc = parse_text(MINIMAL)
        assert rc.problem.kind == "poisson1d"
        assert rc.problem.sensor_count == 100
        assert rc.problem.collocation_counts == (100, 2, 0)
        assert rc.arch.branch_widths == (100, 128, 128, 128)
        assert rc.steps == 8000
        assert rc.attack.relative is True

    def test_missing_problem_kind_names_the_key(self, parse_text):
        with pytest.raises(ValidationError) as err:
            parse_text("[train]\nsteps = 10\n")
        assert "kind" in str(err.value)

    def test_unknown_key_rejected_by_name(self, parse_text):
        with pytest.raises(ValidationError) as err:
            parse_text(MINIMAL + "\n[train]\nstepz = 10\n")
        assert "stepz" in str(err.value)

    def test_unknown_section_rejected(self, parse_text):
        with pytest.raises(ValidationError) as err:
            parse_text(MINIMAL + "\n[extra]\nx = 1\n")
        assert "extra" in str(err.value)

    def test_unknown_problem_kind_rejected(self, parse_text):
        with pytest.raises(ValidationError):
            parse_text("[problem]\nkind = wave9d\n")

    def test_constant_for_wrong_kind_rejected(self, parse_text):
        with pytest.raises(ValidationError) as err:
            parse_text("[problem]\nkind = poisson1d\nalpha = 0.5\n")
        assert "alpha" in str(err.value)

    @pytest.mark.parametrize("kind", ["poisson1d", "poisson2d"])
    def test_nonpositive_sensor_count_rejected(self, parse_text, kind):
        with pytest.raises(ValidationError, match="sensor_count"):
            parse_text(f"[problem]\nkind = {kind}\nsensor_count = -4\n")

    def test_invalid_transform_combination_rejected(self, parse_text):
        text = "[problem]\nkind = helmholtz_neumann\n[arch]\ntransform = dirichlet_1d\n"
        with pytest.raises(ValidationError):
            parse_text(text)

    def test_unparseable_value_names_key(self, parse_text):
        with pytest.raises(ValidationError) as err:
            parse_text(MINIMAL + "\n[train]\nsteps = many\n")
        assert "steps" in str(err.value)

    @pytest.mark.parametrize("key,value", [
        ("n_samples", 0), ("n_samples", -3), ("spectral_functions", -1),
        ("plot_samples", -1)])
    def test_eval_count_out_of_range_names_key(self, parse_text, key, value):
        with pytest.raises(ValidationError, match=key):
            parse_text(MINIMAL + f"\n[eval]\n{key} = {value}\n")

    @pytest.mark.parametrize("value", [0, 1, -5])
    def test_eval_points_below_two_rejected(self, parse_text, value):
        with pytest.raises(ValidationError, match="eval_points"):
            parse_text(MINIMAL + f"\n[eval]\neval_points = {value}\n")

    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_nonpositive_power_tol_rejected(self, parse_text, value):
        with pytest.raises(ValidationError, match="power_tol"):
            parse_text(MINIMAL + f"\n[eval]\npower_tol = {value}\n")

    @pytest.mark.parametrize("value", [0, -1])
    def test_power_max_iter_below_one_rejected(self, parse_text, value):
        with pytest.raises(ValidationError, match="power_max_iter"):
            parse_text(MINIMAL + f"\n[eval]\npower_max_iter = {value}\n")

    def test_round_trip_identity(self, parse_text, tmp_path):
        rc = parse_text(SMALL_RUN.format(out="x", mode="stable"))
        path = tmp_path / "echo.ini"
        write_config(path, rc)
        assert parse_config(path) == rc

    def test_round_trip_identity_heat(self, parse_text, tmp_path):
        rc = parse_text(
            "[problem]\nkind = heat_ic\nalpha = 0.02\n[eval]\neval_points = 30\n")
        assert rc.problem.constants["alpha"] == 0.02
        path = tmp_path / "echo.ini"
        write_config(path, rc)
        assert parse_config(path) == rc

    @pytest.mark.parametrize("kind", pb.KINDS)
    def test_round_trip_identity_every_kind(self, parse_text, kind, tmp_path):
        rc = parse_text(f"[problem]\nkind = {kind}\n")
        path = tmp_path / "echo.ini"
        write_config(path, rc)
        assert parse_config(path) == rc

    @pytest.mark.parametrize("kind", pb.KINDS)
    def test_constants_accepted_only_by_their_kind(self, parse_text, kind):
        own = KIND_CONSTANTS[kind]
        rc = parse_text(f"[problem]\nkind = {kind}\n"
                        + "".join(f"{c} = 0.5\n" for c in own))
        assert rc.problem.constants == {c: 0.5 for c in own}
        others = {c for cs in KIND_CONSTANTS.values() for c in cs} - set(own)
        for name in sorted(others):
            with pytest.raises(ValidationError, match=name):
                parse_text(f"[problem]\nkind = {kind}\n{name} = 0.5\n")

    def test_round_trip_identity_diffrec(self, parse_text, tmp_path):
        rc = parse_text("[problem]\nkind = diffrec_coeff\n")
        assert rc.problem.sampler.rescale == (1.0, 5.0)
        path = tmp_path / "echo.ini"
        write_config(path, rc)
        assert parse_config(path) == rc

    @pytest.mark.parametrize("kind", pb.KINDS)
    def test_defaults_are_the_libraries_defaults(self, parse_text, kind):
        # a config that sets only the kind gets every library default
        # through _values and _build
        problem = pb.default_problem(kind)
        assert parse_text(f"[problem]\nkind = {kind}\n") == RunConfig(
            problem=problem, arch=pb.default_arch(problem))

    def test_parsing_leaves_the_defaults_alone(self, parse_text):
        parse_text(SMALL_RUN.format(out="x", mode="baseline"))
        rc = default_config("poisson1d")
        assert rc.attack == AttackConfig(epsilon=0.1, relative=True)
        assert rc.eval_options == EvalOptions()

    def test_readme_grammar_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Configuration grammar")[1]
        block = block.split("```ini\n")[1].split("```")[0]
        block = re.sub(r"\([^)]*\)", "", block)  # choices and notes
        listed = {(section, key)
                  for section, keys in re.findall(r"\[(\w+)\]([^[]*)", block)
                  for key in re.findall(r"\w+", keys)}
        accepted = {(section, key) for kind in pb.KINDS
                    for section, keys in _values(default_config(kind)).items()
                    for key in keys}
        assert listed == accepted


# a [section] key = value that the parser or the library rejects, with
# the kind it is set on
OUT_OF_RANGE = [
    ("poisson1d", "run", "seed", "-1"),
    ("poisson1d", "run", "mode", "robust"),
    ("poisson2d", "problem", "sensor_count", "50"),
    ("poisson2d", "problem", "sensor_count", "1"),
    ("poisson1d", "problem", "sensor_count", "1"),
    ("antiderivative", "problem", "sensor_count", "1"),
    ("poisson1d", "problem", "interior_points", "0"),
    ("poisson1d", "problem", "boundary_points", "3"),
    ("heat_source", "problem", "boundary_points", "3"),
    ("heat_source", "problem", "initial_points", "-1"),
    ("poisson1d", "problem", "coeff_lo", "2"),
    ("heat_source", "problem", "sampler", "bitrig"),
    ("poisson2d", "problem", "sampler", "grf"),
    ("poisson1d", "problem", "sampler", "brownian"),
    ("heat_source", "problem", "length_scale", "0"),
    ("heat_source", "problem", "variance", "0"),
    ("poisson2d", "problem", "modes", "0"),
    ("diffrec_coeff", "problem", "rescale_lo", "5"),
    ("heat_source", "problem", "rescale_hi", "2"),
    ("heat_source", "problem", "alpha", "-0.01"),
    ("diffrec_source", "problem", "diffusion", "-0.01"),
    ("helmholtz_neumann", "problem", "shift", "0"),
    ("poisson1d", "arch", "width", "0"),
    ("poisson1d", "arch", "depth", "0"),
    ("poisson1d", "train", "steps", "0"),
    ("poisson1d", "train", "batch_size", "0"),
    ("poisson1d", "train", "learning_rate", "0"),
    ("poisson1d", "train", "warmup_fraction", "1.5"),
    ("poisson1d", "train", "adam_beta1", "1.0"),
    ("poisson1d", "train", "adam_beta2", "1.0"),
    ("poisson1d", "train", "adam_eps", "0"),
    ("poisson1d", "train", "adversarial_cadence", "0"),
    ("poisson1d", "train", "checkpoint_every", "-1"),
    ("poisson1d", "attack", "epsilon", "-0.1"),
    ("poisson1d", "attack", "step_alpha", "0"),
    ("poisson1d", "attack", "n_iter", "-1"),
    ("poisson1d", "attack", "norm", "l1"),
    ("poisson1d", "eval", "attack_model", "robust"),
]


@pytest.mark.parametrize("kind,section,key,value", OUT_OF_RANGE,
                         ids=[f"{s}.{k}={v}-{kind}"
                              for kind, s, k, v in OUT_OF_RANGE])
def test_out_of_range_value_rejected_before_any_file(tmp_path, kind, section,
                                                     key, value):
    out = tmp_path / "out"
    sections = {"run": {"output_dir": out}, "problem": {"kind": kind},
                "train": {"steps": 1}}
    sections.setdefault(section, {})[key] = value
    path = tmp_path / "cfg.ini"
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))
    with pytest.raises(ValidationError) as err:
        parse_config(path)
    assert f"[{section}] {key}" in str(err.value)
    assert cli.main(["train", "--config", str(path)]) == 1
    assert not out.exists()


# the [train] rows RunConfig checks itself; parse_config bounds the rest
TRAIN_RANGES = [row for row in OUT_OF_RANGE
                if row[1] == "train" and row[2] != "checkpoint_every"]


@pytest.mark.parametrize("kind,section,key,value", TRAIN_RANGES,
                         ids=[f"{k}={v}" for _, _, k, v in TRAIN_RANGES])
def test_run_config_rejects_out_of_range_train_value(kind, section, key,
                                                     value):
    rc = default_config(kind)
    bad = type(getattr(rc, key))(value)
    with pytest.raises(ValueError, match=key):
        RunConfig(problem=rc.problem, arch=rc.arch, **{key: bad})


def test_library_configs_reject_an_unknown_choice():
    # the library path builds these without parse_config: a misspelled
    # mode must not train adversarially under another name
    rc = default_config("poisson1d")
    with pytest.raises(ValueError, match=re.escape(
            "mode must be one of stable|baseline, got 'stabel'")):
        dataclasses.replace(rc, mode="stabel")
    with pytest.raises(ValueError, match=re.escape(
            "attack_model must be one of baseline|stable, got 'robust'")):
        EvalOptions(attack_model="robust")


def write_small_config(tmp_path, mode="stable", name="cfg.ini"):
    out = tmp_path / f"out_{mode}"
    path = tmp_path / name
    path.write_text(SMALL_RUN.format(out=out, mode=mode))
    return path, out


def write_untrained_checkpoints(path):
    """Glorot checkpoints of the configured architecture, named baseline
    and stable, in the config's output directory."""
    rc = parse_config(path)
    os.makedirs(rc.output_dir, exist_ok=True)
    paths = []
    for seed, name in enumerate(("baseline", "stable")):
        paths.append(os.path.join(rc.output_dir, f"untrained_{name}.npz"))
        dn.save_checkpoint(paths[-1], dn.glorot_init(rc.arch, seed), seed, 0)
    return paths


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


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

    def test_repeated_train_and_evaluate_retain_under_1mb(self, tmp_path):
        # a poisson2d interpolation matrix onto the 10,000 collocation
        # points is 8 MB; nothing built for one call may outlive it
        path, out = write_small_config(tmp_path)
        cli.main(["train", "--config", str(path)])
        ckpt = str(out / "checkpoint_stable.npz")
        argv = ["evaluate", "--config", str(path), "--baseline", ckpt,
                "--stable", ckpt]
        prob = pb.default_problem("poisson2d")
        cfg = RunConfig(problem=prob, steps=1, batch_size=2, mode="baseline",
                        arch=pb.default_arch(prob, width=8, depth=2))
        tracemalloc.start()
        try:
            tr.train(cfg)  # the first calls pay one-time costs (imports)
            assert cli.main(argv) == 0
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(2):
                tr.train(cfg)
                assert cli.main(argv) == 0
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 1_000_000

    def test_evaluation_records_no_tape(self, tmp_path, monkeypatch):
        # input gradients on the grid are closed-form; the tape is for
        # training only
        path, _ = write_small_config(tmp_path)
        base, stab = write_untrained_checkpoints(path)

        def no_tape():
            raise AssertionError("evaluation recorded a tape")

        monkeypatch.setattr(ad, "Tape", no_tape)
        config = ["--config", str(path)]
        assert cli.main(["evaluate", *config, "--baseline", base,
                         "--stable", stab]) == 0
        for command in ("attack", "jacobian", "generate-data"):
            assert cli.main([command, *config, "--checkpoint", base]) == 0

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

    def test_every_numeric_cell_parses_as_a_float(self, tmp_path):
        # numpy >= 2 reprs a scalar as np.float64(...), which no CSV
        # reader parses; every writer passes Python scalars
        path, out = write_small_config(tmp_path)
        base, stab = write_untrained_checkpoints(path)
        config = ["--config", str(path)]
        assert cli.main(["evaluate", *config, "--baseline", base,
                         "--stable", stab]) == 0
        for command in ("attack", "jacobian", "generate-data"):
            assert cli.main([command, *config, "--checkpoint", stab]) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == sorted([
            "summary.csv", "errors.csv", "plot_poisson1d_0_base.csv",
            "plot_poisson1d_0_robustness.csv", "attack_traces.csv",
            "attacked_inputs.csv", "jacobian_norms.csv", "inputs_base.csv",
            "inputs_robustness.csv", "solutions_base.csv",
            "solutions_robustness.csv", "eval_grid.csv"])
        text = {"experiment", "model", "dataset", "kind"}
        meta = {"seed", "length_scale"}  # empty when the sampler has none
        for name in names:
            rows = read_rows(out / name)
            assert rows, name
            for row in rows:
                for column, cell in row.items():
                    if column in text or (column in meta and cell == ""):
                        continue
                    float(cell)  # raises on anything but a number

    def test_attack_writes_generate_data_attacked_inputs(self, tmp_path):
        path, out = write_small_config(tmp_path)
        _, stab = write_untrained_checkpoints(path)
        config = ["--config", str(path), "--checkpoint", stab]
        rc = parse_config(path)
        n, m = rc.eval_options.n_samples, rc.problem.sensor_count
        assert cli.main(["attack", *config, "--n-samples", str(n)]) == 0
        assert cli.main(["generate-data", *config]) == 0
        attacked = read_rows(out / "attacked_inputs.csv")
        assert len(attacked) == n * m
        for name, column in (("inputs_base.csv", "f"),
                             ("inputs_robustness.csv", "f_tilde")):
            rows = read_rows(out / name)
            assert len(rows) == n
            for i, row in enumerate(rows):
                want = [row[f"f{j}"] for j in range(m)]
                got = [r[column] for r in attacked[i * m:(i + 1) * m]]
                assert [r["sample_id"] for r in attacked[i * m:(i + 1) * m]] \
                    == [str(i)] * m
                assert got == want
        traces = read_rows(out / "attack_traces.csv")
        assert [(r["sample_id"], r["iteration"]) for r in traces] == [
            (str(i), str(it)) for i in range(n)
            for it in range(rc.attack.n_iter)]

    @pytest.mark.parametrize("kind,sensors,header", [
        ("poisson1d", 12, "x"), ("poisson2d", 16, "x,y"),
        ("heat_source", 12, "x,t")])
    def test_eval_grid_header_names_the_kinds_axes(self, tmp_path, kind,
                                                   sensors, header):
        path = tmp_path / "cfg.ini"
        path.write_text(f"[run]\noutput_dir = {tmp_path / 'out'}\n"
                        f"[problem]\nkind = {kind}\nsensor_count = {sensors}\n"
                        "[arch]\nwidth = 8\ndepth = 2\n"
                        "[attack]\nn_iter = 1\n"
                        "[eval]\nn_samples = 1\neval_points = 5\n")
        _, stab = write_untrained_checkpoints(path)
        assert cli.main(["generate-data", "--config", str(path),
                         "--checkpoint", stab]) == 0
        grid = (tmp_path / "out" / "eval_grid.csv").read_text().splitlines()
        assert grid[0] == header
        assert len(grid) == 1 + 5 ** len(header.split(","))

    def test_jacobian_scores_the_summary_inputs(self, tmp_path):
        path, out = write_small_config(tmp_path)
        path.write_text(path.read_text().replace("spectral_functions = 1",
                                                 "spectral_functions = 2"))
        base, stab = write_untrained_checkpoints(path)
        config = ["--config", str(path)]
        assert cli.main(["evaluate", *config, "--baseline", base,
                         "--stable", stab]) == 0
        assert cli.main(["jacobian", *config, "--checkpoint", stab]) == 0
        norms = [float(r["spectral_norm"])
                 for r in read_rows(out / "jacobian_norms.csv")]
        row, = [r for r in read_rows(out / "summary.csv")
                if (r["model"], r["dataset"]) == ("stable", "base")]
        assert len(norms) == 2
        assert float(np.mean(norms)) == float(row["mean_spectral_norm"])

    def test_summary_without_norms_reads_nan(self, tmp_path):
        path, out = write_small_config(tmp_path)
        path.write_text(path.read_text().replace("spectral_functions = 1",
                                                 "spectral_functions = 0"))
        base, stab = write_untrained_checkpoints(path)
        assert cli.main(["evaluate", "--config", str(path),
                         "--baseline", base, "--stable", stab]) == 0
        rows = read_rows(out / "summary.csv")
        assert len(rows) == 4
        assert all(r["mean_spectral_norm"] == "nan" for r in rows)

    def test_jacobian_without_functions_rejected(self, tmp_path):
        path, out = write_small_config(tmp_path)
        path.write_text(path.read_text().replace("spectral_functions = 1",
                                                 "spectral_functions = 0"))
        code = cli.main(["jacobian", "--config", str(path),
                         "--checkpoint", "unused.npz"])
        assert code == 1
        assert not (out / "jacobian_norms.csv").exists()

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_attack_sample_count_below_one_rejected(self, tmp_path, n):
        path, out = write_small_config(tmp_path)
        code = cli.main(["attack", "--config", str(path),
                         "--checkpoint", "unused.npz", "--n-samples", n])
        assert code == 1
        assert not (out / "attack_traces.csv").exists()

    def test_import_loads_no_scipy(self):
        # scipy.integrate alone takes ~0.4 s to import; only the oracles
        # that need scipy import it, when they run. numba is not used,
        # and the test extra (pytest, hypothesis) is not a runtime need.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = ("import sys, opstab.cli; print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in "
                "('scipy', 'numba', 'pytest', 'hypothesis')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_selftest_passes(self, capsys):
        assert cli.cmd_selftest(None) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 11


@pytest.fixture
def fresh_process():
    """keep_freed_memory's once-per-process guard, reset around the test."""
    cli.keep_freed_memory.cache_clear()
    yield
    cli.keep_freed_memory.cache_clear()


@pytest.fixture
def mallopt_calls(monkeypatch, fresh_process):
    """Every mallopt call the commands make, through a stand-in for
    glibc."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    def cdll(name):
        assert name == "libc.so.6"
        return types.SimpleNamespace(mallopt=mallopt)

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    return calls


class TestAllocator:
    # glibc's M_MMAP_THRESHOLD = -3 to 32 MiB, M_TRIM_THRESHOLD = -1 to
    # the largest int
    SETTINGS = [(-3, 32 << 20), (-1, 2 ** 31 - 1)]

    def test_import_leaves_the_allocator_alone(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        code = (
            "import ctypes, importlib, pkgutil\n"
            "import numpy\n"
            "opened, cdll = [], ctypes.CDLL\n"
            "ctypes.CDLL = lambda name, *a, **k: (opened.append(name),"
            " cdll(name, *a, **k))[1]\n"
            "import opstab\n"
            "for m in pkgutil.iter_modules(opstab.__path__):\n"
            "    importlib.import_module('opstab.' + m.name)\n"
            "print(opened)\n")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_train_and_evaluate_set_it_once_per_process(self, tmp_path,
                                                        mallopt_calls):
        path, out = write_small_config(tmp_path)
        train = ["train", "--config", str(path)]
        ckpt = str(out / "checkpoint_stable.npz")
        evaluate = ["evaluate", "--config", str(path), "--baseline", ckpt,
                    "--stable", ckpt]
        assert cli.main(train) == 0
        assert mallopt_calls == self.SETTINGS
        assert cli.main(evaluate) == 0 and cli.main(train) == 0
        assert mallopt_calls == self.SETTINGS
        cli.keep_freed_memory.cache_clear()  # as in a new process
        assert cli.main(evaluate) == 0
        assert mallopt_calls == self.SETTINGS * 2

    @pytest.mark.parametrize("libc", [None, types.SimpleNamespace()],
                             ids=["no_glibc", "no_mallopt"])
    def test_without_glibc_it_is_a_noop(self, monkeypatch, fresh_process,
                                        libc):
        def cdll(name):
            if libc is None:
                raise OSError(f"{name}: cannot open shared object file")
            return libc

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli.keep_freed_memory() is None
