"""Run configuration: a strict INI grammar with full-default echo.

Sections mirror the package layout: [run], [problem], [arch], [train],
[attack], [eval]. Unknown sections or keys are rejected with the
offending name; a written config re-parses to an equal RunConfig, so
resolved-config echoes are faithful provenance. The exact grammar is
documented in the README.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from typing import Optional

from . import problems as pb
from .attacks import AttackConfig
from .deeponet import ArchSpec, TRANSFORMS
from .training import TrainConfig


class ValidationError(ValueError):
    """Configuration failed validation; message names the offender."""


# every kind's constants are [problem] keys; each kind accepts only its own
_CONSTANTS = tuple(sorted({name for entry in pb.REGISTRY.values()
                           for name in entry.constants}))

_SECTIONS = {
    "run": ("output_dir", "seed", "mode"),
    "problem": ("kind", "sensor_count", "interior_points", "boundary_points",
                "initial_points", "sampler", "length_scale", "variance",
                "coeff_lo", "coeff_hi", "modes", "rescale_lo", "rescale_hi")
    + _CONSTANTS,
    "arch": ("width", "depth", "transform"),
    "train": ("steps", "batch_size", "learning_rate", "adam_beta1",
              "adam_beta2", "adam_eps", "warmup_fraction",
              "adversarial_cadence", "checkpoint_every"),
    "attack": ("epsilon", "relative", "step_alpha", "n_iter", "norm",
               "warm_start"),
    "eval": ("n_samples", "eval_points", "spectral_functions", "power_tol",
             "power_max_iter", "attack_model", "plot_samples"),
}


@dataclass(frozen=True)
class EvalOptions:
    n_samples: int = 200
    eval_points: Optional[int] = None
    spectral_functions: int = 10
    power_tol: float = 1e-6
    power_max_iter: int = 500
    attack_model: str = "baseline"
    plot_samples: int = 3


@dataclass(frozen=True)
class RunConfig:
    problem: pb.ProblemSpec
    arch: ArchSpec
    attack: AttackConfig
    eval_options: EvalOptions
    output_dir: str = "out"
    seed: int = 0
    mode: str = "stable"
    steps: int = 8000
    batch_size: int = 32
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    warmup_fraction: float = 0.2
    adversarial_cadence: int = 2
    checkpoint_every: int = 0  # 0 means final checkpoint only

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            problem=self.problem, arch=self.arch, steps=self.steps,
            batch_size=self.batch_size, learning_rate=self.learning_rate,
            adam_betas=(self.adam_beta1, self.adam_beta2),
            adam_eps=self.adam_eps, warmup_fraction=self.warmup_fraction,
            adversarial_cadence=self.adversarial_cadence, attack=self.attack,
            seed=self.seed)


def _get(parser, section, key, cast, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key).strip()
    if raw == "":
        return default
    try:
        if cast is bool:
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError as exc:
        raise ValidationError(
            f"[{section}] {key}: cannot parse {raw!r}") from exc


def parse_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise ValidationError(f"cannot read config file {path}")
    return _from_parser(parser)


def parse_config_string(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return _from_parser(parser)


def _from_parser(parser) -> RunConfig:
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ValidationError(f"unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SECTIONS[section]:
                raise ValidationError(f"unknown key {key!r} in [{section}]")

    if not parser.has_section("problem") or not parser.has_option("problem", "kind"):
        raise ValidationError("missing required key 'kind' in [problem]")
    kind = parser.get("problem", "kind").strip()
    if kind not in pb.KINDS:
        raise ValidationError(f"[problem] kind: unknown problem {kind!r}")

    defaults = pb.default_problem(kind)
    for key in _CONSTANTS:
        if parser.has_option("problem", key) and key not in defaults.constants:
            raise ValidationError(
                f"[problem] {key}: not applicable to {kind}")

    sensor_count = _get(parser, "problem", "sensor_count", int,
                        defaults.sensor_count)
    counts = (
        _get(parser, "problem", "interior_points", int,
             defaults.collocation_counts[0]),
        _get(parser, "problem", "boundary_points", int,
             defaults.collocation_counts[1]),
        _get(parser, "problem", "initial_points", int,
             defaults.collocation_counts[2]),
    )
    constants = {key: _get(parser, "problem", key, float,
                           defaults.constants[key])
                 for key in defaults.constants}

    s_def = defaults.sampler
    rescale_lo = _get(parser, "problem", "rescale_lo", float,
                      s_def.rescale[0] if s_def.rescale else None)
    rescale_hi = _get(parser, "problem", "rescale_hi", float,
                      s_def.rescale[1] if s_def.rescale else None)
    if (rescale_lo is None) != (rescale_hi is None):
        raise ValidationError("[problem] rescale_lo/rescale_hi must be paired")
    sampler = pb.SamplerSpec(
        kind=_get(parser, "problem", "sampler", str, s_def.kind),
        length_scale=_get(parser, "problem", "length_scale", float,
                          s_def.length_scale),
        variance=_get(parser, "problem", "variance", float, s_def.variance),
        coeff_range=(_get(parser, "problem", "coeff_lo", float,
                          s_def.coeff_range[0]),
                     _get(parser, "problem", "coeff_hi", float,
                          s_def.coeff_range[1])),
        modes=_get(parser, "problem", "modes", int, s_def.modes),
        rescale=None if rescale_lo is None else (rescale_lo, rescale_hi),
    )
    if sampler.kind not in pb.SAMPLERS:
        raise ValidationError(f"[problem] sampler: unknown {sampler.kind!r}")

    try:
        problem = pb.ProblemSpec(kind=kind, sensor_count=sensor_count,
                                 collocation_counts=counts,
                                 constants=constants, sampler=sampler)
    except pb.ProblemError as exc:
        raise ValidationError(str(exc)) from exc

    transform = _get(parser, "arch", "transform", str,
                     problem.entry.transforms[0])
    if transform not in TRANSFORMS:
        raise ValidationError(f"[arch] transform: unknown {transform!r}")
    if transform not in problem.entry.transforms:
        raise ValidationError(
            f"[arch] transform {transform!r} is invalid for {kind}")
    try:
        arch = pb.default_arch(problem,
                               width=_get(parser, "arch", "width", int, 128),
                               depth=_get(parser, "arch", "depth", int, 3),
                               transform=transform)
    except Exception as exc:
        raise ValidationError(f"[arch]: {exc}") from exc

    norm = _get(parser, "attack", "norm", str, "linf")
    if norm not in ("linf", "l2"):
        raise ValidationError(f"[attack] norm: unknown {norm!r}")
    try:
        attack = AttackConfig(
            epsilon=_get(parser, "attack", "epsilon", float, 0.1),
            step_alpha=_get(parser, "attack", "step_alpha", float, None),
            n_iter=_get(parser, "attack", "n_iter", int, 20),
            norm=norm,
            warm_start=_get(parser, "attack", "warm_start", bool, True),
            relative=_get(parser, "attack", "relative", bool, True),
        )
    except ValueError as exc:
        raise ValidationError(f"[attack]: {exc}") from exc

    attack_model = _get(parser, "eval", "attack_model", str, "baseline")
    if attack_model not in ("baseline", "stable"):
        raise ValidationError(
            f"[eval] attack_model must be baseline or stable, got {attack_model!r}")
    eval_options = EvalOptions(
        n_samples=_get(parser, "eval", "n_samples", int, 200),
        eval_points=_get(parser, "eval", "eval_points", int, None),
        spectral_functions=_get(parser, "eval", "spectral_functions", int, 10),
        power_tol=_get(parser, "eval", "power_tol", float, 1e-6),
        power_max_iter=_get(parser, "eval", "power_max_iter", int, 500),
        attack_model=attack_model,
        plot_samples=_get(parser, "eval", "plot_samples", int, 3),
    )

    mode = _get(parser, "run", "mode", str, "stable")
    if mode not in ("stable", "baseline"):
        raise ValidationError(f"[run] mode must be stable or baseline, got {mode!r}")

    try:
        return RunConfig(
            problem=problem, arch=arch, attack=attack,
            eval_options=eval_options,
            output_dir=_get(parser, "run", "output_dir", str, "out"),
            seed=_get(parser, "run", "seed", int, 0),
            mode=mode,
            steps=_get(parser, "train", "steps", int, 8000),
            batch_size=_get(parser, "train", "batch_size", int, 32),
            learning_rate=_get(parser, "train", "learning_rate", float, 1e-3),
            adam_beta1=_get(parser, "train", "adam_beta1", float, 0.9),
            adam_beta2=_get(parser, "train", "adam_beta2", float, 0.999),
            adam_eps=_get(parser, "train", "adam_eps", float, 1e-8),
            warmup_fraction=_get(parser, "train", "warmup_fraction", float, 0.2),
            adversarial_cadence=_get(parser, "train", "adversarial_cadence",
                                     int, 2),
            checkpoint_every=_get(parser, "train", "checkpoint_every", int, 0),
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config(path, rc: RunConfig) -> None:
    """Echo every key with defaults materialized; re-parses to equal rc."""
    problem, sampler = rc.problem, rc.problem.sampler
    lines = ["[run]",
             f"output_dir = {rc.output_dir}",
             f"seed = {rc.seed}",
             f"mode = {rc.mode}",
             "",
             "[problem]",
             f"kind = {problem.kind}",
             f"sensor_count = {problem.sensor_count}",
             f"interior_points = {problem.collocation_counts[0]}",
             f"boundary_points = {problem.collocation_counts[1]}",
             f"initial_points = {problem.collocation_counts[2]}",
             f"sampler = {sampler.kind}",
             f"length_scale = {_fmt(sampler.length_scale)}",
             f"variance = {_fmt(sampler.variance)}",
             f"coeff_lo = {_fmt(sampler.coeff_range[0])}",
             f"coeff_hi = {_fmt(sampler.coeff_range[1])}",
             f"modes = {sampler.modes}",
             f"rescale_lo = {_fmt(sampler.rescale[0] if sampler.rescale else None)}",
             f"rescale_hi = {_fmt(sampler.rescale[1] if sampler.rescale else None)}"]
    lines += [f"{key} = {_fmt(problem.constants[key])}"
              for key in problem.entry.constants]
    lines += ["",
              "[arch]",
              f"width = {rc.arch.branch_widths[1]}",
              f"depth = {len(rc.arch.branch_widths) - 1}",
              f"transform = {rc.arch.transform}",
              "",
              "[train]",
              f"steps = {rc.steps}",
              f"batch_size = {rc.batch_size}",
              f"learning_rate = {_fmt(rc.learning_rate)}",
              f"adam_beta1 = {_fmt(rc.adam_beta1)}",
              f"adam_beta2 = {_fmt(rc.adam_beta2)}",
              f"adam_eps = {_fmt(rc.adam_eps)}",
              f"warmup_fraction = {_fmt(rc.warmup_fraction)}",
              f"adversarial_cadence = {rc.adversarial_cadence}",
              f"checkpoint_every = {rc.checkpoint_every}",
              "",
              "[attack]",
              f"epsilon = {_fmt(rc.attack.epsilon)}",
              f"relative = {_fmt(rc.attack.relative)}",
              f"step_alpha = {_fmt(rc.attack.step_alpha)}",
              f"n_iter = {rc.attack.n_iter}",
              f"norm = {rc.attack.norm}",
              f"warm_start = {_fmt(rc.attack.warm_start)}",
              "",
              "[eval]",
              f"n_samples = {rc.eval_options.n_samples}",
              f"eval_points = {_fmt(rc.eval_options.eval_points)}",
              f"spectral_functions = {rc.eval_options.spectral_functions}",
              f"power_tol = {_fmt(rc.eval_options.power_tol)}",
              f"power_max_iter = {rc.eval_options.power_max_iter}",
              f"attack_model = {rc.eval_options.attack_model}",
              f"plot_samples = {rc.eval_options.plot_samples}",
              ""]
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
