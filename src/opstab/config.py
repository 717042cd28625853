"""Run configuration: a strict INI grammar with full-default echo.

Sections mirror the package layout: [run], [problem], [arch], [train],
[attack], [eval]. Every key is read out of a RunConfig in one place
(_values) and built back in one (_build): a config file overrides the
values of its kind's defaults, and the resolved-config echo prints a
RunConfig's values. Unknown sections or keys and out-of-range
values are rejected with the offending [section] key; a written config
re-parses to an equal RunConfig, so resolved-config echoes are faithful
provenance. The exact grammar is documented in the README.
"""

from __future__ import annotations

import configparser
import operator
from contextlib import contextmanager
from dataclasses import dataclass, is_dataclass
from typing import Optional

from . import problems as pb
from .attacks import AttackConfig
from .deeponet import ArchSpec


class ValidationError(ValueError):
    """Configuration failed validation; message names the offender."""


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
    attack: AttackConfig = AttackConfig(epsilon=0.1, relative=True)
    eval_options: EvalOptions = EvalOptions()
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

    def __post_init__(self):
        if self.steps <= 0:
            raise ValueError("steps must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.adversarial_cadence < 1:
            raise ValueError("adversarial_cadence must be >= 1")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1]")
        for name in ("adam_beta1", "adam_beta2"):
            beta = getattr(self, name)
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {beta}")
        if not self.adam_eps > 0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps}")


def default_config(kind: str) -> RunConfig:
    """The dataclass defaults, with the kind's problem and architecture."""
    problem = pb.default_problem(kind)
    return RunConfig(problem=problem, arch=pb.default_arch(problem))


_RUN_KEYS = ("output_dir", "seed", "mode")

# the type of the keys whose default is blank (None)
_BLANK_TYPES = {("problem", "rescale_lo"): float,
                ("problem", "rescale_hi"): float,
                ("attack", "step_alpha"): float, ("eval", "eval_points"): int}

# bounds the library does not check itself; a blank value passes
_BOUNDS = {("run", "seed"): (">=", 0),
           ("arch", "width"): (">=", 1), ("arch", "depth"): (">=", 1),
           ("train", "checkpoint_every"): (">=", 0),
           ("eval", "n_samples"): (">=", 1),
           ("eval", "eval_points"): (">=", 2),
           ("eval", "spectral_functions"): (">=", 0),
           ("eval", "power_tol"): (">", 0.0),
           ("eval", "power_max_iter"): (">=", 1),
           ("eval", "plot_samples"): (">=", 0)}
_COMPARE = {">=": operator.ge, ">": operator.gt}

_CHOICES = {("run", "mode"): ("stable", "baseline"),
            ("eval", "attack_model"): ("baseline", "stable")}

_BOOLEANS = {"true": True, "yes": True, "1": True, "on": True,
             "false": False, "no": False, "0": False, "off": False}


def _values(rc: RunConfig) -> dict:
    """{section: {key: value}} for every key of rc's kind, in echo order;
    fresh dicts, so a caller may overwrite values."""
    problem, sampler = rc.problem, rc.problem.sampler
    interior, boundary, initial = problem.collocation_counts
    rescale_lo, rescale_hi = sampler.rescale or (None, None)
    scalars = {name: value for name, value in vars(rc).items()
               if not is_dataclass(value)}
    return {
        "run": {name: scalars.pop(name) for name in _RUN_KEYS},
        "problem": dict(
            kind=problem.kind, sensor_count=problem.sensor_count,
            interior_points=interior, boundary_points=boundary,
            initial_points=initial, sampler=sampler.kind,
            length_scale=sampler.length_scale, variance=sampler.variance,
            coeff_lo=sampler.coeff_range[0], coeff_hi=sampler.coeff_range[1],
            modes=sampler.modes, rescale_lo=rescale_lo, rescale_hi=rescale_hi,
            **{name: problem.constants[name]
               for name in problem.entry.constants}),
        "arch": dict(width=rc.arch.branch_widths[1],
                     depth=len(rc.arch.branch_widths) - 1,
                     transform=rc.arch.transform),
        "train": scalars,
        "attack": dict(vars(rc.attack)),
        "eval": dict(vars(rc.eval_options)),
    }


@contextmanager
def _section(name):
    """Library checks raise ValueError naming the key; add the section."""
    try:
        yield
    except ValueError as exc:
        raise ValidationError(f"[{name}] {exc}") from exc


def _build(sections: dict) -> RunConfig:
    """The RunConfig whose _values are sections."""
    p = sections["problem"]
    with _section("problem"):
        lo, hi = p["rescale_lo"], p["rescale_hi"]
        if lo is None and hi is not None:
            raise ValueError("rescale_hi is set but rescale_lo is blank")
        if hi is None and lo is not None:
            raise ValueError("rescale_lo is set but rescale_hi is blank")
        sampler = pb.SamplerSpec(
            kind=p["sampler"], length_scale=p["length_scale"],
            variance=p["variance"], coeff_range=(p["coeff_lo"], p["coeff_hi"]),
            modes=p["modes"], rescale=None if lo is None else (lo, hi))
        problem = pb.ProblemSpec(
            kind=p["kind"], sensor_count=p["sensor_count"],
            collocation_counts=(p["interior_points"], p["boundary_points"],
                                p["initial_points"]),
            constants={name: p[name]
                       for name in pb.REGISTRY[p["kind"]].constants},
            sampler=sampler)
    with _section("arch"):
        arch = pb.default_arch(problem, **sections["arch"])
    with _section("attack"):
        attack = AttackConfig(**sections["attack"])
    with _section("train"):
        return RunConfig(problem=problem, arch=arch, attack=attack,
                         eval_options=EvalOptions(**sections["eval"]),
                         **sections["run"], **sections["train"])


def _cast(section, name, raw, default):
    cast = _BLANK_TYPES.get((section, name), type(default))
    try:
        if cast is bool:
            return _BOOLEANS[raw.lower()]
        return cast(raw)
    except (KeyError, ValueError) as exc:
        raise ValidationError(
            f"[{section}] {name}: cannot parse {raw!r}") from exc


def parse_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path):
        raise ValidationError(f"cannot read config file {path}")
    kind = parser.get("problem", "kind", fallback=None)
    if kind is None:
        raise ValidationError("missing required key 'kind' in [problem]")
    if kind not in pb.KINDS:
        raise ValidationError(f"[problem] kind: unknown problem {kind!r}")

    values = _values(default_config(kind))
    for section in parser.sections():
        if section not in values:
            raise ValidationError(f"unknown section [{section}]")
        keys = values[section]
        for name, raw in parser.items(section):
            if name not in keys:
                raise ValidationError(
                    f"[{section}] {name}: not a key of a {kind} config")
            if raw:  # blank keeps the default
                keys[name] = _cast(section, name, raw, keys[name])

    for (section, name), (op, bound) in _BOUNDS.items():
        value = values[section][name]
        if value is not None and not _COMPARE[op](value, bound):
            raise ValidationError(
                f"[{section}] {name} must be {op} {bound}, got {value}")
    for (section, name), choices in _CHOICES.items():
        value = values[section][name]
        if value not in choices:
            raise ValidationError(f"[{section}] {name} must be one of "
                                  f"{'|'.join(choices)}, got {value!r}")
    return _build(values)


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
    with open(path, "w") as fh:
        fh.write("\n".join(
            f"[{section}]\n" + "".join(f"{name} = {_fmt(value)}\n"
                                       for name, value in keys.items())
            for section, keys in _values(rc).items()))
