"""Run configuration: one JSON file drives simulation and tomography."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Optional

from .errors import ValidationError, require_finite
from .io import read_json
from .polarization import Correction
from .simulate import EmitterConfig, _is_integer
from .streams import FORMATS

SEED_ENV_VAR = "CASCADE_TOMO_SEED"


def _object(value, name):
    """A copy of ``value``, which must be a JSON object (a dict)."""
    if not isinstance(value, dict):
        raise ValidationError(f"{name} must be a JSON object, got {type(value).__name__}")
    return dict(value)


@dataclass(frozen=True)
class TomographyConfig:
    """Reconstruction settings.

    max_delay_ps should stay well inside the excitation repetition
    period: delays approaching it mix photons from neighboring pulses,
    which are uncorrelated in polarization.
    """

    basis_count: int = 36
    bin_width_ps: float = 100.0
    min_counts_per_bin: int = 100
    bootstrap_samples: int = 0
    max_delay_ps: float = 6000.0
    correction: Correction = field(default_factory=Correction)

    def __post_init__(self):
        require_finite(bin_width_ps=self.bin_width_ps, max_delay_ps=self.max_delay_ps,
                       min_counts_per_bin=self.min_counts_per_bin)
        if not _is_integer(self.bootstrap_samples):
            raise ValidationError("bootstrap_samples must be an integer")
        if self.basis_count not in (16, 36):
            raise ValidationError("basis_count must be 16 or 36")
        if self.bin_width_ps <= 0 or self.max_delay_ps <= 0:
            raise ValidationError("bin_width_ps and max_delay_ps must be positive")
        if self.min_counts_per_bin < 0 or self.bootstrap_samples < 0:
            raise ValidationError("count thresholds must be nonnegative")


@dataclass(frozen=True)
class SimulationConfig:
    n_pulses: int = 0
    seed: Optional[int] = None

    def __post_init__(self):
        if not (_is_integer(self.n_pulses) and self.n_pulses >= 0):
            raise ValidationError("n_pulses must be a nonnegative integer")
        if not (self.seed is None or _is_integer(self.seed) and self.seed >= 0):
            raise ValidationError("seed must be a nonnegative integer")
        if self.n_pulses > 0 and self.seed is None:
            raise ValidationError("a seed is required whenever simulation is requested")


@dataclass(frozen=True)
class IOConfig:
    output_dir: str = "out"
    formats: tuple = ("binary",)

    def __post_init__(self):
        object.__setattr__(self, "formats", tuple(self.formats))
        if len(self.formats) != 1:  # every stream of a run is written in one format
            raise ValidationError(
                f"io.formats must hold exactly one stream format, got {list(self.formats)}")
        if self.formats[0] not in FORMATS:
            raise ValidationError(f"unknown stream format {self.formats[0]!r}")


@dataclass(frozen=True)
class RunConfig:
    emitter: EmitterConfig = field(default_factory=EmitterConfig)
    tomography: TomographyConfig = field(default_factory=TomographyConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    io: IOConfig = field(default_factory=IOConfig)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        data = _object(data or {}, "config")
        known = ("emitter", "tomography", "simulation", "io")
        unknown = set(data) - set(known)
        if unknown:
            raise ValidationError(f"unknown config sections: {sorted(unknown)}")
        emitter, tomo, simulation, io = (_object(data.get(k, {}), k) for k in known)
        correction = _object(tomo.pop("correction", {}), "tomography.correction")
        try:
            return cls(
                emitter=EmitterConfig(**emitter),
                tomography=TomographyConfig(correction=Correction(**correction), **tomo),
                simulation=SimulationConfig(**simulation),
                io=IOConfig(**io),
            )
        except TypeError as exc:
            raise ValidationError(f"bad config: {exc}") from exc

def apply_overrides(data, overrides):
    """Apply dotted `key=value` strings to a nested config dict."""
    for item in overrides or []:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValidationError(f"cannot override through non-mapping key {part!r}")
        node[parts[-1]] = value
    return data


def load_config(path, overrides=None) -> RunConfig:
    """Read a RunConfig JSON file, apply overrides and the seed env var."""
    data = apply_overrides(_object(read_json(path), f"config {path}"), overrides)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ValidationError(
                f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}"
            ) from None
        apply_overrides(data, [f"simulation.seed={seed}"])
    return RunConfig.from_dict(data)
