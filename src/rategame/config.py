"""Flat key-value experiment configuration.

The config file is the reproducibility artifact: 13 keys, one per line,
``key = value`` with ``#`` comments. Unknown keys are rejected. The same
keys are exposed as CLI override flags, and every output file carries the
sha256 of the resolved configuration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from .model import ModelParams, PolicyFunctions, PopulationDistributions, power_family

__all__ = ["ExperimentConfig", "ConfigError", "parse_config_file", "resolve_config", "CONFIG_KEYS"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Defaults are the base-case experiment scenario."""

    lambda_bar: float = 100.0
    beta: float = 0.3
    alpha: float = 1.0
    gamma: float = 1.0
    n: int = 1
    p: float = 1.0
    q: float = 2.0
    r: float = -1.0
    mu_min: float = 0.01
    mu_max: float = 0.5
    a_min: float = 0.01
    a_max: float = 25.0
    seed: int = 1729

    def __post_init__(self):
        try:
            self.params()
            self.population()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.q < 1:
            raise ConfigError("q must be >= 1")

    def params(self) -> ModelParams:
        return ModelParams(lambda_bar=self.lambda_bar, beta=self.beta,
                           alpha=self.alpha, gamma=self.gamma, n=self.n)

    def functions(self) -> PolicyFunctions:
        return power_family(self.p, self.q, self.r)

    def population(self) -> PopulationDistributions:
        return PopulationDistributions(self.mu_min, self.mu_max, self.a_min, self.a_max)

    def canonical(self) -> str:
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            v = getattr(self, f.name)
            parts.append(f"{f.name}={v!r}")
        return ";".join(parts)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def with_overrides(self, **kw) -> "ExperimentConfig":
        return replace(self, **kw)


# key -> value type (int or float), in field order; the CLI flags follow it
CONFIG_KEYS = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def parse_config_file(path: str) -> dict:
    """Read ``key = value`` lines; returns a raw override mapping."""
    out: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
                key, _, val = line.partition("=")
                key = key.strip()
                val = val.strip()
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                out[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return out


def _coerce(key: str, value) -> float | int:
    try:
        return CONFIG_KEYS[key](value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def resolve_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """File values first, explicit overrides on top, defaults underneath."""
    merged: dict = {}
    if path is not None:
        merged.update(parse_config_file(path))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = val
    typed = {k: _coerce(k, v) for k, v in merged.items()}
    return ExperimentConfig(**typed)
