"""Flat key=value experiment configuration with presets and validation.

A config file holds ``key = value`` lines (``#`` comments and blank lines
ignored).  Resolution order: built-in defaults, then the named preset's
values, then explicit file keys, then command-line overrides.  Validation
reports every problem, not just the first.  ``snapshot`` renders a resolved
config back to text; re-validating a snapshot is a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .decoders import KINDS as DECODERS
from .evalkit import STRATEGIES as STRATEGY_NAMES
from .layer import VARIANTS
from .training import TrainConfig

TASKS = ("node_classification", "link_prediction")
FORMATS = ("tsv", "ntriples")

# Per-dataset hyperparameter presets (bi-level model rows); link-prediction
# and ablation experiments reuse the "am" values.
PRESETS: dict[str, dict[str, Any]] = {
    "aifb": dict(lr=0.05, l2_penalty=0.0, hidden_units=16, num_bases=0, epochs=85, dropout=0.4, leaky_slope=0.2),
    "mutag": dict(lr=0.01, l2_penalty=5e-4, hidden_units=16, num_bases=0, epochs=90, dropout=0.2, leaky_slope=0.0),
    "bgs": dict(lr=0.005, l2_penalty=0.0, hidden_units=16, num_bases=1, epochs=95, dropout=0.6, leaky_slope=0.4),
    "am": dict(lr=0.01, l2_penalty=0.0, hidden_units=16, num_bases=0, epochs=100, dropout=0.6, leaky_slope=0.0),
}


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "node_classification"
    preset: str = "none"
    output_dir: str = "runs"
    seeds: tuple[int, ...] = (0,)
    triples_path: str | None = None
    triples_format: str = "tsv"
    labels_path: str | None = None
    train_nodes_path: str | None = None
    valid_nodes_path: str | None = None
    test_nodes_path: str | None = None
    train_triples_path: str | None = None
    valid_triples_path: str | None = None
    test_triples_path: str | None = None
    variant: str = "full"
    decoder: str = "distmult"
    standalone_decoder: bool = False
    num_layers: int = 2
    encoder_layers: int = 1
    hidden_units: int = 16
    num_bases: int = 0
    add_inverse: bool = False
    add_self_loop: bool = False
    lr: float = 0.05
    l2_penalty: float = 0.0
    epochs: int = 85
    dropout: float = 0.4
    leaky_slope: float = 0.2
    omega: int = 1
    beta: float = 0.4
    early_stop_patience: int = 0
    checkpoint: str | None = None
    ensemble_checkpoint: str | None = None
    ablation_strategies: tuple[str, ...] = STRATEGY_NAMES
    ablation_fractions: tuple[float, ...] = tuple(k / 10 for k in range(1, 11))

    def to_train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(
            task=self.task,
            lr=self.lr,
            l2_penalty=self.l2_penalty,
            epochs=self.epochs,
            hidden_units=self.hidden_units,
            num_bases=self.num_bases,
            dropout=self.dropout,
            leaky_slope=self.leaky_slope,
            omega=self.omega,
            beta=self.beta,
            seed=seed,
            num_layers=self.num_layers,
            encoder_layers=self.encoder_layers,
            add_inverse=self.add_inverse,
            add_self_loop=self.add_self_loop,
            early_stop_patience=self.early_stop_patience,
        )


_PATH_KEYS = (
    "triples_path",
    "labels_path",
    "train_nodes_path",
    "valid_nodes_path",
    "test_nodes_path",
    "train_triples_path",
    "valid_triples_path",
    "test_triples_path",
    "checkpoint",
    "ensemble_checkpoint",
)

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str, errors: list[str]):
    raw = raw.strip()
    try:
        if key == "seeds":
            return tuple(int(x) for x in raw.split(","))
        if key == "ablation_fractions":
            return tuple(float(x) for x in raw.split(","))
        if key == "ablation_strategies":
            return tuple(x.strip() for x in raw.split(","))
        if key in ("standalone_decoder", "add_inverse", "add_self_loop"):
            if raw.lower() not in ("true", "false"):
                errors.append(f"{key}: expected true or false, got {raw!r}")
                return None
            return raw.lower() == "true"
        if key in ("num_layers", "encoder_layers", "hidden_units", "num_bases", "epochs", "omega", "early_stop_patience"):
            return int(raw)
        if key in ("lr", "l2_penalty", "dropout", "leaky_slope", "beta"):
            return float(raw)
        return raw
    except ValueError:
        errors.append(f"{key}: cannot parse value {raw!r}")
        return None


def parse_config_text(text: str, errors: list[str]) -> dict[str, Any]:
    """Parse key=value lines into raw field values, recording problems."""
    out: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value, got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            errors.append(f"unknown key: {key}")
            continue
        if key in out:
            errors.append(f"duplicate key: {key}")
            continue
        parsed = _parse_value(key, value, errors)
        if parsed is not None:
            out[key] = parsed
    return out


def _check_ranges(cfg: ExperimentConfig, errors: list[str]) -> None:
    if cfg.task not in TASKS:
        errors.append(f"task: expected one of {TASKS}, got {cfg.task!r}")
    if cfg.preset not in ("none", *PRESETS):
        errors.append(f"preset: expected one of {('none', *PRESETS)}, got {cfg.preset!r}")
    if cfg.triples_format not in FORMATS:
        errors.append(f"triples_format: expected one of {FORMATS}, got {cfg.triples_format!r}")
    if cfg.variant not in VARIANTS:
        errors.append(f"variant: expected one of {VARIANTS}, got {cfg.variant!r}")
    if cfg.decoder not in DECODERS:
        errors.append(f"decoder: expected one of {DECODERS}, got {cfg.decoder!r}")
    if cfg.lr <= 0:
        errors.append(f"lr: must be positive, got {cfg.lr}")
    if cfg.l2_penalty < 0:
        errors.append(f"l2_penalty: must be non-negative, got {cfg.l2_penalty}")
    if not 0.0 <= cfg.dropout < 1.0:
        errors.append(f"dropout: must lie in [0, 1), got {cfg.dropout}")
    if cfg.epochs <= 0:
        errors.append(f"epochs: must be positive, got {cfg.epochs}")
    if cfg.hidden_units <= 0:
        errors.append(f"hidden_units: must be positive, got {cfg.hidden_units}")
    if cfg.num_bases < 0:
        errors.append(f"num_bases: must be non-negative, got {cfg.num_bases}")
    if cfg.num_layers <= 0:
        errors.append(f"num_layers: must be positive, got {cfg.num_layers}")
    if cfg.encoder_layers <= 0:
        errors.append(f"encoder_layers: must be positive, got {cfg.encoder_layers}")
    if cfg.omega < 1:
        errors.append(f"omega: must be at least 1, got {cfg.omega}")
    if not 0.0 <= cfg.beta <= 1.0:
        errors.append(f"beta: must lie in [0, 1], got {cfg.beta}")
    if cfg.early_stop_patience < 0:
        errors.append(f"early_stop_patience: must be non-negative, got {cfg.early_stop_patience}")
    if not cfg.seeds:
        errors.append("seeds: must list at least one seed")
    elif any(s < 0 for s in cfg.seeds):
        errors.append("seeds: must be non-negative")
    for s in cfg.ablation_strategies:
        if s not in STRATEGY_NAMES:
            errors.append(f"ablation_strategies: unknown strategy {s!r}")
    for f in cfg.ablation_fractions:
        if not 0.0 < f <= 1.0:
            errors.append(f"ablation_fractions: fraction {f} outside (0, 1]")
    for key in _PATH_KEYS:
        value = getattr(cfg, key)
        if value is not None and not Path(value).exists():
            errors.append(f"{key}: file not found: {value}")


def validate_config(
    path, overrides: dict[str, str] | None = None
) -> tuple[ExperimentConfig | None, list[str]]:
    """Load, resolve and validate a config file plus overrides.

    Returns the resolved config and an empty error list on success, or
    ``None`` and every collected error message on failure.
    """
    errors: list[str] = []
    path = Path(path)
    if not path.exists():
        return None, [f"config file not found: {path}"]
    raw = parse_config_text(path.read_text(encoding="utf-8"), errors)
    for key, value in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            errors.append(f"unknown key: {key}")
            continue
        parsed = _parse_value(key, value, errors)
        if parsed is not None:
            raw[key] = parsed
    if errors:
        return None, errors

    resolved: dict[str, Any] = {}
    preset = raw.get("preset", "none")
    if preset != "none":
        if preset not in PRESETS:
            return None, [f"preset: expected one of {('none', *PRESETS)}, got {preset!r}"]
        resolved.update(PRESETS[preset])
    resolved.update(raw)
    cfg = ExperimentConfig(**resolved)
    _check_ranges(cfg, errors)
    if errors:
        return None, errors
    return cfg, []


def snapshot(cfg: ExperimentConfig) -> str:
    """Render a resolved config as key=value text (sorted keys, total values)."""
    lines = []
    for f in sorted(f.name for f in fields(ExperimentConfig)):
        value = getattr(cfg, f)
        if value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, tuple):
            text = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f} = {text}")
    return "\n".join(lines) + "\n"
