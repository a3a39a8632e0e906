"""Flat key=value experiment configuration with presets and validation.

A config file holds ``key = value`` lines (``#`` comments and blank lines
ignored).  Resolution order: built-in defaults, then the named preset's
values, then explicit file keys, then command-line overrides.  Validation
reports every problem, not just the first.  ``snapshot`` renders a resolved
config back to text; re-validating a snapshot is a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from .decoders import KINDS as DECODERS
from .evalkit import STRATEGIES as STRATEGY_NAMES
from .training import Hyperparameters, TrainConfig, check, one_of, problems

FORMATS = ("tsv", "ntriples")

# Per-dataset hyperparameter presets (bi-level model rows); link-prediction
# and ablation experiments reuse the "am" values.
PRESETS: dict[str, dict[str, Any]] = {
    "aifb": dict(lr=0.05, l2_penalty=0.0, hidden_units=16, num_bases=0, epochs=85, dropout=0.4, leaky_slope=0.2),
    "mutag": dict(lr=0.01, l2_penalty=5e-4, hidden_units=16, num_bases=0, epochs=90, dropout=0.2, leaky_slope=0.0),
    "bgs": dict(lr=0.005, l2_penalty=0.0, hidden_units=16, num_bases=1, epochs=95, dropout=0.6, leaky_slope=0.4),
    "am": dict(lr=0.01, l2_penalty=0.0, hidden_units=16, num_bases=0, epochs=100, dropout=0.6, leaky_slope=0.0),
}


def _seed_problems(seeds: tuple[int, ...]) -> list[str]:
    if not seeds:
        return ["must list at least one seed"]
    return ["must be non-negative"] if any(s < 0 for s in seeds) else []


EXISTING_FILE = check(lambda v: () if v is None or Path(v).is_file() else (f"file not found: {v!r}",))


@dataclass(frozen=True)
class ExperimentConfig(Hyperparameters):
    """A resolved config file: the shared hyperparameters plus the keys only a file sets."""

    preset: str = field(default="none", metadata=one_of(("none", *PRESETS)))
    output_dir: str = "runs"
    seeds: tuple[int, ...] = field(default=(0,), metadata=check(_seed_problems))
    triples_path: str | None = field(default=None, metadata=EXISTING_FILE)
    triples_format: str = field(default="tsv", metadata=one_of(FORMATS))
    labels_path: str | None = field(default=None, metadata=EXISTING_FILE)
    train_nodes_path: str | None = field(default=None, metadata=EXISTING_FILE)
    valid_nodes_path: str | None = field(default=None, metadata=EXISTING_FILE)
    test_nodes_path: str | None = field(default=None, metadata=EXISTING_FILE)
    train_triples_path: str | None = field(default=None, metadata=EXISTING_FILE)
    valid_triples_path: str | None = field(default=None, metadata=EXISTING_FILE)
    test_triples_path: str | None = field(default=None, metadata=EXISTING_FILE)
    decoder: str = field(default="distmult", metadata=one_of(DECODERS))
    standalone_decoder: bool = False
    checkpoint: str | None = field(default=None, metadata=EXISTING_FILE)
    ensemble_checkpoint: str | None = field(default=None, metadata=EXISTING_FILE)
    ablation_strategies: tuple[str, ...] = field(
        default=STRATEGY_NAMES,
        metadata=check(lambda v: [f"unknown strategy {s!r}" for s in v if s not in STRATEGY_NAMES]),
    )
    ablation_fractions: tuple[float, ...] = field(
        default=tuple(k / 10 for k in range(1, 11)),
        metadata=check(lambda v: [f"fraction {f} outside (0, 1]" for f in v if not 0.0 < f <= 1.0]),
    )

    def to_train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(seed=seed, **{f.name: getattr(self, f.name) for f in fields(Hyperparameters)})


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {raw!r}")
    return raw.lower() == "true"


# One parser per field annotation; a field of any other type fails at import.
_PARSERS = {
    "str": str,
    "str | None": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[int, ...]": lambda raw: tuple(int(x) for x in raw.split(",")),
    "tuple[float, ...]": lambda raw: tuple(float(x) for x in raw.split(",")),
    "tuple[str, ...]": lambda raw: tuple(x.strip() for x in raw.split(",")),
}
_PARSER = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str, errors: list[str]):
    raw = raw.strip()
    parse = _PARSER[key]
    try:
        return parse(raw)
    except ValueError as err:
        # _parse_bool's message names the accepted values; int() and float()'s
        # messages do not read as config errors.
        errors.append(f"{key}: {err}" if parse is _parse_bool else f"{key}: cannot parse value {raw!r}")
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
        if key not in _PARSER:
            errors.append(f"unknown key: {key}")
            continue
        if key in out:
            errors.append(f"duplicate key: {key}")
            continue
        parsed = _parse_value(key, value, errors)
        if parsed is not None:
            out[key] = parsed
    return out


def validate_config(
    path, overrides: dict[str, str] | None = None
) -> tuple[ExperimentConfig | None, list[str]]:
    """Load, resolve and validate a config file plus overrides.

    Returns the resolved config and an empty error list on success, or
    ``None`` and every collected error message on failure.
    """
    errors: list[str] = []
    path = Path(path)
    if not path.is_file():
        return None, [f"config file not found: {path}"]
    raw = parse_config_text(path.read_text(encoding="utf-8"), errors)
    for key, value in (overrides or {}).items():
        if key not in _PARSER:
            errors.append(f"unknown key: {key}")
            continue
        parsed = _parse_value(key, value, errors)
        if parsed is not None:
            raw[key] = parsed
    if errors:
        return None, errors

    # An unknown preset adds no values; its own check reports it with the rest.
    cfg = ExperimentConfig(**{**PRESETS.get(raw.get("preset", "none"), {}), **raw})
    errors = list(problems(cfg))
    return (None, errors) if errors else (cfg, [])


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
