"""Config resolution (flags > config file > defaults) and run manifests."""

from __future__ import annotations

import hashlib
import math
from datetime import datetime, timezone
from pathlib import Path

from . import __version__ as TOOL_VERSION
from .atomic import read_json, write_json
from .errors import ConfigError

# Every setting and its default. A value must have its default's JSON type:
# an integer for int keys (a bool is not one), any finite number for float
# keys (stored as a float), a list of integers for head_widths, and 'end' or a
# day count >= 1 for horizon; seed is >= 0. TrainConfig and ModelConfig take
# their field defaults from here.
DEFAULTS: dict = {
    "window_days": 1095,
    "horizon": "end",  # or an integer day count: growth bracket (T, T+horizon]
    "bins": 6,
    "min_observed": 10,
    "seed": 0,
    "batch_size": 32,
    "max_epochs": 1000,
    "patience": 20,
    "step_size": 5e-3,
    "alpha": 1.0,
    "beta": 1e-4,
    "embed_width": 32,
    "pre_embed_depth": 2,
    "conv_kernel": 2,
    "conv_stride": 2,
    "head_widths": [32, 16],
    "synth_n": 200,
    "synth_size_min": 10,
    "synth_size_max": 60,
    "synth_horizon": 2200,
    "attachment_bias": 1.0,
}

# window_years is accepted as an alias and resolved to window_days
VALID_KEYS = frozenset(DEFAULTS) | {"window_years"}

DAYS_PER_YEAR = 365
MAX_WINDOW_DAYS = 100_000  # about 274 years, longer than any citation record


def parse_horizon(value) -> int | None:
    """'end' (or None) means end-of-data; otherwise a day count >= 1."""
    if value is None or value == "end":
        return None
    if type(value) is not int or value < 1:
        raise ConfigError(f"config key 'horizon' must be 'end' or an integer >= 1, got {value!r}")
    return value


def _typed(key: str, value, default):
    """`value` if it has the JSON type of `default`, a float key's as a float."""
    if isinstance(default, float):
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
        kind = "a finite number"
    elif isinstance(default, list):
        if type(value) is list and all(type(w) is int for w in value):
            return value
        kind = "a list of integers"
    elif type(value) is int:
        return value
    else:
        kind = "an integer"
    raise ConfigError(f"config key {key!r} must be {kind}, got {value!r}")


def resolve_config(config_path: str | Path | None, overrides: dict | None = None) -> dict:
    """Merge defaults, an optional JSON config file, and explicit flag values.

    The result uses canonical keys only (window_days, never window_years), so
    it can be written out and re-read as a config file unchanged. Each value
    is checked against the type of its default once, after the merge.
    """
    cfg = dict(DEFAULTS)
    sources = []
    if config_path is not None:
        doc = read_json(config_path, lambda message: ConfigError(f"config file {message}"))
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        sources.append((doc, f"config file {config_path}"))
    sources.append(({k: v for k, v in (overrides or {}).items() if v is not None}, "command line"))

    for doc, source in sources:
        unknown = sorted(set(doc) - VALID_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; valid keys: {sorted(VALID_KEYS)}")
        if "window_years" in doc:
            if "window_days" in doc:
                raise ConfigError(f"{source} sets both 'window_years' and 'window_days'; pick one")
            years = _typed("window_years", doc["window_years"], 1.0)
            if years <= 0:
                raise ConfigError(f"window_years must be > 0, got {years}")
            cfg["window_days"] = round(years * DAYS_PER_YEAR)
        cfg.update((k, v) for k, v in doc.items() if k != "window_years")

    for key, value in cfg.items():
        if key == "horizon":
            cfg[key] = parse_horizon(value) or "end"
        else:
            cfg[key] = _typed(key, value, DEFAULTS[key])
    if not 1 <= cfg["window_days"] <= MAX_WINDOW_DAYS:
        raise ConfigError(f"window_days must lie in [1, {MAX_WINDOW_DAYS}], got {cfg['window_days']}")
    if cfg["seed"] < 0:  # NumPy seeds no generator from a negative integer
        raise ConfigError(f"config key 'seed' must be >= 0, got {cfg['seed']}")
    return cfg


# ----------------------------------------------------------------- manifest


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(
    out_dir: str | Path,
    command: str,
    config: dict,
    inputs: list[str | Path],
    outputs: list[str | Path],
    started: str,
    counters: dict | None = None,
) -> Path:
    """`<command>_manifest.json`: the resolved config, input digests, output
    paths, the command's deterministic data counts, and timestamps."""
    manifest = {
        "command": command,
        "tool_version": TOOL_VERSION,
        "seed": config["seed"],
        "config": config,
        "inputs": {str(p): file_digest(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "counters": counters or {},
        "started_utc": started,
        "finished_utc": utc_now(),
    }
    return write_json(Path(out_dir) / f"{command}_manifest.json", manifest)
