"""Config resolution (flags > config file > defaults) and run manifests."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path

from . import __version__ as TOOL_VERSION
from .atomic import atomic_write
from .errors import ConfigError

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


def _apply_window(cfg: dict, doc: dict, source: str) -> None:
    if "window_years" in doc and "window_days" in doc:
        raise ConfigError(
            f"{source} sets both 'window_years' and 'window_days'; pick one"
        )
    if "window_years" in doc:
        years = float(doc["window_years"])
        if years <= 0:
            raise ConfigError(f"window_years must be > 0, got {years}")
        cfg["window_days"] = int(round(years * DAYS_PER_YEAR))
    elif "window_days" in doc:
        cfg["window_days"] = int(doc["window_days"])


def parse_horizon(value) -> int | None:
    """'end' (or None) means end-of-data; otherwise a positive day count."""
    if value is None or value == "end":
        return None
    try:
        days = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"horizon must be 'end' or a day count, got {value!r}") from None
    if days < 1:
        raise ConfigError(f"horizon must be >= 1 day, got {days}")
    return days


def resolve_config(config_path: str | Path | None, overrides: dict | None = None) -> dict:
    """Merge defaults, an optional JSON config file, and explicit flag values.

    The result uses canonical keys only (window_days, never window_years), so
    it can be written out and re-read as a config file unchanged.
    """
    cfg = dict(DEFAULTS)
    if config_path is not None:
        try:
            doc = json.loads(Path(config_path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {config_path} must hold a JSON object")
        unknown = sorted(set(doc) - VALID_KEYS)
        if unknown:
            raise ConfigError(
                f"unknown config keys {unknown}; valid keys: {sorted(VALID_KEYS)}"
            )
        _apply_window(cfg, doc, f"config file {config_path}")
        for key, value in doc.items():
            if key not in ("window_years", "window_days"):
                cfg[key] = value

    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    unknown = sorted(set(overrides) - VALID_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; valid keys: {sorted(VALID_KEYS)}")
    _apply_window(cfg, overrides, "command line")
    for key, value in overrides.items():
        if key not in ("window_years", "window_days"):
            cfg[key] = value

    cfg["horizon"] = "end" if parse_horizon(cfg["horizon"]) is None else int(cfg["horizon"])
    if cfg["window_days"] < 1:
        raise ConfigError(f"window_days must be >= 1, got {cfg['window_days']}")
    cfg["head_widths"] = [int(w) for w in cfg["head_widths"]]
    return cfg


# ----------------------------------------------------------------- manifest


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclasses.dataclass
class RunManifest:
    command: str
    tool_version: str
    seed: int
    config: dict
    inputs: dict[str, str]  # path -> sha256
    outputs: list[str]
    counters: dict  # deterministic data counts from the command, e.g. encode's
    started_utc: str
    finished_utc: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(
    out_dir: str | Path,
    command: str,
    config: dict,
    inputs: list[str | Path],
    outputs: list[str | Path],
    started: str,
    finished: str | None = None,
    counters: dict | None = None,
) -> Path:
    manifest = RunManifest(
        command=command,
        tool_version=TOOL_VERSION,
        seed=int(config.get("seed", 0)),
        config=config,
        inputs={str(p): file_digest(p) for p in inputs},
        outputs=[str(p) for p in outputs],
        counters=counters or {},
        started_utc=started,
        finished_utc=finished or utc_now(),
    )
    path = Path(out_dir) / f"{command}_manifest.json"
    with atomic_write(path) as fh:
        fh.write(json.dumps(manifest.to_dict(), indent=1))
    return path
