"""Flat key-value scenario files and their validation.

A scenario file is INI-like without sections: one ``key = value`` per line,
``#`` starts a comment.  Numbers must be finite: ``inf`` or ``nan`` is a
configuration error.  Recognized keys:

    source.rate_hz            pair-generation rate R (1/s)
    source.coherence_time_s   coherence time (s)
    source.shape              box | triangle          (default box)
    chain.eta_idler           idler efficiency        (default 1.0)
    chain.eta_signal          signal efficiency       (default 1.0)
    chain.splitter            signal1 routing ratio   (default 0.5)
    chain.jitter_s            per-detector jitter, full width (default 0.0)
    window.tauc_s             coincidence half-width (s)
    window.bin_s              delay grid step (s)
    window.span_s             maximum |delay| (s)
    run.duration_s            simulated acquisition time (s)
    run.seed                  integer RNG seed        (default 1)
    run.model                 thermal | poisson       (default poisson)
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .params import (
    AnalysisWindow,
    ConfigError,
    DetectorChain,
    SourceParams,
    duration_to_ticks,
)

__all__ = ["Scenario", "parse_scenario", "load_scenario"]

_DEFAULTS = {
    "source.shape": "box",
    "chain.eta_idler": "1.0",
    "chain.eta_signal": "1.0",
    "chain.splitter": "0.5",
    "chain.jitter_s": "0.0",
    "run.seed": "1",
    "run.model": "poisson",
}

_REQUIRED = (
    "source.rate_hz",
    "source.coherence_time_s",
    "window.tauc_s",
    "window.bin_s",
    "window.span_s",
    "run.duration_s",
)

_ALL_KEYS = tuple(_REQUIRED) + tuple(_DEFAULTS)

MODELS = ("thermal", "poisson")


@dataclass(frozen=True)
class Scenario:
    source: SourceParams
    chain: DetectorChain
    window: AnalysisWindow
    duration: float
    seed: int
    model: str
    raw: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"run.model must be one of {MODELS}")
        if self.duration <= 0:
            raise ConfigError("run.duration_s must be > 0")
        duration_to_ticks(self.duration)
        needed = 2 * (self.window.coincidence_halfwidth + self.chain.jitter_width)
        if self.window.span < needed:
            raise ConfigError(
                f"window.span_s must cover twice the window support "
                f"({needed:g} s), got {self.window.span:g} s"
            )

    def header_lines(self) -> list[str]:
        """Full provenance block embedded in every emitted product."""
        lines = ["# spdclab scenario"]
        for key in _ALL_KEYS:
            lines.append(f"# {key} = {self.raw.get(key, '')}")
        return lines


def _parse_flat(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _get_float(values: dict[str, str], key: str) -> float:
    try:
        value = float(values[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {values[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: not a finite number: {values[key]!r}")
    return value


def parse_scenario(text: str) -> Scenario:
    values = _parse_flat(text)
    unknown = set(values) - set(_ALL_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")
    missing = [key for key in _REQUIRED if key not in values]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    merged = {**_DEFAULTS, **values}
    try:
        seed = int(merged["run.seed"])
    except ValueError as exc:
        raise ConfigError(f"run.seed: not an integer: {merged['run.seed']!r}") from exc
    source = SourceParams(
        pair_rate=_get_float(merged, "source.rate_hz"),
        coherence_time=_get_float(merged, "source.coherence_time_s"),
        shape=merged["source.shape"],
    )
    chain = DetectorChain(
        idler_efficiency=_get_float(merged, "chain.eta_idler"),
        signal_efficiency=_get_float(merged, "chain.eta_signal"),
        splitter_ratio=_get_float(merged, "chain.splitter"),
        jitter_width=_get_float(merged, "chain.jitter_s"),
    )
    window = AnalysisWindow(
        coincidence_halfwidth=_get_float(merged, "window.tauc_s"),
        bin_width=_get_float(merged, "window.bin_s"),
        span=_get_float(merged, "window.span_s"),
    )
    return Scenario(
        source=source,
        chain=chain,
        window=window,
        duration=_get_float(merged, "run.duration_s"),
        seed=seed,
        model=merged["run.model"],
        raw=merged,
    )


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
