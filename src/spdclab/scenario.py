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
    run.seed                  integer RNG seed >= 0   (default 1)
    run.model                 source statistics: thermal | poisson (default poisson)

:data:`KEYS` is the one list of these keys in code: parsing, the defaults
and the header block of every product all read it.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .params import (
    AnalysisWindow,
    ConfigError,
    DetectorChain,
    SourceParams,
    TICKS_PER_SECOND,
    duration_to_ticks,
)

__all__ = ["KEYS", "Scenario", "parse_scenario", "load_scenario"]

#: key -> (part, field name, parser, default text or None if required), in
#: header order; a part is the ``source``, ``chain``, ``window`` or ``run``
#: fields of a :class:`Scenario`
KEYS = {
    "source.rate_hz": ("source", "pair_rate", float, None),
    "source.coherence_time_s": ("source", "coherence_time", float, None),
    "window.tauc_s": ("window", "coincidence_halfwidth", float, None),
    "window.bin_s": ("window", "bin_width", float, None),
    "window.span_s": ("window", "span", float, None),
    "run.duration_s": ("run", "duration", float, None),
    "source.shape": ("source", "shape", str, "box"),
    "chain.eta_idler": ("chain", "idler_efficiency", float, "1.0"),
    "chain.eta_signal": ("chain", "signal_efficiency", float, "1.0"),
    "chain.splitter": ("chain", "splitter_ratio", float, "0.5"),
    "chain.jitter_s": ("chain", "jitter_width", float, "0.0"),
    "run.seed": ("run", "seed", int, "1"),
    "run.model": ("source", "statistics", str, "poisson"),
}


@dataclass(frozen=True)
class Scenario:
    source: SourceParams
    chain: DetectorChain
    window: AnalysisWindow
    duration: float
    seed: int

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError(f"run.seed must be >= 0, got {self.seed}")
        if duration_to_ticks(self.duration) < 1:
            raise ConfigError(f"run.duration_s must be at least one tick "
                              f"({1 / TICKS_PER_SECOND:g} s), got {self.duration!r}")
        needed = 2 * (self.window.coincidence_halfwidth + self.chain.jitter_width)
        if self.window.span < needed:
            raise ConfigError(
                f"window.span_s must cover twice the window support "
                f"({needed:g} s), got {self.window.span:g} s"
            )

    def header_lines(self) -> list[str]:
        """Provenance block embedded in every emitted product: each key's
        built value, so the block with ``# `` stripped is a scenario file
        that ``parse_scenario`` reads back to an equal ``Scenario``."""
        parts = {"source": self.source, "chain": self.chain, "window": self.window,
                 "run": self}
        return ["# spdclab scenario",
                *(f"# {key} = {getattr(parts[part], name)}"
                  for key, (part, name, *_) in KEYS.items())]


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


def parse_scenario(text: str, overrides: dict[str, str] | None = None) -> Scenario:
    """Validate a scenario file's text and build it; ``overrides`` replaces
    or adds ``{key: value}`` pairs before any key is checked."""
    values = {**_parse_flat(text), **(overrides or {})}
    unknown = set(values) - set(KEYS)
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")
    missing = [key for key, (*_, default) in KEYS.items()
               if default is None and key not in values]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    parts: dict[str, dict] = {"source": {}, "chain": {}, "window": {}, "run": {}}
    for key, (part, name, parse, default) in KEYS.items():
        given = values.get(key, default)
        try:
            value = parse(given)
        except ValueError as exc:
            kind = "an integer" if parse is int else "a number"
            raise ConfigError(f"{key}: not {kind}: {given!r}") from exc
        if parse is float and not math.isfinite(value):
            raise ConfigError(f"{key}: not a finite number: {given!r}")
        parts[part][name] = value
    return Scenario(SourceParams(**parts["source"]), DetectorChain(**parts["chain"]),
                    AnalysisWindow(**parts["window"]), **parts["run"])


def load_scenario(path, overrides: dict[str, str] | None = None) -> Scenario:
    """``parse_scenario`` of a UTF-8 file; ``ConfigError`` naming the file
    when its bytes are not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{os.fspath(path)}: not UTF-8 text ({exc.reason})") from None
    return parse_scenario(text, overrides)
