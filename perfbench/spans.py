"""Layer spans for the traced benchmark run.

Run as a script, this module is a drop-in for ``python -m spdclab.cli``:

    python3 perfbench/spans.py TRACE.json simulate scenario.ini -o out

It wraps every public function (no leading underscore) defined in the six
layer modules ``spdclab.model``, ``smearing``, ``events``, ``evtfile``,
``correlate`` and ``runner`` with a span recorder, runs the CLI call, and
writes the spans plus each layer's ``ru_maxrss`` high-water mark after its
last call to TRACE.json.  The spans stay in memory until the call returns.

Imported, it turns the span files of one traced chain into the per-layer
metrics (``layer_metrics``).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time

LAYERS = ("model", "smearing", "events", "evtfile", "correlate", "runner")


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _span_info(name: str, args: tuple, result) -> dict:
    """Work counts and call identity read at the span boundary."""
    if name in ("events.gen_poisson_pairs", "events.gen_thermal_cells"):
        return {"pairs": len(result)}
    if name == "events.apply_detector_chain":
        return {"events": sum(len(stream) for stream in result)}
    if name == "evtfile.write_events":
        return {"bytes": os.path.getsize(args[1])}
    if name == "evtfile.read_events":
        return {"bytes": os.path.getsize(args[0])}
    if name == "correlate.pair_histogram":
        return {"a": args[0].channel, "n_delays": len(args[2])}
    if name == "smearing.smear_surface":
        return {"cells": int(result.values.size)}
    if name == "runner.write_surface_csv":
        return {"bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    """Records one span per call into a wrapped layer function."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.rss_after: dict[str, float] = {}
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "info": {},
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                self.rss_after[layer] = maxrss_mb()
            span["info"] = _span_info(name, args, result)
            return result

        return traced

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"spdclab.{layer}")
            for attr, fn in vars(module).copy().items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    setattr(module, attr, self._wrap(layer, fn))


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics.
# ---------------------------------------------------------------------------


def _stage_spans(trace: dict) -> list[dict]:
    """Spans called directly by a ``runner.run_*`` stage function."""
    spans = trace["spans"]
    return [
        s for s in spans
        if s["parent"] is not None
        and spans[s["parent"]]["name"].startswith("runner.run_")
    ]


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer times, counts and memory from the span files of one chain.

    Times are inclusive durations of stage calls (calls made directly by a
    ``runner.run_*`` function), summed over the chain's CLI children.
    Each ``*.rss_mb`` is the maximum over children of the layer's
    ``ru_maxrss`` after its last call in that child.  A layer the chain
    leaves idle reports 0.
    """
    total: dict[str, float] = {}
    info: dict[str, float] = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    for trace in traces:
        for s in _stage_spans(trace):
            name = s["name"]
            add(name, s["end"] - s["start"])
            if name == "correlate.pair_histogram":
                a, n = s["info"]["a"], s["info"]["n_delays"]
                key = "zero" if n == 1 else a
                add(f"correlate.pair.{key}", s["end"] - s["start"])
            for k, v in s["info"].items():
                if isinstance(v, (int, float)):
                    info[f"{name}:{k}"] = info.get(f"{name}:{k}", 0) + v
            if name.startswith("model."):
                add("model.analytic", s["end"] - s["start"])

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def rss(layer):
        return max((tr["rss_after"].get(layer, 0.0) for tr in traces), default=0.0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    write_s = t("evtfile.write_events")
    read_s = t("evtfile.read_events")
    evt_bytes = info.get("evtfile.write_events:bytes",
                         info.get("evtfile.read_events:bytes", 0))
    csv_s = t("runner.write_surface_csv")
    csv_bytes = info.get("runner.write_surface_csv:bytes", 0)
    m = {
        "events.gen_s": t("events.gen_poisson_pairs", "events.gen_thermal_cells"),
        "events.chain_s": t("events.apply_detector_chain"),
        "events.pairs": info.get("events.gen_poisson_pairs:pairs", 0)
        + info.get("events.gen_thermal_cells:pairs", 0),
        "events.events": info.get("events.apply_detector_chain:events", 0),
        "events.rss_mb": rss("events"),
        "evtfile.write_s": write_s,
        "evtfile.read_s": read_s,
        "evtfile.bytes": evt_bytes,
        "evtfile.read_mb_per_s": rate(evt_bytes / 1e6, read_s),
        "correlate.singles_s": t("correlate.singles_rate"),
        "correlate.pair_s1_s": t("correlate.pair.signal1"),
        "correlate.pair_s2_s": t("correlate.pair.signal2"),
        "correlate.triple_s": t("correlate.triple_histogram"),
        "correlate.zero_s": t("correlate.pair.zero"),
        "correlate.estimate_s": t("correlate.estimate_g2bar_si",
                                  "correlate.estimate_gbar2_c"),
        "correlate.rss_mb": rss("correlate"),
        "model.analytic_s": t("model.analytic"),
        "smearing.kernel_s": t("smearing.build_kernel"),
        "smearing.curve_s": t("smearing.sample_g2_si", "smearing.smear_curve",
                              "smearing.gbar2c_analytic"),
        "smearing.sample_p_ssi_s": t("smearing.sample_p_ssi"),
        "smearing.smear_surface_s": t("smearing.smear_surface"),
        "smearing.cells": info.get("smearing.smear_surface:cells", 0),
        "smearing.rss_mb": rss("smearing"),
        "runner.surface_csv_s": csv_s,
        "runner.surface_csv_bytes": csv_bytes,
        "runner.csv_mb_per_s": rate(csv_bytes / 1e6, csv_s),
        "runner.rss_mb": rss("runner"),
    }
    # a span's self time is its duration minus its children's, so the sum
    # of every layer's self time telescopes to the root spans' duration
    m["layer_self_s"] = sum(s["end"] - s["start"] for tr in traces
                            for s in tr["spans"] if s["parent"] is None)
    return m


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from spdclab import cli

    rc = cli.main(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": tracer.spans, "rss_after": tracer.rss_after}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
