"""Scenario execution: products, CSV emission and comparisons.

Products are CSV files with a provenance header (scenario keys plus the run
timestamp as comments) followed by a deterministic body, so re-running the
same scenario and seed reproduces every body byte for byte.  Column names
carry units; dimensionless columns are plain ``value``/``stderr``.
"""
from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import correlate, events, evtfile, model, smearing
from .curves import CorrelationSurface
from .evtfile import _atomic_write
from .params import GridError, SpdcLabError
from .scenario import Scenario

__all__ = [
    "run_analytic",
    "run_smear",
    "run_simulate",
    "run_count",
    "run_compare",
    "read_curve_csv",
]


#: rows joined into one string and handed to the file at a time
_CHUNK_ROWS = 8192


def _write_table(path, header: list[str], names, *columns) -> None:
    """Write ``header``, the column line of ``names`` and one row per
    element of ``columns`` broadcast to one shape, read in C order.

    Each column's distinct values are formatted once: a ``str`` prints as
    is, an integer as its Python int and any other value as its Python
    float, whose ``str`` is its shortest round-trip ``repr``.  Floats are
    grouped by float64 bit pattern, so ``-0.0`` and every NaN print as their
    own float does.  Rows are joined at most ``_CHUNK_ROWS`` at a time, in
    whole slices along the first axis (one at least), so the writer never
    holds the whole body as text.
    """
    shape = np.broadcast_shapes(*map(np.shape, columns))
    fields = []  # (each distinct text with its separator, the text index of each cell)
    for k, column in enumerate(map(np.asarray, columns)):
        floats = column.dtype.kind not in "iuU"
        keys = (np.ascontiguousarray(column, dtype=np.float64).view(np.int64)
                if floats else column)
        keys, index = correlate._distinct(keys)
        end = "," if k < len(columns) - 1 else "\n"
        text = [f"{v}{end}" for v in (keys.view(float) if floats else keys).tolist()]
        cell = index.reshape((1,) * (len(shape) - column.ndim) + column.shape)
        fields.append((np.array(text, dtype=object), cell))
    step = max(1, _CHUNK_ROWS // (math.prod(shape[1:]) or 1))

    def chunks():
        yield "\n".join([*header, ",".join(names)]) + "\n"
        rows = np.empty((step, *shape[1:], len(fields)), dtype=object)
        for i in range(0, shape[0], step):
            part = rows[: min(step, shape[0] - i)]
            for k, (text, cell) in enumerate(fields):
                # a column broadcast along the first axis is indexed whole
                part[..., k] = text[cell if len(cell) == 1 else cell[i : i + step]]
            yield "".join(part.ravel().tolist())

    _atomic_write(path, chunks())


def _header(scenario: Scenario) -> list[str]:
    return [*scenario.header_lines(),
            f"# generated_at = {time.strftime('%Y-%m-%dT%H:%M:%S%z')}"]


def write_surface_csv(path, surface: CorrelationSurface, header=()) -> None:
    """Write the triple-rate surface as ``t1_s,t2_s,value_per_s3`` rows, t1
    and t2 both read off its one axis, t2 varying fastest; each axis label
    and each distinct value is formatted once."""
    _write_table(path, header, ["t1_s", "t2_s", "value_per_s3"],
                 surface.axis[:, None], surface.axis[None, :], surface.values)


def read_curve_csv(path):
    """Read delays, values and (optionally) stderr back from a product.

    A row without a stderr field reads it as NaN and a blank line is
    skipped.  A row of fewer than two fields, or a field that is not a
    number, raises ``SpdcLabError`` naming the file and line; a file that
    is not UTF-8 raises it naming the file.
    """
    delays, values, stderr = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if line.startswith("#") or line.startswith("delay_s") or not line.strip():
                    continue
                try:  # fewer than two fields fails the unpacking
                    delay, value, *err = (float(f) for f in line.strip().split(",")[:3])
                except ValueError:
                    raise SpdcLabError(f"{os.fspath(path)}: line {lineno}: "
                                       f"{line.strip()!r} is not a row of numbers") from None
                delays.append(delay)
                values.append(value)
                stderr.append(err[0] if err else np.nan)
        except UnicodeDecodeError as exc:
            raise SpdcLabError(f"{os.fspath(path)}: not UTF-8 text ({exc.reason})") from None
    return np.array(delays), np.array(values), np.array(stderr)


def _write_products(outdir, header: list[str], tables: dict) -> dict[str, str]:
    """Write each ``name: (names, *columns)`` of ``tables`` to ``NAME.csv``
    in ``outdir`` under the run's one ``header``; return the paths.  Callers
    compute every table first, so a run that trips a guard writes nothing."""
    os.makedirs(outdir, exist_ok=True)
    out = {}
    for name, table in tables.items():
        out[name] = os.path.join(outdir, name + ".csv")
        _write_table(out[name], header, *table)
    return out


def run_analytic(scenario: Scenario, outdir) -> dict[str, str]:
    """Emit the closed-form model curves on the scenario's delay grid."""
    src = scenario.source
    delays = scenario.window.delays()
    return _write_products(outdir, _header(scenario), {
        "auto_correlation": (["delay_s", "value_per_s"], delays,
                             model.auto_correlation(src, delays)),
        "cross_correlation": (["delay_s", "value_per_s"], delays,
                              model.cross_correlation(src, delays)),
        "g2_si": (["delay_s", "value"], delays, model.g2_si(src, delays)),
        "g2_ss": (["delay_s", "value"], delays, model.g2_ss_unconditional(src, delays)),
        "p_ssi_diag": (["delay_s", "value_per_s3"], delays,
                       model.p_ssi_diag(src, delays)),
        "g2_c_diag": (["delay_s", "value"], delays, model.g2_c(src, 0.0, delays, 0.0)),
    })


def run_smear(scenario: Scenario, outdir, with_surface: bool = False) -> dict[str, str]:
    """Emit the window-averaged curves and plateau predictions."""
    src = scenario.source
    window = scenario.window
    kernel = smearing.build_kernel(window.coincidence_halfwidth,
                                   scenario.chain.jitter_width, window.bin_width)
    # the surface first: its cell guard trips before the curves are smeared
    surface = smearing.smear_surface(src, kernel, window.span) if with_surface else None
    g2, gbar = smearing.smear_curves(src, kernel, window.delays())
    pred = smearing.predict_plateaus(src, kernel)

    header = _header(scenario)
    out = _write_products(outdir, header, {
        "kernel": (["delay_s", "value_per_s"], kernel.delays(), kernel.samples),
        "g2_si_smeared": (["delay_s", "value"], g2.delays, g2.values),
        "gbar2_c_analytic": (["delay_s", "value"], gbar.delays, gbar.values),
        "plateaus": (
            ["quantity", "value"],
            ["X", "g2si_plateau", "nssi_short_per_s3", "nssi_long_per_s3", "gbar2c_short"],
            [pred.X, pred.g2si_plateau, pred.nssi_short, pred.nssi_long,
             pred.gbar2c_short]),
    })
    if surface is not None:
        out["p_ssi_smeared"] = path = os.path.join(outdir, "p_ssi_smeared.csv")
        write_surface_csv(path, surface, header)
    return out


def run_simulate(scenario: Scenario, outdir) -> dict[str, str]:
    """Generate event streams and persist them as an .evt file."""
    os.makedirs(outdir, exist_ok=True)
    gen = (
        events.gen_thermal_cells
        if scenario.source.statistics == "thermal"
        else events.gen_poisson_pairs
    )
    pairs = gen(scenario.source, scenario.duration, scenario.seed)
    streams = events.apply_detector_chain(pairs, scenario.chain, scenario.seed)
    path = os.path.join(outdir, "events.evt")
    evtfile.write_events(streams, path)
    return {"events": path}


def _count_streams(idler, s1, s2, delays, tauc):
    """Singles rates, coincidence histograms and both estimators of one run.

    Returns ``(rates, histograms, g2bar, gbar2c)``: the singles rate of each
    channel and each histogram, keyed by the name they are written under.
    The heralding pair rate is the count of the zero-delay gate that
    ``coincidence_histograms`` counts anyway, so ``delays`` need not hold 0.
    The estimators divide by the idler and signal1 rates and by that pair
    rate, so a run where any of them is zero raises ``SpdcLabError``.
    """
    for stream in (idler, s1):
        if len(stream) == 0:
            raise SpdcLabError(f"{stream.channel} channel holds no events, "
                               "so no coincidence rate can be normalized")
    rates = {name: correlate.singles_rate(stream)
             for name, stream in zip(events.CHANNELS, (idler, s1, s2))}
    pairs_s1, pairs_s2, triples, heralds = correlate.coincidence_histograms(
        idler, s1, s2, delays, tauc)
    g2bar = correlate.estimate_g2bar_si(pairs_s1, rates["signal1"], rates["idler"])
    pairs0 = heralds / pairs_s1.duration
    if pairs0 == 0:
        raise SpdcLabError("no signal1-idler pair lies in the zero-delay window")
    gbar2c = correlate.estimate_gbar2_c(triples, pairs0, pairs_s2, rates["idler"])
    histograms = {"pairs_s1_idler": pairs_s1, "pairs_s2_idler": pairs_s2,
                  "triples": triples}
    return rates, histograms, g2bar, gbar2c


def run_count(scenario: Scenario, evt_path, outdir) -> dict[str, str]:
    """Count coincidences in an .evt file and emit the estimator curves."""
    streams = {s.channel: s for s in evtfile.read_events(evt_path)}
    window = scenario.window
    rates, histograms, g2bar, gbar2c = _count_streams(
        streams["idler"], streams["signal1"], streams["signal2"],
        window.delays(), window.coincidence_halfwidth,
    )
    return _write_products(outdir, _header(scenario), {
        "singles": (["channel", "rate_per_s", "stderr_per_s"],
                    list(rates), [r.value for r in rates.values()],
                    [r.stderr for r in rates.values()]),
        **{name: (["delay_s", "counts"], hist.delays, hist.counts)
           for name, hist in histograms.items()},
        "g2bar_si": (["delay_s", "value", "stderr"], g2bar.delays, g2bar.values,
                     g2bar.stderr),
        "gbar2_c": (["delay_s", "value", "stderr"], gbar2c.delays, gbar2c.values,
                    gbar2c.stderr),
    })


@dataclass(frozen=True)
class CompareResult:
    delays: np.ndarray
    z: np.ndarray
    max_abs_z: float


def run_compare(path_a, path_b, out_path=None) -> CompareResult:
    """Per-bin z-scores between two estimator CSVs sharing one grid."""
    da, va, ea = read_curve_csv(path_a)
    db, vb, eb = read_curve_csv(path_b)
    for path, d, e in ((path_a, da, ea), (path_b, db, eb)):
        if d.size == 0:
            raise SpdcLabError(f"{os.fspath(path)}: no data rows")
        if np.all(np.isnan(e)):
            raise SpdcLabError(f"{os.fspath(path)}: no stderr value, "
                               "so no z-score can be formed")
    # each delay of b must be a's grid point in its row, by the one grid-point rule
    if da.shape != db.shape or np.any(
            smearing._grid_index(da, db) != np.arange(da.size)):
        raise GridError("compare inputs must share one delay grid")
    denom = np.sqrt(ea**2 + eb**2)
    z = np.where(denom > 0, (va - vb) / np.where(denom > 0, denom, 1.0), np.nan)
    finite = z[np.isfinite(z)]
    max_abs = float(np.max(np.abs(finite))) if finite.size else np.nan
    if out_path is not None:
        header = [f"# compare = {os.fspath(path_a)} vs {os.fspath(path_b)}",
                  f"# max_abs_z = {max_abs!r}"]
        _write_table(out_path, header, ["delay_s", "z"], da, z)
    return CompareResult(da, z, max_abs)
