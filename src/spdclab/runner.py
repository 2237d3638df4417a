"""Scenario execution: products, CSV emission and comparisons.

Products are CSV files with a provenance header (scenario keys plus the run
timestamp as comments) followed by a deterministic body, so re-running the
same scenario and seed reproduces every body byte for byte.  Column names
carry units; dimensionless columns are plain ``value``/``stderr``.
"""
from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass

import numpy as np

from . import correlate, events, evtfile, model, smearing
from .curves import CorrelationSurface, _grid_index
from .params import GridError, SpdcLabError
from .scenario import Scenario

__all__ = [
    "run_analytic",
    "run_smear",
    "run_simulate",
    "run_count",
    "run_compare",
    "write_curve_csv",
    "read_curve_csv",
]

_UNIT_SUFFIX = {
    "dimensionless": "",
    "per_s": "_per_s",
    "per_s3": "_per_s3",
}


def _atomic_write(path, chunks) -> None:
    """Write an iterable of text chunks to ``path`` through ``path.tmp``.

    The temporary file replaces ``path`` only once every chunk is written;
    if producing or writing a chunk raises, it is removed instead.
    """
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_lines(path, lines: list[str]) -> None:
    _atomic_write(path, ("\n".join(lines), "\n"))


def _rows(*columns) -> list[str]:
    """CSV body lines, one per row; every value prints as ``repr`` of its
    Python scalar (``tolist`` turns numpy floats into Python floats)."""
    cols = [np.asarray(c).tolist() for c in columns]
    return [",".join(map(repr, row)) for row in zip(*cols)]


def _header(scenario: Scenario | None) -> list[str]:
    lines = [] if scenario is None else list(scenario.header_lines())
    lines.append(f"# generated_at = {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
    return lines


def write_curve_csv(
    path, delays, values, stderr=None, unit: str = "dimensionless",
    scenario: Scenario | None = None,
) -> None:
    suffix = _UNIT_SUFFIX.get(unit, f"_{unit}")
    lines = _header(scenario)
    columns = [delays, values]
    if stderr is None:
        lines.append(f"delay_s,value{suffix}")
    else:
        lines.append(f"delay_s,value{suffix},stderr{suffix}")
        columns.append(stderr)
    lines += _rows(*(np.asarray(c, dtype=float) for c in columns))
    _write_lines(path, lines)


def write_surface_csv(
    path, surface: CorrelationSurface, scenario: Scenario | None = None
) -> None:
    """Stream the surface as ``t1_s,t2_s,value`` rows, t2 varying fastest.

    Each axis label and each distinct value is formatted once: cells are
    grouped by their float64 bit pattern, which keeps ``-0.0`` apart from
    ``0.0``, so every cell prints as ``repr`` of its own Python float.  A
    row is one ``(len(t2), 3)`` object array of those strings (t1 label,
    t2 label, value plus newline), filled by numpy and joined once.
    """
    suffix = _UNIT_SUFFIX.get(surface.unit, f"_{surface.unit}")
    lines = _header(scenario)
    lines.append(f"t1_s,t2_s,value{suffix}")

    def chunks():
        yield "\n".join(lines) + "\n"
        values = np.ascontiguousarray(surface.values, dtype=np.float64)
        bits, cells = np.unique(values.view(np.int64), return_inverse=True)
        text = np.array([f"{v!r}\n" for v in bits.view(np.float64).tolist()],
                        dtype=object)
        row = np.empty((values.shape[1], 3), dtype=object)
        row[:, 1] = [f",{b!r}," for b in surface.t2.tolist()]
        for a, cells_row in zip(surface.t1.tolist(), cells.reshape(values.shape)):
            row[:, 0] = repr(a)
            row[:, 2] = text[cells_row]
            yield "".join(row.ravel().tolist())

    _atomic_write(path, chunks())


def read_curve_csv(path):
    """Read delays, values and (optionally) stderr back from a product."""
    delays, values, stderr = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("delay_s"):
                continue
            parts = line.strip().split(",")
            if len(parts) < 2:
                continue
            delays.append(float(parts[0]))
            values.append(float(parts[1]))
            stderr.append(float(parts[2]) if len(parts) > 2 else np.nan)
    return np.array(delays), np.array(values), np.array(stderr)


def _product(out: dict[str, str], outdir, name: str) -> str:
    """Path of product ``name`` in ``outdir``, recorded in ``out``."""
    path = out[name] = os.path.join(outdir, name + ".csv")
    return path


def run_analytic(scenario: Scenario, outdir) -> dict[str, str]:
    """Emit the closed-form model curves on the scenario's delay grid."""
    os.makedirs(outdir, exist_ok=True)
    src = scenario.source
    delays = scenario.window.delays()
    out = {}
    for name, values, unit in (
        ("auto_correlation", model.auto_correlation(src, delays), "per_s"),
        ("cross_correlation", model.cross_correlation(src, delays), "per_s"),
        ("g2_si", model.g2_si(src, delays), "dimensionless"),
        ("g2_ss", model.g2_ss_unconditional(src, delays), "dimensionless"),
        ("p_ssi_diag", model.p_ssi_diag(src, delays), "per_s3"),
        ("g2_c_diag", model.g2_c(src, 0.0, delays, 0.0), "dimensionless"),
    ):
        write_curve_csv(_product(out, outdir, name), delays, values, unit=unit,
                        scenario=scenario)
    return out


def _scenario_kernel(scenario: Scenario) -> smearing.ResponseKernel:
    return smearing.build_kernel(
        scenario.window.coincidence_halfwidth,
        scenario.chain.jitter_width,
        scenario.window.bin_width,
    )


def run_smear(scenario: Scenario, outdir, with_surface: bool = False) -> dict[str, str]:
    """Emit the window-averaged curves and plateau predictions."""
    os.makedirs(outdir, exist_ok=True)
    src = scenario.source
    window = scenario.window
    kernel = _scenario_kernel(scenario)
    out = {}

    write_curve_csv(_product(out, outdir, "kernel"), kernel.delays(),
                    kernel.samples, unit="per_s", scenario=scenario)

    # sampled span from which the valid convolution still covers the grid
    half_span = window.span + kernel.support_halfwidth + window.bin_width
    curve = smearing.smear_curve(
        smearing.sample_g2_si(src, window.bin_width, half_span), kernel
    )
    keep = np.abs(curve.delays) <= window.span + window.bin_width / 2
    write_curve_csv(_product(out, outdir, "g2_si_smeared"), curve.delays[keep],
                    curve.values[keep], unit=curve.unit, scenario=scenario)

    gbar = smearing.gbar2c_analytic(src, kernel, window.delays())
    write_curve_csv(_product(out, outdir, "gbar2_c_analytic"), gbar.delays,
                    gbar.values, unit=gbar.unit, scenario=scenario)

    pred = smearing.predict_plateaus(src, kernel)
    lines = _header(scenario)
    lines.append("quantity,value")
    lines.append(f"X,{pred.X!r}")
    lines.append(f"g2si_plateau,{pred.g2si_plateau!r}")
    lines.append(f"nssi_short_per_s3,{pred.nssi_short!r}")
    lines.append(f"nssi_long_per_s3,{pred.nssi_long!r}")
    lines.append(f"gbar2c_short,{pred.gbar2c_short!r}")
    _write_lines(_product(out, outdir, "plateaus"), lines)

    if with_surface:
        surface = smearing.smear_surface(
            smearing.sample_p_ssi(src, window.bin_width, half_span), kernel
        )
        write_surface_csv(_product(out, outdir, "p_ssi_smeared"), surface, scenario)
    return out


def run_simulate(scenario: Scenario, outdir) -> dict[str, str]:
    """Generate event streams and persist them as an .evt file."""
    os.makedirs(outdir, exist_ok=True)
    gen = (
        events.gen_thermal_cells
        if scenario.model == "thermal"
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
    ``delays`` must hold 0.0, where the heralding pair rate is read.  The
    estimators divide by the idler and signal1 rates and by that pair rate,
    so a run where any of them is zero raises ``SpdcLabError``.
    """
    for stream in (idler, s1):
        if len(stream) == 0:
            raise SpdcLabError(f"{stream.channel} channel holds no events, "
                               "so no coincidence rate can be normalized")
    rates = {name: correlate.singles_rate(stream)
             for name, stream in zip(events.CHANNELS, (idler, s1, s2))}
    pairs_s1, pairs_s2, triples = correlate.coincidence_histograms(
        idler, s1, s2, delays, tauc)
    g2bar = correlate.estimate_g2bar_si(pairs_s1, rates["signal1"], rates["idler"])
    pairs0 = float(pairs_s1.rates[_grid_index(pairs_s1.delays, 0.0)])
    if pairs0 == 0:
        raise SpdcLabError("no signal1-idler pair lies in the zero-delay window")
    gbar2c = correlate.estimate_gbar2_c(triples, pairs0, pairs_s2, rates["idler"])
    histograms = {"pairs_s1_idler": pairs_s1, "pairs_s2_idler": pairs_s2,
                  "triples": triples}
    return rates, histograms, g2bar, gbar2c


def run_count(scenario: Scenario, evt_path, outdir) -> dict[str, str]:
    """Count coincidences in an .evt file and emit the estimator curves."""
    os.makedirs(outdir, exist_ok=True)
    streams = {s.channel: s for s in evtfile.read_events(evt_path)}
    window = scenario.window
    rates, histograms, g2bar, gbar2c = _count_streams(
        streams["idler"], streams["signal1"], streams["signal2"],
        window.delays(), window.coincidence_halfwidth,
    )
    out = {}

    lines = _header(scenario)
    lines.append("channel,rate_per_s,stderr_per_s")
    rows = _rows([r.value for r in rates.values()], [r.stderr for r in rates.values()])
    lines += [f"{name},{row}" for name, row in zip(rates, rows)]
    _write_lines(_product(out, outdir, "singles"), lines)

    for name, hist in histograms.items():
        lines = _header(scenario)
        lines.append("delay_s,counts")
        lines += _rows(hist.delays, hist.counts)
        _write_lines(_product(out, outdir, name), lines)

    for name, est in (("g2bar_si", g2bar), ("gbar2_c", gbar2c)):
        write_curve_csv(_product(out, outdir, name), est.delays, est.values,
                        est.stderr, scenario=scenario)
    return out


@dataclass(frozen=True)
class CompareResult:
    delays: np.ndarray
    z: np.ndarray
    max_abs_z: float


def run_compare(path_a, path_b, out_path=None) -> CompareResult:
    """Per-bin z-scores between two estimator CSVs sharing one grid."""
    da, va, ea = read_curve_csv(path_a)
    db, vb, eb = read_curve_csv(path_b)
    if da.shape != db.shape or np.any(np.abs(da - db) > 1e-12 + 1e-9 * np.abs(da)):
        raise GridError("compare inputs must share one delay grid")
    denom = np.sqrt(ea**2 + eb**2)
    z = np.where(denom > 0, (va - vb) / np.where(denom > 0, denom, 1.0), np.nan)
    finite = z[np.isfinite(z)]
    max_abs = float(np.max(np.abs(finite))) if finite.size else np.nan
    if out_path is not None:
        lines = [f"# compare = {os.fspath(path_a)} vs {os.fspath(path_b)}",
                 f"# max_abs_z = {max_abs!r}", "delay_s,z"]
        lines += _rows(da, z)
        _write_lines(out_path, lines)
    return CompareResult(da, z, max_abs)
