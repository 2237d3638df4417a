import concurrent.futures
import contextlib
import io
import os
import re
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdclab import (
    AnalysisWindow,
    ConfigError,
    CorrelationSurface,
    DetectorChain,
    Scenario,
    SourceParams,
    apply_detector_chain,
    gen_poisson_pairs,
    parse_scenario,
    read_events,
)
from spdclab.cli import main
from spdclab.runner import (
    _CHUNK_ROWS,
    _count_streams,
    _write_table,
    read_curve_csv,
    run_analytic,
    run_compare,
    run_count,
    run_simulate,
    run_smear,
    write_surface_csv,
)
from spdclab.scenario import KEYS
from spdclab.smearing import _grid_index

from _oracles import raw_evt, table_csv_body

DESK_CONFIG = """
# desk-scale reference scenario
source.rate_hz         = 2e7
source.coherence_time_s = 1e-9
source.shape           = box
chain.eta_idler        = 1.0
chain.eta_signal       = 1.0
chain.splitter         = 0.5
chain.jitter_s         = 1e-9
window.tauc_s          = 5e-9
window.bin_s           = 5e-11
window.span_s          = 2e-8
run.duration_s         = 2e-3
run.seed               = 11
run.model              = poisson
"""


def header_scenario(path):
    """The scenario a product's header block names: its ``# `` lines with
    ``# `` stripped, less the ``spdclab scenario`` and ``generated_at``
    lines, read as a scenario file."""
    lines = [ln[2:] for ln in Path(path).read_text().splitlines()
             if ln.startswith("# ")]
    return parse_scenario("\n".join(
        ln for ln in lines
        if ln != "spdclab scenario" and not ln.startswith("generated_at = ")))


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "desk.ini"
    path.write_text(DESK_CONFIG)
    return str(path)


@pytest.fixture(scope="module")
def non_curves(tmp_path_factory):
    """Products and files that are not estimator curves, for ``compare``."""
    root = tmp_path_factory.mktemp("non_curves")
    config = root / "desk.ini"
    config.write_text(DESK_CONFIG)
    assert main(["smear", str(config), "-o", str(root)]) == 0
    assert main(["simulate", str(config), "-o", str(root)]) == 0
    assert main(["count", str(config), str(root / "events.evt"),
                 "-o", str(root)]) == 0
    (root / "not_a_number.csv").write_text("delay_s,value\n1e-9,abc\n")
    # a blank line is skipped; a row cut down to its delay is not a row
    (root / "short_row.csv").write_text("delay_s,value,stderr\n1e-9,1.0,0.1\n\n2e-9\n")
    (root / "empty.csv").write_text("")
    return root


#: values the scenario fuzz draws: each is refused or makes a cheap run of
#: the desk scenario at a 1e-5 s duration (at most 2e2 pairs)
_FUZZ_VALUES = ("0", "-1", "1e-300", "1e-20", "1e-12", "1e300", "1e103", "inf",
                "nan", "abc")
_FUZZ_COMMANDS = ("analytic", "smear", "smear --surface", "simulate", "count")


class TestScenarioParsing:
    def test_parse_and_defaults(self):
        minimal = "\n".join(
            [
                "source.rate_hz = 1e6",
                "source.coherence_time_s = 1e-9",
                "window.tauc_s = 4e-9",
                "window.bin_s = 1e-10",
                "window.span_s = 1e-8",
                "run.duration_s = 0.1",
            ]
        )
        sc = parse_scenario(minimal)
        assert sc.source.shape == "box"
        assert sc.chain.splitter_ratio == 0.5
        assert sc.source.statistics == "poisson"
        assert sc.seed == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_scenario("source.rate_hz = 1e6\nsource.bandwidth = 2")

    def test_missing_key_rejected(self):
        with pytest.raises(ConfigError, match="missing"):
            parse_scenario("source.rate_hz = 1e6")

    def test_span_must_cover_window(self):
        text = DESK_CONFIG.replace("= 2e-8", "= 5e-9")
        with pytest.raises(ConfigError, match="span"):
            parse_scenario(text)

    def test_bad_model(self):
        with pytest.raises(ConfigError):
            parse_scenario(DESK_CONFIG.replace("poisson", "chaotic"))


class TestCliCommands:
    def test_analytic_products(self, config_path, tmp_path, capsys):
        out = tmp_path / "analytic"
        assert main(["analytic", config_path, "-o", str(out)]) == 0
        for name in ("auto_correlation", "cross_correlation", "g2_si",
                     "g2_ss", "p_ssi_diag", "g2_c_diag"):
            assert (out / f"{name}.csv").exists()
        text = (out / "g2_si.csv").read_text()
        assert text.startswith("# spdclab scenario")
        assert header_scenario(out / "g2_si.csv") == parse_scenario(DESK_CONFIG)
        assert "delay_s,value" in text
        d, v, _ = read_curve_csv(out / "g2_si.csv")
        assert v[np.argmin(np.abs(d))] == pytest.approx(51.0)

    def test_smear_products(self, config_path, tmp_path):
        out = tmp_path / "smear"
        assert main(["smear", config_path, "-o", str(out)]) == 0
        d, v, _ = read_curve_csv(out / "g2_si_smeared.csv")
        assert v[np.argmin(np.abs(d))] == pytest.approx(6.0, rel=1e-9)
        plateaus = (out / "plateaus.csv").read_text()
        assert "X,5.0" in plateaus

    def test_smear_on_the_count_grid(self, tmp_path):
        # smear at window.bin_s = 1 ns, the count grid of CI's wide span:
        # the kernel samples on 50 ps, each curve holds the 41 delays of the
        # window grid with the 50 ps run's values, matched by the grid-point
        # rule, and the surface's axis is the window grid bit for bit
        coarse, fine = (tmp_path / f"{name}.ini" for name in ("coarse", "fine"))
        coarse.write_text(DESK_CONFIG.replace("= 5e-11", "= 1e-9"))
        fine.write_text(DESK_CONFIG)
        assert main(["smear", str(coarse), "-o", str(tmp_path / "coarse"), "--surface"]) == 0
        assert main(["smear", str(fine), "-o", str(tmp_path / "fine")]) == 0
        delays = parse_scenario(coarse.read_text()).window.delays()
        for name in ("g2_si_smeared", "gbar2_c_analytic"):
            d, v, _ = read_curve_csv(tmp_path / "coarse" / f"{name}.csv")
            df, vf, _ = read_curve_csv(tmp_path / "fine" / f"{name}.csv")
            assert d.tobytes() == delays.tobytes()
            assert v.tobytes() == vf[_grid_index(df, d)].tobytes()
        rows = [ln.split(",") for ln in
                (tmp_path / "coarse" / "p_ssi_smeared.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert len(rows) == 41 * 41
        t1, t2 = (np.array([float(row[k]) for row in rows]).reshape(41, 41)
                  for k in (0, 1))
        assert t1[:, 0].tobytes() == t2[0].tobytes() == delays.tobytes()

    def test_coarse_wide_surface(self, tmp_path):
        # 1 ns cells over a 3e-7 s span: 601^2 written cells, although the
        # 50 ps sample grid beneath them spans 1.5e8 cells
        config = tmp_path / "wide.ini"
        config.write_text(DESK_CONFIG.replace("= 5e-11", "= 1e-9")
                          .replace("window.span_s          = 2e-8",
                                   "window.span_s          = 3e-7"))
        out = tmp_path / "wide"
        assert main(["smear", str(config), "-o", str(out), "--surface"]) == 0
        body = [ln for ln in (out / "p_ssi_smeared.csv").read_text().splitlines()
                if not ln.startswith("#")][1:]
        assert len(body) == 601 * 601

    @pytest.mark.parametrize("command", ["analytic", "smear", "simulate", "sweep",
                                         "compare"])
    def test_non_utf8_input_exit_code(self, tmp_path, capsys, command):
        # a Latin-1 byte in a scenario file or a curve CSV: main returns 2
        # naming the file, where it raised UnicodeDecodeError (a traceback)
        out = tmp_path / "out"
        if command == "compare":
            bad = tmp_path / "bad.csv"
            text = "delay_s,value,stderr\n0.0,1.0,0.1\n# caf\xe9\n"
            args = ["compare", str(bad), str(bad)]
        else:
            bad = tmp_path / "bad.ini"
            text = DESK_CONFIG + "# caf\xe9\n"
            args = [command, str(bad), "-o", str(out)]
            if command == "sweep":
                args[2:2] = ["--key", "window.tauc_s", "--values", "5e-9"]
                args.append("smear")
        bad.write_bytes(text.encode("latin-1"))
        assert main(args) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "UTF-8" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_simulate_count_round_trip(self, config_path, tmp_path):
        sim = tmp_path / "sim"
        assert main(["simulate", config_path, "-o", str(sim)]) == 0
        evt = sim / "events.evt"
        assert evt.exists()
        cnt = tmp_path / "count"
        assert main(["count", config_path, str(evt), "-o", str(cnt)]) == 0
        d, v, e = read_curve_csv(cnt / "g2bar_si.csv")
        i0 = np.argmin(np.abs(d))
        assert abs(v[i0] - 6.0) < 4 * e[i0]
        assert (cnt / "gbar2_c.csv").exists()
        assert (cnt / "singles.csv").exists()

    def test_product_fields_parse_as_numbers(self, config_path, tmp_path):
        # every number prints as repr of its float, or a plain int for counts
        sim, cnt, sm, an = (tmp_path / d for d in ("sim", "cnt", "sm", "an"))
        assert main(["simulate", config_path, "-o", str(sim)]) == 0
        assert main(["count", config_path, str(sim / "events.evt"),
                     "-o", str(cnt)]) == 0
        assert main(["smear", config_path, "-o", str(sm), "--surface"]) == 0
        assert main(["analytic", config_path, "-o", str(an)]) == 0
        assert main(["compare", str(cnt / "g2bar_si.csv"), str(cnt / "g2bar_si.csv"),
                     "-o", str(tmp_path / "z.csv")]) == 0
        products = [*sorted(tmp_path.glob("*/*.csv")), tmp_path / "z.csv"]
        assert len(products) == 18
        for path in products:
            names, *rows = [ln.split(",") for ln in path.read_text().splitlines()
                            if not ln.startswith("#")]
            assert rows, path.name
            for row in rows:
                assert len(row) == len(names), path.name
                for name, field in zip(names, row):
                    if name in ("channel", "quantity"):
                        continue  # a label
                    number = str(int(field)) if name == "counts" else repr(float(field))
                    assert field == number, (path.name, name, field)

    @pytest.mark.parametrize("command", ["smear --surface", "count"])
    def test_one_generated_at_per_run(self, config_path, tmp_path, monkeypatch,
                                      command):
        sim, out = tmp_path / "sim", tmp_path / "out"
        assert main(["simulate", config_path, "-o", str(sim)]) == 0
        argv = {"smear --surface": ["smear", config_path, "--surface"],
                "count": ["count", config_path, str(sim / "events.evt")]}[command]
        # each clock read gives a new stamp, so a product stamped apart shows
        stamps = iter(range(1000))
        monkeypatch.setattr(time, "strftime", lambda fmt: f"stamp {next(stamps)}")
        assert main([*argv, "-o", str(out)]) == 0
        products = sorted(out.glob("*.csv"))
        assert len(products) == {"smear --surface": 5, "count": 6}[command]
        stamped = {ln for path in products for ln in path.read_text().splitlines()
                   if ln.startswith("# generated_at = ")}
        assert len(stamped) == 1, stamped

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        for text, message in (("source.rate_hz = 1e6\n", "missing keys"),
                              ("source.rate_hz 1e6\n", "line 1: expected 'key = value'")):
            bad.write_text(text)
            assert main(["analytic", str(bad), "-o", str(tmp_path / "x")]) == 2
            assert message in capsys.readouterr().err

    def test_guard_exit_code(self, config_path, tmp_path):
        import warnings

        text = DESK_CONFIG.replace("run.model              = poisson",
                                   "run.model              = thermal")
        text = text.replace("source.rate_hz         = 2e7",
                            "source.rate_hz         = 2e9")
        bright = tmp_path / "bright.ini"
        bright.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["simulate", str(bright), "-o", str(tmp_path / "y")])
        assert code == 3

    def test_count_differences_guard_exit_code(self, tmp_path, capsys):
        # 1e5 events per channel over 1e-6 s and a 1e-6 s span: every
        # signal-idler event pair lies inside the windows' span, so both
        # passes are expected to bin 2e10 differences
        evt = tmp_path / "dense.evt"
        evt.write_bytes(raw_evt(*((c, 10**9, np.arange(10**5) * 10**4)
                                  for c in range(3))))
        wide = tmp_path / "wide.ini"
        wide.write_text(re.sub(r"^window\.span_s\s*=.*$", "window.span_s = 1e-6",
                               DESK_CONFIG, flags=re.M))
        code = main(["count", str(wide), str(evt), "-o", str(tmp_path / "c")])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "guard tripped: expected coincidence differences would be 2e+10")
        assert not list((tmp_path / "c").glob("*.csv"))

    @pytest.mark.parametrize("channels", [
        [(0, 10**12, [9, 5]), (1, 10**12, [1]), (2, 10**12, [2])],
        [(0, 10**12, [5]), (1, 10**12, [1])],
        [(0, 10**12, [5]), (1, 10**12, [1]), (1, 10**12, [2]), (2, 10**12, [3])],
        [(0, 10**12, [5]), (1, 2 * 10**12, [1]), (2, 10**12, [3])],
        [(0, 0, [0]), (1, 0, [0]), (2, 0, [])],
        # a duration past the int64 tick range, for every channel
        [(0, 2**64 - 1, [5]), (1, 2**64 - 1, [1]), (2, 2**64 - 1, [2])],
    ], ids=["unsorted", "missing", "repeated", "durations_differ", "zero_duration",
            "duration_past_int64"])
    def test_malformed_evt_exit_code(self, config_path, tmp_path, capsys,
                                     channels):
        evt = tmp_path / "bad.evt"
        evt.write_bytes(raw_evt(*channels))
        code = main(["count", config_path, str(evt), "-o", str(tmp_path / "c")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {evt}: ")
        assert not list((tmp_path / "c").glob("*.csv"))

    def test_truncated_evt_exit_code(self, config_path, tmp_path, capsys):
        evt = tmp_path / "cut.evt"
        data = raw_evt((0, 10**12, [5, 9]), (1, 10**12, [1]), (2, 10**12, [2]))
        evt.write_bytes(data[:-3])
        code = main(["count", config_path, str(evt), "-o", str(tmp_path / "c")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {evt}: ")
        assert not list((tmp_path / "c").glob("*.csv"))

    @pytest.mark.parametrize("channels, message", [
        ([(0, 10**12, []), (1, 10**12, [1]), (2, 10**12, [2])],
         "idler channel holds no events"),
        ([(0, 10**12, [5]), (1, 10**12, []), (2, 10**12, [2])],
         "signal1 channel holds no events"),
        ([(0, 10**12, [5]), (1, 10**12, [10**11]), (2, 10**12, [2])],
         "no signal1-idler pair lies in the zero-delay window"),
    ], ids=["no_idler", "no_signal1", "no_zero_delay_pair"])
    def test_unnormalizable_evt_exit_code(self, config_path, tmp_path, capsys,
                                          channels, message):
        evt = tmp_path / "sparse.evt"
        evt.write_bytes(raw_evt(*channels))
        code = main(["count", config_path, str(evt), "-o", str(tmp_path / "c")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not list((tmp_path / "c").glob("*.csv"))

    @pytest.mark.parametrize("command, key, value", [
        ("analytic", "window.span_s", "inf"),
        ("count", "window.span_s", "inf"),
        ("simulate", "source.rate_hz", "inf"),
        ("simulate", "chain.jitter_s", "nan"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, command, key,
                                        value):
        config = tmp_path / "inf.ini"
        config.write_text(re.sub(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}",
                                 DESK_CONFIG, flags=re.M))
        evt = tmp_path / "ok.evt"
        evt.write_bytes(raw_evt((0, 10**12, [5]), (1, 10**12, [1]), (2, 10**12, [2])))
        out = tmp_path / "out"
        args = [command, str(config), *([str(evt)] if command == "count" else []),
                "-o", str(out)]
        assert main(args) == 2
        assert f"{key}: not a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, overrides", [
        pytest.param(command, overrides, id="-".join(
            [command, *(f"{k}-{v}" for k, v in overrides.items())]))
        for command, overrides in [
            ("simulate", {"source.rate_hz": "1e30"}),
            # 4e8 mean pairs: past the pair guard, short of the old 1e9 limit
            ("simulate", {"source.rate_hz": "2e11"}),
            ("analytic", {"window.bin_s": "1e-30"}),
            ("smear", {"window.bin_s": "1e-30"}),
            ("count", {"window.bin_s": "1e-30"}),
            ("analytic", {"window.span_s": "1e30"}),
            ("smear", {"window.span_s": "1e30"}),
            # a ~1e6-point curve against a ~2e5-sample kernel
            ("smear", {"chain.jitter_s": "1e-12", "window.bin_s": "5e-14"}),
            ("simulate", {"run.seed": "-1"}),
            # delays or the window reach past int64 femtosecond ticks
            ("count", {"window.span_s": "1e4", "window.bin_s": "1e3"}),
            ("count", {"window.tauc_s": "1e4", "window.span_s": "3e4",
                       "window.bin_s": "1e3"}),
            # the delay grid widened by the kernel: 1.44e8 written surface cells
            ("smear --surface", {"window.span_s": "3e-7"}),
            # a kernel sample step of 0: the grid guard, not a division by it
            ("smear", {"chain.jitter_s": "5e-324"}),
            ("smear --surface", {"chain.jitter_s": "5e-324"}),
            # R^3 past the largest float
            ("analytic", {"source.rate_hz": "1e103"}),
            ("analytic", {"source.rate_hz": "1e300"}),
            ("smear", {"source.rate_hz": "1e103"}),
            ("smear", {"source.rate_hz": "1e300"}),
            # R^3 below the smallest normal float
            ("analytic", {"source.rate_hz": "1e-300"}),
            ("smear", {"source.rate_hz": "1e-300"}),
        ]
    ])
    def test_extreme_value_exits_cleanly(self, tmp_path, capsys, command,
                                         overrides):
        import warnings

        text = DESK_CONFIG
        for key, value in overrides.items():
            text = re.sub(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text,
                          flags=re.M)
        config = tmp_path / "extreme.ini"
        config.write_text(text)
        evt = tmp_path / "ok.evt"
        evt.write_bytes(raw_evt((0, 10**12, [5]), (1, 10**12, [1]), (2, 10**12, [2])))
        command, *flags = command.split()
        out = tmp_path / "out"
        args = [command, str(config), *([str(evt)] if command == "count" else []),
                "-o", str(out), *flags]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # mu >= 0.1 at 1e30 pairs/s
            # numpy's floating-point warnings (divide by zero, overflow) fail
            warnings.simplefilter("error", RuntimeWarning)
            code = main(args)
        assert code in (2, 3)
        err = capsys.readouterr().err
        assert err.startswith(("config error: ", "guard tripped: "))
        assert "Warning" not in err
        # no partial product set, not even a temporary file
        assert not [*out.glob("*.csv"), *out.glob("*.tmp")]

    @pytest.mark.parametrize("shape, overrides", [
        pytest.param(shape, overrides, id="-".join([shape, *overrides.values()]))
        for shape, overrides in [
            # a central block of 2e5 cells, one subcell each, by 243 rows
            ("box", {"source.coherence_time_s": "1e-5", "window.span_s": "2e-5"}),
            # the whole peak inside the centre cell, 16 subcells on each axis
            *[(shape, {"source.coherence_time_s": dt})
              for shape in ("box", "triangle") for dt in ("1e-20", "1e-300")],
        ]
    ])
    def test_extreme_coherence_time_smears_finite(self, tmp_path, shape, overrides):
        text = re.sub(r"^source\.shape\s*=.*$", f"source.shape = {shape}",
                      DESK_CONFIG, flags=re.M)
        for key, value in overrides.items():
            text = re.sub(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text,
                          flags=re.M)
        config = tmp_path / "extreme.ini"
        config.write_text(text)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # mu >= 0.1 at dt = 1e-5 s
            assert main(["smear", str(config), "-o", str(out)]) == 0
        products = sorted(out.glob("*.csv"))
        assert len(products) == 4
        for path in products:
            body = [line for line in path.read_text().splitlines()[1:]
                    if not line.startswith("#")]
            assert body and not re.search("nan|inf", "\n".join(body)), path.name

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(key=st.sampled_from(list(KEYS)), value=st.sampled_from(_FUZZ_VALUES),
           command=st.sampled_from(_FUZZ_COMMANDS))
    @example(key="source.coherence_time_s", value="1e-20", command="smear")
    @example(key="source.coherence_time_s", value="1e-300", command="smear")
    @example(key="source.rate_hz", value="1e103", command="analytic")
    @example(key="source.rate_hz", value="1e300", command="smear")
    @example(key="source.rate_hz", value="1e-300", command="analytic")
    def test_scenario_fuzz(self, key, value, command):
        # one extreme value of one key of the desk scenario, kept small by a
        # 1e-5 s run: a clean exit, or one error line and no product
        text = re.sub(r"^run\.duration_s\s*=.*$", "run.duration_s = 1e-5",
                      DESK_CONFIG, flags=re.M)
        text = re.sub(rf"^{re.escape(key)}\s*=.*$", "", text, flags=re.M)
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "fuzz.ini"
            config.write_text(f"{text}{key} = {value}\n")
            evt = Path(tmp) / "ok.evt"
            evt.write_bytes(raw_evt((0, 10**12, [5]), (1, 10**12, [1]),
                                    (2, 10**12, [2])))
            command, *flags = command.split()
            out = Path(tmp) / "out"
            args = [command, str(config),
                    *([str(evt)] if command == "count" else []), "-o", str(out),
                    *flags]
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("ignore")
                code = main(args)
            lines = err.getvalue().splitlines()
            assert code in (0, 2, 3), lines
            assert "Traceback" not in err.getvalue()
            if code:
                assert len(lines) == 1, lines
                assert lines[0].startswith(("error: ", "config error: ",
                                            "guard tripped: "))
                assert not [*out.glob("*.csv"), *out.glob("*.tmp")]

    @pytest.mark.parametrize("duration", ["1e4", "1e5"])
    def test_duration_beyond_int64_ticks(self, tmp_path, capsys, duration):
        config = tmp_path / "long.ini"
        # a low rate keeps the run small should the duration get through
        config.write_text(DESK_CONFIG.replace("= 2e-3", f"= {duration}")
                          .replace("= 2e7", "= 1e2"))
        out = tmp_path / "long"
        assert main(["simulate", str(config), "-o", str(out)]) == 2
        assert "int64" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("duration", ["1e-300", "4e-16", "5e-16", "1e-15"])
    def test_duration_below_one_tick(self, tmp_path, capsys, duration):
        # 4e-16 and 5e-16 s round to 0 ticks (half to even), 1e-15 s is one
        config = tmp_path / "short.ini"
        config.write_text(DESK_CONFIG.replace("= 2e-3", f"= {duration}"))
        out = tmp_path / "short"
        code = main(["simulate", str(config), "-o", str(out)])
        if duration == "1e-15":
            assert code == 0
            streams = read_events(out / "events.evt")
            assert [s.duration for s in streams] == [1, 1, 1]
            return
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), lines
        assert not out.exists()

    def test_reproducible_bodies(self, config_path, tmp_path):
        def body(path):
            lines = path.read_text().splitlines()
            return [ln for ln in lines if not ln.startswith("#")]

        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        main(["simulate", config_path, "-o", str(out1)])
        main(["count", config_path, str(out1 / "events.evt"), "-o", str(out1)])
        main(["simulate", config_path, "-o", str(out2)])
        main(["count", config_path, str(out2 / "events.evt"), "-o", str(out2)])
        for name in ("g2bar_si.csv", "gbar2_c.csv", "singles.csv"):
            assert body(out1 / name) == body(out2 / name)
        assert (out1 / "events.evt").read_bytes() == (out2 / "events.evt").read_bytes()

    def test_compare_command(self, tmp_path, capsys):
        delays = np.arange(-3, 4) * 1e-9
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        names = ["delay_s", "value", "stderr"]
        _write_table(a, [], names, delays, np.ones(7), np.full(7, 0.1))
        _write_table(b, [], names, delays, np.ones(7) + 0.05, np.full(7, 0.1))
        out = tmp_path / "z.csv"
        assert main(["compare", str(a), str(b), "-o", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "max_abs_z" in captured
        result = run_compare(a, b)
        expected = -0.05 / np.hypot(0.1, 0.1)
        assert np.allclose(result.z, expected)
        assert result.max_abs_z == pytest.approx(abs(expected))

    def test_compare_one_grid_rule(self, tmp_path, capsys):
        # a delay of b is a's grid point only within 1e-6 of a's spacing, as
        # in the smearing layer's lookup, however fine the grid: a half-bin
        # shift, a step 4e-3 off and a whole-bin shift (its last delay off a's
        # grid) are refused; so are a row count that differs and a's delays
        # rotated by one row, every delay a's grid point in another row
        n = np.arange(-100, 101)
        a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "z.csv"
        names = ["delay_s", "value", "stderr"]
        for delays_a, delays_b, message in (
                (n * 1e-14, n * 1e-14 + 0.5e-14, "is not a point of the grid"),
                (n * 1e-13, n * 1.004e-13, "is not a point of the grid"),
                (n * 1e-9, (n + 1) * 1e-9, "is not a point of the grid"),
                (n * 1e-9, n[1:] * 1e-9, "compare inputs must share one delay grid"),
                (n * 1e-9, np.roll(n, 1) * 1e-9,
                 "compare inputs must share one delay grid")):
            for path, delays in ((a, delays_a), (b, delays_b)):
                _write_table(path, [], names, delays, np.ones(delays.size),
                             np.full(delays.size, 0.1))
            assert main(["compare", str(a), str(b), "-o", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
            assert message in captured.err
            assert not out.exists()
        # every estimator product of one scenario, either model, still compares
        products = []
        for model in ("poisson", "thermal"):
            config = tmp_path / f"{model}.ini"
            config.write_text(DESK_CONFIG.replace("= poisson", f"= {model}"))
            assert main(["simulate", str(config), "-o", str(tmp_path / model)]) == 0
            assert main(["count", str(config), str(tmp_path / model / "events.evt"),
                         "-o", str(tmp_path / model)]) == 0
            products += [tmp_path / model / name for name in ("g2bar_si.csv",
                                                              "gbar2_c.csv")]
        for pa in products:
            for pb in products:
                assert main(["compare", str(pa), str(pb), "-o", str(out)]) == 0

    @pytest.mark.parametrize("name, message", [
        # a table of labels is refused on its column line
        ("singles.csv",
         "line 16: 'channel,rate_per_s,stderr_per_s' is not a row of numbers"),
        ("plateaus.csv", "line 16: 'quantity,value' is not a row of numbers"),
        ("not_a_number.csv", "line 2: "),
        ("short_row.csv", "line 4: "),
        ("empty.csv", "no data rows"),
        ("triples.csv", "no stderr value"),
    ], ids=["singles", "plateaus", "not_a_number", "short_row", "empty", "triples"])
    def test_compare_rejects_non_curves(self, non_curves, tmp_path, capsys,
                                        name, message):
        path = str(non_curves / name)
        out = tmp_path / "z.csv"
        assert main(["compare", path, path, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    def test_sweep_runs_each_value(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", config_path, "--key", "window.tauc_s",
            "--values", "4e-9,5e-9", "-o", str(out), "analytic",
        ])
        assert code == 0
        assert (out / "window_tauc_s=4e-9" / "g2_si.csv").exists()
        assert (out / "window_tauc_s=5e-9" / "g2_si.csv").exists()

    @pytest.mark.parametrize("values, message", [
        ("5e-9,abc", "window.tauc_s: not a number: 'abc'"),
        ("5e-9,0", "coincidence_halfwidth must be > 0"),
        (",", "sweep needs at least one value"),
    ], ids=["not_a_number", "zero_window", "no_value"])
    def test_sweep_bad_value_runs_none(self, config_path, tmp_path, capsys,
                                       values, message):
        # a scenario error in any value exits before the first value runs
        out = tmp_path / "out"
        code = main([
            "sweep", config_path, "--key", "window.tauc_s",
            "--values", values, "-o", str(out), "smear",
        ])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_sweep_key_left_out_of_config(self, tmp_path):
        # the swept value stands in for a required key the config leaves out
        config = tmp_path / "no_tauc.ini"
        config.write_text(re.sub(r"^window\.tauc_s\s*=.*\n", "", DESK_CONFIG,
                                 flags=re.M))
        with pytest.raises(ConfigError, match="missing keys: window.tauc_s"):
            parse_scenario(config.read_text())
        out = tmp_path / "sweep"
        code = main([
            "sweep", str(config), "--key", "window.tauc_s",
            "--values", "4e-9,5e-9", "-o", str(out), "analytic",
        ])
        assert code == 0
        assert (out / "window_tauc_s=4e-9" / "g2_si.csv").exists()
        assert (out / "window_tauc_s=5e-9" / "g2_si.csv").exists()

    def test_sweep_repeated_value(self, config_path, tmp_path, monkeypatch, capsys):
        # two workers on one value would write one directory's products at once
        started = self._serial_pool(monkeypatch)
        monkeypatch.setenv("SPDC_LAB_THREADS", "2")
        out = tmp_path / "repeat"
        code = main([
            "sweep", config_path, "--key", "window.tauc_s",
            "--values", "4e-9,5e-9, 5e-9", "-o", str(out), "smear",
        ])
        assert code == 2
        assert "--values repeats '5e-9'" in capsys.readouterr().err
        assert started == []
        assert not out.exists()

    def test_sweep_parallel_env(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SPDC_LAB_THREADS", "2")
        out = tmp_path / "psweep"
        code = main([
            "sweep", config_path, "--key", "source.rate_hz",
            "--values", "1e7,2e7", "-o", str(out), "analytic",
        ])
        assert code == 0
        assert (out / "source_rate_hz=1e7" / "g2_si.csv").exists()

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_sweep_bad_thread_env(self, config_path, tmp_path, monkeypatch,
                                  capsys, value):
        monkeypatch.setenv("SPDC_LAB_THREADS", value)
        out = tmp_path / "bad"
        code = main([
            "sweep", config_path, "--key", "source.rate_hz",
            "--values", "1e7,2e7", "-o", str(out), "analytic",
        ])
        assert code == 2
        assert "SPDC_LAB_THREADS" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _serial_pool(monkeypatch):
        started = []

        class SerialPool:
            """Records the requested worker count and runs jobs in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        return started

    def test_sweep_workers_capped_at_jobs(self, config_path, tmp_path,
                                          monkeypatch):
        started = self._serial_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setenv("SPDC_LAB_THREADS", "1000")
        out = tmp_path / "capped"
        code = main([
            "sweep", config_path, "--key", "source.rate_hz",
            "--values", "1e7,2e7", "-o", str(out), "analytic",
        ])
        assert code == 0
        assert started == [2]
        assert (out / "source_rate_hz=2e7" / "g2_si.csv").exists()

    def test_sweep_duplicate_key(self, tmp_path, capsys):
        config = tmp_path / "twice.ini"
        config.write_text(DESK_CONFIG + "window.tauc_s = 4e-9\n")
        out = tmp_path / "twice"
        code = main([
            "sweep", str(config), "--key", "window.tauc_s",
            "--values", "5e-9", "-o", str(out), "analytic",
        ])
        assert code == 2
        assert "duplicate key 'window.tauc_s'" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_unknown_key(self, config_path, tmp_path, monkeypatch,
                               capsys):
        started = self._serial_pool(monkeypatch)
        monkeypatch.setenv("SPDC_LAB_THREADS", "2")
        out = tmp_path / "badkey"
        code = main([
            "sweep", config_path, "--key", "window.bin",
            "--values", "1e-10,2e-10", "-o", str(out), "analytic",
        ])
        assert code == 2
        assert "--key" in capsys.readouterr().err
        assert started == []
        assert not out.exists()


def test_count_heralds_without_zero_delay():
    # the heralding rate comes from the zero-delay gate, not from a grid
    # point, so a grid without 0 gives the same gbar2_c where the grids meet
    pairs = gen_poisson_pairs(SourceParams(2e7, 1e-9), 2e-3, 12)
    streams = apply_detector_chain(pairs, DetectorChain(jitter_width=1e-9), 12)
    with_zero = _count_streams(*streams, np.array([-1e-9, 0.0, 1e-9]), 5e-9)[3]
    without = _count_streams(*streams, np.array([-1e-9, 1e-9]), 5e-9)[3]
    assert np.array_equal(without.delays, with_zero.delays[[0, 2]])
    for field in ("values", "stderr"):
        assert (getattr(without, field).tobytes()
                == getattr(with_zero, field)[[0, 2]].tobytes())


def test_surface_guard_trips_before_the_curves(tmp_path, monkeypatch):
    # the long triangle case: a 2e-5 s span on the 5e-11 s desk bin makes a
    # surface of 6.4e11 cells, so the guard must trip before any smearing
    from spdclab import GuardError, smearing

    def curves(*args):
        raise AssertionError("smear_curves ran before the surface cell guard")

    monkeypatch.setattr(smearing, "smear_curves", curves)
    text = DESK_CONFIG
    for key, value in (("source.shape", "triangle"), ("source.coherence_time_s", "5e-6"),
                       ("source.rate_hz", "1e4"), ("window.span_s", "2e-5"),
                       ("run.model", "thermal")):
        text = re.sub(rf"^{re.escape(key)}\s*=.*$", f"{key} = {value}", text, flags=re.M)
    with pytest.raises(GuardError, match="surface cells"):
        run_smear(parse_scenario(text), tmp_path / "long", with_surface=True)
    assert not list(tmp_path.glob("long/*.csv"))


@pytest.mark.parametrize("built", ["parsed", "library"])
def test_header_block_parses_back(tmp_path, built):
    """Every product header of ``analytic``, ``smear --surface`` and
    ``count`` names the scenario that made it, whether it was parsed from a
    file or built in code."""
    scenario = parse_scenario(DESK_CONFIG) if built == "parsed" else Scenario(
        SourceParams(2e7, 1e-9, statistics="poisson"), DetectorChain(jitter_width=1e-9),
        AnalysisWindow(5e-9, 5e-11, 2e-8), 0.01, 1)
    run_analytic(scenario, tmp_path / "analytic")
    run_smear(scenario, tmp_path / "smear", with_surface=True)
    evt = run_simulate(scenario, tmp_path / "run")["events"]
    run_count(scenario, evt, tmp_path / "count")
    products = sorted(tmp_path.glob("*/*.csv"))
    assert len(products) == 6 + 5 + 6
    for path in products:
        assert header_scenario(path) == scenario, path


def test_readme_sweep_example(tmp_path, monkeypatch):
    """The README's scenario and sweep command run as documented."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (scenario,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    (command,) = re.findall(r"^spdclab\s+sweep\s.*$",
                            readme.replace("\\\n", " "), re.M)
    argv = command.split()[1:]
    monkeypatch.chdir(tmp_path)
    (tmp_path / argv[1]).write_text(scenario)
    assert main(argv) == 0


def test_readme_library_example(capsys):
    """The README's library example runs and prints the plateaus it claims."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
    printed = capsys.readouterr().out
    assert "X=5.0" in printed and "g2si_plateau=6.0" in printed


def test_surface_csv_reads_its_axis_both_ways(tmp_path):
    """``write_surface_csv`` writes the table ``TestSurfaceCsv`` checks, with
    the surface's one axis as both t1 and t2."""
    rng = np.random.default_rng(43)
    axis = np.arange(6) * 5e-11 - 1e-10
    values = rng.choice([0.1 + 0.2, -0.0, 5e-324, np.inf, np.nan, 7.0], size=(6, 6))
    path = tmp_path / "surface.csv"
    write_surface_csv(path, CorrelationSurface(axis, values), ["# one header line"])
    assert path.read_text() == ("# one header line\n" + TestSurfaceCsv.NAMES
                                + TestSurfaceCsv._reference(axis, axis, values))


class TestSurfaceCsv:
    """The surface table against the row-by-row reference.  Every case
    writes ``t1[:, None]``, ``t2[None, :]`` and ``values``, the columns that
    ``write_surface_csv`` hands the table writer, through ``_write``, which
    ``TestTableCsv`` overrides to run it on 1-D columns.  The two axes may
    differ, as the one axis of a ``CorrelationSurface`` cannot."""

    NAMES = "t1_s,t2_s,value_per_s3\n"

    @staticmethod
    def _write(path, t1, t2, values):
        _write_table(path, [], ["t1_s", "t2_s", "value_per_s3"],
                     np.asarray(t1)[:, None], np.asarray(t2)[None, :], values)

    def _body(self, tmp_path, t1, t2, values):
        path = tmp_path / "table.csv"
        self._write(path, t1, t2, values)
        return path.read_text().partition(self.NAMES)[2]

    @staticmethod
    def _reference(t1, t2, values):
        return table_csv_body(np.asarray(t1)[:, None], np.asarray(t2)[None, :], values)

    @staticmethod
    def _surface():
        values = np.array([
            [0.0, -0.0, np.nan, np.inf, -np.inf],
            [5e-324, 0.1 + 0.2, 0.3, 0.1 + 0.2, 1e300],
            [-2.5e-8, 0.0, 0.1 + 0.2, -0.0, 7.0],
        ])
        return np.arange(3) * 5e-11 - 5e-11, np.arange(5) * 5e-11 - 1e-10, values

    def test_body_matches_per_cell_reference(self, tmp_path):
        path = tmp_path / "table.csv"
        self._write(path, *self._surface())
        header, names, body = path.read_text().partition(self.NAMES)
        assert names and all(ln.startswith("#") for ln in header.splitlines())
        assert body == self._reference(*self._surface())
        assert "-0.0" in body and "5e-324" in body and "0.30000000000000004" in body
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1)])
    def test_single_row_or_column(self, tmp_path, shape):
        t1 = np.arange(shape[0]) * 5e-11 - 1e-10
        t2 = np.arange(shape[1]) * 5e-11 + 3e-11
        values = np.linspace(-1.0, 2.0, shape[0] * shape[1]).reshape(shape) / 3
        body = self._body(tmp_path, t1, t2, values)
        assert body == self._reference(t1, t2, values)
        assert body.count("\n") == values.size

    def test_nans_with_different_bits(self, tmp_path):
        values = np.array([[0.0, 1.5, 0.0], [0.0, 0.0, -0.0]])
        bits = values.view(np.int64)
        bits[0, 0] = bits[1, 1] = 0x7FF8000000000000
        bits[0, 2] = bits[1, 0] = 0xFFF8000000000001 - 2**64
        assert np.unique(bits).size == 4
        t1, t2 = np.array([0.0, 1e-11]), np.array([-1e-11, 0.0, 1e-11])
        body = self._body(tmp_path, t1, t2, values)
        assert body == self._reference(t1, t2, values)
        assert body.count(",nan\n") == 4

    def test_values_repeat_across_rows(self, tmp_path):
        rng = np.random.default_rng(37)
        pool = np.array([0.1 + 0.2, -0.0, 0.0, 5e-324, 6.4e21, np.inf, np.nan])
        values = rng.choice(pool, size=(37, 53))
        t1, t2 = np.arange(37) * 5e-11 - 9e-10, np.arange(53) * 5e-11 - 1.3e-9
        body = self._body(tmp_path, t1, t2, values)
        assert body == self._reference(t1, t2, values)

    @pytest.mark.parametrize("shape", [(_CHUNK_ROWS + 3, 1), (3, _CHUNK_ROWS // 2 + 1)],
                             ids=["rows", "columns"])
    def test_chunk_edges(self, tmp_path, shape):
        # more rows than one chunk holds, in one or more slices per chunk
        rng = np.random.default_rng(41)
        values = rng.choice([0.1 + 0.2, -0.0, 1e-300, np.nan], size=shape)
        t1, t2 = np.arange(shape[0]) * 5e-11, np.arange(shape[1]) * 5e-11 - 2e-11
        body = self._body(tmp_path, t1, t2, values)
        assert body == self._reference(t1, t2, values)

    def test_failed_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "table.csv"
        self._write(path, *self._surface())
        before = path.read_text()
        t1, t2, values = self._surface()
        broken = values.astype(object)
        broken[1, 2] = "not a number"
        with pytest.raises(ValueError):
            self._write(path, t1, t2, broken)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == before


class TestTableCsv(TestSurfaceCsv):
    """The surface cases as three 1-D columns of one table, plus ``int`` and
    ``str`` columns and a table with no row."""

    @staticmethod
    def _write(path, t1, t2, values):
        columns = np.broadcast_arrays(np.asarray(t1)[:, None], np.asarray(t2)[None, :],
                                      values)
        _write_table(path, ["# one header line"], ["t1_s", "t2_s", "value_per_s3"],
                     *(c.ravel() for c in columns))

    def test_int_and_str_columns(self, tmp_path):
        path = tmp_path / "table.csv"
        labels = ["idler", "signal1", "idler", "-0.0", "nan"]
        counts = np.array([0, -7, 2**62, 0, 12], dtype=np.int64)
        rates = [0.1 + 0.2, -0.0, 5e-324, np.nan, 0.1 + 0.2]
        _write_table(path, [], ["channel", "counts", "rate_per_s"], labels, counts, rates)
        assert path.read_text() == ("channel,counts,rate_per_s\n"
                                    + table_csv_body(labels, counts, rates))
        assert path.read_text().splitlines()[3] == "idler,4611686018427387904,5e-324"

    def test_zero_rows(self, tmp_path):
        path = tmp_path / "table.csv"
        _write_table(path, ["# one header line"], ["delay_s", "counts"],
                     np.zeros(0), np.zeros(0, dtype=np.int64))
        assert path.read_text() == "# one header line\ndelay_s,counts\n"
