import concurrent.futures
import os
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spdclab import (
    CHANNELS,
    ConfigError,
    CorrelationSurface,
    EventStream,
    GridError,
    parse_scenario,
)
from spdclab.cli import main
from spdclab.runner import (
    _count_streams,
    read_curve_csv,
    run_compare,
    write_curve_csv,
    write_surface_csv,
)

from _oracles import raw_evt, surface_csv_body

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


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "desk.ini"
    path.write_text(DESK_CONFIG)
    return str(path)


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
        assert sc.model == "poisson"
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
        assert "# source.rate_hz = 2e7" in text
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
        sim, cnt, sm = tmp_path / "sim", tmp_path / "cnt", tmp_path / "sm"
        assert main(["simulate", config_path, "-o", str(sim)]) == 0
        assert main(["count", config_path, str(sim / "events.evt"),
                     "-o", str(cnt)]) == 0
        assert main(["smear", config_path, "-o", str(sm), "--surface"]) == 0
        products = sorted(cnt.glob("*.csv")) + sorted(sm.glob("*.csv"))
        assert len(products) == 11
        for path in products:
            body = [ln for ln in path.read_text().splitlines()
                    if not ln.startswith("#")]
            assert len(body) > 1, path.name
            for line in body[1:]:
                fields = line.split(",")
                if path.name in ("singles.csv", "plateaus.csv"):
                    fields = fields[1:]  # a channel or quantity label
                for field in fields:
                    float(field)

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("source.rate_hz = 1e6\n")
        assert main(["analytic", str(bad), "-o", str(tmp_path / "x")]) == 2

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

    @pytest.mark.parametrize("channels", [
        [(0, 10**12, [9, 5]), (1, 10**12, [1]), (2, 10**12, [2])],
        [(0, 10**12, [5]), (1, 10**12, [1])],
        [(0, 10**12, [5]), (1, 10**12, [1]), (1, 10**12, [2]), (2, 10**12, [3])],
        [(0, 10**12, [5]), (1, 2 * 10**12, [1]), (2, 10**12, [3])],
        [(0, 0, [0]), (1, 0, [0]), (2, 0, [])],
    ], ids=["unsorted", "missing", "repeated", "durations_differ", "zero_duration"])
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
        write_curve_csv(a, delays, np.ones(7), np.full(7, 0.1))
        write_curve_csv(b, delays, np.ones(7) + 0.05, np.full(7, 0.1))
        out = tmp_path / "z.csv"
        assert main(["compare", str(a), str(b), "-o", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "max_abs_z" in captured
        result = run_compare(a, b)
        expected = -0.05 / np.hypot(0.1, 0.1)
        assert np.allclose(result.z, expected)
        assert result.max_abs_z == pytest.approx(abs(expected))

    def test_sweep_runs_each_value(self, config_path, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", config_path, "--key", "window.tauc_s",
            "--values", "4e-9,5e-9", "-o", str(out), "analytic",
        ])
        assert code == 0
        assert (out / "window_tauc_s=4e-9" / "g2_si.csv").exists()
        assert (out / "window_tauc_s=5e-9" / "g2_si.csv").exists()

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


def test_count_needs_zero_delay():
    streams = [EventStream(c, np.arange(0, 10**6, 10**4), 10**6) for c in CHANNELS]
    with pytest.raises(GridError, match="0.0 is not a point"):
        _count_streams(*streams, np.array([-1e-9, 1e-9]), 5e-10)


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


class TestSurfaceCsv:
    @staticmethod
    def _surface():
        values = np.array([
            [0.0, -0.0, np.nan, np.inf, -np.inf],
            [5e-324, 0.1 + 0.2, 0.3, 0.1 + 0.2, 1e300],
            [-2.5e-8, 0.0, 0.1 + 0.2, -0.0, 7.0],
        ])
        return CorrelationSurface(
            np.arange(3) * 5e-11 - 5e-11, np.arange(5) * 5e-11 - 1e-10, values
        )

    def test_body_matches_per_cell_reference(self, tmp_path):
        surface = self._surface()
        path = tmp_path / "surface.csv"
        write_surface_csv(path, surface)
        text = path.read_text()
        header, _, body = text.partition("t1_s,t2_s,value_per_s3\n")
        assert all(ln.startswith("#") for ln in header.splitlines())
        assert body == surface_csv_body(surface.t1, surface.t2, surface.values)
        assert "-0.0" in body and "5e-324" in body and "0.30000000000000004" in body
        assert list(tmp_path.iterdir()) == [path]

    @staticmethod
    def _body(tmp_path, t1, t2, values):
        # the writer reads only these fields, so a one-point axis, which
        # CorrelationSurface refuses, can still be written
        surface = SimpleNamespace(t1=np.asarray(t1), t2=np.asarray(t2),
                                  values=np.asarray(values), unit="per_s3")
        path = tmp_path / "surface.csv"
        write_surface_csv(path, surface)
        return path.read_text().partition("t1_s,t2_s,value_per_s3\n")[2]

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1)])
    def test_single_row_or_column(self, tmp_path, shape):
        t1 = np.arange(shape[0]) * 5e-11 - 1e-10
        t2 = np.arange(shape[1]) * 5e-11 + 3e-11
        values = np.linspace(-1.0, 2.0, shape[0] * shape[1]).reshape(shape) / 3
        body = self._body(tmp_path, t1, t2, values)
        assert body == surface_csv_body(t1, t2, values)
        assert body.count("\n") == values.size

    def test_nans_with_different_bits(self, tmp_path):
        values = np.array([[0.0, 1.5, 0.0], [0.0, 0.0, -0.0]])
        bits = values.view(np.int64)
        bits[0, 0] = bits[1, 1] = 0x7FF8000000000000
        bits[0, 2] = bits[1, 0] = 0xFFF8000000000001 - 2**64
        assert np.unique(bits).size == 4
        t1, t2 = np.array([0.0, 1e-11]), np.array([-1e-11, 0.0, 1e-11])
        body = self._body(tmp_path, t1, t2, values)
        assert body == surface_csv_body(t1, t2, values)
        assert body.count(",nan\n") == 4

    def test_values_repeat_across_rows(self, tmp_path):
        rng = np.random.default_rng(37)
        pool = np.array([0.1 + 0.2, -0.0, 0.0, 5e-324, 6.4e21, np.inf, np.nan])
        values = rng.choice(pool, size=(37, 53))
        t1, t2 = np.arange(37) * 5e-11 - 9e-10, np.arange(53) * 5e-11 - 1.3e-9
        body = self._body(tmp_path, t1, t2, values)
        assert body == surface_csv_body(t1, t2, values)

    def test_failed_write_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "surface.csv"
        write_surface_csv(path, self._surface())
        before = path.read_text()
        broken = self._surface()
        broken.values = broken.values.astype(object)
        broken.values[1, 2] = "not a number"
        with pytest.raises(ValueError):
            write_surface_csv(path, broken)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_text() == before
