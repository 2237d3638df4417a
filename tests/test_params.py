import numpy as np
import pytest

from spdclab import (
    AnalysisWindow,
    ConfigError,
    DetectorChain,
    ModelValidityWarning,
    SourceParams,
)
from spdclab.params import duration_to_ticks, seconds_to_ticks


def test_source_params_validation():
    with pytest.raises(ConfigError):
        SourceParams(pair_rate=-1.0, coherence_time=1e-9)
    with pytest.raises(ConfigError):
        SourceParams(pair_rate=1e6, coherence_time=0.0)
    with pytest.raises(ConfigError):
        SourceParams(pair_rate=1e6, coherence_time=1e-9, shape="gauss")


def test_mu_and_validity_warning():
    quiet = SourceParams(2e7, 1e-9)
    assert quiet.mu == pytest.approx(0.02)
    with pytest.warns(ModelValidityWarning):
        SourceParams(2e8, 1e-9)  # mu = 0.2


def test_detector_chain_validation():
    DetectorChain(0.5, 0.5, 0.3, 1e-10)
    with pytest.raises(ConfigError):
        DetectorChain(idler_efficiency=1.5)
    with pytest.raises(ConfigError):
        DetectorChain(splitter_ratio=-0.1)
    with pytest.raises(ConfigError):
        DetectorChain(jitter_width=-1e-9)


def test_analysis_window_grid():
    w = AnalysisWindow(coincidence_halfwidth=5e-9, bin_width=1e-9, span=10e-9)
    d = w.delays()
    assert d.size == 21
    assert d[0] == pytest.approx(-10e-9)
    assert np.all(np.diff(d) > 0)
    with pytest.raises(ConfigError):
        AnalysisWindow(coincidence_halfwidth=0.0, bin_width=1e-9, span=1e-8)


def test_seconds_to_ticks_scalar_and_array_agree():
    seconds = np.array([-2.5e-15, -1e-9, 0.0, 0.5e-15, 1.5e-15, 2.5e-15, 1e-9, 0.3])
    ticks = seconds_to_ticks(seconds)
    assert ticks.dtype == np.int64
    assert ticks.tolist() == [seconds_to_ticks(float(t)) for t in seconds]
    assert ticks.tolist() == [-2, -1000000, 0, 0, 2, 2, 1000000, 300000000000000]


def test_duration_ticks_must_fit_int64():
    assert duration_to_ticks(9.2e3) == 9200 * 10**15
    for duration in (9.3e3, 1e4, 1e5, float("inf"), float("nan"), -1.0):
        with pytest.raises(ConfigError, match="int64"):
            duration_to_ticks(duration)
