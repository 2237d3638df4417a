"""Statistics lab for continuously pumped heralded single-photon sources.

Four layers, composable from Python or the ``spdclab`` CLI:

* :mod:`spdclab.model` - closed-form correlation and coherence functions
  of the low-gain pair source (box or triangle peak shapes).
* :mod:`spdclab.smearing` - detector jitter and software coincidence
  windows as unit-area trapezoid convolutions, with plateau predictions.
* :mod:`spdclab.events` - stochastic coherence-cell event generation
  (thermal or Poisson cell counts) and a detector chain with splitter,
  efficiencies and jitter.
* :mod:`spdclab.correlate` - high-throughput pair and triple coincidence
  counting plus the efficiency-independent ratio estimators.
"""
from .curves import (
    CorrelationCurve,
    CorrelationSurface,
    EstimatorCurve,
    Histogram,
)
from .correlate import (
    RateEstimate,
    coincidence_histograms,
    estimate_g2bar_si,
    estimate_gbar2_c,
    pair_histogram,
    singles_rate,
    triple_histogram,
)
from .events import (
    CHANNELS,
    EventStream,
    PairList,
    apply_detector_chain,
    gen_poisson_pairs,
    gen_thermal_cells,
)
from .evtfile import read_events, write_events
from .model import (
    g2_c,
    g2_si,
    g2_ss_unconditional,
    limit_ratios,
    p_ssi,
    p_ssi_diag,
)
from .params import (
    AnalysisWindow,
    ConfigError,
    DetectorChain,
    GridError,
    GuardError,
    ModelValidityWarning,
    SourceParams,
    SpdcLabError,
    TICKS_PER_SECOND,
)
from .scenario import Scenario, load_scenario, parse_scenario
from .smearing import (
    PlateauPrediction,
    ResponseKernel,
    build_kernel,
    gbar2c_analytic,
    predict_plateaus,
    sample_g2_si,
    sample_p_ssi,
    smear_curve,
    smear_surface,
)

__version__ = "0.1.0"
