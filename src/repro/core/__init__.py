"""The paper's primary contribution: the SYN-dog detection pipeline.

``SynDog`` wires together the two interface sniffers (Section 2), the
EWMA normalization of the SYN−SYN/ACK difference (Eq. 1), and the
non-parametric CUSUM sequential change-point test (Eq. 2–5).  The
``parameters`` module carries the analytic results (detection-time
bound Eq. 7, sensitivity floor Eq. 8, DDoS-coverage bound of
Section 4.2.3); ``detectors`` and ``sequential`` hold the baselines the
benches compare against.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    "cusum": ("NonParametricCusum", "cusum_statistic_series"),
    "lastmile": ("LastMileSynDog",),
    "synfin": ("SYN_FIN_PARAMETERS", "SynFinDog"),
    "detectors": (
        "AdaptiveEwmaDetector", "PeriodDetector", "StaticThresholdDetector",
        "SynRateDetector", "run_detector",
    ),
    "normalization": ("EwmaEstimator", "NormalizedDifference"),
    "parameters": (
        "DEFAULT_PARAMETERS", "TUNED_UNC_PARAMETERS", "SynDogParameters",
    ),
    "sequential": (
        "NonParametricCusumDetector", "ParametricGaussianCusum",
        "PosteriorTestResult", "SequentialDetector",
        "posterior_mean_shift_test",
    ),
    "sniffer": (
        "CountExchange", "Direction", "InboundSniffer", "OutboundSniffer",
        "PeriodReport", "merge_directional_streams",
    ),
    "syndog": ("DetectionRecord", "DetectionResult", "SynDog"),
})
