"""Ablation — is the Eq. 1 normalization actually necessary?

The paper normalizes Δn by the EWMA estimate of the SYN/ACK volume so
one universal parameter set (a = 0.35, N = 1.05) works at every site.
This bench runs CUSUM on the *raw* difference with thresholds tuned for
one site and shows the failure at the other, then shows the normalized
detector working at both unchanged — the design-choice justification
measured.
"""

from conftest import emit

from repro.core import NonParametricCusum, SynDog
from repro.experiments.report import render_table
from repro.attack.flooder import FloodSource
from repro.trace.mixer import AttackWindow, mix_flood_into_counts
from repro.trace.profiles import AUCKLAND, UNC
from repro.trace.synthetic import generate_count_trace

#: Raw-difference CUSUM tuned for UNC: drift = a*K_unc, N = N*K_unc.
UNC_RAW_DRIFT = 0.35 * 1922.0
UNC_RAW_THRESHOLD = 1.05 * 1922.0
#: And tuned for Auckland.
AUCK_RAW_DRIFT = 0.35 * 85.0
AUCK_RAW_THRESHOLD = 1.05 * 85.0

ATTACKS = {  # per-site comfortably-detectable rates (Tables 2/3)
    "UNC": (UNC, 60.0, 360.0),
    "Auckland": (AUCKLAND, 5.0, 3600.0),
}


def raw_cusum_first_alarm(counts, drift, threshold):
    cusum = NonParametricCusum(drift=drift, threshold=threshold)
    for index, (syn, synack) in enumerate(counts):
        if cusum.update(float(syn - synack)) > threshold:
            return index
    return None


def scenario_counts(site_name, attacked: bool, seed=0):
    profile, rate, start = ATTACKS[site_name]
    background = generate_count_trace(profile, seed=seed)
    if not attacked:
        return background.counts, start
    mixed = mix_flood_into_counts(
        background, FloodSource(pattern=rate), AttackWindow(start, 600.0)
    )
    return mixed.counts, start


def test_normalization_necessity(benchmark):
    rows = []
    verdicts = {}
    for site_name in ("UNC", "Auckland"):
        attacked, start = scenario_counts(site_name, attacked=True)
        normal, _ = scenario_counts(site_name, attacked=False)
        period = int(start // 20.0)
        for detector_name, run in (
            ("raw CUSUM (UNC-tuned)",
             lambda c: raw_cusum_first_alarm(c, UNC_RAW_DRIFT, UNC_RAW_THRESHOLD)),
            ("raw CUSUM (Auckland-tuned)",
             lambda c: raw_cusum_first_alarm(c, AUCK_RAW_DRIFT, AUCK_RAW_THRESHOLD)),
            ("SYN-dog (normalized, universal)",
             lambda c: SynDog().observe_counts(c).first_alarm_period),
        ):
            attack_alarm = run(attacked)
            normal_alarm = run(normal)
            caught = attack_alarm is not None and attack_alarm >= period
            false_alarm = normal_alarm is not None or (
                attack_alarm is not None and attack_alarm < period
            )
            verdicts[(site_name, detector_name)] = (caught, false_alarm)
            rows.append([
                site_name, detector_name,
                "caught" if caught else "MISSED",
                "yes" if false_alarm else "no",
            ])
    emit(render_table(
        ["site", "detector", "attack", "false alarm"],
        rows,
        title="Normalization ablation: raw-difference CUSUM vs SYN-dog",
    ))

    # The UNC-tuned raw detector misses the (20x smaller) Auckland flood.
    assert verdicts[("Auckland", "raw CUSUM (UNC-tuned)")][0] is False
    # The normalized universal detector: catches both, no false alarms.
    for site_name in ("UNC", "Auckland"):
        caught, false_alarm = verdicts[(site_name, "SYN-dog (normalized, universal)")]
        assert caught and not false_alarm, site_name

    # The Auckland-tuned raw detector false-alarms on UNC's normal
    # traffic (its ~30-packet drift sits under UNC's multi-hundred-packet
    # congestion episodes).  The episodes are stochastic, so measure the
    # false-alarm *rate* over seeds rather than one trace: it must be
    # substantial for the raw detector and zero for the normalized one.
    raw_false_alarms = 0
    for seed in range(8):
        normal_counts = generate_count_trace(UNC, seed=seed).counts
        if raw_cusum_first_alarm(
            normal_counts, AUCK_RAW_DRIFT, AUCK_RAW_THRESHOLD
        ) is not None:
            raw_false_alarms += 1
        assert SynDog().observe_counts(normal_counts).first_alarm_period is None
    emit(f"Auckland-tuned raw CUSUM at UNC: {raw_false_alarms}/8 normal "
         f"traces raised a false alarm (SYN-dog: 0/8)")
    assert raw_false_alarms >= 2

    attacked, _ = scenario_counts("Auckland", attacked=True)
    benchmark(lambda: SynDog().observe_counts(attacked).alarmed)
