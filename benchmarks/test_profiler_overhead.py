"""Profiler overhead — the two budgets the profiler must honor.

``profiler_disabled_ratio`` (budget ≤ 1.02): with the profiler off
(the default), the packet hot path pays exactly one extra ``is not
None`` check per observe call.  We race the real ``SynDog`` against a
bench-local replica whose exchange runs the observe body *without*
that check — i.e. the hot path exactly as it looked before the
profiler landed — so the ratio isolates the profiler's disabled-path
cost rather than re-measuring the whole obs layer (that is
``ratio`` in this artifact, with its own 1.10 budget).

``profiler_ratio`` (budget ≤ 1.15): a fully instrumented pipeline with
the timers-mode profiler sampling 1-in-64 per-packet calls, against
the same instrumented pipeline without the profiler.  Counting is
three integer adds per stage per packet; clocks are read only on
sampled calls.

Both land in ``BENCH_obs.json`` next to the existing overhead ratios,
and ``BENCH_profile.json`` records the per-stage ns/packet baseline
that CI's ``repro profile --mode timers --baseline`` step gates
against, measured on the path that step runs.
"""

import json
import time
from pathlib import Path

from conftest import emit

from repro.core.parameters import DEFAULT_PARAMETERS
from repro.core.sniffer import CountExchange
from repro.core.syndog import SynDog
from repro.obs.runtime import enabled_instrumentation

from test_obs_overhead import (
    NUM_PACKETS,
    REPEATS,
    ARTIFACT,
    syn_stream,
    time_pass,
)

PROFILE_ARTIFACT = (
    Path(__file__).resolve().parent.parent / "BENCH_profile.json"
)

MAX_DISABLED_RATIO = 1.02
MAX_ENABLED_RATIO = 1.15


class PreProfilerExchange(CountExchange):
    """The observe hot path exactly as it was before the profiler
    landed: no ``_prof_classify`` check, everything else identical."""

    def observe_outbound(self, packet):
        reports = self._advance_to(packet.timestamp)
        counted = self.outbound.observe(packet)
        if self._m_out_seen is not None:
            self._m_out_seen.inc()
            if counted:
                self._m_out_counted.inc()
        return reports


def pre_profiler_syndog():
    dog = SynDog()
    dog.exchange = PreProfilerExchange(
        DEFAULT_PARAMETERS.observation_period
    )
    return dog


def _update_artifact(**fields):
    artifact = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {
        "bench": "obs_overhead",
    }
    artifact.update(fields)
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    return artifact


def test_disabled_profiler_is_one_none_check():
    packets = syn_stream()

    time_pass(pre_profiler_syndog, packets[:1000])
    time_pass(SynDog, packets[:1000])

    # Interleave repeat-by-repeat so scheduler drift lands on both
    # sides equally; best-of-min filters the rest.
    bare = guarded = float("inf")
    for _ in range(REPEATS):
        detector = pre_profiler_syndog()
        start = time.perf_counter()
        for packet in packets:
            detector.observe_outbound(packet)
        bare = min(bare, time.perf_counter() - start)
        detector = SynDog()
        start = time.perf_counter()
        for packet in packets:
            detector.observe_outbound(packet)
        guarded = min(guarded, time.perf_counter() - start)
    ratio = guarded / bare

    _update_artifact(
        profiler_disabled_bare_seconds=bare,
        profiler_disabled_seconds=guarded,
        profiler_disabled_ratio=ratio,
        profiler_disabled_max_ratio=MAX_DISABLED_RATIO,
    )

    emit(
        "Profiler overhead (disabled: one None check per packet)\n"
        f"  pre-profiler : {bare * 1e3:8.2f} ms\n"
        f"  guarded      : {guarded * 1e3:8.2f} ms\n"
        f"  ratio        : {ratio:8.3f}  (budget {MAX_DISABLED_RATIO})\n"
        f"  artifact     : {ARTIFACT}"
    )

    assert ratio <= MAX_DISABLED_RATIO, (
        f"disabled-profiler hot path is {(ratio - 1) * 100:.1f}% slower "
        f"than the pre-profiler replica "
        f"(budget {(MAX_DISABLED_RATIO - 1) * 100:.0f}%)"
    )


def test_timers_profiler_within_budget():
    packets = syn_stream()

    def instrumented_syndog():
        obs = enabled_instrumentation(max_memory_events=10_000)
        return SynDog(obs=obs)

    def profiled_syndog():
        obs = enabled_instrumentation(
            max_memory_events=10_000,
            profiler="timers",
            profiler_sample_every=64,
        )
        return SynDog(obs=obs)

    time_pass(instrumented_syndog, packets[:1000])
    time_pass(profiled_syndog, packets[:1000])

    plain = profiled = float("inf")
    for _ in range(REPEATS):
        detector = instrumented_syndog()
        start = time.perf_counter()
        for packet in packets:
            detector.observe_outbound(packet)
        plain = min(plain, time.perf_counter() - start)
        detector = profiled_syndog()
        start = time.perf_counter()
        for packet in packets:
            detector.observe_outbound(packet)
        profiled = min(profiled, time.perf_counter() - start)
    ratio = profiled / plain

    _update_artifact(
        profiler_plain_seconds=plain,
        profiler_seconds=profiled,
        profiler_ratio=ratio,
        profiler_max_ratio=MAX_ENABLED_RATIO,
        profiler_per_packet_ns=profiled / NUM_PACKETS * 1e9,
    )

    emit(
        "Profiler overhead (timers mode, 1-in-64 sampling)\n"
        f"  instrumented : {plain * 1e3:8.2f} ms\n"
        f"  profiled     : {profiled * 1e3:8.2f} ms "
        f"({profiled / NUM_PACKETS * 1e9:.0f} ns/packet)\n"
        f"  ratio        : {ratio:8.3f}  (budget {MAX_ENABLED_RATIO})\n"
        f"  artifact     : {ARTIFACT}"
    )

    # Sanity: the profiled run actually attributed the stream.
    obs = enabled_instrumentation(
        max_memory_events=10_000,
        profiler="timers",
        profiler_sample_every=64,
    )
    dog = SynDog(obs=obs)
    for packet in packets:
        dog.observe_outbound(packet)
    dog.flush()
    rows = {row["stage"]: row for row in obs.profiler.stage_documents()}
    assert rows["classify"]["calls"] == NUM_PACKETS
    assert rows["classify"]["timed_calls"] >= NUM_PACKETS // 64
    assert rows["cusum.step"]["calls"] >= 1

    assert ratio <= MAX_ENABLED_RATIO, (
        f"timers-profiled pipeline is {(ratio - 1) * 100:.1f}% slower "
        f"than the unprofiled instrumented path "
        f"(budget {(MAX_ENABLED_RATIO - 1) * 100:.0f}%)"
    )


def test_profile_baseline_artifact():
    """Regenerate ``BENCH_profile.json``: timers-mode per-stage
    ns/packet on the run CI's ``repro profile --mode timers --baseline``
    step makes (the command's defaults: Auckland, 2 networks, seed 0,
    the columnar fastpath, 1-in-64 sampling).  That step fails on a
    baseline stage its run did not make, so the baseline names exactly
    the stages of this run."""
    from repro.experiments.profiling import (
        DEFAULT_PROFILE_DURATION,
        run_profile_campaign,
    )
    from repro.trace.profiles import get_profile

    obs = enabled_instrumentation(
        profiler="timers", profiler_sample_every=64
    )
    outcomes = run_profile_campaign(
        get_profile("auckland"), networks=2, base_seed=0,
        duration=DEFAULT_PROFILE_DURATION, obs=obs, workers=1,
        fastpath=True,
    )
    document = obs.profiler.to_dict()
    for row in document["stages"]:
        assert row["timed_calls"] >= 1, f"stage {row['stage']} never timed"

    artifact = {
        "bench": "profile_baseline",
        "mode": document["mode"],
        "site": "Auckland",
        "networks": len(outcomes),
        "packets": sum(outcome["packets"] for outcome in outcomes),
        "stages": [
            {
                "stage": row["stage"],
                "calls": row["calls"],
                "packets": row["packets"],
                "ns_per_call": row["ns_per_call"],
                "ns_per_packet": row["ns_per_packet"],
            }
            for row in document["stages"]
        ],
    }
    PROFILE_ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    emit(
        "Per-stage cost baseline (timers mode)\n"
        + "\n".join(
            f"  {row['stage']:<16}: {row['ns_per_packet']:10.1f} ns/packet"
            f"  ({row['calls']} calls)"
            for row in artifact["stages"]
        )
        + f"\n  artifact     : {PROFILE_ARTIFACT}"
    )
