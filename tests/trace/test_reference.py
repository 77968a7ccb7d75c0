"""The fast count-trace generators against the reference loops.

``tests/trace/_reference.py`` keeps the per-draw loops the generators
were written as.  A generator's output is a function of its seed and of
the exact order of its ``random()`` draws, so the fast code must return
the same values *and* leave the generator in the same state: a later
stage of the same trace (the handshake after the arrivals, the packet
scatter after the counts) reads on from there.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.arrival import ParetoOnOffArrivals
from repro.trace.handshake import CongestionEpisodeModel, HandshakeModel

from ._reference import ReferenceHandshakeModel, ReferenceParetoOnOffArrivals

PERIODS = st.sampled_from([20.0, 7.5, 0.3])
DROPS = st.sampled_from([0.0, 0.015, 0.35, 1.0])

#: Expected ON/OFF cycles per example, summed over sources.  The mean
#: cycle is floored so a large source count over a long horizon stays a
#: few tenths of a second in the reference loop.
CYCLE_BUDGET = 5_000


def _same_draws(fast, reference, seed, *args):
    """Run *fast* and *reference* from one seed; equal results and equal
    final generator states."""
    fast_rng = random.Random(seed)
    reference_rng = random.Random(seed)
    result = fast(fast_rng, *args)
    assert result == reference(reference_rng, *args)
    assert fast_rng.getstate() == reference_rng.getstate()
    return result


@st.composite
def pareto_cases(draw):
    num_sources = draw(st.integers(1, 400))
    num_periods = draw(st.integers(1, 600))
    period = draw(PERIODS)
    min_cycle = num_sources * num_periods * period / CYCLE_BUDGET
    mean_on = draw(st.floats(0.2, 60.0)) + min_cycle / 2
    mean_off = draw(st.floats(0.2, 120.0)) + min_cycle / 2
    params = dict(
        num_sources=num_sources,
        on_rate=draw(st.sampled_from([0.0, 0.05, 0.25, 0.8, 3.0])),
        mean_on=mean_on,
        mean_off=mean_off,
        alpha=draw(st.floats(1.05, 1.95)),
    )
    return params, num_periods, period


@settings(max_examples=100, deadline=None)
@given(case=pareto_cases(), seed=st.integers(0, 2**32 - 1))
def test_pareto_on_off_matches_reference(case, seed):
    params, num_periods, period = case
    fast = ParetoOnOffArrivals(**params)
    reference = ReferenceParetoOnOffArrivals(**params)
    _same_draws(
        fast._on_overlap_per_period, reference._on_overlap_per_period,
        seed, num_periods, period,
    )
    _same_draws(fast.counts, reference.counts, seed, num_periods, period)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_periods=st.integers(1, 600),
    period=PERIODS,
    max_connections=st.sampled_from([0, 1, 3, 40, 250]),
    drop=DROPS,
    congestion=st.one_of(
        st.none(),
        st.builds(
            CongestionEpisodeModel,
            mean_interval=st.floats(1.0, 900.0),
            mean_duration=st.floats(0.5, 60.0),
            drop_probability=DROPS,
        ),
    ),
    max_retransmissions=st.integers(0, 3),
)
def test_handshake_period_counts_match_reference(
    seed, num_periods, period, max_connections, drop, congestion,
    max_retransmissions,
):
    params = dict(
        base_drop_probability=drop,
        max_retransmissions=max_retransmissions,
        congestion=congestion,
    )
    count_rng = random.Random(seed ^ 0x5EED)
    connection_counts = [
        count_rng.randint(0, max_connections) for _ in range(num_periods)
    ]
    _same_draws(
        HandshakeModel(**params).period_counts,
        ReferenceHandshakeModel(**params).period_counts,
        seed, connection_counts, period,
    )


def test_empty_horizon_makes_the_reference_draws():
    # With no periods the reference still draws each source's phase.
    params = dict(num_sources=30, on_rate=1.0, mean_on=5.0, mean_off=5.0)
    for seed in range(5):
        assert _same_draws(
            ParetoOnOffArrivals(**params).counts,
            ReferenceParetoOnOffArrivals(**params).counts,
            seed, 0, 20.0,
        ) == []
