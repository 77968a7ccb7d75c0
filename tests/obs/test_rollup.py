"""Fleet rollup digests: quantile buckets, Space-Saving top-K, merges.

The contract under test is the merge algebra documented in
:mod:`repro.obs.rollup`: bucket counts and population counters merge
exactly (associative + commutative); float ``sum`` sidecars merge
order-sensitively but agree after canonical rounding; Space-Saving
summaries are exact while the distinct-key count stays within K and
carry error bounds beyond it.  Hypothesis drives the algebraic
properties with integer-valued floats so float addition is exact and
"up to canonicalization" cannot hide a real defect.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import enabled_instrumentation
from repro.obs.merge import merge_rollup_snapshots
from repro.obs.rollup import (
    DEFAULT_TOP_K,
    ROLLUP_BUCKETS,
    ROLLUP_METRICS,
    AgentState,
    FleetRollup,
    QuantileDigest,
    SpaceSavingTopK,
    rollup_from_events,
    synthetic_fleet_states,
    synthetic_shard_rollup,
)


# ----------------------------------------------------------------------
# QuantileDigest
# ----------------------------------------------------------------------
class TestQuantileDigest:
    def test_empty_digest_has_no_quantiles(self):
        digest = QuantileDigest((0.0, 1.0, 2.0))
        assert digest.count == 0
        assert digest.quantile(0.5) is None
        assert digest.quantile(0.99) is None
        assert digest.mean is None

    def test_overflow_bucket_reports_observed_max_not_inf(self):
        # Satellite 3's invariant, stated for the rollup digest: a
        # target that lands in the open-ended overflow bucket reports
        # the observed max — never +inf, never an invented bound.
        digest = QuantileDigest((0.0, 1.0))
        for value in (5.0, 7.0, 9.0):
            digest.observe(value)
        for q in (0.5, 0.9, 0.99, 1.0):
            value = digest.quantile(q)
            assert value == 9.0
            assert math.isfinite(value)

    def test_quantiles_clamp_to_observed_range(self):
        digest = QuantileDigest(ROLLUP_BUCKETS["cusum"])
        for value in (0.3, 0.3, 0.3, 1.1):
            digest.observe(value)
        p50 = digest.quantile(0.5)
        p99 = digest.quantile(0.99)
        assert 0.3 <= p50 <= 1.1
        assert 0.3 <= p99 <= 1.1
        assert digest.min == 0.3 and digest.max == 1.1

    def test_nan_observations_are_skipped(self):
        digest = QuantileDigest((0.0, 1.0))
        digest.observe(float("nan"))
        assert digest.count == 0
        digest.observe(0.5)
        assert digest.count == 1

    def test_bounds_must_be_finite_ascending_nonempty(self):
        with pytest.raises(ValueError):
            QuantileDigest(())
        with pytest.raises(ValueError):
            QuantileDigest((1.0, 0.0))
        with pytest.raises(ValueError):
            QuantileDigest((0.0, float("inf")))

    def test_merge_is_bucketwise_addition(self):
        a = QuantileDigest((0.0, 1.0, 2.0))
        b = QuantileDigest((0.0, 1.0, 2.0))
        serial = QuantileDigest((0.0, 1.0, 2.0))
        for value in (0.5, 1.5, 9.0):
            a.observe(value)
            serial.observe(value)
        for value in (-1.0, 0.25):
            b.observe(value)
            serial.observe(value)
        a.merge_from(b)
        assert a.counts == serial.counts
        assert a.count == serial.count
        assert a.min == serial.min and a.max == serial.max
        assert a.sum == pytest.approx(serial.sum)

    def test_merge_rejects_mismatched_bounds(self):
        a = QuantileDigest((0.0, 1.0))
        b = QuantileDigest((0.0, 2.0))
        with pytest.raises(ValueError):
            a.merge_from(b)

    def test_dict_roundtrip(self):
        digest = QuantileDigest(ROLLUP_BUCKETS["delta"])
        for value in (-50.0, 3.0, 12345.0):
            digest.observe(value)
        clone = QuantileDigest.from_dict(digest.to_dict())
        assert clone.to_dict() == digest.to_dict()
        assert clone.quantile(0.5) == digest.quantile(0.5)


# ----------------------------------------------------------------------
# SpaceSavingTopK
# ----------------------------------------------------------------------
class TestSpaceSavingTopK:
    def test_sum_mode_exact_below_capacity(self):
        summary = SpaceSavingTopK(k=4, mode="sum")
        for name, weight in (("a", 2), ("b", 5), ("a", 1), ("c", 3)):
            summary.offer(name, weight)
        top = summary.top()
        assert [(e["agent"], e["weight"]) for e in top] == [
            ("b", 5.0), ("a", 3.0), ("c", 3.0),
        ]
        assert all(e["error"] == 0.0 for e in top)

    def test_sum_mode_eviction_inherits_weight_as_error(self):
        summary = SpaceSavingTopK(k=2, mode="sum")
        summary.offer("a", 10)
        summary.offer("b", 1)
        summary.offer("c", 1)   # evicts b (min), inherits its weight
        top = {e["agent"]: e for e in summary.top()}
        assert set(top) == {"a", "c"}
        assert top["c"]["weight"] == 2.0   # 1 inherited + 1 offered
        assert top["c"]["error"] == 1.0    # true weight >= weight - error
        assert top["a"]["error"] == 0.0

    def test_max_mode_keeps_highest_level(self):
        summary = SpaceSavingTopK(k=2, mode="max")
        summary.offer("a", 0.5)
        summary.offer("a", 0.3)   # lower level does not regress the entry
        summary.offer("b", 0.9)
        summary.offer("c", 0.1)   # below the min entry: dropped
        summary.offer("d", 0.7)   # displaces a
        assert [(e["agent"], e["weight"]) for e in summary.top()] == [
            ("b", 0.9), ("d", 0.7),
        ]

    def test_ties_break_on_name_deterministically(self):
        forward = SpaceSavingTopK(k=2, mode="max")
        backward = SpaceSavingTopK(k=2, mode="max")
        for summary, order in ((forward, "abc"), (backward, "cba")):
            for name in order:
                summary.offer(name, 1.0)
        assert forward.top() == backward.top()
        assert [e["agent"] for e in forward.top()] == ["a", "b"]

    def test_merge_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SpaceSavingTopK(k=2, mode="sum").merge_from(
                SpaceSavingTopK(k=2, mode="max")
            )
        with pytest.raises(ValueError):
            SpaceSavingTopK(k=2, mode="sum").merge_from(
                SpaceSavingTopK(k=3, mode="sum")
            )

    def test_dict_roundtrip(self):
        summary = SpaceSavingTopK(k=3, mode="sum")
        for name, weight in (("a", 2), ("b", 5), ("c", 3), ("d", 1)):
            summary.offer(name, weight)
        clone = SpaceSavingTopK.from_dict(summary.to_dict())
        assert clone.to_dict() == summary.to_dict()

    @given(
        weights=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.integers(min_value=1, max_value=50),
            ),
            max_size=30,
        )
    )
    def test_sum_mode_exact_when_keys_fit(self, weights):
        # With at most 4 distinct keys and k=8 there are no evictions:
        # Space-Saving degenerates to exact counting in any order.
        summary = SpaceSavingTopK(k=8, mode="sum")
        for name, weight in weights:
            summary.offer(name, weight)
        truth = {}
        for name, weight in weights:
            truth[name] = truth.get(name, 0) + weight
        assert {e["agent"]: e["weight"] for e in summary.top()} == {
            name: float(total) for name, total in truth.items()
        }
        assert all(e["error"] == 0.0 for e in summary.top())


# ----------------------------------------------------------------------
# FleetRollup
# ----------------------------------------------------------------------
def _state(name, **kwargs):
    return AgentState(name=name, **kwargs)


class TestFleetRollup:
    def test_status_classification_and_counters(self):
        states = [
            _state("ok-1"),
            _state("deg-1", degraded_periods=3),
            _state("alm-1", alarm=True, alarms=2, cusum=1.2),
            # down dominates everything else:
            _state("down-1", down=True, alarm=True, degraded_periods=9),
        ]
        rollup = FleetRollup.from_states(states, watermark=80.0)
        assert rollup.counts == {
            "total": 4, "ok": 1, "degraded": 1, "alarming": 1, "down": 1,
        }
        assert rollup.quorum == pytest.approx(0.75)
        assert rollup.alarm_fraction == pytest.approx(0.25)
        assert rollup.watermark == 80.0

    def test_empty_fleet_has_full_quorum_and_no_alarms(self):
        rollup = FleetRollup()
        assert rollup.quorum == 1.0
        assert rollup.alarm_fraction == 0.0
        doc = rollup.to_dict()
        assert doc["agents"]["total"] == 0
        for metric in ROLLUP_METRICS:
            assert doc["digests"][metric]["quantiles"]["p99"] is None

    def test_document_is_o_of_k_not_fleet_size(self):
        # The acceptance criterion: the /fleet document's structure —
        # its key set and list lengths — is identical at 10^2 and 10^3
        # agents; only counter values differ.
        def doc_shape(value):
            if isinstance(value, dict):
                return {key: doc_shape(value[key]) for key in sorted(value)}
            if isinstance(value, list):
                return [len(value)]
            return type(value).__name__

        small = FleetRollup.from_states(synthetic_fleet_states(100, seed=3))
        large = FleetRollup.from_states(synthetic_fleet_states(1000, seed=3))
        small_doc, large_doc = small.to_dict(), large.to_dict()
        for doc in (small_doc, large_doc):
            for summary in doc["top"].values():
                assert len(summary["entries"]) <= DEFAULT_TOP_K
        # Digest structure is fixed-width regardless of size.
        for metric in ROLLUP_METRICS:
            assert (
                len(small_doc["digests"][metric]["counts"])
                == len(large_doc["digests"][metric]["counts"])
                == len(ROLLUP_BUCKETS[metric]) + 1
            )
        assert sorted(small_doc) == sorted(large_doc)
        assert sorted(small_doc["agents"]) == sorted(large_doc["agents"])

    def test_merge_disjoint_agent_sets_is_exact(self):
        left = FleetRollup.from_states(
            [_state("a", cusum=0.5, alarm=True, alarms=1),
             _state("b", degraded_periods=2)],
            watermark=20.0,
        )
        right = FleetRollup.from_states(
            [_state("c", cusum=1.3, alarm=True, alarms=3),
             _state("d")],
            watermark=40.0,
        )
        serial = FleetRollup.from_states(
            [_state("a", cusum=0.5, alarm=True, alarms=1),
             _state("b", degraded_periods=2),
             _state("c", cusum=1.3, alarm=True, alarms=3),
             _state("d")],
            watermark=40.0,
        )
        left.merge_from(right)
        assert left.canonical() == serial.canonical()
        assert left.watermark == 40.0

    def test_merge_overlapping_agent_sets_adds_weights(self):
        # The same agent seen by two shards (e.g. a handoff mid-run):
        # sum-mode rankings add its contributions, max-mode keeps the
        # higher level, population counters double-count by design
        # (each shard counted one observation of the fleet).
        left = FleetRollup.from_states(
            [_state("a", cusum=0.4, alarms=1, alarm=True), _state("b")]
        )
        right = FleetRollup.from_states(
            [_state("a", cusum=0.9, alarms=2, alarm=True), _state("c")]
        )
        left.merge_from(right)
        assert left.counts["total"] == 4
        top_alarms = {e["agent"]: e["weight"] for e in left.top["alarms"].top()}
        assert top_alarms["a"] == 3.0
        top_cusum = {e["agent"]: e["weight"] for e in left.top["cusum"].top()}
        assert top_cusum["a"] == 0.9

    def test_snapshot_merge_matches_object_merge(self):
        shards = [
            FleetRollup.from_states(
                synthetic_fleet_states(50, seed=9, start=start), watermark=20.0
            )
            for start in (0, 50, 100)
        ]
        direct = FleetRollup()
        for shard in shards:
            direct.merge_from(shard)
        via_snapshots = merge_rollup_snapshots(
            [shard.to_dict() for shard in shards]
        )
        assert via_snapshots.to_dict() == direct.to_dict()

    def test_dict_roundtrip(self):
        rollup = FleetRollup.from_states(
            synthetic_fleet_states(200, seed=5), watermark=60.0
        )
        clone = FleetRollup.from_dict(rollup.to_dict())
        assert clone.to_dict() == rollup.to_dict()

    def test_fleet_series_names_and_values(self):
        rollup = FleetRollup.from_states(
            [_state("a", cusum=0.5), _state("b", down=True)]
        )
        series = dict(rollup.fleet_series())
        assert series["fleet_agents_total"] == 2.0
        assert series["fleet_agents_down"] == 1.0
        assert series["fleet_quorum"] == pytest.approx(0.5)
        assert "fleet_cusum_p99" in series
        assert math.isfinite(series["fleet_cusum_max"])

    def test_document_is_json_serializable(self):
        rollup = FleetRollup.from_states(synthetic_fleet_states(30, seed=1))
        doc = json.loads(json.dumps(rollup.to_dict()))
        assert doc["agents"]["total"] == 30


# ----------------------------------------------------------------------
# Hypothesis: the merge algebra (satellite 4)
# ----------------------------------------------------------------------
# Integer-valued floats keep float addition exact, so associativity
# holds exactly and canonicalization only normalizes derived ratios.
agent_states = st.builds(
    AgentState,
    name=st.sampled_from([f"agent-{i:02d}" for i in range(6)]),
    delta=st.integers(min_value=-100, max_value=100).map(float),
    x=st.integers(min_value=-1, max_value=2).map(float),
    cusum=st.integers(min_value=0, max_value=4).map(float),
    degraded_periods=st.integers(min_value=0, max_value=20),
    alarms=st.integers(min_value=0, max_value=5),
    alarm=st.booleans(),
    down=st.booleans(),
)
state_lists = st.lists(agent_states, max_size=8)


class TestMergeAlgebra:
    @settings(max_examples=50)
    @given(a=state_lists, b=state_lists, c=state_lists)
    def test_merge_is_associative(self, a, b, c):
        # (A + B) + C == A + (B + C): with <= 6 distinct agent names
        # and k=8 the top-K never truncates, so this is exact.
        left = FleetRollup.from_states(a)
        left.merge_from(FleetRollup.from_states(b))
        left.merge_from(FleetRollup.from_states(c))

        tail = FleetRollup.from_states(b)
        tail.merge_from(FleetRollup.from_states(c))
        right = FleetRollup.from_states(a)
        right.merge_from(tail)

        assert left.canonical() == right.canonical()

    @settings(max_examples=50)
    @given(a=state_lists, b=state_lists)
    def test_merge_is_commutative_up_to_canonicalization(self, a, b):
        ab = FleetRollup.from_states(a)
        ab.merge_from(FleetRollup.from_states(b))
        ba = FleetRollup.from_states(b)
        ba.merge_from(FleetRollup.from_states(a))
        assert ab.canonical() == ba.canonical()

    @settings(max_examples=50)
    @given(states=state_lists)
    def test_sharded_merge_equals_serial_fold(self, states):
        serial = FleetRollup.from_states(states)
        sharded = FleetRollup()
        for i in range(0, len(states), 3):
            sharded.merge_from(FleetRollup.from_states(states[i:i + 3]))
        assert sharded.canonical() == serial.canonical()

    @settings(max_examples=50)
    @given(states=state_lists)
    def test_roundtrip_through_snapshot_preserves_document(self, states):
        rollup = FleetRollup.from_states(states)
        assert FleetRollup.from_dict(rollup.to_dict()).to_dict() == \
            rollup.to_dict()


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def crash_event(network):
    """The ``federation_member_crashed`` event a Federation emits when
    member *network* crashes mid-feed."""
    from repro.packet import IPv4Network
    from repro.router import Federation

    obs = enabled_instrumentation()
    federation = Federation(obs=obs)
    federation.add_network(network, IPv4Network.parse("10.1.0.0/16"))

    def dead_sniffer():
        raise RuntimeError("sniffer segfault")
        yield

    with pytest.raises(RuntimeError):
        federation.feed(network, dead_sniffer(), [])
    [event] = obs.memory_events().of_kind("federation_member_crashed")
    return event


class TestBuilders:
    def test_states_from_events_replays_final_state(self):
        events = [
            {"event": "period", "agent": "a", "period_index": 0,
             "end_time": 20.0, "syn": 110, "synack": 100, "x": 0.1,
             "statistic": 0.2, "alarm": False, "degraded": False},
            {"event": "period", "agent": "a", "period_index": 1,
             "end_time": 40.0, "syn": 150, "synack": 100, "x": 0.5,
             "statistic": 1.2, "alarm": True, "degraded": False},
            {"event": "alarm_raised", "agent": "a", "t": 40.0},
            crash_event("b"),
        ]
        doc = rollup_from_events(events).to_dict()
        assert doc["digests"]["cusum"]["max"] == 1.2
        assert doc["digests"]["delta"]["max"] == 50.0
        assert doc["top"]["alarms"]["entries"] == [
            {"agent": "a", "weight": 1.0, "error": 0.0}
        ]
        # The crashed member is named as its detector is, on every view.
        assert doc["agents"] == {
            "total": 2, "ok": 0, "degraded": 0, "alarming": 1, "down": 1,
            "quorum": 0.5, "alarm_fraction": 0.5,
        }
        assert {e["agent"] for e in doc["top"]["cusum"]["entries"]} == {
            "a", "router-b",
        }

    def test_rollup_from_events_watermark_is_latest_period(self):
        events = [
            {"event": "period", "agent": "a", "period_index": 0,
             "end_time": 20.0, "statistic": 0.0, "alarm": False},
            {"event": "period", "agent": "a", "period_index": 1,
             "end_time": 40.0, "statistic": 0.0, "alarm": False},
        ]
        rollup = rollup_from_events(events)
        assert rollup.watermark == 40.0
        assert rollup.counts["total"] == 1

    def test_synthetic_fleet_is_shard_invariant(self):
        # The synthetic agent at index i is a pure function of
        # (seed, i): chunk boundaries cannot change any agent.
        whole = synthetic_fleet_states(40, seed=7)
        chunked = (
            synthetic_fleet_states(15, seed=7, start=0)
            + synthetic_fleet_states(25, seed=7, start=15)
        )
        assert whole == chunked

    def test_synthetic_shard_rollup_is_picklable_task(self):
        import pickle

        payload = synthetic_shard_rollup((7, 0, 25, 8))
        assert payload["agents"]["total"] == 25
        pickle.dumps(synthetic_shard_rollup)  # must be a module-level fn
