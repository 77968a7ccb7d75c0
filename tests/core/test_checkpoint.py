"""Checkpoint/restore and degraded-mode tests for the SynDog agent.

The contract under test: a detector restored from a checkpoint taken
after period k produces records from k+1 onward that are *bit-identical*
to the uninterrupted run — same indices, same floats, same alarms."""

import pytest

from repro.core import DEFAULT_PARAMETERS, SynDog
from repro.core.syndog import CHECKPOINT_VERSION
from repro.trace import AUCKLAND, AttackWindow, generate_count_trace, mix_flood_into_counts
from repro.attack import FloodSource


def flooded_counts(duration=1800.0, rate=5.0, start=360.0):
    background = generate_count_trace(AUCKLAND, seed=11, duration=duration)
    return mix_flood_into_counts(
        background, FloodSource(pattern=rate), AttackWindow(start, 600.0)
    ).counts


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("split", [1, 10, 45])
    def test_records_identical_from_split_onward(self, split):
        counts = flooded_counts()
        reference = SynDog(name="ref")
        for syn, synack in counts:
            reference.observe_period(syn, synack)

        interrupted = SynDog(name="interrupted")
        for syn, synack in counts[:split]:
            interrupted.observe_period(syn, synack)
        state = interrupted.checkpoint()
        resumed = SynDog.restore(state, name="resumed")
        for syn, synack in counts[split:]:
            resumed.observe_period(syn, synack)

        assert resumed.records == reference.records[split:]
        assert resumed.alarm == reference.alarm
        assert resumed.statistic == reference.statistic
        assert resumed.k_bar == reference.k_bar

    def test_checkpoint_is_json_serializable(self):
        import json

        dog = SynDog()
        dog.observe_period(100, 95)
        state = json.loads(json.dumps(dog.checkpoint()))
        resumed = SynDog.restore(state)
        assert resumed.observe_period(100, 95) == dog.observe_period(100, 95)

    def test_restore_rejects_unknown_version(self):
        dog = SynDog()
        state = dog.checkpoint()
        state["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ValueError, match="checkpoint version"):
            SynDog.restore(state)

    def test_restore_accepts_and_refuses_the_dropped_freeze_flag(self):
        # Version-3 checkpoints of earlier builds carry the flag, as
        # false: they resume as before.  One that froze K̄ on alarm
        # would resume as a different detector, so it is refused.
        dog = SynDog()
        dog.observe_period(100, 95)
        state = dog.checkpoint()
        assert "freeze_k_on_alarm" not in state
        resumed = SynDog.restore({**state, "freeze_k_on_alarm": False})
        assert resumed.observe_period(100, 95) == dog.observe_period(100, 95)
        with pytest.raises(ValueError, match="freeze_k_on_alarm"):
            SynDog.restore({**state, "freeze_k_on_alarm": True})

    def test_summary_survives_restore(self):
        import json

        counts = flooded_counts()
        dog = SynDog()
        dog.observe_period(*counts[0])
        dog.observe_missing_period()
        for syn, synack in counts[2:40]:
            dog.observe_period(syn, synack)
        assert dog.summary.alarms == 1
        state = json.loads(json.dumps(dog.checkpoint()))
        resumed = SynDog.restore(state)
        assert resumed.summary.status_row() == dog.summary.status_row()
        assert resumed.degraded_periods == dog.degraded_periods == 1
        # The first alarmed record is the records' business: a restored
        # agent's result() describes what it produced itself.
        assert resumed.result().first_alarm_period is None
        for syn, synack in counts[40:]:
            dog.observe_period(syn, synack)
            resumed.observe_period(syn, synack)
        assert resumed.summary.status_row() == dog.summary.status_row()

    def test_checkpoint_without_summary_keys_restores(self):
        dog = SynDog()
        dog.observe_period(100, 95)
        state = dog.checkpoint()
        for key in ("alarms_raised", "degraded_periods", "last_period"):
            del state[key]
        resumed = SynDog.restore(state)
        assert resumed.summary.periods == 1
        assert resumed.summary.last is None
        assert resumed.observe_period(100, 95) == dog.observe_period(100, 95)

    def test_restore_reconstructs_parameters(self):
        from repro.core import SynDogParameters

        custom = SynDogParameters(
            observation_period=10.0, drift=0.4, attack_increase=0.8,
            threshold=2.0,
        )
        dog = SynDog(parameters=custom)
        resumed = SynDog.restore(dog.checkpoint())
        assert resumed.parameters == custom

    def test_restore_preserves_alarm_state(self):
        counts = flooded_counts()
        dog = SynDog()
        for syn, synack in counts:
            dog.observe_period(syn, synack)
        assert dog.alarm  # the flood was detected
        resumed = SynDog.restore(dog.checkpoint())
        assert resumed.alarm
        assert resumed.statistic == dog.statistic


class TestDegradedMode:
    def test_carry_forward_within_cap(self):
        dog = SynDog(staleness_cap=3)
        dog.observe_period(120, 110)
        record = dog.observe_missing_period()
        assert record.degraded
        assert (record.syn_count, record.synack_count) == (120, 110)
        assert record.period_index == 1
        assert dog.degraded_periods == 1

    def test_hold_beyond_cap_freezes_statistic(self):
        dog = SynDog(staleness_cap=2)
        dog.observe_period(500, 100)  # big imbalance: statistic climbs
        carried = [dog.observe_missing_period() for _ in range(2)]
        assert all(r.degraded for r in carried)
        statistic_at_cap = dog.statistic
        k_at_cap = dog.k_bar
        held = [dog.observe_missing_period() for _ in range(4)]
        for record in held:
            assert record.degraded
            assert (record.syn_count, record.synack_count) == (0, 0)
            assert record.statistic == statistic_at_cap
            assert record.k_bar == k_at_cap
        # The period clock still advances during the hold.
        assert held[-1].period_index == 6

    def test_hold_before_any_observation(self):
        dog = SynDog()
        record = dog.observe_missing_period()
        assert record.degraded
        assert record.statistic == 0.0

    def test_observation_resets_missing_streak(self):
        dog = SynDog(staleness_cap=1)
        dog.observe_period(100, 95)
        dog.observe_missing_period()           # carried (streak 1 == cap)
        dog.observe_period(100, 95)            # streak resets
        record = dog.observe_missing_period()  # carried again, not held
        assert (record.syn_count, record.synack_count) == (100, 95)

    def test_degraded_bookkeeping_survives_checkpoint(self):
        dog = SynDog(staleness_cap=2)
        dog.observe_period(100, 95)
        dog.observe_missing_period()
        resumed = SynDog.restore(dog.checkpoint())
        # One more miss is still within the cap of 2 — counts carried.
        record = resumed.observe_missing_period()
        assert (record.syn_count, record.synack_count) == (100, 95)
        # The next one crosses the cap and holds.
        held = resumed.observe_missing_period()
        assert (held.syn_count, held.synack_count) == (0, 0)

    def test_negative_staleness_cap_rejected(self):
        with pytest.raises(ValueError):
            SynDog(staleness_cap=-1)

    def test_degraded_periods_metric_exported(self):
        from repro.obs import enabled_instrumentation
        from repro.obs.exporters import render_prometheus

        obs = enabled_instrumentation()
        dog = SynDog(obs=obs, name="degraded-test")
        dog.observe_period(100, 95)
        dog.observe_missing_period()
        dog.observe_missing_period()
        text = render_prometheus(obs.registry)
        assert (
            'degraded_periods_total{agent="degraded-test"} 2' in text
        )

    def test_carried_periods_keep_detection_alive(self):
        """A flood interrupted by a short reporting gap is still caught:
        carry-forward keeps the statistic accumulating."""
        counts = flooded_counts()
        attack_period = int(360.0 // DEFAULT_PARAMETERS.observation_period)
        dog = SynDog(staleness_cap=3)
        for index, (syn, synack) in enumerate(counts):
            # Lose the two reports right after the flood begins.
            if index in (attack_period + 1, attack_period + 2):
                dog.observe_missing_period()
            else:
                dog.observe_period(syn, synack)
        assert any(record.alarm for record in dog.records)
