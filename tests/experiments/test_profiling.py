"""The profiling workload: every pipeline stage exercised (across the
two ingestion arms), and the cost-model document byte-identical across
worker counts."""

from repro.core.parameters import DEFAULT_PARAMETERS
from repro.experiments.export import save_json
from repro.experiments.profiling import (
    ProfileTask,
    profile_network,
    run_profile_campaign,
)
from repro.obs import enabled_instrumentation
from repro.obs.profiler import PIPELINE_STAGES
from repro.trace.profiles import get_profile

SITE = get_profile("auckland")

#: Stage attribution per ingestion arm.  The union must cover
#: PIPELINE_STAGES — that is what test_both_arms_cover_every_stage pins.
FASTPATH_STAGES = ("fastpath.parse", "fastpath.classify", "cusum.step",
                   "merge.fold")
OBJECT_STAGES = ("pcap.parse", "classify", "sniff.update",
                 "federation.feed", "cusum.step", "merge.fold")


def campaign_document(workers, mode="cost-model", sample_every=64,
                      fastpath=True, obs=None):
    if obs is None:
        obs = enabled_instrumentation(
            profiler=mode, profiler_sample_every=sample_every
        )
    outcomes = run_profile_campaign(
        SITE, networks=2, base_seed=7, duration=25.0,
        obs=obs, workers=workers, fastpath=fastpath,
    )
    return outcomes, obs.profiler.to_dict()


class TestProfileNetwork:
    def test_summary_shape_and_determinism(self):
        task = ProfileTask(
            network_id=3, profile=SITE, seed=11, duration=25.0,
            parameters=DEFAULT_PARAMETERS,
        )
        first = profile_network(task)
        second = profile_network(task)
        assert first == second
        assert first["network_id"] == 3
        assert first["packets"] == first["outbound"] + first["inbound"]
        assert first["packets"] > 0

    def test_arms_agree_on_outcomes(self):
        """The fastpath arm must report the exact outcome dict the
        object arm does — the per-network face of the differential
        oracle contract."""
        for seed in (11, 29):
            base = dict(
                network_id=3, profile=SITE, seed=seed, duration=45.0,
                parameters=DEFAULT_PARAMETERS,
            )
            fast = profile_network(ProfileTask(fastpath=True, **base))
            oracle = profile_network(ProfileTask(fastpath=False, **base))
            assert fast == oracle


class TestCostModelByteIdentity:
    def test_workers_1_vs_2_documents_are_byte_identical(self, tmp_path):
        for fastpath in (True, False):
            _, doc1 = campaign_document(workers=1, fastpath=fastpath)
            _, doc2 = campaign_document(workers=2, fastpath=fastpath)
            path1 = tmp_path / f"w1-{fastpath}.json"
            path2 = tmp_path / f"w2-{fastpath}.json"
            save_json(doc1, path1)
            save_json(doc2, path2)
            assert path1.read_bytes() == path2.read_bytes()

    def test_fastpath_arm_exercises_its_stages(self):
        _, document = campaign_document(workers=1, fastpath=True)
        by_stage = {row["stage"]: row for row in document["stages"]}
        for stage in FASTPATH_STAGES:
            assert stage in by_stage, f"stage {stage} never ran"
            assert by_stage[stage]["calls"] > 0
        assert "pcap.parse" not in by_stage  # columnar arm skips it

    def test_object_arm_exercises_its_stages(self):
        _, document = campaign_document(workers=1, fastpath=False)
        by_stage = {row["stage"]: row for row in document["stages"]}
        for stage in OBJECT_STAGES:
            assert stage in by_stage, f"stage {stage} never ran"
            assert by_stage[stage]["calls"] > 0
        assert "fastpath.parse" not in by_stage

    def test_both_arms_cover_every_stage(self):
        """One obs, both arms: together they must drive every stage in
        PIPELINE_STAGES — the invariant behind BENCH_profile.json."""
        obs = enabled_instrumentation(profiler="cost-model")
        campaign_document(workers=1, fastpath=True, obs=obs)
        _, document = campaign_document(workers=1, fastpath=False, obs=obs)
        by_stage = {row["stage"]: row for row in document["stages"]}
        for stage in PIPELINE_STAGES:
            assert stage in by_stage, f"stage {stage} never ran"
            assert by_stage[stage]["calls"] > 0

    def test_outcomes_match_across_workers_and_arms(self):
        outcomes1, _ = campaign_document(workers=1)
        outcomes2, _ = campaign_document(workers=2)
        assert outcomes1 == outcomes2
        oracle_outcomes, _ = campaign_document(workers=1, fastpath=False)
        assert oracle_outcomes == outcomes1

    def test_merge_fold_counts_are_plan_invariants(self):
        _, document = campaign_document(workers=1)
        (fold,) = [
            row for row in document["stages"] if row["stage"] == "merge.fold"
        ]
        assert fold["calls"] == 1  # one run_plan merge
        assert fold["packets"] == 2  # one item folded per network


class TestTimersMode:
    def test_every_stage_gets_timed(self):
        obs = enabled_instrumentation(
            profiler="timers", profiler_sample_every=8
        )
        campaign_document(workers=1, fastpath=True, obs=obs)
        _, document = campaign_document(workers=1, fastpath=False, obs=obs)
        by_stage = {row["stage"]: row for row in document["stages"]}
        for stage in PIPELINE_STAGES:
            row = by_stage[stage]
            assert row["timed_calls"] >= 1, f"stage {stage} never timed"
            assert row["ns_total"] > 0

    def test_timers_survive_worker_sharding(self):
        _, document = campaign_document(
            workers=2, mode="timers", sample_every=8
        )
        by_stage = {row["stage"]: row for row in document["stages"]}
        # Shard-side clocks ship home in the snapshot fold.
        assert by_stage["fastpath.classify"]["timed_calls"] >= 1
        assert by_stage["merge.fold"]["timed_calls"] == 1
