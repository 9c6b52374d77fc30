"""Experiment harness and paper-style table formatting."""

import numpy as np
import pytest

from repro.eval import reporting
from repro.eval.harness import (
    ActiveLearningRow,
    HarnessConfig,
    MatchingRow,
    TransferRow,
    active_learning_experiment,
    fit_representation,
    matching_experiment,
    raw_ir_neighbour_map,
    recall_at_k_experiment,
    representation_experiment,
    run_baseline_matching,
    run_vaer_matching,
    transfer_experiment,
    vaer_neighbour_map,
)
from repro.eval.metrics import PRF


@pytest.fixture(scope="module")
def harness_config():
    return HarnessConfig(
        ir_dim=16, hidden_dim=24, latent_dim=8, vae_epochs=4,
        matcher_epochs=15, al_retrain_epochs=8, top_k=5, seed=3,
    )


@pytest.fixture(scope="module")
def tiny_representation_for_harness(tiny_domain, harness_config):
    model, seconds = fit_representation(tiny_domain, harness_config)
    return model, seconds


class TestHarnessConfig:
    def test_derived_configs_consistent(self, harness_config):
        assert harness_config.vae_config().latent_dim == harness_config.latent_dim
        assert harness_config.matcher_config().epochs == harness_config.matcher_epochs
        assert harness_config.al_config().retrain_epochs == harness_config.al_retrain_epochs
        assert harness_config.vaer_config("w2v").ir_method == "w2v"


class TestRepresentationExperiment:
    def test_fit_representation_times(self, tiny_representation_for_harness):
        _, seconds = tiny_representation_for_harness
        assert seconds > 0

    def test_neighbour_maps_cover_all_left_records(self, tiny_domain, harness_config, tiny_representation_for_harness):
        model, _ = tiny_representation_for_harness
        raw = raw_ir_neighbour_map(tiny_domain, "w2v", harness_config)
        vaer = vaer_neighbour_map(tiny_domain, model, harness_config)
        assert set(raw) == set(tiny_domain.task.left.record_ids())
        assert set(vaer) == set(tiny_domain.task.left.record_ids())

    def test_representation_experiment_structure(self, tiny_domain, harness_config):
        results = representation_experiment(tiny_domain, harness_config, ir_methods=("w2v",), k=5)
        assert set(results) == {"w2v"}
        assert set(results["w2v"]) == {"raw", "vaer"}
        assert 0.0 <= results["w2v"]["vaer"].recall <= 1.0

    def test_recall_curve_monotone_in_k(self, tiny_domain, harness_config, tiny_representation_for_harness):
        model, _ = tiny_representation_for_harness
        curve = recall_at_k_experiment(tiny_domain, harness_config, ks=(2, 5, 10), representation=model)
        assert curve[2] <= curve[5] <= curve[10]


class TestMatchingExperiment:
    def test_vaer_row(self, tiny_domain, harness_config, tiny_representation_for_harness):
        model, _ = tiny_representation_for_harness
        row = run_vaer_matching(tiny_domain, harness_config, representation=model)
        assert row.system == "vaer"
        assert 0.0 <= row.metrics.f1 <= 1.0
        assert row.matching_seconds > 0

    def test_baseline_row(self, tiny_domain):
        row = run_baseline_matching(tiny_domain, "threshold")
        assert row.system == "threshold" and row.matching_seconds >= 0

    def test_matching_experiment_contains_all_systems(self, tiny_domain, harness_config):
        rows = matching_experiment(tiny_domain, harness_config, systems=("threshold",))
        assert [row.system for row in rows] == ["vaer", "threshold"]

    def test_vaer_distance_ablation_runs(self, tiny_domain, harness_config, tiny_representation_for_harness):
        model, _ = tiny_representation_for_harness
        row = run_vaer_matching(tiny_domain, harness_config, representation=model, distance="mahalanobis")
        assert 0.0 <= row.metrics.f1 <= 1.0


class TestStoreBinding:
    def test_mismatched_store_rejected(self, tiny_domain, harness_config, tiny_representation_for_harness, tiny_representation):
        from repro.engine import EncodingStore

        model, _ = tiny_representation_for_harness
        other_store = EncodingStore(tiny_representation, tiny_domain.task)
        with pytest.raises(ValueError, match="different representation"):
            vaer_neighbour_map(tiny_domain, model, harness_config, store=other_store)

    def test_store_only_invocation_adopts_its_model(self, tiny_domain, harness_config, tiny_representation_for_harness):
        from repro.engine import EncodingStore

        model, _ = tiny_representation_for_harness
        store = EncodingStore(model, tiny_domain.task)
        row = run_vaer_matching(tiny_domain, harness_config, store=store)
        assert 0.0 <= row.metrics.f1 <= 1.0
        assert row.representation_seconds == 0.0  # no fresh model was fit


class TestTransferExperiment:
    def test_rows_and_deltas(self, tiny_domain, restaurants_domain, harness_config):
        rows = transfer_experiment(tiny_domain, [restaurants_domain], harness_config)
        assert len(rows) == 1
        row = rows[0]
        assert row.domain == "restaurants"
        assert -1.0 <= row.recall_delta <= 1.0
        assert -1.0 <= row.f1_delta <= 1.0


class TestActiveLearningExperiment:
    def test_row_fields(self, tiny_domain, harness_config, tiny_representation_for_harness):
        model, _ = tiny_representation_for_harness
        row = active_learning_experiment(
            tiny_domain, harness_config, label_budget=20, iterations=2, representation=model,
        )
        assert row.labels_used <= 20
        assert row.full_training_size == len(tiny_domain.splits.train)
        assert len(row.f1_trace) >= 1
        assert 0.0 <= row.f1_percentage <= 2.0


class TestReporting:
    def test_representation_table(self):
        results = {"demo": {"lsa": {"raw": PRF(0.1, 0.9, 0.2), "vaer": PRF(0.2, 1.0, 0.3)}}}
        text = reporting.format_representation_table(results)
        assert "demo" in text and "0.90/1.00" in text

    def test_matching_and_timing_tables(self):
        rows = {"demo": [MatchingRow("vaer", PRF(1.0, 0.5, 2 / 3), 1.2, 0.3)]}
        assert "vaer" in reporting.format_matching_table(rows)
        timing = reporting.format_timing_table(rows)
        assert "1.20" in timing and "1.50" in timing

    def test_transfer_table(self):
        rows = [TransferRow("beer", 0.8, 0.78, 0.7, 0.69)]
        text = reporting.format_transfer_table(rows)
        assert "beer" in text and "-0.02" in text

    def test_active_learning_table(self):
        rows = [ActiveLearningRow("demo", PRF(0, 0, 0.5), PRF(0, 0, 0.8), PRF(0, 0, 1.0), 25, 100)]
        text = reporting.format_active_learning_table(rows)
        assert "80%" in text and "25%" in text

    def test_recall_curve_table(self):
        text = reporting.format_recall_curve({"demo": {10: 0.8, 20: 0.9}})
        assert "R@10" in text and "0.90" in text

    def test_f1_trace_table(self):
        text = reporting.format_f1_trace({"demo": [(10, 0.5), (20, 0.75)]})
        assert "20:0.75" in text

    def test_engine_stats_table(self):
        from repro.eval.timing import EngineCounters

        counters = EngineCounters(cache_hits=9, cache_misses=1, encodes_avoided=720, pairs_scored=4096)
        text = reporting.format_engine_stats(counters)
        assert "Encodes avoided" in text and "720" in text and "90%" in text

    def test_engine_stats_defaults_to_global_counters(self):
        text = reporting.format_engine_stats()
        assert "Cache hits" in text and "Pairs scored" in text

    def test_engine_stats_includes_persistence_columns(self):
        from repro.eval.timing import EngineCounters

        counters = EngineCounters(tables_encoded=2, disk_hits=4, disk_misses=2)
        text = reporting.format_engine_stats(counters)
        assert "Tables encoded" in text and "Disk hits" in text and "Disk misses" in text
        assert "4" in text

    def test_engine_stats_includes_blocking_columns(self):
        from repro.eval.timing import EngineCounters

        counters = EngineCounters()
        counters.record_blocking(250, 3, 60250, 4731)
        text = reporting.format_engine_stats(counters)
        assert "Blocking queries" in text and "Blocking fallbacks" in text
        assert "Candidates ranked" in text and "60250" in text
        assert "Candidates rescored" in text and "4731" in text


    def test_engine_stats_includes_records_scored(self):
        from repro.eval.timing import EngineCounters

        counters = EngineCounters()
        counters.record_records_scored(913)
        text = reporting.format_engine_stats(counters)
        assert "Records scored" in text and "913" in text
