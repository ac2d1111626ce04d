"""Tests for the benchmark regression differ (``repro bench --compare``).

The key taxonomy is the contract CI leans on: ``*_s`` timings may drift
within the threshold, ``*_speedup`` ratios may not drop beyond it, and
everything else — identity gates, traffic counters — must match exactly.
Dropped keys are regressions; added keys are informational.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.benchcompare import (
    DEFAULT_THRESHOLD,
    compare_documents,
    compare_files,
    load_benchmark_document,
    render_comparison,
)
from repro.cli import main as cli_main
from repro.exceptions import ReproError


def doc(results: dict, benchmark: str = "graph_kernel") -> dict:
    return {"benchmark": benchmark, "results": results}


class TestKeyTaxonomy:
    def test_timing_within_threshold_is_ok(self):
        comparison = compare_documents(
            doc({"detect_s": 1.0}), doc({"detect_s": 1.15})
        )
        (delta,) = comparison.deltas
        assert delta.kind == "timing"
        assert delta.worsening == pytest.approx(0.15)
        assert not delta.regressed
        assert comparison.ok

    def test_timing_beyond_threshold_regresses(self):
        comparison = compare_documents(
            doc({"detect_s": 1.0}), doc({"detect_s": 1.5})
        )
        (delta,) = comparison.deltas
        assert delta.regressed
        assert not comparison.ok

    def test_timing_improvement_never_fatal(self):
        comparison = compare_documents(
            doc({"detect_s": 2.0}), doc({"detect_s": 0.5})
        )
        (delta,) = comparison.deltas
        assert delta.worsening == pytest.approx(-0.75)
        assert comparison.ok

    def test_speedup_drop_beyond_threshold_regresses(self):
        comparison = compare_documents(
            doc({"workers4_speedup": 3.0}), doc({"workers4_speedup": 2.0})
        )
        (delta,) = comparison.deltas
        assert delta.kind == "speedup"
        assert delta.worsening == pytest.approx(1.0 / 3.0)
        assert delta.regressed

    def test_speedup_gain_is_ok(self):
        comparison = compare_documents(
            doc({"workers4_speedup": 2.0}), doc({"workers4_speedup": 3.0})
        )
        assert comparison.ok

    def test_identity_any_change_regresses(self):
        comparison = compare_documents(
            doc({"batched_identical": 1.0}), doc({"batched_identical": 0.0})
        )
        (delta,) = comparison.deltas
        assert delta.kind == "identity"
        assert delta.worsening == float("inf")
        assert delta.regressed

    def test_identity_exact_match_is_ok(self):
        comparison = compare_documents(
            doc({"session_broadcasts": 3.0}), doc({"session_broadcasts": 3.0})
        )
        (delta,) = comparison.deltas
        assert delta.worsening == 0.0
        assert comparison.ok

    def test_identity_tolerates_no_epsilon(self):
        comparison = compare_documents(
            doc({"boundary_bytes": 100.0}), doc({"boundary_bytes": 100.001})
        )
        assert not comparison.ok

    def test_threshold_boundary_is_exclusive(self):
        # Worsening exactly at the threshold passes; only strictly beyond fails.
        at = compare_documents(
            doc({"detect_s": 1.0}), doc({"detect_s": 1.0 + DEFAULT_THRESHOLD})
        )
        assert at.ok
        beyond = compare_documents(
            doc({"detect_s": 1.0}),
            doc({"detect_s": 1.0 + DEFAULT_THRESHOLD + 1e-9}),
        )
        assert not beyond.ok

    def test_custom_threshold(self):
        old, new = doc({"detect_s": 1.0}), doc({"detect_s": 1.1})
        assert compare_documents(old, new, threshold=0.2).ok
        assert not compare_documents(old, new, threshold=0.05).ok

    def test_negative_threshold_rejected(self):
        with pytest.raises(ReproError):
            compare_documents(doc({}), doc({}), threshold=-0.1)


class TestKeySets:
    def test_dropped_key_is_regression(self):
        comparison = compare_documents(
            doc({"detect_s": 1.0, "batched_identical": 1.0}),
            doc({"detect_s": 1.0}),
        )
        assert comparison.missing_keys == ("batched_identical",)
        assert not comparison.ok

    def test_added_key_is_informational(self):
        comparison = compare_documents(
            doc({"detect_s": 1.0}),
            doc({"detect_s": 1.0, "sharded_workers2_s": 0.5}),
        )
        assert comparison.added_keys == ("sharded_workers2_s",)
        assert comparison.ok

    def test_non_numeric_values_skipped(self):
        comparison = compare_documents(
            doc({"detect_s": 1.0, "label": "fast"}),
            doc({"detect_s": 1.0, "label": "slow"}),
        )
        assert [delta.key for delta in comparison.deltas] == ["detect_s"]
        assert comparison.ok

    def test_deltas_sorted_by_key(self):
        results = {"z_s": 1.0, "a_s": 1.0, "m_identical": 1.0}
        comparison = compare_documents(doc(results), doc(results))
        assert [d.key for d in comparison.deltas] == ["a_s", "m_identical", "z_s"]


def machine_doc(results: dict, cpu_count: int) -> dict:
    return {**doc(results), "machine": {"cpu_count": cpu_count}}


class TestCoreCounts:
    RESULTS_OLD = {"detect_s": 1.0, "workers2_speedup": 1.8, "batched_identical": 1.0}
    RESULTS_NEW = {"detect_s": 3.0, "workers2_speedup": 0.9, "batched_identical": 1.0}

    def test_timings_and_speedups_not_comparable_across_core_counts(self):
        comparison = compare_documents(
            machine_doc(self.RESULTS_OLD, 1), machine_doc(self.RESULTS_NEW, 2)
        )
        assert comparison.core_counts == (1, 2)
        by_key = {delta.key: delta for delta in comparison.deltas}
        for key in ("detect_s", "workers2_speedup"):
            assert not by_key[key].comparable
            assert not by_key[key].regressed
        assert by_key["batched_identical"].comparable
        assert comparison.ok

    def test_identity_keys_stay_gated_across_core_counts(self):
        comparison = compare_documents(
            machine_doc({"batched_identical": 1.0}, 1),
            machine_doc({"batched_identical": 0.0}, 4),
        )
        assert not comparison.ok
        (delta,) = comparison.regressions
        assert delta.key == "batched_identical"

    def test_same_core_count_still_gates_timings(self):
        comparison = compare_documents(
            machine_doc(self.RESULTS_OLD, 2), machine_doc(self.RESULTS_NEW, 2)
        )
        assert comparison.core_counts is None
        assert {delta.key for delta in comparison.regressions} == {
            "detect_s",
            "workers2_speedup",
        }

    def test_unknown_core_count_compares(self):
        comparison = compare_documents(
            doc(self.RESULTS_OLD), machine_doc(self.RESULTS_NEW, 2)
        )
        assert comparison.core_counts is None
        assert not comparison.ok

    def test_render_says_why(self):
        comparison = compare_documents(
            machine_doc(self.RESULTS_OLD, 1), machine_doc(self.RESULTS_NEW, 2)
        )
        text = render_comparison(comparison)
        assert "core counts differ (1 vs 2)" in text
        assert text.count("not comparable") >= 2
        assert "detect_s" in text and "workers2_speedup" in text
        assert "REGRESSED" not in text
        assert "no regressions" in text

    def test_committed_baseline_against_another_core_count(self):
        baseline = load_benchmark_document(
            Path(__file__).resolve().parent.parent / "BENCH_graph_kernel.json"
        )
        other = json.loads(json.dumps(baseline))
        other["machine"]["cpu_count"] = baseline["machine"]["cpu_count"] + 1
        for key in other["results"]:
            if key.endswith("_s"):
                other["results"][key] *= 10.0
        assert compare_documents(baseline, other).ok
        identity = next(
            key
            for key, value in other["results"].items()
            if isinstance(value, (int, float)) and not key.endswith(("_s", "_speedup"))
        )
        other["results"][identity] += 1.0
        assert [delta.key for delta in compare_documents(baseline, other).regressions] == [
            identity
        ]


class TestLoading:
    def test_compare_files_round_trip(self, tmp_path):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(doc({"detect_s": 1.0})), encoding="utf-8")
        new.write_text(json.dumps(doc({"detect_s": 1.1})), encoding="utf-8")
        comparison = compare_files(old, new)
        assert comparison.ok
        assert comparison.benchmark == "graph_kernel"

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ReproError, match="not valid JSON"):
            load_benchmark_document(path)

    def test_document_without_results_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"benchmark": "x"}), encoding="utf-8")
        with pytest.raises(ReproError, match="results"):
            load_benchmark_document(path)

    def test_results_must_be_mapping(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps({"results": [1, 2]}), encoding="utf-8")
        with pytest.raises(ReproError):
            load_benchmark_document(path)


class TestRendering:
    def test_quiet_render_hides_ok_keys(self):
        comparison = compare_documents(
            doc({"detect_s": 1.0, "slow_s": 1.0}),
            doc({"detect_s": 1.0, "slow_s": 5.0}),
        )
        text = render_comparison(comparison)
        assert "slow_s" in text
        assert "REGRESSED" in text
        assert "detect_s" not in text

    def test_verbose_render_shows_everything(self):
        comparison = compare_documents(
            doc({"detect_s": 1.0}), doc({"detect_s": 1.0})
        )
        text = render_comparison(comparison, verbose=True)
        assert "detect_s" in text
        assert "no regressions" in text

    def test_dropped_keys_rendered(self):
        comparison = compare_documents(doc({"gone_s": 1.0}), doc({}))
        text = render_comparison(comparison)
        assert "gone_s" in text
        assert "dropped" in text
        assert "1 dropped key(s)" in text


class TestCli:
    def write_docs(self, tmp_path, old_results, new_results):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(doc(old_results)), encoding="utf-8")
        new.write_text(json.dumps(doc(new_results)), encoding="utf-8")
        return str(old), str(new)

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        old, new = self.write_docs(tmp_path, {"detect_s": 1.0}, {"detect_s": 1.0})
        assert cli_main(["bench", "--compare", old, new]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_exit_one_on_regression(self, tmp_path, capsys):
        old, new = self.write_docs(
            tmp_path, {"batched_identical": 1.0}, {"batched_identical": 0.0}
        )
        assert cli_main(["bench", "--compare", old, new]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_exit_two_on_unreadable_input(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        old, _ = self.write_docs(tmp_path, {}, {})
        assert cli_main(["bench", "--compare", old, missing]) == 2

    def test_threshold_flag(self, tmp_path):
        old, new = self.write_docs(tmp_path, {"detect_s": 1.0}, {"detect_s": 1.1})
        assert cli_main(["bench", "--compare", old, new]) == 0
        assert (
            cli_main(["bench", "--compare", old, new, "--threshold", "0.05"]) == 1
        )
