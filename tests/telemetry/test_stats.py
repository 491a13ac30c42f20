"""The ``repro stats`` engine: run tables, drill-downs, bench drift."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import probes
from repro.telemetry.ledger import record_run
from repro.telemetry.stats import (
    BenchDrift,
    bench_drift,
    format_stats,
    load_runs,
    run_detail,
    runs_table,
    stats_payload,
)


def _record_sweep(root, hits: int, misses: int) -> None:
    with record_run(root, "sweep", ["--trials", "8"]):
        if hits:
            probes.count("sweep.cache.hit", hits)
        for index in range(misses):
            probes.count("sweep.cache.miss")
            probes.span_event(
                "sweep.shard",
                0.1 * (index + 1),
                algorithm="feedback",
                n=50,
                lo=index * 4,
                hi=(index + 1) * 4,
                cached=False,
                content_hash=f"{index:02x}" * 32,
            )


def _write_bench(directory, name: str, speedup, floor) -> None:
    results = {} if speedup is None else {"speedup": speedup}
    payload = {"bench": name, "results": results, "floor": floor}
    (directory / f"BENCH_{name}.json").write_text(
        json.dumps(payload), encoding="utf-8"
    )


class TestRunsTable:
    def test_hit_rate_and_shard_counts_per_run(self, tmp_path):
        _record_sweep(tmp_path, hits=0, misses=4)
        _record_sweep(tmp_path, hits=4, misses=0)
        runs = load_runs(tmp_path)
        assert [run.cache_hit_rate for run in runs] == [0.0, 1.0]
        table = runs_table(runs)
        assert "hit-rate" in table
        assert "100%" in table
        assert "sweep" in table

    def test_runs_without_sweeps_have_no_hit_rate(self, tmp_path):
        with record_run(tmp_path, "color"):
            probes.count("engine.fleet.runs")
        (run,) = load_runs(tmp_path)
        assert run.cache_hit_rate is None
        assert "-" in runs_table([run])


class TestRunDetail:
    def test_slowest_shards_ranked_and_hashed(self, tmp_path):
        _record_sweep(tmp_path, hits=1, misses=3)
        (run,) = load_runs(tmp_path)
        shards = run.slowest_shards(2)
        assert [shard["seconds"] for shard in shards] == pytest.approx(
            [0.3, 0.2]
        )
        detail = run_detail(run, slowest=2)
        assert "slowest shards" in detail
        assert "feedback" in detail
        assert "sweep.cache.hit" in detail

    def test_cached_shards_never_rank_as_slowest(self, tmp_path):
        with record_run(tmp_path, "sweep"):
            probes.span_event(
                "sweep.shard", 99.0, cached=True, content_hash="aa" * 32
            )
            probes.span_event(
                "sweep.shard", 0.5, cached=False, content_hash="bb" * 32
            )
        (run,) = load_runs(tmp_path)
        assert [s["seconds"] for s in run.slowest_shards(5)] == [0.5]
        # Both hashes are still tied to the run, though.
        assert run.spec_hashes == ["aa" * 32, "bb" * 32]

    def test_failed_shards_surface_in_summary_and_detail(self, tmp_path):
        """A sweep.shard.failed annotation (the orchestrator's exhausted-
        retries report) lands in the run summary, the drill-down text,
        and the --json payload."""
        with record_run(tmp_path, "sweep"):
            probes.count("sweep.shard.retry", 2)
            probes.count("sweep.shard.failed")
            probes.annotate(
                "sweep.shard.failed",
                algorithm="feedback",
                n=50,
                lo=4,
                hi=8,
                content_hash="cc" * 32,
                error="RuntimeError: worker crashed",
            )
        (run,) = load_runs(tmp_path)
        assert len(run.failed_shards) == 1
        failed = run.failed_shards[0]
        assert failed["lo"] == 4
        assert failed["error"] == "RuntimeError: worker crashed"
        detail = run_detail(run)
        assert "failed shards (exhausted retries):" in detail
        assert "feedback[n=50 4:8] RuntimeError: worker crashed" in detail
        payload = stats_payload(tmp_path, bench_dir=tmp_path)
        assert payload["runs"][0]["failed_shards"] == [failed]


class TestBenchDrift:
    def test_headroom_is_speedup_over_floor(self, tmp_path):
        _write_bench(tmp_path, "fleet", speedup=6.0, floor=3.0)
        _write_bench(tmp_path, "rng", speedup=None, floor=2.0)
        rows = bench_drift(tmp_path)
        assert [row.name for row in rows] == ["fleet", "rng"]
        assert rows[0].headroom == pytest.approx(2.0)
        assert rows[1].headroom is None

    def test_unreadable_records_are_skipped(self, tmp_path):
        _write_bench(tmp_path, "good", speedup=4.0, floor=2.0)
        (tmp_path / "BENCH_bad.json").write_text("{torn", encoding="utf-8")
        assert [row.name for row in bench_drift(tmp_path)] == ["good"]

    def test_missing_directory_is_empty(self, tmp_path):
        assert bench_drift(tmp_path / "nope") == []

    def test_zero_floor_has_no_headroom(self):
        assert BenchDrift("x", speedup=2.0, floor=0.0).headroom is None


class TestStatsPayload:
    def test_json_document_shape(self, tmp_path):
        ledger = tmp_path / "ledger"
        _record_sweep(ledger, hits=2, misses=2)
        _write_bench(tmp_path, "fleet", speedup=6.0, floor=3.0)
        payload = stats_payload(ledger, bench_dir=tmp_path)
        # The whole document must be JSON-serialisable (--json mode).
        json.dumps(payload)
        (run,) = payload["runs"]
        assert run["cache_hits"] == 2.0
        assert run["cache_hit_rate"] == pytest.approx(0.5)
        assert payload["benches"][0]["headroom"] == pytest.approx(2.0)
        assert payload["run_detail"]["spec_hashes"]

    def test_run_selection_by_prefix(self, tmp_path):
        _record_sweep(tmp_path, hits=0, misses=1)
        _record_sweep(tmp_path, hits=1, misses=0)
        runs = load_runs(tmp_path)
        newest = stats_payload(tmp_path)["run_detail"]["run_id"]
        assert newest == runs[-1].run_id
        chosen = stats_payload(tmp_path, run_id=runs[0].run_id[:8])
        assert chosen["run_detail"]["run_id"] == runs[0].run_id

    def test_unknown_run_id_raises(self, tmp_path):
        _record_sweep(tmp_path, hits=0, misses=1)
        with pytest.raises(SystemExit, match="no ledger run"):
            stats_payload(tmp_path, run_id="zzzz")


class TestFormatStats:
    def test_empty_ledger_directory(self, tmp_path):
        report = format_stats(tmp_path, bench_dir=tmp_path)
        assert "no ledger runs" in report

    def test_full_report_sections(self, tmp_path):
        ledger = tmp_path / "ledger"
        _record_sweep(ledger, hits=1, misses=2)
        _write_bench(tmp_path, "fleet", speedup=6.0, floor=3.0)
        report = format_stats(ledger, bench_dir=tmp_path)
        assert "ledger:" in report
        assert "slowest shards" in report
        assert "bench floors" in report
        assert "6.00x" in report


def _rundb_with_records(root):
    from repro.sweep.rundb import RunDB, RunRecord

    db = RunDB(root)
    db.append(
        RunRecord(
            run_id="run-a", experiment="figure3", spec_hash="a" * 64,
            trials=3, shards_total=6, shards_executed=6, shards_cached=0,
            drift="MISSING",
        )
    )
    db.append(
        RunRecord(
            run_id="run-b", experiment="figure3", spec_hash="a" * 64,
            trials=3, shards_total=6, shards_executed=0, shards_cached=6,
            drift="PASS",
        )
    )
    return db


class TestRunDBSection:
    def test_format_stats_lists_paper_runs(self, tmp_path):
        _rundb_with_records(tmp_path / "db")
        report = format_stats(None, bench_dir=tmp_path,
                              rundb_dir=tmp_path / "db")
        assert "paper runs" in report
        assert "figure3" in report
        assert "PASS" in report and "MISSING" in report
        assert "100%" in report  # the warm run's hit-rate

    def test_rundb_only_query_skips_ledger_sections(self, tmp_path):
        _rundb_with_records(tmp_path / "db")
        report = format_stats(None, bench_dir=tmp_path,
                              rundb_dir=tmp_path / "db")
        assert "no ledger runs" not in report
        assert "ledger:" not in report

    def test_empty_rundb_reports_no_runs(self, tmp_path):
        report = format_stats(None, bench_dir=tmp_path,
                              rundb_dir=tmp_path / "empty")
        assert "no paper runs" in report

    def test_payload_carries_records_and_index(self, tmp_path):
        _rundb_with_records(tmp_path / "db")
        payload = stats_payload(None, bench_dir=tmp_path,
                                rundb_dir=tmp_path / "db")
        json.dumps(payload)  # --json mode must serialise
        assert payload["ledger"] is None
        assert [r["drift"] for r in payload["paper_runs"]] == [
            "MISSING", "PASS"
        ]
        assert payload["paper_index"]["experiments"]["figure3"][
            "last_drift"
        ] == "PASS"

    def test_ledger_and_rundb_combine(self, tmp_path):
        ledger = tmp_path / "ledger"
        _record_sweep(ledger, hits=1, misses=1)
        _rundb_with_records(tmp_path / "db")
        report = format_stats(ledger, bench_dir=tmp_path,
                              rundb_dir=tmp_path / "db")
        assert "ledger:" in report
        assert "paper runs" in report
