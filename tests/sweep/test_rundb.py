"""Tests for the persistent pipeline run database."""

import json
import re

import pytest

from repro.sweep.rundb import (
    RUNDB_FORMAT_VERSION,
    RunDB,
    RunRecord,
    fingerprint_hash,
    sweep_spec_hash,
)
from repro.sweep.spec import CellSpec, SweepSpec


def record(run_id="r1", experiment="figure3", spec_hash="a" * 64, **overrides):
    base = dict(
        run_id=run_id,
        experiment=experiment,
        spec_hash=spec_hash,
        trials=3,
        shards_total=6,
        shards_executed=2,
        shards_cached=4,
        elapsed_seconds=0.5,
        drift="PASS",
        csv_sha256="b" * 64,
        created=1700000000.0,
        extra={"note": "x"},
    )
    base.update(overrides)
    return RunRecord(**base)


def cell(**overrides):
    base = dict(
        algorithm="feedback",
        engine="fleet",
        family="gnp",
        n=20,
        edge_probability=0.5,
        trials=4,
        master_seed=7,
    )
    base.update(overrides)
    return CellSpec(**base)


class TestHashes:
    def test_fingerprint_hash_is_canonical(self):
        a = fingerprint_hash({"b": 2, "a": 1})
        b = fingerprint_hash({"a": 1, "b": 2})
        assert a == b
        assert len(a) == 64

    def test_fingerprint_hash_distinguishes_payloads(self):
        assert fingerprint_hash({"a": 1}) != fingerprint_hash({"a": 2})

    def test_sweep_spec_hash_ignores_shard_width(self):
        spec_fine = SweepSpec((cell(),), shard_trials=2)
        spec_coarse = SweepSpec((cell(),), shard_trials=64)
        assert sweep_spec_hash(spec_fine) == sweep_spec_hash(spec_coarse)

    def test_sweep_spec_hash_sees_cell_parameters(self):
        assert sweep_spec_hash(SweepSpec((cell(),), 8)) != sweep_spec_hash(
            SweepSpec((cell(master_seed=8),), 8)
        )


class TestRunRecord:
    def test_round_trip(self):
        original = record()
        assert RunRecord.from_dict(original.to_dict()) == original

    def test_to_dict_stamps_format(self):
        assert record().to_dict()["format"] == RUNDB_FORMAT_VERSION

    def test_cache_hit_rate(self):
        assert record().cache_hit_rate == pytest.approx(4 / 6)
        assert record(shards_executed=0, shards_cached=0).cache_hit_rate is None

    def test_from_dict_tolerates_missing_optionals(self):
        loaded = RunRecord.from_dict(
            {
                "run_id": "r",
                "experiment": "e",
                "spec_hash": "h",
                "trials": 1,
            }
        )
        assert loaded.drift == "MISSING"
        assert loaded.extra == {}


class TestRunDB:
    def test_append_and_read_back(self, tmp_path):
        db = RunDB(tmp_path / "db")
        db.append(record(run_id="r1"))
        db.append(record(run_id="r2", experiment="bio"))
        loaded = db.records()
        assert [r.run_id for r in loaded] == ["r1", "r2"]
        assert loaded[0] == record(run_id="r1")

    def test_reopen_sees_prior_records(self, tmp_path):
        root = tmp_path / "db"
        RunDB(root).append(record(run_id="r1"))
        assert [r.run_id for r in RunDB(root).records()] == ["r1"]

    def test_empty_database_reads_empty(self, tmp_path):
        assert RunDB(tmp_path / "fresh").records() == []

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        db = RunDB(tmp_path / "db")
        db.append(record(run_id="r1"))
        db.append(record(run_id="r2"))
        with open(db.runs_path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "torn", "experi')
        assert [r.run_id for r in db.records()] == ["r1", "r2"]

    def test_garbage_line_mid_file_loses_only_itself(self, tmp_path):
        db = RunDB(tmp_path / "db")
        db.append(record(run_id="r1"))
        with open(db.runs_path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        db.append(record(run_id="r2"))
        assert [r.run_id for r in db.records()] == ["r1", "r2"]

    @pytest.mark.parametrize(
        "damage", ('"trials":1e999', '"shards_total":-1e999', '"extra":"x"')
    )
    def test_unconvertible_line_is_skipped_everywhere(
        self, tmp_path, capsys, damage
    ):
        """A line that parses as JSON but holds an unconvertible value
        costs only itself: records(), the next append() and
        ``repro stats --rundb`` all carry on."""
        from repro.cli import main

        db = RunDB(tmp_path / "db")
        db.append(record(run_id="r1"))
        line = json.dumps(record(run_id="bad").to_dict(), sort_keys=True,
                          separators=(",", ":"))
        field = damage.split(":")[0]
        line = re.sub(rf'{field}:("[^"]*"|[^,}}]+)', damage, line)
        assert damage in line
        with open(db.runs_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        db.append(record(run_id="r2"))
        assert [r.run_id for r in db.records()] == ["r1", "r2"]
        assert db.index()["records"] == 2
        assert main(["stats", "--rundb", str(tmp_path / "db")]) == 0
        assert "r2" in capsys.readouterr().out

    def test_runs_for_prefix_match(self, tmp_path):
        db = RunDB(tmp_path / "db")
        db.append(record(run_id="r1", spec_hash="a" * 64))
        db.append(record(run_id="r2", spec_hash="b" * 64))
        assert [r.run_id for r in db.runs_for("a" * 12)] == ["r1"]
        assert db.runs_for("f" * 12) == []

    def test_latest_picks_newest_per_experiment(self, tmp_path):
        db = RunDB(tmp_path / "db")
        db.append(record(run_id="r1", experiment="figure3", drift="MISSING"))
        db.append(record(run_id="r2", experiment="figure3", drift="PASS"))
        db.append(record(run_id="r2", experiment="bio"))
        latest = db.latest("figure3")
        assert latest is not None
        assert (latest.run_id, latest.drift) == ("r2", "PASS")
        assert db.latest("nope") is None


class TestIndex:
    def test_index_summarises_records(self, tmp_path):
        db = RunDB(tmp_path / "db")
        db.append(record(run_id="r1", drift="MISSING"))
        db.append(record(run_id="r2"))
        db.append(record(run_id="r3", experiment="bio", drift="SKIP"))
        payload = db.index()
        assert payload["format"] == RUNDB_FORMAT_VERSION
        assert payload["records"] == 3
        assert payload["experiments"]["figure3"] == {
            "runs": 2,
            "last_run_id": "r2",
            "last_spec_hash": record().spec_hash,
            "last_drift": "PASS",
        }
        assert payload["experiments"]["bio"]["last_drift"] == "SKIP"

    def test_append_writes_only_the_record_log(self, tmp_path):
        db = RunDB(tmp_path / "db")
        db.append(record(run_id="r1"))
        assert sorted(p.name for p in db.root.iterdir()) == ["runs.jsonl"]
