"""Tests for the persistent pipeline run database."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sweep.rundb import RUNDB_FORMAT_VERSION, RunDB, RunRecord
from repro.telemetry.stats import stats_payload
from tests.line_mutation import mutated_lines


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


EXACT_FIELDS = (
    "run_id", "experiment", "spec_hash", "trials", "shards_total",
    "shards_executed", "shards_cached", "drift", "csv_sha256",
)


def assert_read_as_written(loaded, text):
    """``loaded`` holds the count and string values of one line of
    ``text`` as written, type for type: nothing was coerced."""
    payloads = []
    for line in text.splitlines():
        try:
            payloads.append(json.loads(line))
        except ValueError:
            continue
    fields = loaded.to_dict()
    assert any(
        isinstance(payload, dict)
        and all(
            key not in payload
            or (
                type(payload[key]) is type(fields[key])
                and payload[key] == fields[key]
            )
            for key in EXACT_FIELDS
        )
        for payload in payloads
    ), fields
    assert loaded.trials >= 1
    assert min(
        loaded.shards_total, loaded.shards_executed, loaded.shards_cached
    ) >= 0


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
        "field, token",
        [
            ("trials", "1e999"),
            ("shards_total", "-1e999"),
            ("extra", '"x"'),
            ("elapsed_seconds", "1e999"),
            ("created", "NaN"),
            ("extra", '{"k":1e999}'),
            ("extra", '{"k":[1,-Infinity]}'),
            # Values of the wrong shape are damage, never coerced.
            ("trials", "2.7"),
            ("trials", "true"),
            ("trials", '"5"'),
            ("trials", "0"),
            ("shards_cached", "-3"),
            ("run_id", '["x"]'),
            ("drift", "7"),
        ],
    )
    def test_unconvertible_line_is_skipped_everywhere(
        self, tmp_path, capsys, field, token
    ):
        """A line that parses as JSON but holds an unconvertible or
        non-finite value costs only itself: records(), the next append(),
        ``repro stats --rundb`` and its strict ``--json`` form all carry
        on."""
        from repro.cli import main

        db = RunDB(tmp_path / "db")
        db.append(record(run_id="r1"))
        payload = record(run_id="bad").to_dict()
        payload[field] = "<damage>"
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        with open(db.runs_path, "a", encoding="utf-8") as handle:
            handle.write(line.replace('"<damage>"', token) + "\n")
        db.append(record(run_id="r2"))
        assert [r.run_id for r in db.records()] == ["r1", "r2"]
        assert db.index()["records"] == 2
        json.dumps(stats_payload(None, rundb_dir=tmp_path / "db"), allow_nan=False)
        assert main(["stats", "--rundb", str(tmp_path / "db")]) == 0
        assert "r2" in capsys.readouterr().out

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_damaged_line_never_breaks_the_reader(self, tmp_path_factory, data):
        """Whatever one line of ``runs.jsonl`` holds, the reader loses at
        most that line and ``repro stats --json`` stays strict JSON."""
        root = tmp_path_factory.mktemp("rundb")
        db = RunDB(root)
        for run_id in ("r1", "r2", "r3"):
            db.append(record(run_id=run_id, extra={"n": 1, "xs": [0.5]}))
        text = data.draw(
            mutated_lines(db.runs_path.read_text(encoding="utf-8"))
        )
        db.runs_path.write_text(text, encoding="utf-8")
        records = db.records()
        assert len(records) >= 2
        for loaded in records:
            assert_read_as_written(loaded, text)
        assert db.index()["records"] == len(records)
        json.dumps(stats_payload(None, rundb_dir=root), allow_nan=False)


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
        assert sorted(p.name for p in (tmp_path / "db").iterdir()) == ["runs.jsonl"]
