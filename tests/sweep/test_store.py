"""Tests for the content-addressed result store."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import TrialOutcome
from repro.sweep.orchestrator import run_sweep
from repro.sweep.spec import CellSpec, ShardSpec, SweepSpec
from repro.sweep.store import STORE_FORMAT_VERSION, ResultStore

from tests.line_mutation import mutated_lines


def shard(trials=4, lo=0, hi=4, **overrides):
    base = dict(
        algorithm="feedback",
        engine="reference",
        family="gnp",
        n=20,
        edge_probability=0.3,
        trials=trials,
        master_seed=11,
    )
    base.update(overrides)
    return ShardSpec(CellSpec(**base), lo, hi)


def rows_for(spec):
    return [
        TrialOutcome(
            trial=t,
            rounds=5 + t,
            mis_size=7,
            mean_beeps_per_node=1.25,
            messages=40,
            bits=40,
        )
        for t in range(spec.lo, spec.hi)
    ]


class TestPutGet:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        rows = rows_for(spec)
        store.put(spec, rows, elapsed_seconds=0.5)
        assert store.get(spec) == rows

    def test_miss_on_empty_store(self, tmp_path):
        assert ResultStore(tmp_path).get(shard()) is None

    def test_rows_are_jsonl_under_hash_path(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, rows_for(spec))
        path = store.rows_path(spec)
        digest = spec.content_hash()
        assert path.parent.name == digest[:2]
        assert path.name == f"{digest}.jsonl"
        lines = path.read_text().splitlines()
        assert len(lines) == spec.trials
        assert json.loads(lines[0])["trial"] == 0

    def test_put_rejects_wrong_row_count(self, tmp_path):
        spec = shard()
        with pytest.raises(ValueError, match="4 trials"):
            ResultStore(tmp_path).put(spec, rows_for(spec)[:-1])

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, rows_for(spec))
        leftovers = [p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")]
        assert leftovers == []


class TestChurnRows:
    """Repair columns round-trip, and fault-free rows stay byte-stable."""

    def churn_rows(self, spec):
        return [
            TrialOutcome(
                trial=t,
                rounds=9 + t,
                mis_size=6,
                mean_beeps_per_node=1.0,
                messages=30,
                bits=30,
                repair_rounds=(0, 2, -1),
                recovered=False,
            )
            for t in range(spec.lo, spec.hi)
        ]

    def test_repair_columns_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        rows = self.churn_rows(spec)
        store.put(spec, rows)
        loaded = store.get(spec)
        assert loaded == rows
        assert loaded[0].repair_rounds == (0, 2, -1)
        assert loaded[0].recovered is False

    def test_fault_free_rows_serialize_without_repair_fields(self, tmp_path):
        """Pre-churn stored bytes must not change: default repair fields
        stay off disk entirely."""
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, rows_for(spec))
        first = json.loads(store.rows_path(spec).read_text().splitlines()[0])
        assert "repair_rounds" not in first
        assert "recovered" not in first

    def test_rows_missing_repair_fields_default(self, tmp_path):
        """v2-era row files (no repair columns) still load, with the
        fault-free defaults."""
        loaded_rows = rows_for(shard())
        assert loaded_rows[0].repair_rounds == ()
        assert loaded_rows[0].recovered is True
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, loaded_rows)
        assert store.get(spec) == loaded_rows


class TestRepairAggregation:
    def test_repair_quantity_means_resolved_entries(self):
        from repro.sweep.aggregate import outcome_value

        row = TrialOutcome(
            trial=0, rounds=9, mis_size=6, mean_beeps_per_node=1.0,
            messages=0, bits=0, repair_rounds=(0, 4, -1), recovered=False,
        )
        assert outcome_value(row, "repair") == pytest.approx(2.0)
        assert outcome_value(row, "recovered") == 0.0

    def test_repair_quantity_without_churn_is_zero(self):
        from repro.sweep.aggregate import outcome_value

        row = TrialOutcome(
            trial=0, rounds=9, mis_size=6, mean_beeps_per_node=1.0,
            messages=0, bits=0,
        )
        assert outcome_value(row, "repair") == 0.0
        assert outcome_value(row, "recovered") == 1.0


class TestManifest:
    def test_provenance_fields(self, tmp_path):
        from repro import __version__

        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, rows_for(spec), elapsed_seconds=1.5)
        manifest = store.manifest(spec)
        assert manifest is not None
        assert manifest.content_hash == spec.content_hash()
        assert manifest.store_format == STORE_FORMAT_VERSION
        assert manifest.code_version == __version__
        assert manifest.rows == spec.trials
        assert manifest.elapsed_seconds == 1.5
        assert manifest.created > 0
        assert ShardSpec.from_dict(manifest.shard) == spec

    def test_unknown_store_format_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, rows_for(spec))
        path = store.manifest_path(spec)
        payload = json.loads(path.read_text())
        payload["store_format"] = STORE_FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        assert store.manifest(spec) is None
        assert store.get(spec) is None


class TestCorruption:
    """Anything inconsistent on disk is a miss, never an exception."""

    def test_truncated_rows_file(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, rows_for(spec))
        path = store.rows_path(spec)
        path.write_text("".join(path.read_text().splitlines(True)[:-1]))
        assert store.get(spec) is None

    def test_garbage_rows_file(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, rows_for(spec))
        store.rows_path(spec).write_text("not json\n" * spec.trials)
        assert store.get(spec) is None

    def test_garbage_manifest(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, rows_for(spec))
        store.manifest_path(spec).write_text("{broken")
        assert store.get(spec) is None

    def test_missing_rows_with_manifest(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, rows_for(spec))
        store.rows_path(spec).unlink()
        assert store.get(spec) is None


class TestGetOrRun:
    def test_runs_once_then_serves_from_disk(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        calls = []

        def runner(s):
            calls.append(s)
            return rows_for(s)

        rows, cached = store.get_or_run(spec, runner)
        assert not cached and rows == rows_for(spec)
        rows, cached = store.get_or_run(spec, runner)
        assert cached and rows == rows_for(spec)
        assert len(calls) == 1

    def test_distinct_shards_do_not_collide(self, tmp_path):
        store = ResultStore(tmp_path)
        first = shard(trials=8, lo=0, hi=4)
        second = shard(trials=8, lo=4, hi=8)
        store.put(first, rows_for(first))
        assert store.get(second) is None
        store.put(second, rows_for(second))
        assert store.get(first) == rows_for(first)
        assert store.get(second) == rows_for(second)


def _first_value(name, value):
    """Damage: the first ``name`` field of the file becomes ``value``."""
    return lambda text: re.sub(
        rf'"{name}":[^,}}]+', f'"{name}":{value}', text, count=1
    )


def _swap_first_lines(text):
    first, second, *rest = text.splitlines(True)
    return "".join([second, first, *rest])


#: Rows that parse as JSON but must not be served.
DAMAGED_ROWS = {
    # Well-typed and in trial order: only the manifest's checksum sees it.
    "edited-rounds": lambda text: re.sub(
        r'"rounds":(\d+)', lambda m: f'"rounds":{int(m.group(1)) + 4}',
        text, count=1,
    ),
    "overflowing-rounds": _first_value("rounds", "1e999"),
    "nan-mean": _first_value("mean_beeps_per_node", "NaN"),
    "shifted-trials": lambda text: re.sub(
        r'"trial":(\d+)', lambda m: f'"trial":{int(m.group(1)) + 1}', text
    ),
    "swapped-trials": _swap_first_lines,
}


class TestDamagedRows:
    """Parsable but damaged rows are a miss: re-executed, never served,
    never raised."""

    @pytest.mark.parametrize("damage", list(DAMAGED_ROWS))
    def test_get_misses(self, tmp_path, damage):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, rows_for(spec))
        path = store.rows_path(spec)
        path.write_text(DAMAGED_ROWS[damage](path.read_text()))
        assert store.get(spec) is None

    @pytest.mark.parametrize("field", ("rows", "store_format"))
    def test_overflowing_manifest_is_a_miss(self, tmp_path, field):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, rows_for(spec))
        path = store.manifest_path(spec)
        manifest = json.loads(path.read_text())
        manifest[field] = float("inf")  # serialised as Infinity
        path.write_text(json.dumps(manifest))
        assert store.get(spec) is None

    @pytest.mark.parametrize("damage", list(DAMAGED_ROWS))
    def test_sweep_re_executes_exactly_the_damaged_shard(
        self, tmp_path, damage
    ):
        cell = CellSpec(
            algorithm="feedback", n=20, trials=12, graphs=2, master_seed=5
        )
        spec = SweepSpec((cell,), shard_trials=4)
        cold = run_sweep(spec, store=tmp_path)
        store = ResultStore(tmp_path)
        stored = {
            s: store.rows_path(s).read_bytes() for s in spec.shards()
        }
        target = store.rows_path(spec.shards()[1])
        target.write_text(DAMAGED_ROWS[damage](target.read_text()))
        assert target.read_bytes() != stored[spec.shards()[1]]
        warm = run_sweep(spec, store=tmp_path)
        assert warm.report.shards_executed == 1
        assert warm.report.shards_cached == 2
        assert warm.rows(cell) == cold.rows(cell)
        assert {
            s: store.rows_path(s).read_bytes() for s in spec.shards()
        } == stored


def _churn_rows(spec):
    return [
        TrialOutcome(
            trial=t, rounds=9, mis_size=6, mean_beeps_per_node=2.5,
            messages=30, bits=30, repair_rounds=(2, -1), recovered=False,
        )
        for t in range(spec.lo, spec.hi)
    ]


class TestLineMutationFuzz:
    """Whatever one damaged line holds, ``get`` returns a miss or the
    rows that were put — it never raises."""

    @pytest.mark.parametrize("target", ("rows", "manifest"))
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_get_never_raises(self, tmp_path_factory, target, data):
        store = ResultStore(tmp_path_factory.mktemp("store"))
        spec = shard(trials=8, lo=2, hi=6)
        make_rows = data.draw(st.sampled_from((rows_for, _churn_rows)))
        store.put(spec, make_rows(spec))
        path = store.rows_path(spec)
        if target == "manifest":
            # Pin the timestamp: hypothesis needs the same text each run.
            path = store.manifest_path(spec)
            manifest = json.loads(path.read_text())
            manifest["created"] = 0.0
            path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        path.write_text(
            data.draw(mutated_lines(path.read_text())), encoding="utf-8"
        )
        rows = store.get(spec)
        if rows is not None:
            assert rows == make_rows(spec)
