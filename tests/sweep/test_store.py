"""Tests for the content-addressed result store."""

import json
import os
import stat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import TrialOutcome
from repro.sweep.orchestrator import run_sweep
from repro.sweep.spec import (
    CellSpec,
    ShardSpec,
    SweepSpec,
    canonical_json,
    fingerprint_hash,
)
from repro.sweep.store import (
    STORE_FORMAT_VERSION,
    ResultStore,
    atomic_write_text,
    read_checked,
    write_checked,
)

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


def entry_path(root, spec):
    """Where the store keeps ``spec``'s entry: ``<root>/ab/<hash>.json``."""
    digest = spec.content_hash()
    return root / digest[:2] / f"{digest}.json"


def damage_entry(path, damage, resign):
    """Apply ``damage`` to the entry's row columns.  As written, the old
    checksum no longer matches; re-signed, the entry carries a valid
    checksum over the damaged rows, so only the row checks can see it."""
    entry = json.loads(path.read_text())
    damage(entry["rows"])
    if resign:
        del entry["checksum"]
        write_checked(path, entry)
    else:
        path.write_text(canonical_json(entry))


class TestPutGet:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        rows = rows_for(spec)
        store.put(spec, spec.content_hash(), rows)
        assert store.get(spec, spec.content_hash()) == rows

    def test_miss_on_empty_store(self, tmp_path):
        spec = shard()
        assert ResultStore(tmp_path).get(spec, spec.content_hash()) is None

    def test_one_json_entry_under_hash_path(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, spec.content_hash(), rows_for(spec))
        path = entry_path(tmp_path, spec)
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]
        text = path.read_text()
        entry = json.loads(text)
        assert set(entry) == {
            "format", "content_hash", "shard", "rows", "checksum"
        }
        assert entry["format"] == STORE_FORMAT_VERSION
        assert entry["content_hash"] == spec.content_hash()
        # to_dict keeps the cell's tuples; the entry holds their JSON lists.
        assert entry["shard"] == json.loads(canonical_json(spec.to_dict()))
        assert entry["rows"]["trial"] == [0, 1, 2, 3]
        assert entry["rows"]["rounds"] == [5, 6, 7, 8]
        # Compact canonical JSON: no timestamps, no whitespace, so equal
        # rows give equal bytes.
        assert text == canonical_json(entry)

    def test_entry_bytes_are_deterministic(self, tmp_path):
        spec = shard()
        for root in ("a", "b"):
            ResultStore(tmp_path / root).put(
                spec, spec.content_hash(), rows_for(spec)
            )
        assert (
            entry_path(tmp_path / "a", spec).read_bytes()
            == entry_path(tmp_path / "b", spec).read_bytes()
        )

    def test_put_rejects_wrong_row_count(self, tmp_path):
        spec = shard()
        with pytest.raises(ValueError, match="4 trials"):
            ResultStore(tmp_path).put(
                spec, spec.content_hash(), rows_for(spec)[:-1]
            )

    def test_no_temp_files_left_behind(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, spec.content_hash(), rows_for(spec))
        leftovers = [p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")]
        assert leftovers == []


class TestAtomicWrite:
    """``atomic_write_text`` leaves the final mode to the umask, like a
    plain ``open(path, "w")``, and cleans its temp file up on error."""

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"]
    )
    def test_mode_follows_the_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "new.txt", "fresh")
            (tmp_path / "old.txt").write_text("stale")
            atomic_write_text(tmp_path / "old.txt", "replaced")
            write_checked(tmp_path / "entry.json", {"a": 1})
        finally:
            os.umask(previous)
        for name in ("new.txt", "old.txt", "entry.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode
        assert (tmp_path / "old.txt").read_text() == "replaced"

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write_text(tmp_path / "x.txt", b"not text")
        assert list(tmp_path.iterdir()) == []


class TestChecked:
    """``write_checked``/``read_checked``: the one checksummed document
    path of the store and the paper's artefact cache."""

    def test_round_trip_and_checksum(self, tmp_path):
        path = tmp_path / "x" / "doc.json"
        write_checked(path, {"b": [1, 2], "a": "s"})
        stored = json.loads(path.read_text())
        assert stored.pop("checksum") == fingerprint_hash(stored)
        assert read_checked(path) == {"a": "s", "b": [1, 2]}

    def test_any_layout_of_the_same_payload_reads(self, tmp_path):
        path = tmp_path / "doc.json"
        write_checked(path, {"a": 1})
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2))
        assert read_checked(path) == {"a": 1}

    @pytest.mark.parametrize(
        "text",
        ['{"a":2,"checksum":"0"}', '{"a":1}', "[]", "{broken", "1e999"],
        ids=["wrong-checksum", "no-checksum", "list", "garbage", "number"],
    )
    def test_damage_reads_none(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert read_checked(path) is None

    def test_missing_file_reads_none(self, tmp_path):
        assert read_checked(tmp_path / "absent.json") is None


class TestChurnRows:
    """Repair columns round-trip."""

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
        store.put(spec, spec.content_hash(), rows)
        loaded = store.get(spec, spec.content_hash())
        assert loaded == rows
        assert loaded[0].repair_rounds == (0, 2, -1)
        assert loaded[0].recovered is False

    def test_fault_free_rows_round_trip_with_defaults(self, tmp_path):
        loaded_rows = rows_for(shard())
        assert loaded_rows[0].repair_rounds == ()
        assert loaded_rows[0].recovered is True
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, spec.content_hash(), loaded_rows)
        assert store.get(spec, spec.content_hash()) == loaded_rows
        columns = json.loads(entry_path(tmp_path, spec).read_text())["rows"]
        assert columns["repair_rounds"] == [[]] * spec.trials
        assert columns["recovered"] == [True] * spec.trials


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


class TestEntryHeader:
    """A re-signed entry whose header does not match is a miss."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("format", STORE_FORMAT_VERSION + 1),
            ("format", STORE_FORMAT_VERSION - 1),
            ("format", float("inf")),
            ("content_hash", "0" * 64),
            ("content_hash", None),
        ],
    )
    def test_header_mismatch_is_a_miss(self, tmp_path, field, value):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, spec.content_hash(), rows_for(spec))
        path = entry_path(tmp_path, spec)
        entry = read_checked(path)
        entry[field] = value
        write_checked(path, entry)
        assert store.get(spec, spec.content_hash()) is None

    @pytest.mark.parametrize(
        "validate, hit", [(None, True), (True, True), (False, False)]
    )
    def test_rows_stored_unverified_are_a_miss(self, tmp_path, validate, hit):
        """Earlier versions stored the cell's ``validate`` flag, and a
        cell run without the MIS check is recomputed, not served."""
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, spec.content_hash(), rows_for(spec))
        path = entry_path(tmp_path, spec)
        entry = read_checked(path)
        if validate is not None:
            entry["shard"]["cell"]["validate"] = validate
        write_checked(path, entry)
        assert (store.get(spec, spec.content_hash()) is not None) == hit

    def test_sweep_recomputes_unverified_shards(self, tmp_path):
        cell = CellSpec(algorithm="feedback", n=20, trials=8, master_seed=5)
        spec = SweepSpec((cell,), shard_trials=4)
        cold = run_sweep(spec, store=tmp_path)
        for s in spec.shards():
            entry = read_checked(entry_path(tmp_path, s))
            entry["shard"]["cell"]["validate"] = False
            write_checked(entry_path(tmp_path, s), entry)
        again = run_sweep(spec, store=tmp_path)
        assert again.report.shards_executed == 2
        assert again.rows(cell) == cold.rows(cell)
        assert run_sweep(spec, store=tmp_path).report.shards_executed == 0

    def test_rows_of_another_shard_are_a_miss(self, tmp_path):
        """Another window's rows, re-signed under this shard's header,
        fail the trial-window check."""
        store = ResultStore(tmp_path)
        spec, other = shard(trials=8, lo=0, hi=4), shard(trials=8, lo=4, hi=8)
        store.put(other, other.content_hash(), rows_for(other))
        entry = read_checked(entry_path(tmp_path, other))
        entry["content_hash"] = spec.content_hash()
        write_checked(entry_path(tmp_path, spec), entry)
        assert store.get(spec, spec.content_hash()) is None


class TestCorruption:
    """Anything inconsistent on disk is a miss, never an exception."""

    def test_truncated_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, spec.content_hash(), rows_for(spec))
        path = entry_path(tmp_path, spec)
        path.write_text(path.read_text()[:-10])
        assert store.get(spec, spec.content_hash()) is None

    def test_garbage_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, spec.content_hash(), rows_for(spec))
        entry_path(tmp_path, spec).write_text("{broken")
        assert store.get(spec, spec.content_hash()) is None

    def test_entry_is_a_directory(self, tmp_path):
        spec = shard()
        entry_path(tmp_path, spec).mkdir(parents=True)
        assert ResultStore(tmp_path).get(spec, spec.content_hash()) is None


def _format2_leftovers(root, spec):
    """A format-2 entry: per-row JSONL plus a provenance manifest."""
    digest = spec.content_hash()
    folder = root / digest[:2]
    folder.mkdir(parents=True, exist_ok=True)
    rows = "".join(
        json.dumps(
            {
                "bits": o.bits, "mean_beeps_per_node": o.mean_beeps_per_node,
                "messages": o.messages, "mis_size": o.mis_size,
                "rounds": o.rounds, "trial": o.trial,
            },
            sort_keys=True, separators=(",", ":"),
        ) + "\n"
        for o in rows_for(spec)
    )
    (folder / f"{digest}.jsonl").write_text(rows)
    (folder / f"{digest}.manifest.json").write_text(
        json.dumps(
            {
                "content_hash": digest, "store_format": 2,
                "code_version": "0", "rows": spec.trials,
                "elapsed_seconds": 0.5, "created": 1.0,
                "shard": spec.to_dict(), "rows_sha256": "0" * 64,
            },
            indent=2, sort_keys=True,
        )
    )


class TestFormat2Leftovers:
    """Format-2 files sit at other names: a one-time miss, never an error."""

    def test_get_misses(self, tmp_path):
        spec = shard()
        _format2_leftovers(tmp_path, spec)
        assert ResultStore(tmp_path).get(spec, spec.content_hash()) is None

    def test_sweep_recomputes_and_writes_format3(self, tmp_path):
        cell = CellSpec(
            algorithm="feedback", n=20, trials=8, graphs=2, master_seed=5
        )
        spec = SweepSpec((cell,), shard_trials=4)
        for s in spec.shards():
            _format2_leftovers(tmp_path, s)
        cold = run_sweep(spec, store=tmp_path)
        assert cold.report.shards_executed == 2
        assert cold.rows(cell) == run_sweep(spec).rows(cell)
        for s in spec.shards():
            assert ResultStore(tmp_path).get(s, s.content_hash()) is not None
        warm = run_sweep(spec, store=tmp_path)
        assert warm.report.shards_executed == 0


class TestShardIsolation:
    def test_distinct_shards_do_not_collide(self, tmp_path):
        store = ResultStore(tmp_path)
        first = shard(trials=8, lo=0, hi=4)
        second = shard(trials=8, lo=4, hi=8)
        store.put(first, first.content_hash(), rows_for(first))
        assert store.get(second, second.content_hash()) is None
        store.put(second, second.content_hash(), rows_for(second))
        assert store.get(first, first.content_hash()) == rows_for(first)
        assert store.get(second, second.content_hash()) == rows_for(second)


def _set_first(name, value):
    """Damage: the first value of column ``name`` becomes ``value``."""

    def damage(rows):
        rows[name][0] = value

    return damage


def _swap_first_trials(rows):
    rows["trial"][:2] = rows["trial"][1::-1]


def _shift_trials(rows):
    rows["trial"] = [t + 1 for t in rows["trial"]]


def _drop_last(name):
    return lambda rows: rows[name].pop()


def _delete(name):
    return lambda rows: rows.pop(name)


#: Row damage that stays valid JSON and that the row checks must catch
#: even when the entry is re-signed (its checksum recomputed).
DAMAGED_ROWS = {
    "overflowing-rounds": _set_first("rounds", float("inf")),
    "float-count": _set_first("mis_size", 2.5),
    "bool-count": _set_first("messages", True),
    "string-count": _set_first("bits", "7"),
    "nan-mean": _set_first("mean_beeps_per_node", float("nan")),
    "infinite-mean": _set_first("mean_beeps_per_node", float("-inf")),
    "huge-int-mean": _set_first("mean_beeps_per_node", 10 ** 400),
    "string-mean": _set_first("mean_beeps_per_node", "1.0"),
    "bool-trial": _set_first("trial", False),
    "shifted-trials": _shift_trials,
    "swapped-trials": _swap_first_trials,
    "short-column": _drop_last("rounds"),
    "short-trials": _drop_last("trial"),
    "missing-column": _delete("recovered"),
    "repair-not-a-list": _set_first("repair_rounds", {}),
    "repair-entry-float": _set_first("repair_rounds", [1.5]),
    "recovered-not-bool": _set_first("recovered", 1),
    "column-not-a-list": lambda rows: rows.update(bits={"0": 40}),
}


class TestDamagedRows:
    """Parsable but damaged rows are a miss: re-executed, never served,
    never raised."""

    @pytest.mark.parametrize("resign", (False, True), ids=("as-written", "re-signed"))
    @pytest.mark.parametrize("damage", list(DAMAGED_ROWS))
    def test_get_misses(self, tmp_path, damage, resign):
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, spec.content_hash(), rows_for(spec))
        damage_entry(entry_path(tmp_path, spec), DAMAGED_ROWS[damage], resign)
        assert store.get(spec, spec.content_hash()) is None

    def test_value_edit_is_caught_by_the_checksum(self, tmp_path):
        """Well-typed and in trial order: only the checksum sees it."""
        store = ResultStore(tmp_path)
        spec = shard()
        store.put(spec, spec.content_hash(), rows_for(spec))
        edit = _set_first("rounds", 9)
        damage_entry(entry_path(tmp_path, spec), edit, resign=False)
        assert store.get(spec, spec.content_hash()) is None

    @pytest.mark.parametrize("resign", (False, True), ids=("as-written", "re-signed"))
    @pytest.mark.parametrize("damage", list(DAMAGED_ROWS))
    def test_sweep_re_executes_exactly_the_damaged_shard(
        self, tmp_path, damage, resign
    ):
        cell = CellSpec(
            algorithm="feedback", n=20, trials=12, graphs=2, master_seed=5
        )
        spec = SweepSpec((cell,), shard_trials=4)
        cold = run_sweep(spec, store=tmp_path)
        stored = {
            s: entry_path(tmp_path, s).read_bytes() for s in spec.shards()
        }
        target = entry_path(tmp_path, spec.shards()[1])
        damage_entry(target, DAMAGED_ROWS[damage], resign)
        assert target.read_bytes() != stored[spec.shards()[1]]
        warm = run_sweep(spec, store=tmp_path)
        assert warm.report.shards_executed == 1
        assert warm.report.shards_cached == 2
        assert warm.rows(cell) == cold.rows(cell)
        assert {
            s: entry_path(tmp_path, s).read_bytes() for s in spec.shards()
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
    """Whatever one damaged line of the entry holds, ``get`` never raises.
    As written it returns a miss or the rows that were put; re-signed it
    returns a miss or well-typed rows of the shard's window."""

    @pytest.mark.parametrize("resign", (False, True), ids=("as-written", "re-signed"))
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_get_never_raises(self, tmp_path_factory, resign, data):
        root = tmp_path_factory.mktemp("store")
        store = ResultStore(root)
        spec = shard(trials=8, lo=2, hi=6)
        make_rows = data.draw(st.sampled_from((rows_for, _churn_rows)))
        store.put(spec, spec.content_hash(), make_rows(spec))
        path = entry_path(root, spec)
        # One value per line, so a line mutation hits one value.
        indented = json.dumps(json.loads(path.read_text()), indent=1)
        path.write_text(data.draw(mutated_lines(indented)), encoding="utf-8")
        if resign:
            try:
                entry = json.loads(path.read_text(encoding="utf-8"))
                entry.pop("checksum")
                write_checked(path, entry)
            except (ValueError, KeyError, AttributeError, TypeError):
                pass  # not an object with a checksum: nothing to re-sign
        rows = store.get(spec, spec.content_hash())
        if rows is None:
            return
        if resign:
            assert [row.trial for row in rows] == list(range(2, 6))
            for row in rows:
                counts = (row.rounds, row.mis_size, row.messages, row.bits)
                assert all(type(value) is int for value in counts)
                assert type(row.mean_beeps_per_node) is float
                assert all(type(r) is int for r in row.repair_rounds)
                assert type(row.recovered) is bool
        else:
            assert rows == make_rows(spec)
