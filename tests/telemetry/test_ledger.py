"""The per-run JSONL ledger: round-trips, damage tolerance, summaries."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import probes
from repro.telemetry.ledger import (
    LEDGER_FORMAT_VERSION,
    RunLedger,
    read_events,
    record_run,
    summarize_run,
)
from repro.telemetry.stats import format_stats, ledger_paths, stats_payload

from tests.line_mutation import HOSTILE_VALUES, mutated_lines

#: A 100,000-deep JSON array: parsing it overflows the interpreter stack.
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000

#: One damaged-but-parseable (or pathologically nested) line per shape
#: that used to make ``summarize_run`` raise or read a non-finite value.
HOSTILE_LINES = {
    "annotation-attrs-list": (
        '{"attrs":["content_hash","ff"],"event":"annotation",'
        '"name":"sweep.shard.failed"}'
    ),
    "span-attrs-list": (
        '{"attrs":[1],"event":"span","name":"sweep.shard","seconds":1.0}'
    ),
    "end-phases-list": (
        '{"elapsed_seconds":9.0,"event":"end","phases":[1,2],'
        '"status":"error"}'
    ),
    "end-phase-infinite": (
        '{"elapsed_seconds":9.0,"event":"end","phases":{"x":1e999},'
        '"status":"error"}'
    ),
    "run-versions-list": (
        '{"command":"evil","event":"run","versions":[["a",1],[2,3]]}'
    ),
    "deep-array": DEEP_ARRAY,
    "deep-counter-value": (
        '{"event":"counter","name":"good","value":' + DEEP_ARRAY + "}"
    ),
    "counter-1e999": '{"event":"counter","name":"good","value":1e999}',
    "counter-nan": '{"event":"counter","name":"good","value":NaN}',
    "counter-huge-int": (
        '{"event":"counter","name":"good","value":1' + "0" * 400 + "}"
    ),
    "counter-string": '{"event":"counter","name":"good","value":"2"}',
    "gauge-infinity": '{"event":"gauge","name":"g","value":Infinity}',
    "span-seconds-1e999": (
        '{"event":"span","name":"sweep.shard","seconds":1e999}'
    ),
    "span-attr-1e999": (
        '{"attrs":{"algorithm":1e999},"event":"span","name":"sweep.shard",'
        '"seconds":1.0}'
    ),
    "span-attr-nested-nan": (
        '{"attrs":{"n":[1,{"x":NaN}]},"event":"span","name":"sweep.shard",'
        '"seconds":1.0}'
    ),
    "annotation-attr-infinity": (
        '{"attrs":{"error":-Infinity},"event":"annotation",'
        '"name":"sweep.shard.failed"}'
    ),
}


class TestRunLedger:
    def test_header_and_end_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path, "sweep", argv=["--trials", "8"])
        ledger.write({"event": "counter", "name": "x", "value": 1})
        ledger.close(status="ok", phases={"sweep.shard": 1.5})
        events = read_events(ledger.path)
        assert [e["event"] for e in events] == ["run", "counter", "end"]
        header, _, end = events
        assert header["ledger_format"] == LEDGER_FORMAT_VERSION
        assert header["command"] == "sweep"
        assert header["argv"] == ["--trials", "8"]
        assert set(header["versions"]) == {"repro", "python", "numpy"}
        assert end["status"] == "ok"
        assert end["phases"] == {"sweep.shard": 1.5}
        assert end["elapsed_seconds"] >= 0.0

    def test_close_is_idempotent(self, tmp_path):
        ledger = RunLedger(tmp_path, "run")
        ledger.close()
        ledger.close()
        assert sum(
            1 for e in read_events(ledger.path) if e["event"] == "end"
        ) == 1

    def test_run_ids_sort_chronologically(self, tmp_path):
        first = RunLedger(tmp_path, "a")
        first.close()
        second = RunLedger(tmp_path, "b")
        second.close()
        assert ledger_paths(tmp_path) == [first.path, second.path]


class TestRecordRun:
    def test_probes_stream_into_the_ledger(self, tmp_path):
        with record_run(tmp_path, "sweep", ["--seed", "7"]):
            probes.count("sweep.cache.hit", 3)
            probes.span_event("sweep.shard", 0.25, content_hash="ab" * 32)
        (path,) = ledger_paths(tmp_path)
        summary = summarize_run(path)
        assert summary.command == "sweep"
        assert summary.status == "ok"
        assert summary.counters["sweep.cache.hit"] == 3.0
        assert summary.phases == {"sweep.shard": 0.25}
        assert summary.spec_hashes == ["ab" * 32]
        assert not probes.enabled()

    def test_error_status_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError):
            with record_run(tmp_path, "sweep"):
                probes.count("sweep.cache.miss")
                raise RuntimeError("boom")
        (path,) = ledger_paths(tmp_path)
        summary = summarize_run(path)
        assert summary.status == "error"
        assert summary.counters["sweep.cache.miss"] == 1.0
        assert not probes.enabled()


class TestDamageTolerance:
    """Like the result store, readers treat damage as data loss."""

    def test_truncated_tail_line_is_skipped(self, tmp_path):
        ledger = RunLedger(tmp_path, "sweep")
        ledger.write({"event": "counter", "name": "x", "value": 2})
        ledger.close()
        # Simulate a torn write: a half-finished JSON line at the tail.
        with ledger.path.open("a", encoding="utf-8") as handle:
            handle.write('{"event":"counter","na')
        events = read_events(ledger.path)
        assert [e["event"] for e in events] == ["run", "counter", "end"]

    def test_corrupt_middle_line_loses_itself_not_the_run(self, tmp_path):
        ledger = RunLedger(tmp_path, "sweep")
        ledger.close()
        lines = ledger.path.read_text(encoding="utf-8").splitlines()
        lines.insert(1, "not json at all")
        lines.insert(2, json.dumps(["parseable", "but", "not", "an", "event"]))
        ledger.path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        summary = summarize_run(ledger.path)
        assert summary.status == "ok"

    def test_crashed_run_reads_as_incomplete(self, tmp_path):
        ledger = RunLedger(tmp_path, "sweep")
        ledger.write({"event": "counter", "name": "x", "value": 1})
        # No close(): the writer died.  The ledger is still readable.
        summary = summarize_run(ledger.path)
        assert summary.status == "incomplete"
        assert summary.counters == {"x": 1.0}
        ledger.close()

    def test_missing_file_reads_as_empty(self, tmp_path):
        assert read_events(tmp_path / "run-nope.jsonl") == []

    def test_malformed_event_fields_lose_the_line_only(self, tmp_path):
        ledger = RunLedger(tmp_path, "sweep")
        ledger.write({"event": "counter", "name": "good", "value": 1})
        ledger.write({"event": "counter"})  # no name/value
        ledger.write({"event": "gauge", "name": "g", "value": "NaN-ish"})
        ledger.close()
        summary = summarize_run(ledger.path)
        assert summary.counters == {"good": 1.0}
        assert summary.status == "ok"


def _good_ledger(root):
    """A closed ledger holding one event of every kind the summary reads."""
    ledger = RunLedger(root, "sweep", argv=["--trials", "8"])
    ledger.write({"event": "counter", "name": "good", "value": 2})
    ledger.write({"event": "gauge", "name": "g", "value": 0.5})
    ledger.write(
        {"event": "span", "name": "sweep.shard", "seconds": 0.25,
         "attrs": {"content_hash": "ab" * 32, "algorithm": "feedback"}}
    )
    ledger.write(
        {"event": "annotation", "name": "sweep.shard.failed",
         "attrs": {"content_hash": "cd" * 32, "error": "boom"}}
    )
    ledger.close(status="ok", phases={"sweep.shard": 0.25})
    return ledger.path


def _finite_summary(summary):
    """Every number a ``repro stats`` report prints is finite."""
    numbers = [summary.started, summary.elapsed_seconds]
    numbers += list(summary.phases.values())
    numbers += list(summary.counters.values())
    numbers += list(summary.gauges.values())
    for count, total, worst in summary.spans.values():
        numbers += [total, worst]
    return all(math.isfinite(number) for number in numbers)


class TestHostileLines:
    """One damaged line loses itself: the summary equals the clean one."""

    @pytest.mark.parametrize("shape", sorted(HOSTILE_LINES))
    def test_hostile_line_loses_itself_not_the_run(self, tmp_path, shape):
        path = _good_ledger(tmp_path)
        clean = summarize_run(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(HOSTILE_LINES[shape] + "\n")
        damaged = summarize_run(path)
        assert dataclasses.replace(damaged, path=clean.path) == clean
        assert format_stats(tmp_path)
        json.dumps(stats_payload(tmp_path), allow_nan=False)

    def test_a_late_bad_end_keeps_the_good_one(self, tmp_path):
        path = _good_ledger(tmp_path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(HOSTILE_LINES["end-phases-list"] + "\n")
        summary = summarize_run(path)
        assert summary.status == "ok"
        assert summary.phases == {"sweep.shard": 0.25}

    def test_a_counter_sum_past_float_range_loses_the_last_line(
        self, tmp_path
    ):
        ledger = RunLedger(tmp_path, "sweep")
        for _ in range(2):
            ledger.write({"event": "counter", "name": "big", "value": 1.7e308})
        ledger.close()
        assert summarize_run(ledger.path).counters == {"big": 1.7e308}

    def test_deep_nesting_is_an_unparsable_line(self, tmp_path):
        path = _good_ledger(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(1, DEEP_ARRAY)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        events = read_events(path)
        assert [e["event"] for e in events][:2] == ["run", "counter"]


class TestLineMutationFuzz:
    """Whatever one damaged ledger line holds, ``summarize_run`` and the
    ``repro stats`` report never raise and print only finite numbers."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_summary_never_raises(self, tmp_path_factory, data):
        root = tmp_path_factory.mktemp("ledger")
        path = _good_ledger(root)
        # Pin the clock fields: hypothesis needs the same text each run.
        events = [
            {**event, "started": 0.0} if event["event"] == "run" else
            {**event, "elapsed_seconds": 1.0} if event["event"] == "end" else
            event
            for event in read_events(path)
        ]
        text = "".join(
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
            for event in events
        )
        hostile = HOSTILE_VALUES + (DEEP_ARRAY, "[1, 2]", '{"x": 1e999}')
        path.write_text(
            data.draw(mutated_lines(text, hostile)), encoding="utf-8"
        )
        summary = summarize_run(path)
        assert _finite_summary(summary)
        assert format_stats(root)
        # ``repro stats --json`` must print strict JSON.
        json.dumps(stats_payload(root), allow_nan=False)
