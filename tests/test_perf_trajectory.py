"""The committed perf trajectory, ``PERF_TRAJECTORY.jsonl``, parsed strictly.

One JSON object per line, appended once per measured change, in change
order: the change's number (``pr``), the parent commit its pairs ran
against, the benchmark workload, the seeds and pair count, and for
``wall_s``, ``setup_s`` and ``peak_rss_mb`` the parent's and the change's
median and interquartile range (``null`` where the change's record gave
none).  Values must already have their exact types, as
:meth:`repro.sweep.rundb.RunRecord.from_dict` demands of run-DB lines: an
int where a float belongs, a bool where an int belongs, or a number
written as a string is damage, never coerced.
"""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "PERF_TRAJECTORY.jsonl"
WORKLOADS = frozenset(
    workload["name"]
    for workload in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8")
    )["workloads"]
)
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
STATISTICS = ("parent_median", "parent_iqr", "change_median", "change_iqr")
KEYS = ("pr", "parent_commit", "workload", "seeds", "pairs") + METRICS
COMMIT = re.compile(r"[0-9a-f]{7,40}")


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def _exact(value, kind, what):
    if type(value) is not kind:
        raise ValueError(f"{what}: expected {kind.__name__}, got {value!r}")
    return value


def _count(value, least, what):
    if _exact(value, int, what) < least:
        raise ValueError(f"{what}: must be >= {least}, got {value!r}")
    return value


def parse_entry(line):
    """One trajectory line as a dict, or ``ValueError``."""
    entry = json.loads(line, parse_constant=_reject_constant)
    _exact(entry, dict, "entry")
    if tuple(entry) != KEYS:
        raise ValueError(f"keys must be {KEYS} in order, got {tuple(entry)}")
    _count(entry["pr"], 1, "pr")
    if not COMMIT.fullmatch(_exact(entry["parent_commit"], str, "commit")):
        raise ValueError(f"not a commit id: {entry['parent_commit']!r}")
    if _exact(entry["workload"], str, "workload") not in WORKLOADS:
        raise ValueError(f"unknown workload {entry['workload']!r}")
    seeds = _exact(entry["seeds"], list, "seeds")
    if not seeds:
        raise ValueError("seeds must not be empty")
    for seed in seeds:
        _count(seed, 0, "seed")
    if any(b <= a for a, b in zip(seeds, seeds[1:])):
        raise ValueError(f"seeds must be strictly increasing: {seeds}")
    _count(entry["pairs"], 1, "pairs")
    for metric in METRICS:
        stats = _exact(entry[metric], dict, metric)
        if tuple(stats) != STATISTICS:
            raise ValueError(f"{metric} keys must be {STATISTICS}")
        for name, value in stats.items():
            if value is None:
                continue
            _exact(value, float, f"{metric}.{name}")
            least = 0.0 if name.endswith("iqr") else math.ulp(0.0)
            if not math.isfinite(value) or value < least:
                raise ValueError(f"{metric}.{name} out of range: {value!r}")
        if stats["change_median"] is not None and (
            stats["parent_median"] is None
        ):
            raise ValueError(f"{metric}: a change median needs its parent's")
    return entry


def parse_trajectory(text):
    """Every line of ``text`` parsed, in order; ``ValueError`` on a
    malformed line, an entry older than the one before it, or a repeated
    ``(pr, workload, seeds)``."""
    entries = []
    seen = set()
    for number, line in enumerate(text.splitlines(), start=1):
        try:
            entry = parse_entry(line)
        except ValueError as error:
            raise ValueError(f"line {number}: {error}") from error
        if entries and entry["pr"] < entries[-1]["pr"]:
            raise ValueError(
                f"line {number}: pr {entry['pr']} after {entries[-1]['pr']}"
            )
        key = (entry["pr"], entry["workload"], tuple(entry["seeds"]))
        if key in seen:
            raise ValueError(f"line {number}: repeated entry {key}")
        seen.add(key)
        entries.append(entry)
    return entries


def _good_line(**changes):
    entry = {
        "pr": 31,
        "parent_commit": "65a15ef",
        "workload": "sweep_gnp_cold",
        "seeds": [1900],
        "pairs": 10,
        "wall_s": dict.fromkeys(STATISTICS, 0.25),
        "setup_s": dict.fromkeys(STATISTICS, 0.2),
        "peak_rss_mb": dict.fromkeys(STATISTICS, 72.5),
    }
    entry.update(changes)
    return json.dumps(entry)


class TestCommittedTrajectory:
    def test_parses_strictly_and_in_order(self):
        entries = parse_trajectory(TRAJECTORY.read_text(encoding="utf-8"))
        assert entries
        assert {entry["workload"] for entry in entries} == WORKLOADS

    def test_ends_with_a_newline(self):
        """Append-only: the next entry starts on its own line."""
        assert TRAJECTORY.read_text(encoding="utf-8").endswith("\n")


class TestParserRejects:
    def test_accepts_the_reference_line(self):
        assert parse_entry(_good_line())["pr"] == 31

    @pytest.mark.parametrize(
        "changes",
        (
            {"pr": True},
            {"pr": 0},
            {"pr": "31"},
            {"parent_commit": "65A15EF"},
            {"parent_commit": "abc"},
            {"workload": "sweep_gnp_warm"},
            {"seeds": []},
            {"seeds": [1900, 1900]},
            {"seeds": [1.5]},
            {"seeds": 1900},
            {"pairs": 0},
            {"pairs": 10.0},
            {"wall_s": dict.fromkeys(STATISTICS, 1)},
            {"wall_s": dict.fromkeys(STATISTICS, "0.25")},
            {"wall_s": dict.fromkeys(STATISTICS, -0.25)},
            {"wall_s": dict.fromkeys(STATISTICS[:3], 0.25)},
            {"setup_s": {**dict.fromkeys(STATISTICS, 0.2), "extra": 0.1}},
            {"peak_rss_mb": dict(
                zip(STATISTICS, (None, None, 72.5, None))
            )},
            {"peak_rss_mb": [72.5, 0.1, 72.5, 0.1]},
        ),
    )
    def test_malformed_entry(self, changes):
        with pytest.raises(ValueError):
            parse_trajectory(_good_line(**changes))

    @pytest.mark.parametrize(
        "line",
        (
            _good_line().replace("0.25", "NaN", 1),
            _good_line().replace("0.25", "Infinity", 1),
            _good_line()[:-1],
            "[]",
            json.dumps({key: json.loads(_good_line())[key]
                        for key in reversed(KEYS)}),
        ),
    )
    def test_malformed_line(self, line):
        with pytest.raises(ValueError):
            parse_trajectory(line)

    def test_missing_key(self):
        entry = json.loads(_good_line())
        del entry["pairs"]
        with pytest.raises(ValueError):
            parse_trajectory(json.dumps(entry))

    def test_out_of_order_entry(self):
        with pytest.raises(ValueError, match="after"):
            parse_trajectory(_good_line() + "\n" + _good_line(pr=30))

    def test_repeated_entry(self):
        with pytest.raises(ValueError, match="repeated"):
            parse_trajectory(_good_line() + "\n" + _good_line())

    def test_same_change_on_other_seeds_or_workloads(self):
        entries = parse_trajectory("\n".join((
            _good_line(),
            _good_line(seeds=[2718]),
            _good_line(workload="paper_cold"),
            _good_line(pr=32),
        )))
        assert [entry["pr"] for entry in entries] == [31, 31, 31, 32]
