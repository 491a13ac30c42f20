"""Tests for the one-command paper pipeline (``repro paper``)."""

import csv
import json
import pkgutil
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments
from repro.analysis.regression import fit_log2
from repro.cli import main
from repro.engine import fleet
from repro.experiments.paper import (
    EXEMPT_MODULES,
    PAPER_FORMAT_VERSION,
    REGISTRY,
    PaperSettings,
    compare_golden,
    experiment_names,
    run_experiment,
    run_paper,
    select_experiments,
    write_golden,
)
from repro.experiments.records import ExperimentResult, SeriesPoint
from repro.sweep import orchestrator
from repro.sweep.rundb import RunDB
from repro.telemetry import probes
from repro.telemetry.ledger import read_events

from tests.line_mutation import mutated_lines

GOLDEN_DIR = Path(__file__).parent / "golden_paper"

# The registry experiments the warm/cold identity tests drive.  A small
# orchestrated subset plus the (artefact-cached) bio ablation keeps the
# suite fast while still covering both caching regimes.
FAST_SUBSET = ("grid", "theorem1", "bio")


@pytest.fixture(scope="module")
def pipelines(tmp_path_factory):
    """One cold and one warm pipeline run sharing a cache, module-wide."""
    root = tmp_path_factory.mktemp("paper")
    cache = root / "cache"
    kwargs = dict(
        trials=2,
        cache_dir=cache,
        only=FAST_SUBSET,
        golden_dir=None,
        bench_dir=None,
        rundb_dir=root / "rundb",
    )
    cold = run_paper(out_dir=root / "cold", **kwargs)
    warm = run_paper(out_dir=root / "warm", **kwargs)
    return cold, warm


class TestRegistry:
    def test_every_experiment_module_is_registered_or_exempt(self):
        registered = {entry.module for entry in REGISTRY}
        modules = {
            module.name
            for module in pkgutil.iter_modules(repro.experiments.__path__)
        }
        unaccounted = modules - registered - set(EXEMPT_MODULES)
        assert not unaccounted, (
            f"experiments modules {sorted(unaccounted)} are neither in the "
            "paper registry nor exempted in EXEMPT_MODULES — register the "
            "new experiment or exempt it with a reason"
        )
        # Exemptions and registrations must reference real modules, so
        # neither list rots as modules are renamed or deleted.
        assert set(EXEMPT_MODULES) <= modules
        assert registered <= modules

    def test_names_are_unique_and_ordered(self):
        names = experiment_names()
        assert len(names) == len(set(names))
        assert names[0] == "figure3"
        assert "bio" in names

    def test_select_subset_preserves_registry_order(self):
        picked = select_experiments(["bio", "figure3"])
        assert [entry.name for entry in picked] == ["figure3", "bio"]

    def test_select_unknown_name_raises(self):
        with pytest.raises(ValueError, match="nosuch"):
            select_experiments(["nosuch"])

    def test_only_bio_has_a_fingerprint(self):
        # A fingerprint selects whole-artefact caching, so it must pin the
        # scale parameters of the one entry that runs no sweep; otherwise
        # the artefact cache would serve stale bytes across a scale
        # change.  Every other entry is keyed by its sweep's report.
        assert [e.name for e in REGISTRY if e.fingerprint] == ["bio"]

    def test_sweep_backed_results_carry_their_report(self, pipelines):
        cold, _ = pipelines
        for artefact in cold.artefacts:
            report = artefact.result.report
            if artefact.name == "bio":
                assert report is None
            else:
                assert report.shards_executed == artefact.shards_executed

    def test_artefacts_run_under_their_entry_seed(self, pipelines):
        """The seed the provenance prints is the seed the CSV used."""
        cold, _ = pipelines
        seeds = {entry.name: entry.seed for entry in REGISTRY}
        for artefact in cold.artefacts:
            assert artefact.result.master_seed == seeds[artefact.name]


class TestWarmRerunIdentity:
    def test_csvs_are_byte_identical(self, pipelines):
        cold, warm = pipelines
        for a, b in zip(cold.artefacts, warm.artefacts):
            assert a.name == b.name
            assert a.csv == b.csv

    def test_html_report_is_byte_identical(self, pipelines):
        cold, warm = pipelines
        assert (
            cold.report_path.read_bytes() == warm.report_path.read_bytes()
        )

    def test_warm_run_executes_no_shards(self, pipelines):
        cold, warm = pipelines
        assert sum(a.shards_executed for a in cold.artefacts) > 0
        assert sum(a.shards_executed for a in warm.artefacts) == 0
        assert all(
            a.shards_cached == a.shards_total
            for a in warm.artefacts
            if a.shards_total
        )

    def test_warm_bio_serves_from_artefact_cache(self, pipelines):
        cold, warm = pipelines
        assert not next(
            a for a in cold.artefacts if a.name == "bio"
        ).artefact_cached
        assert next(
            a for a in warm.artefacts if a.name == "bio"
        ).artefact_cached

    def test_spec_hashes_are_stable_and_distinct(self, pipelines):
        cold, warm = pipelines
        cold_hashes = {a.name: a.spec_hash for a in cold.artefacts}
        warm_hashes = {a.name: a.spec_hash for a in warm.artefacts}
        assert cold_hashes == warm_hashes
        assert len(set(cold_hashes.values())) == len(cold_hashes)

    def test_csv_files_written_to_out_dir(self, pipelines):
        cold, _ = pipelines
        for artefact in cold.artefacts:
            path = cold.csv_dir / f"{artefact.name}.csv"
            assert path.read_text(encoding="utf-8") == artefact.csv

    def test_now_stamp_is_opt_in(self, pipelines, tmp_path):
        cold, _ = pipelines
        assert "generated:" not in cold.report_path.read_text(
            encoding="utf-8"
        )
        stamped = run_paper(
            trials=2,
            only=("bio",),
            cache_dir=tmp_path / "c",
            out_dir=tmp_path / "o",
            golden_dir=None,
            bench_dir=None,
            now="2026-01-01T00:00:00",
        )
        assert "generated: 2026-01-01T00:00:00" in stamped.report_path.read_text(
            encoding="utf-8"
        )


class TestRunDBRecording:
    def test_one_record_per_experiment_per_run(self, pipelines):
        cold, warm = pipelines
        db = RunDB(cold.rundb_root)
        records = db.records()
        assert len(records) == 2 * len(FAST_SUBSET)
        run_ids = {r.run_id for r in records}
        assert len(run_ids) == 2

    def test_warm_records_show_full_cache_hits(self, pipelines):
        cold, warm = pipelines
        db = RunDB(warm.rundb_root)
        latest_grid = [r for r in db.records() if r.experiment == "grid"][-1]
        assert latest_grid.shards_executed == 0
        assert latest_grid.cache_hit_rate == 1.0

    def test_index_summarises_experiments(self, pipelines):
        cold, _ = pipelines
        index = RunDB(cold.rundb_root).index()
        assert set(index["experiments"]) == set(FAST_SUBSET)
        assert index["records"] == 2 * len(FAST_SUBSET)


#: Full spec hashes at trials=3.  The key is the sorted set of distinct
#: shard content hashes, so neither a collector nor the job count moves it.
PINNED_SPEC_HASHES = {
    "theorem1": (
        "c9255edc433c29a21c9717779d848eaffaf4502463cce23dd2af7a1b2ac4d5b1"
    ),
    "compare": (
        "a5773e63a6e69523091ecfd825bce9848458d6707e72fe182ecfd409e9e48a13"
    ),
}


class TestEveryTrialIsVerified:
    @pytest.mark.parametrize(
        "name", ["figure3", "figure5", "grid", "theorem1"]
    )
    def test_beeping_drivers_check_their_sets(
        self, name, monkeypatch, tmp_path
    ):
        """``repro paper`` checks that the figure and Theorem 1 runs
        select MISes, as it does for robustness and compare."""
        calls = []
        check = fleet.verify_mis_rows

        def counting(*args, **kwargs):
            calls.append(name)
            return check(*args, **kwargs)

        monkeypatch.setattr(fleet, "verify_mis_rows", counting)
        run_paper(
            trials=2,
            only=[name],
            out_dir=tmp_path / "out",
            golden_dir=None,
            bench_dir=None,
        )
        assert calls


class TestProvenanceFromTheReport:
    def test_drivers_run_with_probes_off(self, monkeypatch, tmp_path):
        """With no collector installed, the pipeline installs none."""
        seen = []
        execute = orchestrator.execute_shard

        def recording(shard):
            seen.append(probes.enabled())
            return execute(shard)

        monkeypatch.setattr(orchestrator, "execute_shard", recording)
        assert probes.collector() is None
        run_paper(
            trials=2,
            only=("grid", "theorem1"),
            out_dir=tmp_path / "out",
            golden_dir=None,
            bench_dir=None,
        )
        assert seen and not any(seen)

    @pytest.mark.parametrize(
        "collector, jobs",
        [(False, 1), (True, 1), (False, 2)],
        ids=["plain", "collector", "two-jobs"],
    )
    @pytest.mark.parametrize("name", sorted(PINNED_SPEC_HASHES))
    def test_spec_hash_is_pinned(self, name, collector, jobs):
        (entry,) = select_experiments([name])
        settings = PaperSettings(trials=3, jobs=jobs)
        if collector:
            with probes.capture():
                artefact = run_experiment(entry, settings)
        else:
            artefact = run_experiment(entry, settings)
        assert artefact.spec_hash == PINNED_SPEC_HASHES[name]
        assert artefact.shards_total == artefact.shards_executed > 0
        assert artefact.shards_cached == 0

    def test_ledger_holds_one_shard_span_per_distinct_shard(
        self, tmp_path, capsys
    ):
        ledger = tmp_path / "ledger"
        rundb = tmp_path / "db"
        assert main(
            [
                "paper", "--trials", "2", "--only", "grid", "theorem1",
                "--out", str(tmp_path / "out"),
                "--cache-dir", str(tmp_path / "cache"),
                "--rundb", str(rundb),
                "--golden", str(tmp_path / "no-goldens"),
                "--bench-dir", str(tmp_path),
                "--telemetry", str(ledger), "--quiet",
            ]
        ) == 0
        capsys.readouterr()
        (path,) = ledger.glob("run-*.jsonl")
        hashes = [
            event["attrs"]["content_hash"]
            for event in read_events(path)
            if event.get("event") == "span"
            and event.get("name") == "sweep.shard"
        ]
        records = RunDB(rundb).records()
        assert len(hashes) == len(set(hashes))
        assert len(hashes) == sum(r.shards_total for r in records) > 0


class TestDrift:
    def test_committed_goldens_cover_every_experiment(self):
        manifest = json.loads(
            (GOLDEN_DIR / "MANIFEST.json").read_text(encoding="utf-8")
        )
        assert manifest["format"] == PAPER_FORMAT_VERSION
        assert set(manifest["experiments"]) == set(experiment_names())
        for filename in manifest["experiments"].values():
            assert (GOLDEN_DIR / filename).is_file()

    def test_round_trip_against_written_goldens(self, pipelines, tmp_path):
        cold, _ = pipelines
        golden = tmp_path / "golden"
        write_golden(cold, golden)
        verdicts = compare_golden(cold.artefacts, golden, trials=cold.trials)
        assert [v.status for v in verdicts] == ["PASS"] * len(cold.artefacts)

    def test_drift_reports_first_differing_line(self, pipelines, tmp_path):
        cold, _ = pipelines
        golden = tmp_path / "golden"
        write_golden(cold, golden)
        target = golden / "grid.csv"
        lines = target.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace("feedback", "fEEdback")
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        verdicts = {
            v.artefact: v
            for v in compare_golden(cold.artefacts, golden, cold.trials)
        }
        assert verdicts["grid"].status == "DRIFT"
        assert "line 2" in verdicts["grid"].detail
        assert verdicts["bio"].status == "PASS"

    def test_trials_mismatch_skips(self, pipelines, tmp_path):
        cold, _ = pipelines
        golden = tmp_path / "golden"
        write_golden(cold, golden)
        verdicts = compare_golden(
            cold.artefacts, golden, trials=cold.trials + 1
        )
        assert {v.status for v in verdicts} == {"SKIP"}

    def test_absent_golden_file_is_missing(self, pipelines, tmp_path):
        cold, _ = pipelines
        golden = tmp_path / "golden"
        write_golden(cold, golden)
        (golden / "theorem1.csv").unlink()
        verdicts = {
            v.artefact: v.status
            for v in compare_golden(cold.artefacts, golden, cold.trials)
        }
        assert verdicts["theorem1"] == "MISSING"

    def test_no_golden_dir_is_missing(self, pipelines):
        cold, _ = pipelines
        verdicts = compare_golden(cold.artefacts, None, cold.trials)
        assert {v.status for v in verdicts} == {"MISSING"}
        assert not cold.check_passed

    def test_check_passed_requires_all_pass(self, pipelines, tmp_path):
        cold, _ = pipelines
        golden = tmp_path / "golden"
        write_golden(cold, golden)
        passing = run_paper(
            trials=cold.trials,
            cache_dir=tmp_path / "c2",
            only=FAST_SUBSET,
            out_dir=tmp_path / "o2",
            golden_dir=golden,
            bench_dir=None,
        )
        assert passing.check_passed
        assert [v.status for v in passing.drift] == ["PASS"] * len(
            FAST_SUBSET
        )


class TestDamagedGoldenManifest:
    @pytest.mark.parametrize(
        "damage",
        [
            {"trials": float("inf")},
            {"trials": True},
            {"experiments": {"grid": "grid.csv", "bio": 5}},
            # Plain file names only: no entry may read outside the dir.
            {"experiments": {"grid": "/grid.csv", "bio": "bio.csv"}},
            {"experiments": {"grid": "../grid.csv", "bio": "bio.csv"}},
            {"experiments": {"grid": "sub/grid.csv", "bio": "bio.csv"}},
        ],
        ids=[
            "infinite-trials", "bool-trials", "non-string-filename",
            "absolute-filename", "parent-filename", "nested-filename",
        ],
    )
    def test_malformed_manifest_is_missing(self, pipelines, tmp_path, damage):
        cold, _ = pipelines
        golden = tmp_path / "golden"
        write_golden(cold, golden)
        path = golden / "MANIFEST.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest.update(damage)
        path.write_text(json.dumps(manifest), encoding="utf-8")
        # A bool trials count would pass for trials=1.
        trials = 1 if manifest["trials"] is True else cold.trials
        verdicts = compare_golden(cold.artefacts, golden, trials)
        assert {v.status for v in verdicts} == {"MISSING"}
        assert all("unreadable golden manifest" in v.detail for v in verdicts)

    def test_undecodable_golden_file_is_missing(self, pipelines, tmp_path):
        cold, _ = pipelines
        golden = tmp_path / "golden"
        write_golden(cold, golden)
        (golden / "grid.csv").write_bytes(b"series,x\n\xff\xfe\n")
        verdicts = {
            v.artefact: v.status
            for v in compare_golden(cold.artefacts, golden, cold.trials)
        }
        assert verdicts["grid"] == "MISSING"
        assert verdicts["bio"] == "PASS"


BIO = next(entry for entry in REGISTRY if entry.name == "bio")


@pytest.fixture(scope="module")
def bio_cache(tmp_path_factory):
    """A bio artefact cached once: (settings, clean artefact, cache file,
    its clean text)."""
    cache = tmp_path_factory.mktemp("bio-cache")
    settings = PaperSettings(trials=2, cache_dir=cache)
    clean = run_experiment(BIO, settings)
    (path,) = (cache / "paper").rglob("*.json")
    return settings, clean, path, path.read_text(encoding="utf-8")


class TestDamagedArtefactCache:
    @pytest.mark.parametrize(
        "text",
        ["[]", '"s"', "1e999", "[" * 100_000 + "]" * 100_000],
        ids=["list", "string", "overflowing-number", "deep-nesting"],
    )
    def test_valid_non_object_json_reruns(self, bio_cache, text):
        paper_settings, clean, path, original = bio_cache
        path.write_text(text, encoding="utf-8")
        rerun = run_experiment(BIO, paper_settings)
        assert not rerun.artefact_cached
        assert rerun.csv == clean.csv
        assert path.read_text(encoding="utf-8") == original

    def test_indented_cache_file_is_served(self, bio_cache):
        """Cache files written as indented JSON carry the same checksum
        (it covers the parsed payload, not the layout): a warm hit."""
        paper_settings, clean, path, original = bio_cache
        path.write_text(
            json.dumps(json.loads(original), indent=2, sort_keys=True),
            encoding="utf-8",
        )
        rerun = run_experiment(BIO, paper_settings)
        assert rerun.artefact_cached
        assert rerun.csv == clean.csv
        assert rerun.result == clean.result

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_damaged_line_reruns_or_serves_clean_bytes(
        self, bio_cache, data
    ):
        paper_settings, clean, path, original = bio_cache
        # The runner's output is known, so a stand-in keeps reruns cheap.
        entry = replace(BIO, runner=lambda *_: (clean.result, clean.csv))
        # One value per line, so a line mutation hits one value.
        indented = json.dumps(json.loads(original), indent=1)
        path.write_text(data.draw(mutated_lines(indented)), encoding="utf-8")
        rerun = run_experiment(entry, paper_settings)
        assert rerun.csv == clean.csv
        assert rerun.result == clean.result
        stored = path.read_text(encoding="utf-8")
        if rerun.artefact_cached:
            # Served only where damage left the content whole (a
            # duplicated line repeats a key with its own value).
            assert json.loads(stored) == json.loads(original)
        else:
            assert stored == original


class TestCLI:
    def test_check_exit_codes(self, tmp_path, capsys):
        out = tmp_path / "out"
        cache = tmp_path / "cache"
        golden = tmp_path / "golden"
        base = [
            "paper", "--trials", "2", "--only", "grid", "bio",
            "--out", str(out), "--cache-dir", str(cache),
            "--rundb", str(tmp_path / "db"), "--bench-dir", str(tmp_path),
            "--quiet",
        ]
        # No goldens yet: --check must fail (MISSING is not verified).
        assert main(base + ["--golden", str(golden), "--check"]) == 1
        # Pin goldens, then the same invocation passes.
        assert main(base + ["--write-golden", str(golden)]) == 0
        assert main(base + ["--golden", str(golden), "--check"]) == 0
        # Perturb one golden: --check fails again.
        target = golden / "bio.csv"
        target.write_text(
            target.read_text(encoding="utf-8") + "tampered,0,0,0,0\n",
            encoding="utf-8",
        )
        assert main(base + ["--golden", str(golden), "--check"]) == 1
        capsys.readouterr()

    def test_list_prints_registry(self, capsys):
        assert main(["paper", "--list"]) == 0
        printed = capsys.readouterr().out.split()
        assert printed == experiment_names()

    def test_unknown_only_exits_with_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="nosuch"):
            main(["paper", "--only", "nosuch", "--out", str(tmp_path / "o")])
        capsys.readouterr()

    def test_committed_goldens_verify_via_cli(self, tmp_path, capsys):
        """The committed goldens PASS `repro paper --check` at trials=3.

        This is the same leg CI runs; a change to any experiment's bytes
        must come with regenerated goldens.
        """
        rc = main(
            [
                "paper", "--check", "--quiet",
                "--out", str(tmp_path / "out"),
                "--cache-dir", str(tmp_path / "cache"),
                "--rundb", str(tmp_path / "db"),
                "--golden", str(GOLDEN_DIR),
                "--bench-dir", str(tmp_path),
            ]
        )
        assert rc == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# The paper's headline claims, asserted on the committed goldens.
# ---------------------------------------------------------------------------


def golden_result(name):
    """A committed golden CSV read back as an :class:`ExperimentResult`."""
    seeds = {entry.name: entry.seed for entry in REGISTRY}
    path = GOLDEN_DIR / f"{name}.csv"
    with path.open(encoding="utf-8", newline="") as handle:
        points = [
            SeriesPoint(
                row["series"],
                float(row["x"]),
                float(row["mean"]),
                float(row["std"]),
                int(row["trials"]),
            )
            for row in csv.DictReader(handle)
        ]
    return ExperimentResult(name, points, master_seed=seeds[name])


def figure3_holds(result):
    """Feedback beats the sweep everywhere and grows like O(log n)."""
    feedback = result.means("feedback")
    sweep = result.means("afek-sweep")
    slope = fit_log2(result.xs("feedback"), feedback).slope
    return (
        all(f < s for f, s in zip(feedback, sweep)) and 1.0 < slope < 5.0
    )


def figure5_holds(result):
    """Feedback beeps per node stay flat; the sweep's grow with n."""
    sweep = result.means("afek-sweep")
    return max(result.means("feedback")) < 2.5 and sweep[-1] > sweep[0]


def grid_holds(result):
    """Feedback beeps about once per node on grids (paper: ~1.1)."""
    return all(0.6 < mean < 2.0 for mean in result.means("feedback"))


def theorem1_holds(result):
    """Feedback separates from the sweep on the clique family."""
    feedback = result.means("feedback")
    sweep = result.means("afek-sweep")
    return all(f < s for f, s in zip(feedback, sweep))


CLAIMS = {
    "figure3": figure3_holds,
    "figure5": figure5_holds,
    "grid": grid_holds,
    "theorem1": theorem1_holds,
}


def with_mean(result, series, x, mean):
    """A copy of ``result`` with one point's mean replaced."""
    points = [
        replace(p, mean=mean) if (p.series, p.x) == (series, x) else p
        for p in result.points
    ]
    assert points != result.points, f"no {series} point at x={x}"
    return replace(result, points=points)


def feedback_flat(result):
    """Every feedback mean set to one value: a zero log-slope."""
    points = [
        replace(p, mean=10.0) if p.series == "feedback" else p
        for p in result.points
    ]
    return replace(result, points=points)


# (claim, perturbation) pairs: each breaks one conjunct of its claim.
MUTATIONS = {
    # Only the sweep moves, so the feedback log-slope is untouched.
    "figure3-sweep-below-feedback": (
        "figure3", lambda r: with_mean(r, "afek-sweep", 100.0, 16.0)
    ),
    "figure3-flat-feedback": ("figure3", feedback_flat),
    "figure5-feedback-beeps-grow": (
        "figure5", lambda r: with_mean(r, "feedback", 100.0, 2.6)
    ),
    "figure5-sweep-beeps-flat": (
        "figure5", lambda r: with_mean(r, "afek-sweep", 100.0, 3.0)
    ),
    "grid-feedback-beeps-high": (
        "grid", lambda r: with_mean(r, "feedback", 64.0, 2.1)
    ),
    "theorem1-feedback-above-sweep": (
        "theorem1", lambda r: with_mean(r, "feedback", 196.0, 21.0)
    ),
}


class TestGoldenClaims:
    """The committed trials=3 goldens carry the paper's claims."""

    @pytest.mark.parametrize("name", sorted(CLAIMS))
    def test_claim_holds_on_golden(self, name):
        assert CLAIMS[name](golden_result(name)), name

    @pytest.mark.parametrize("case", sorted(MUTATIONS))
    def test_claim_fails_on_mutation(self, case):
        name, mutate = MUTATIONS[case]
        assert not CLAIMS[name](mutate(golden_result(name))), case

    def test_every_claim_has_a_mutation(self):
        assert {name for name, _ in MUTATIONS.values()} == set(CLAIMS)
