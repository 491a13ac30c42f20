"""Tests for the one-command paper pipeline (``repro paper``)."""

import csv
import json
import pkgutil
from dataclasses import replace
from pathlib import Path

import pytest

import repro.experiments
from repro.analysis.regression import fit_log2
from repro.cli import main
from repro.experiments.paper import (
    EXEMPT_MODULES,
    PAPER_FORMAT_VERSION,
    REGISTRY,
    compare_golden,
    experiment_names,
    run_paper,
    select_experiments,
    write_golden,
)
from repro.experiments.records import ExperimentResult, SeriesPoint
from repro.sweep.rundb import RunDB

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

    def test_only_bio_is_non_orchestrated(self):
        outside = [e.name for e in REGISTRY if not e.orchestrated]
        assert outside == ["bio"]
        # Non-orchestrated entries must pin their scale parameters in the
        # fingerprint; otherwise the artefact cache would serve stale
        # bytes across a scale change.
        assert all(e.fingerprint for e in REGISTRY if not e.orchestrated)

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
        latest_grid = db.latest("grid")
        assert latest_grid is not None
        assert latest_grid.shards_executed == 0
        assert latest_grid.cache_hit_rate == 1.0

    def test_index_summarises_experiments(self, pipelines):
        cold, _ = pipelines
        index = RunDB(cold.rundb_root).index()
        assert set(index["experiments"]) == set(FAST_SUBSET)
        assert index["records"] == 2 * len(FAST_SUBSET)


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
