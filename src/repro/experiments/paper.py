"""The one-command paper pipeline: ``repro paper``.

A declarative registry (:data:`REGISTRY`) names every experiment the
paper reproduction rests on — Figures 3/5, the grid-beeps claim, the
Theorem 1 lower bound, the MIS-size study, the robustness grid, the
cross-algorithm comparison and the bio inhibition ablation — with fixed
seeds and reduced-but-representative scales.  :func:`run_paper` drives
each one through the cached sweep orchestrator, emits one CSV per
experiment, renders a single self-contained HTML report
(:mod:`~repro.experiments.html_report`), diffs every CSV against the
committed goldens under ``tests/experiments/golden_paper/``, and appends
one :class:`~repro.sweep.rundb.RunRecord` per experiment to the
persistent run database (:mod:`~repro.sweep.rundb`).

Determinism contract
--------------------
Regenerating with the same trials against the same code produces
byte-identical CSVs and HTML: the report carries no timings, cache
counters, paths or timestamps (a run stamp only appears when ``now=`` is
passed explicitly).  Volatile facts — elapsed seconds, shard cache
hit-rates, drift verdicts at run time — go to the run database instead,
where ``repro stats --rundb`` queries them.

Execution-fingerprint keys
--------------------------
Each orchestrated experiment's ``spec_hash`` is computed from the shard
content hashes its sweep actually looked up, observed out of band via a
telemetry sink (the orchestrator emits one ``sweep.shard`` span per
distinct shard, cached or not).  The bio ablation runs no sweep; its key
hashes the registry parameters instead, and — uniquely — its artefact is
cached whole under ``<cache_dir>/paper/`` so warm pipeline reruns stay
ODE-free.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.experiments.bio_ablation import inhibition_strength_ablation
from repro.experiments.compare import comparison_csv, comparison_experiment
from repro.experiments.figures import (
    figure3_series,
    figure5_series,
    grid_beeps_series,
)
from repro.experiments.html_report import ReportFigure, render_paper_report
from repro.experiments.lower_bound import theorem1_experiment
from repro.experiments.records import (
    ExperimentResult,
    results_from_json,
    results_to_csv,
    results_to_json,
)
from repro.experiments.robustness import robustness_grid
from repro.experiments.sizes import mis_size_experiment
from repro.sweep.rundb import RunDB, RunRecord
from repro.sweep.spec import SPEC_FORMAT_VERSION, fingerprint_hash
from repro.sweep.store import (
    DAMAGE_ERRORS,
    STORE_FORMAT_VERSION,
    atomic_write_text,
    read_checked,
    write_checked,
)
from repro.telemetry import probes
from repro.telemetry.ledger import run_versions
from repro.telemetry.stats import bench_drift

PathLike = Union[str, Path]

#: Bump when the pipeline's artefact layout or registry scales change in
#: a way that invalidates cached whole artefacts (the bio cache) or
#: committed goldens.
PAPER_FORMAT_VERSION = 1

#: Default location of the committed golden CSVs, relative to the
#: repository root (where the tier-1 suite and CI run from).
DEFAULT_GOLDEN_DIR = Path("tests") / "experiments" / "golden_paper"

#: Sentinel: discover :data:`DEFAULT_GOLDEN_DIR` if it exists.
GOLDEN_AUTO = "auto"

#: ``experiments/`` modules that legitimately have no registry entry.
#: The registry-completeness test fails when a module is neither
#: registered nor listed here with a reason — adding an experiment means
#: either registering it or consciously exempting it.
EXEMPT_MODULES: Dict[str, str] = {
    "ablations": (
        "engine-parameter ablations driven by the ablation benchmarks "
        "and tests; the registry's robustness entry covers the paper's "
        "fault-grid claim"
    ),
    "html_report": "renderer consumed by the pipeline, not an experiment",
    "paper": "the pipeline itself",
    "records": "serialisation schema",
    "runner": "trial execution engine",
    "tables": "ASCII rendering helper",
}


@dataclass(frozen=True)
class PaperSettings:
    """The execution knobs one pipeline run applies to every experiment."""

    trials: int = 3
    jobs: int = 1
    cache_dir: Optional[PathLike] = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


#: A runner's output: the result the report plots and the CSV it emits.
RunnerResult = Tuple[ExperimentResult, str]

#: A registry runner takes the pipeline settings and the entry's seed.
Runner = Callable[[PaperSettings, int], RunnerResult]


@dataclass(frozen=True)
class PaperExperiment:
    """One registry entry: an experiment the pipeline regenerates.

    ``module`` names the ``repro.experiments`` submodule the entry
    drives (the completeness test introspects it); ``orchestrated``
    records whether execution flows through the sweep orchestrator
    (``False`` only for the bio ODE ablation, which gets whole-artefact
    caching instead); ``fingerprint`` carries the scale parameters that
    determine the artefact bytes for non-orchestrated entries.
    """

    name: str
    module: str
    title: str
    description: str
    seed: int
    runner: Runner
    y_label: str = "rounds"
    x_label: str = "n"
    orchestrated: bool = True
    extra_columns: Tuple[str, ...] = ()
    fingerprint: Dict[str, Any] = field(default_factory=dict)


@dataclass
class ExperimentArtefact:
    """One regenerated experiment: its bytes plus run provenance."""

    name: str
    title: str
    description: str
    csv: str
    result: ExperimentResult
    spec_hash: str
    trials: int
    seed: int
    y_label: str
    x_label: str
    extra_columns: Tuple[str, ...] = ()
    shards_total: int = 0
    shards_executed: int = 0
    shards_cached: int = 0
    elapsed_seconds: float = 0.0
    artefact_cached: bool = False

    @property
    def csv_sha256(self) -> str:
        """sha256 of the emitted CSV bytes."""
        return hashlib.sha256(self.csv.encode("utf-8")).hexdigest()

    @property
    def csv_filename(self) -> str:
        """The artefact's filename under ``<out>/csv/``."""
        return f"{self.name}.csv"


@dataclass(frozen=True)
class DriftVerdict:
    """One artefact's comparison against its committed golden."""

    artefact: str
    status: str  # PASS | DRIFT | MISSING | SKIP
    detail: str


@dataclass
class PaperPipeline:
    """Everything one :func:`run_paper` invocation produced."""

    artefacts: List[ExperimentArtefact]
    drift: List[DriftVerdict]
    out_dir: Path
    report_path: Path
    csv_dir: Path
    rundb_root: Path
    trials: int

    @property
    def check_passed(self) -> bool:
        """``repro paper --check``: every artefact verified byte-equal.

        ``SKIP`` (trials mismatch) and ``MISSING`` (no golden) fail the
        check — an unverifiable artefact is not a verified one.
        """
        return bool(self.drift) and all(
            verdict.status == "PASS" for verdict in self.drift
        )


# ---------------------------------------------------------------------------
# Registry runners: fixed seeds, reduced-but-representative scales.
# ---------------------------------------------------------------------------


def _run_figure3(s: PaperSettings, seed: int) -> RunnerResult:
    result = figure3_series(
        sizes=(50, 100, 200),
        trials=s.trials,
        master_seed=seed,
        graphs_per_size=2,
        jobs=s.jobs,
        cache_dir=s.cache_dir,
    )
    return result, results_to_csv(result)


def _run_figure5(s: PaperSettings, seed: int) -> RunnerResult:
    result = figure5_series(
        sizes=(10, 50, 100),
        trials=s.trials,
        master_seed=seed,
        graphs_per_size=2,
        jobs=s.jobs,
        cache_dir=s.cache_dir,
    )
    return result, results_to_csv(result)


def _run_grid(s: PaperSettings, seed: int) -> RunnerResult:
    result = grid_beeps_series(
        side_lengths=(5, 8),
        trials=s.trials,
        master_seed=seed,
        jobs=s.jobs,
        cache_dir=s.cache_dir,
    )
    return result, results_to_csv(result)


def _run_theorem1(s: PaperSettings, seed: int) -> RunnerResult:
    result = theorem1_experiment(
        sides=(3, 5, 7),
        trials=s.trials,
        master_seed=seed,
        jobs=s.jobs,
        cache_dir=s.cache_dir,
    )
    return result, results_to_csv(result)


def _run_sizes(s: PaperSettings, seed: int) -> RunnerResult:
    result = mis_size_experiment(
        n=30,
        edge_probability=0.3,
        trials=s.trials,
        master_seed=seed,
        jobs=s.jobs,
        cache_dir=s.cache_dir,
    )
    return result, results_to_csv(result, extra_columns=("optimum_ratio",))


def _run_robustness(s: PaperSettings, seed: int) -> RunnerResult:
    result, _report = robustness_grid(
        n=40,
        loss_probabilities=(0.0, 0.1),
        spurious_probabilities=(0.0, 0.1),
        trials=s.trials,
        master_seed=seed,
        jobs=s.jobs,
        cache_dir=s.cache_dir,
    )
    return result, results_to_csv(result)


def _run_compare(s: PaperSettings, seed: int) -> RunnerResult:
    comparison = comparison_experiment(
        sizes=(30, 60),
        trials=s.trials,
        master_seed=seed,
        jobs=s.jobs,
        cache_dir=s.cache_dir,
    )
    # The plot shows the rounds axis; the CSV carries both quantities.
    return comparison.rounds, comparison_csv(comparison)


_BIO_SCALE: Dict[str, Any] = {
    "strengths": (1.0, 100.0),
    "rows": 5,
    "cols": 5,
    "t_end": 60.0,
}


def _run_bio(s: PaperSettings, seed: int) -> RunnerResult:
    result = inhibition_strength_ablation(
        strengths=_BIO_SCALE["strengths"],
        rows=_BIO_SCALE["rows"],
        cols=_BIO_SCALE["cols"],
        t_end=_BIO_SCALE["t_end"],
        trials=s.trials,
        master_seed=seed,
    )
    return result, results_to_csv(
        result, extra_columns=("mean_sops", "mis_fraction")
    )


REGISTRY: Tuple[PaperExperiment, ...] = (
    PaperExperiment(
        name="figure3",
        module="figures",
        title="Figure 3 — rounds vs n on G(n, 1/2)",
        description=(
            "Mean rounds to an MIS for the feedback and global-sweep "
            "algorithms, with the paper's log2^2 n and 2.5 log2 n "
            "reference curves."
        ),
        seed=1303,
        runner=_run_figure3,
    ),
    PaperExperiment(
        name="figure5",
        module="figures",
        title="Figure 5 — beeps per node vs n",
        description=(
            "Mean beeps per node: the feedback algorithm stays flat while "
            "the sweep's communication grows with n."
        ),
        seed=1305,
        runner=_run_figure5,
        y_label="beeps/node",
    ),
    PaperExperiment(
        name="grid",
        module="figures",
        title="Section 5 — beeps per node on grids",
        description=(
            "The text's claim that the feedback algorithm beeps about 1.1 "
            "times per node on rectangular grids, independent of size."
        ),
        seed=1306,
        runner=_run_grid,
        y_label="beeps/node",
        x_label="n (side^2)",
    ),
    PaperExperiment(
        name="theorem1",
        module="lower_bound",
        title="Theorem 1 — the disjoint-clique separation",
        description=(
            "Rounds on the lower-bound family: any preset global schedule "
            "(the sweep) needs Omega(log^2 n) while local feedback grows "
            "like log n."
        ),
        seed=1101,
        runner=_run_theorem1,
    ),
    PaperExperiment(
        name="sizes",
        module="sizes",
        title="MIS sizes vs the exact optimum",
        description=(
            "Mean selected-set size per algorithm on G(30, 0.3), with the "
            "fraction of the branch-and-bound optimum achieved."
        ),
        seed=1701,
        runner=_run_sizes,
        y_label="|MIS|",
        extra_columns=("optimum_ratio",),
    ),
    PaperExperiment(
        name="robustness",
        module="robustness",
        title="Section 6 — fault-grid robustness",
        description=(
            "Rounds under beep loss x spurious beeps on G(40, 1/2): the "
            "feedback algorithm degrades gracefully with channel noise."
        ),
        seed=1603,
        runner=_run_robustness,
        x_label="spurious probability",
    ),
    PaperExperiment(
        name="compare",
        module="compare",
        title="Beeping vs message passing",
        description=(
            "The paper's positioning against Luby-style algorithms: "
            "rounds on the plot, rounds plus bit complexity in the CSV."
        ),
        seed=2013,
        runner=_run_compare,
    ),
    PaperExperiment(
        name="bio",
        module="bio_ablation",
        title="Biology — inhibition-strength ablation",
        description=(
            "Collier Notch-Delta lattice: Delta separation of the emergent "
            "SOP pattern vs the lateral-inhibition strength b."
        ),
        seed=1910,
        runner=_run_bio,
        y_label="delta separation",
        x_label="inhibition strength b",
        orchestrated=False,
        extra_columns=("mean_sops", "mis_fraction"),
        fingerprint=dict(_BIO_SCALE),
    ),
)


def experiment_names() -> List[str]:
    """Registry experiment names, in pipeline order."""
    return [entry.name for entry in REGISTRY]


def select_experiments(
    only: Optional[Sequence[str]] = None,
) -> List[PaperExperiment]:
    """The registry subset to run (``None`` means everything)."""
    if only is None:
        return list(REGISTRY)
    known = {entry.name: entry for entry in REGISTRY}
    unknown = [name for name in only if name not in known]
    if unknown:
        raise ValueError(
            f"unknown experiment(s) {unknown}; "
            f"registered: {experiment_names()}"
        )
    wanted = set(only)
    return [entry for entry in REGISTRY if entry.name in wanted]


# ---------------------------------------------------------------------------
# Out-of-band shard observation (spec hashes + cache stats per experiment).
# ---------------------------------------------------------------------------


class _ShardProbe:
    """A telemetry sink collecting one experiment's shard stream."""

    def __init__(self) -> None:
        self.content_hashes: List[str] = []
        self.cached = 0
        self.executed = 0

    def __call__(self, event: Dict[str, Any]) -> None:
        if event.get("event") != "span" or event.get("name") != "sweep.shard":
            return
        attrs = event.get("attrs", {})
        digest = attrs.get("content_hash")
        if digest:
            self.content_hashes.append(str(digest))
        if attrs.get("cached"):
            self.cached += 1
        else:
            self.executed += 1

    def spec_hash(self) -> str:
        """The execution-fingerprint key over the observed shards."""
        return fingerprint_hash(
            {
                "format": SPEC_FORMAT_VERSION,
                "shards": sorted(set(self.content_hashes)),
            }
        )


@contextmanager
def _observe() -> Iterator[_ShardProbe]:
    """Attach a shard probe without disturbing installed telemetry.

    With a collector already installed (a ``--telemetry`` run ledger),
    the probe joins as an extra sink so ledger capture continues
    unchanged; otherwise a scoped collector is installed just to carry
    the probe events.
    """
    probe = _ShardProbe()
    active = probes.collector()
    if active is not None:
        active.add_sink(probe)
        try:
            yield probe
        finally:
            active.remove_sink(probe)
    else:
        with probes.capture() as collector:
            collector.add_sink(probe)
            yield probe


# ---------------------------------------------------------------------------
# Whole-artefact cache for non-orchestrated experiments (the bio ablation).
# ---------------------------------------------------------------------------


def _artefact_fingerprint(entry: PaperExperiment, trials: int) -> str:
    payload = {
        "paper_format": PAPER_FORMAT_VERSION,
        "experiment": entry.name,
        "seed": entry.seed,
        "trials": trials,
        "parameters": {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in sorted(entry.fingerprint.items())
        },
    }
    return fingerprint_hash(payload)


def _artefact_cache_path(cache_dir: PathLike, digest: str) -> Path:
    return Path(cache_dir) / "paper" / digest[:2] / f"{digest}.json"


def _artefact_cache_get(
    cache_dir: Optional[PathLike], digest: str
) -> Optional[Tuple[ExperimentResult, str]]:
    """Stored (result, csv) for the fingerprint, or ``None`` on damage.

    Damage that still parses (a list or a number for the whole file, a
    value swapped inside it) fails :func:`read_checked`'s checksum, so
    the experiment re-runs rather than serving altered bytes.
    """
    if cache_dir is None:
        return None
    payload = read_checked(_artefact_cache_path(cache_dir, digest))
    if (
        payload is None
        or payload.get("format") != PAPER_FORMAT_VERSION
        or payload.get("fingerprint") != digest
    ):
        return None
    try:
        result = results_from_json(json.dumps(payload["result"]))
        csv_text = str(payload["csv"])
    except DAMAGE_ERRORS:
        return None
    return result, csv_text


def _artefact_cache_put(
    cache_dir: Optional[PathLike],
    digest: str,
    result: ExperimentResult,
    csv_text: str,
) -> None:
    if cache_dir is None:
        return
    write_checked(
        _artefact_cache_path(cache_dir, digest),
        {
            "format": PAPER_FORMAT_VERSION,
            "fingerprint": digest,
            "result": json.loads(results_to_json(result)),
            "csv": csv_text,
        },
    )


# ---------------------------------------------------------------------------
# Drift vs committed goldens.
# ---------------------------------------------------------------------------


MANIFEST_NAME = "MANIFEST.json"


def _first_diff_line(current: str, golden: str) -> int:
    """1-based index of the first differing line (for drift details)."""
    current_lines = current.splitlines()
    golden_lines = golden.splitlines()
    for index, (a, b) in enumerate(zip(current_lines, golden_lines)):
        if a != b:
            return index + 1
    return min(len(current_lines), len(golden_lines)) + 1


def compare_golden(
    artefacts: Sequence[ExperimentArtefact],
    golden_dir: Optional[PathLike],
    trials: int,
) -> List[DriftVerdict]:
    """PASS/DRIFT/MISSING/SKIP per artefact against the golden dir."""
    if golden_dir is None:
        return [
            DriftVerdict(a.name, "MISSING", "no golden directory configured")
            for a in artefacts
        ]
    root = Path(golden_dir)
    try:
        manifest = json.loads(
            (root / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        golden_trials = manifest["trials"]
        files = dict(manifest.get("experiments", {}))
        # Exact types, so neither 1e999 nor True passes for a trial count
        # and every golden filename is a path string.
        if type(golden_trials) is not int or not all(
            isinstance(name, str) for name in files.values()
        ):
            raise TypeError("malformed golden manifest")
    except DAMAGE_ERRORS:
        return [
            DriftVerdict(
                a.name, "MISSING", f"unreadable golden manifest under {root}"
            )
            for a in artefacts
        ]
    if golden_trials != trials:
        return [
            DriftVerdict(
                a.name,
                "SKIP",
                f"goldens pinned at trials={golden_trials}; "
                f"run used trials={trials}",
            )
            for a in artefacts
        ]
    verdicts: List[DriftVerdict] = []
    for artefact in artefacts:
        filename = files.get(artefact.name)
        if filename is None:
            verdicts.append(
                DriftVerdict(
                    artefact.name, "MISSING", "no golden committed"
                )
            )
            continue
        try:
            golden = (root / filename).read_text(encoding="utf-8")
        except (OSError, ValueError):
            verdicts.append(
                DriftVerdict(
                    artefact.name,
                    "MISSING",
                    f"golden file {filename} unreadable",
                )
            )
            continue
        if golden == artefact.csv:
            verdicts.append(
                DriftVerdict(artefact.name, "PASS", "byte-identical")
            )
        else:
            verdicts.append(
                DriftVerdict(
                    artefact.name,
                    "DRIFT",
                    "differs from golden at line "
                    f"{_first_diff_line(artefact.csv, golden)}",
                )
            )
    return verdicts


def write_golden(
    pipeline: PaperPipeline, golden_dir: PathLike
) -> List[Path]:
    """Pin the pipeline's CSVs as the new goldens (plus manifest)."""
    root = Path(golden_dir)
    written: List[Path] = []
    manifest: Dict[str, Any] = {
        "format": PAPER_FORMAT_VERSION,
        "trials": pipeline.trials,
        "experiments": {},
    }
    for artefact in pipeline.artefacts:
        path = root / artefact.csv_filename
        atomic_write_text(path, artefact.csv)
        manifest["experiments"][artefact.name] = artefact.csv_filename
        written.append(path)
    path = root / MANIFEST_NAME
    atomic_write_text(
        path, json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    written.append(path)
    return written


# ---------------------------------------------------------------------------
# The pipeline.
# ---------------------------------------------------------------------------


def _resolve_golden_dir(
    golden_dir: Optional[PathLike],
) -> Optional[Path]:
    if golden_dir is None:
        return None
    if golden_dir == GOLDEN_AUTO:
        return DEFAULT_GOLDEN_DIR if DEFAULT_GOLDEN_DIR.is_dir() else None
    return Path(golden_dir)


def run_experiment(
    entry: PaperExperiment, settings: PaperSettings
) -> ExperimentArtefact:
    """Regenerate one registry experiment, observing its shard stream.

    The one path every registry artefact takes: :func:`run_paper` calls
    it per entry, and the ``repro figure3``/``figure5``/``theorem1``/
    ``sizes`` aliases call it for theirs, so an alias prints exactly the
    bytes ``repro paper --only NAME`` writes.
    """
    start = time.perf_counter()
    if entry.orchestrated:
        with _observe() as shard_probe:
            result, csv_text = entry.runner(settings, entry.seed)
        spec_hash = shard_probe.spec_hash()
        shards = dict(
            shards_total=shard_probe.cached + shard_probe.executed,
            shards_executed=shard_probe.executed,
            shards_cached=shard_probe.cached,
        )
        artefact_cached = False
    else:
        spec_hash = _artefact_fingerprint(entry, settings.trials)
        cached = _artefact_cache_get(settings.cache_dir, spec_hash)
        if cached is not None:
            result, csv_text = cached
            artefact_cached = True
        else:
            result, csv_text = entry.runner(settings, entry.seed)
            _artefact_cache_put(
                settings.cache_dir, spec_hash, result, csv_text
            )
            artefact_cached = False
        shards = dict(shards_total=0, shards_executed=0, shards_cached=0)
    return ExperimentArtefact(
        name=entry.name,
        title=entry.title,
        description=entry.description,
        csv=csv_text,
        result=result,
        spec_hash=spec_hash,
        trials=settings.trials,
        seed=entry.seed,
        y_label=entry.y_label,
        x_label=entry.x_label,
        extra_columns=entry.extra_columns,
        elapsed_seconds=time.perf_counter() - start,
        artefact_cached=artefact_cached,
        **shards,
    )


def _report_figures(
    artefacts: Sequence[ExperimentArtefact],
) -> List[ReportFigure]:
    return [
        ReportFigure(
            name=a.name,
            title=a.title,
            description=a.description,
            result=a.result,
            y_label=a.y_label,
            x_label=a.x_label,
            csv_filename=f"csv/{a.csv_filename}",
            spec_hash=a.spec_hash,
            trials=a.trials,
            seed=a.seed,
            extra_columns=a.extra_columns,
        )
        for a in artefacts
    ]


def _provenance(
    artefacts: Sequence[ExperimentArtefact], trials: int
) -> Dict[str, Any]:
    provenance: Dict[str, Any] = dict(run_versions())
    provenance["format.spec"] = SPEC_FORMAT_VERSION
    provenance["format.store"] = STORE_FORMAT_VERSION
    provenance["format.paper"] = PAPER_FORMAT_VERSION
    provenance["trials"] = trials
    for artefact in artefacts:
        provenance[f"seed.{artefact.name}"] = artefact.seed
        provenance[f"spec.{artefact.name}"] = artefact.spec_hash[:12]
    return provenance


def run_paper(
    trials: int = 3,
    jobs: int = 1,
    cache_dir: Optional[PathLike] = None,
    out_dir: PathLike = "paper-artefacts",
    only: Optional[Sequence[str]] = None,
    golden_dir: Optional[PathLike] = GOLDEN_AUTO,
    bench_dir: Optional[PathLike] = ".",
    rundb_dir: Optional[PathLike] = None,
    now: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> PaperPipeline:
    """Regenerate the paper's experiment surface; see the module docs.

    Writes ``<out_dir>/csv/<name>.csv`` per experiment plus
    ``<out_dir>/report.html``, appends one run record per experiment to
    the run database (``rundb_dir``, default ``<out_dir>/rundb``), and
    returns the full :class:`PaperPipeline`.  ``golden_dir`` defaults to
    auto-discovering the committed goldens; pass ``None`` to skip drift
    checking.  ``now`` injects the report timestamp — leaving it unset
    keeps reruns byte-identical.  ``progress`` (when given) receives one
    summary line per experiment.
    """
    settings = PaperSettings(trials=trials, jobs=jobs, cache_dir=cache_dir)
    entries = select_experiments(only)
    out_root = Path(out_dir)
    csv_dir = out_root / "csv"
    rundb_root = Path(rundb_dir) if rundb_dir is not None else out_root / "rundb"

    artefacts: List[ExperimentArtefact] = []
    for entry in entries:
        artefact = run_experiment(entry, settings)
        atomic_write_text(csv_dir / artefact.csv_filename, artefact.csv)
        artefacts.append(artefact)
        if progress is not None:
            cache_note = (
                "artefact-cache"
                if artefact.artefact_cached
                else f"shards total={artefact.shards_total} "
                f"executed={artefact.shards_executed} "
                f"cached={artefact.shards_cached}"
            )
            progress(
                f"{artefact.name}: {cache_note} "
                f"{artefact.elapsed_seconds:.3f}s"
            )

    drift = compare_golden(artefacts, _resolve_golden_dir(golden_dir), trials)
    verdict_by_name = {v.artefact: v for v in drift}

    rundb = RunDB(rundb_root)
    pipeline_id = f"{int(time.time() * 1e6):014x}"
    for artefact in artefacts:
        verdict = verdict_by_name[artefact.name]
        rundb.append(
            RunRecord(
                run_id=pipeline_id,
                experiment=artefact.name,
                spec_hash=artefact.spec_hash,
                trials=trials,
                shards_total=artefact.shards_total,
                shards_executed=artefact.shards_executed,
                shards_cached=artefact.shards_cached,
                elapsed_seconds=artefact.elapsed_seconds,
                drift=verdict.status,
                csv_sha256=artefact.csv_sha256,
                created=time.time(),
                extra=(
                    {"artefact_cached": True}
                    if artefact.artefact_cached
                    else {}
                ),
            )
        )

    html = render_paper_report(
        _report_figures(artefacts),
        provenance=_provenance(artefacts, trials),
        drift_rows=[(v.artefact, v.status, v.detail) for v in drift],
        bench_rows=bench_drift(bench_dir) if bench_dir is not None else (),
        now=now,
    )
    report_path = out_root / "report.html"
    atomic_write_text(report_path, html)

    return PaperPipeline(
        artefacts=artefacts,
        drift=drift,
        out_dir=out_root,
        report_path=report_path,
        csv_dir=csv_dir,
        rundb_root=rundb_root,
        trials=trials,
    )
