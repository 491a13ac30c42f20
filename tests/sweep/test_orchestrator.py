"""Conformance tests: the sharded orchestrator vs. the sequential runners.

The acceptance contract of the sweep subsystem is that sharding is purely
an execution strategy: for the same :class:`SweepSpec`, the orchestrator —
at any job count, shard width or cache state — returns exactly the
``TrialOutcome`` rows the sequential :func:`run_trials` /
:func:`run_fleet_trials` calls produce, and a repeated sweep is served
entirely from the store (zero shards executed).
"""

import ctypes
import os
from dataclasses import replace

import pytest

from repro.algorithms.feedback import FeedbackMIS
from repro.beeping.faults import FaultModel
from repro.engine.rules import FeedbackRule, SweepRule
from repro.experiments.runner import run_fleet_trials, run_trials
from repro.graphs.random_graphs import gnp_random_graph
from repro.sweep import orchestrator
from repro.sweep.orchestrator import execute_shard, run_sweep
from repro.sweep.spec import CellSpec, ShardSpec, SweepSpec
from repro.sweep.store import ResultStore
from repro.telemetry import probes

FLEET_CELL = CellSpec(
    algorithm="feedback",
    engine="fleet",
    family="gnp",
    n=30,
    edge_probability=0.4,
    trials=10,
    graphs=3,
    master_seed=77,
)
REFERENCE_CELL = CellSpec(
    algorithm="feedback",
    engine="reference",
    family="gnp",
    n=16,
    edge_probability=0.3,
    trials=6,
    master_seed=9,
)


def fleet_oracle(cell):
    return run_fleet_trials(
        {"feedback": FeedbackRule, "afek-sweep": SweepRule}[cell.algorithm],
        lambda rng: gnp_random_graph(cell.n, cell.edge_probability, rng),
        cell.trials,
        cell.master_seed,
        graphs=cell.graphs,
        faults=cell.fault_model(),
        rng_mode=cell.rng_mode,
    )


def reference_oracle(cell):
    return run_trials(
        FeedbackMIS,
        lambda rng: gnp_random_graph(cell.n, cell.edge_probability, rng),
        cell.trials,
        cell.master_seed,
        faults=cell.fault_model(),
    )


class TestHashOnce:
    def test_each_shard_is_hashed_once_per_sweep(self, tmp_path, monkeypatch):
        """One ``content_hash`` per entry of ``spec.shards()`` (duplicate
        cells included), cold or warm; the digest then keys dedup, the
        store, the report and assembly."""
        spec = SweepSpec(
            (FLEET_CELL, REFERENCE_CELL, FLEET_CELL), shard_trials=4
        )
        shards = spec.shards()
        digests = [shard.content_hash() for shard in shards]
        calls = []
        original = ShardSpec.content_hash

        def spy(shard):
            calls.append(shard)
            return original(shard)

        monkeypatch.setattr(ShardSpec, "content_hash", spy)
        store = ResultStore(tmp_path)
        for cached in (False, True):
            calls.clear()
            result = run_sweep(spec, store=store)
            assert calls == shards
            report = result.report
            assert report.shards_total == len(shards)
            assert report.shards_cached == (5 if cached else 0)
            assert report.shards_executed == (0 if cached else 5)
            assert [t.content_hash for t in report.timings] == list(
                dict.fromkeys(digests)
            )
            assert all(t.cached is cached for t in report.timings)
            assert result.rows(FLEET_CELL) == fleet_oracle(FLEET_CELL)
            assert result.rows(REFERENCE_CELL) == reference_oracle(
                REFERENCE_CELL
            )


class TestBitIdenticalToSequential:
    """ISSUE acceptance: orchestrator(jobs>=2) == run_trials/run_fleet_trials."""

    def test_fleet_cell_matches_runner(self, tmp_path):
        spec = SweepSpec((FLEET_CELL,), shard_trials=4)  # 3 shards
        result = run_sweep(spec, store=ResultStore(tmp_path), jobs=2)
        assert result.rows(FLEET_CELL) == fleet_oracle(FLEET_CELL)
        assert result.report.shards_executed == 3

    def test_reference_cell_matches_run_trials(self, tmp_path):
        spec = SweepSpec((REFERENCE_CELL,), shard_trials=2)  # 3 shards
        result = run_sweep(spec, store=ResultStore(tmp_path), jobs=2)
        assert result.rows(REFERENCE_CELL) == reference_oracle(REFERENCE_CELL)

    def test_results_independent_of_jobs(self):
        spec = SweepSpec((FLEET_CELL, REFERENCE_CELL), shard_trials=3)
        sequential = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)
        assert sequential.outcomes == parallel.outcomes

    @pytest.mark.parametrize(
        "cell", [FLEET_CELL, REFERENCE_CELL], ids=["fleet", "reference"]
    )
    def test_results_independent_of_shard_width(self, cell):
        wide = run_sweep(SweepSpec((cell,), shard_trials=100))
        narrow = run_sweep(SweepSpec((cell,), shard_trials=1))
        assert wide.rows(cell) == narrow.rows(cell)

    def test_single_shard_executor_is_the_unit(self):
        """execute_shard on the full window IS the sequential run."""
        whole = ShardSpec(FLEET_CELL, 0, FLEET_CELL.trials)
        assert execute_shard(whole) == fleet_oracle(FLEET_CELL)

    def test_faulted_reference_cell_matches_run_trials(self):
        cell = CellSpec(
            algorithm="feedback",
            engine="reference",
            family="gnp",
            n=14,
            edge_probability=0.3,
            trials=4,
            master_seed=13,
            spurious_beep=0.2,
        )
        result = run_sweep(SweepSpec((cell,), shard_trials=2), jobs=2)
        expected = run_trials(
            FeedbackMIS,
            lambda rng: gnp_random_graph(14, 0.3, rng),
            4,
            13,
            faults=FaultModel(spurious_beep_probability=0.2),
        )
        assert result.rows(cell) == expected

    @pytest.mark.parametrize("rng_mode", ("stream", "counter"))
    def test_fleet_cell_matches_oracle_in_both_rng_modes(self, rng_mode):
        """The orchestrator forwards rng_mode: a stream-mode cell must
        reproduce the stream-mode sequential runner, not the counter
        default (and vice versa)."""
        cell = CellSpec(**{**FLEET_CELL.to_dict(), "rng_mode": rng_mode})
        result = run_sweep(SweepSpec((cell,), shard_trials=4), jobs=2)
        assert result.rows(cell) == fleet_oracle(cell)
        if rng_mode == "stream":
            assert result.rows(cell) != fleet_oracle(FLEET_CELL)

    def test_faulted_fleet_cell_matches_runner(self, tmp_path):
        """ISSUE 3 acceptance: fault-injected fleet cells shard exactly."""
        cell = CellSpec(
            algorithm="feedback",
            engine="fleet",
            family="gnp",
            n=24,
            edge_probability=0.3,
            trials=9,
            graphs=2,
            master_seed=41,
            beep_loss=0.2,
            spurious_beep=0.1,
            crashes=((1, 2), (3, 7)),
        )
        result = run_sweep(
            SweepSpec((cell,), shard_trials=4), store=ResultStore(tmp_path),
            jobs=2,
        )
        assert result.rows(cell) == fleet_oracle(cell)


class TestStoreResume:
    """ISSUE acceptance: a repeated sweep executes zero shards."""

    def test_second_invocation_is_fully_cached(self, tmp_path):
        spec = SweepSpec((FLEET_CELL, REFERENCE_CELL), shard_trials=4)
        store = ResultStore(tmp_path)
        cold = run_sweep(spec, store=store, jobs=2)
        assert cold.report.shards_executed == cold.report.shards_total
        warm = run_sweep(spec, store=store, jobs=2)
        assert warm.report.shards_executed == 0
        assert warm.report.shards_cached == warm.report.shards_total
        assert warm.outcomes == cold.outcomes
        # Verified by the store: every shard of the spec is on disk.
        for shard in spec.shards():
            rows = store.get(shard, shard.content_hash())
            assert rows is not None
            assert [row.trial for row in rows] == list(range(shard.lo, shard.hi))

    def test_robustness_grid_is_fully_cached_on_rerun(self, tmp_path):
        """ISSUE 3 acceptance: a warm fault-grid sweep re-runs 0 shards."""
        from repro.experiments.robustness import robustness_grid

        kwargs = dict(
            n=20,
            trials=6,
            loss_probabilities=(0.0, 0.2),
            spurious_probabilities=(0.0, 0.1),
            crashes=((1, 3),),
            master_seed=5,
            shard_trials=3,
            cache_dir=tmp_path,
        )
        cold = robustness_grid(**kwargs)
        assert cold.report.shards_executed == cold.report.shards_total > 0
        warm = robustness_grid(**kwargs)
        assert warm.report.shards_executed == 0
        assert warm.report.shards_cached == warm.report.shards_total
        assert warm.points == cold.points

    def test_partial_cache_executes_only_missing_shards(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = SweepSpec((FLEET_CELL,), shard_trials=4)
        first_shard = spec.shards()[0]
        store.put(
            first_shard, first_shard.content_hash(), execute_shard(first_shard)
        )
        result = run_sweep(spec, store=store, jobs=2)
        assert result.report.shards_cached == 1
        assert result.report.shards_executed == 2
        assert result.rows(FLEET_CELL) == fleet_oracle(FLEET_CELL)

    def test_reference_sweep_extension_reuses_stored_shards(self, tmp_path):
        """Growing a reference cell's trial count only runs the new tail."""
        store = ResultStore(tmp_path)
        small = SweepSpec((REFERENCE_CELL,), shard_trials=2)
        run_sweep(small, store=store)
        grown = CellSpec(
            **{**REFERENCE_CELL.to_dict(), "trials": REFERENCE_CELL.trials + 2}
        )
        result = run_sweep(SweepSpec((grown,), shard_trials=2), store=store)
        assert result.report.shards_cached == 3
        assert result.report.shards_executed == 1
        assert result.rows(grown) == reference_oracle(grown)

    def test_store_accepts_a_plain_path(self, tmp_path):
        spec = SweepSpec((REFERENCE_CELL,), shard_trials=3)
        run_sweep(spec, store=tmp_path)
        warm = run_sweep(spec, store=str(tmp_path))
        assert warm.report.shards_executed == 0

    def test_duplicate_cells_execute_once(self, tmp_path):
        spec = SweepSpec((FLEET_CELL, FLEET_CELL), shard_trials=100)
        result = run_sweep(spec, store=tmp_path)
        assert result.report.shards_total == 2
        assert result.report.shards_executed == 1
        assert result.rows(FLEET_CELL) == fleet_oracle(FLEET_CELL)


class TestBackendTransparency:
    """The backend field is pure execution strategy: identical rows,
    shared cache entries (it is excluded from the shard hash)."""

    DENSE_CELL = CellSpec(**{**FLEET_CELL.to_dict(), "backend": "dense"})
    SPARSE_CELL = CellSpec(**{**FLEET_CELL.to_dict(), "backend": "sparse"})

    def test_fresh_sparse_sweep_matches_dense_rows(self):
        dense = run_sweep(SweepSpec((self.DENSE_CELL,), shard_trials=4))
        sparse = run_sweep(SweepSpec((self.SPARSE_CELL,), shard_trials=4))
        assert sparse.report.shards_executed == sparse.report.shards_total
        assert sparse.rows(self.SPARSE_CELL) == dense.rows(self.DENSE_CELL)
        assert sparse.rows(self.SPARSE_CELL) == fleet_oracle(FLEET_CELL)

    @pytest.mark.parametrize(
        "algorithm", ("luby-permutation", "metivier", "mis-coloring",
                      "mis-matching")
    )
    def test_message_and_application_cells_honour_the_backend(
        self, algorithm
    ):
        """Message and application cells run on the backend they name
        (the engine-side probe says so) and give identical rows on
        both."""
        rows = {}
        for backend in ("dense", "sparse"):
            cell = CellSpec(
                **{
                    **FLEET_CELL.to_dict(),
                    "algorithm": algorithm,
                    "backend": backend,
                }
            )
            with probes.capture() as collector:
                result = run_sweep(SweepSpec((cell,), shard_trials=4))
            assert collector.counters.get(f"engine.backend.{backend}"), (
                backend
            )
            rows[backend] = result.rows(cell)
        assert rows["dense"] == rows["sparse"]

    @pytest.mark.parametrize(
        "cold_backend, warm_backend",
        (("dense", "sparse"), ("sparse", "dense")),
    )
    def test_warm_cache_serves_every_backend(
        self, tmp_path, cold_backend, warm_backend
    ):
        """Rerunning a sweep cached by one backend on the other is a 100%
        cache hit with byte-identical rows, in both directions."""
        cells = {"dense": self.DENSE_CELL, "sparse": self.SPARSE_CELL}
        store = ResultStore(tmp_path)
        cold = run_sweep(
            SweepSpec((cells[cold_backend],), shard_trials=4), store=store
        )
        assert cold.report.shards_executed == cold.report.shards_total
        warm = run_sweep(
            SweepSpec((cells[warm_backend],), shard_trials=4), store=store
        )
        assert warm.report.shards_executed == 0
        assert warm.report.shards_cached == warm.report.shards_total
        assert warm.rows(cells[warm_backend]) == cold.rows(cells[cold_backend])


class TestValidation:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            run_sweep(SweepSpec((REFERENCE_CELL,)), jobs=0)


def _inject_failures(lo, fail_attempts):
    """A ``_failure_injector`` that crashes the shard starting at ``lo``
    on its first ``fail_attempts`` attempts (fork-propagated to pool
    workers, so it also exercises the cross-process retry path)."""

    def hook(shard, attempt):
        if shard.lo == lo and attempt < fail_attempts:
            raise RuntimeError(f"injected worker crash (attempt {attempt})")

    return hook


class TestShardFaultTolerance:
    """ISSUE 9 satellite: a crashing shard is retried, then reported —
    it never sinks the sweep, and every successful shard stays stored."""

    SPEC = SweepSpec((FLEET_CELL,), shard_trials=4)  # 3 shards

    def test_flaky_shard_retries_then_succeeds_inline(self, monkeypatch):
        monkeypatch.setattr(
            "repro.sweep.orchestrator._failure_injector",
            _inject_failures(4, fail_attempts=1),
        )
        result = run_sweep(self.SPEC, jobs=1)
        assert result.report.shards_retried == 1
        assert result.report.failed_shards == []
        assert result.report.shards_executed == 3
        assert "retried=1" in result.report.summary()
        assert result.rows(FLEET_CELL) == fleet_oracle(FLEET_CELL)

    def test_flaky_shard_retries_then_succeeds_in_pool(self, monkeypatch):
        monkeypatch.setattr(
            "repro.sweep.orchestrator._failure_injector",
            _inject_failures(4, fail_attempts=2),
        )
        result = run_sweep(self.SPEC, jobs=2)
        assert result.report.shards_retried == 2
        assert result.report.failed_shards == []
        assert result.rows(FLEET_CELL) == fleet_oracle(FLEET_CELL)

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_permanent_failure_finishes_remaining_shards(
        self, monkeypatch, jobs
    ):
        from repro.sweep.orchestrator import SHARD_ATTEMPTS

        monkeypatch.setattr(
            "repro.sweep.orchestrator._failure_injector",
            _inject_failures(0, fail_attempts=SHARD_ATTEMPTS),
        )
        spec = SweepSpec((FLEET_CELL, REFERENCE_CELL), shard_trials=4)
        result = run_sweep(spec, jobs=jobs)
        # The reference cell (whose shards start at lo=0 too, but carry a
        # different content hash) shares the lo==0 trigger: scope the
        # check to what actually failed.
        failed = result.report.failed_shards
        assert failed, "permanent failure must be reported"
        for shard in failed:
            assert shard.attempts == SHARD_ATTEMPTS
            assert "RuntimeError: injected worker crash" in shard.error
        assert f"failed={len(failed)}" in result.report.summary()
        # Cells hit by the failure are absent with a contextual KeyError…
        assert FLEET_CELL not in result.outcomes
        with pytest.raises(KeyError, match="a shard failed"):
            result.rows(FLEET_CELL)
        # …while untouched shards of the sweep still executed and stored.
        executed_windows = {
            (t.lo, t.hi) for t in result.report.timings if not t.cached
        }
        assert (4, 8) in executed_windows
        assert (8, 10) in executed_windows

    def test_rerun_after_failure_resumes_only_failed_window(
        self, monkeypatch, tmp_path
    ):
        from repro.sweep import orchestrator

        store = ResultStore(tmp_path)
        monkeypatch.setattr(
            orchestrator, "_failure_injector",
            _inject_failures(4, fail_attempts=orchestrator.SHARD_ATTEMPTS),
        )
        cold = run_sweep(self.SPEC, store=store, jobs=1)
        assert len(cold.report.failed_shards) == 1
        assert cold.report.failed_shards[0].lo == 4
        # The crash is fixed (injector removed); the rerun recomputes
        # only the failed window and serves the rest from the store.
        monkeypatch.setattr(orchestrator, "_failure_injector", None)
        warm = run_sweep(self.SPEC, store=store, jobs=1)
        assert warm.report.failed_shards == []
        assert warm.report.shards_cached == 2
        assert warm.report.shards_executed == 1
        assert warm.rows(FLEET_CELL) == fleet_oracle(FLEET_CELL)

    def test_retry_and_failure_telemetry(self, monkeypatch):
        from repro.sweep.orchestrator import SHARD_ATTEMPTS
        from repro.telemetry.probes import Collector, capture

        monkeypatch.setattr(
            "repro.sweep.orchestrator._failure_injector",
            _inject_failures(0, fail_attempts=SHARD_ATTEMPTS),
        )
        events = []
        collector = Collector()
        collector.add_sink(events.append)
        with capture(collector):
            run_sweep(self.SPEC, jobs=1)
        assert collector.counters["sweep.shard.retry"] == SHARD_ATTEMPTS - 1
        assert collector.counters["sweep.shard.failed"] == 1
        failures = [
            e for e in events
            if e["event"] == "annotation" and e["name"] == "sweep.shard.failed"
        ]
        assert len(failures) == 1
        attrs = failures[0]["attrs"]
        assert attrs["lo"] == 0 and attrs["hi"] == 4
        assert attrs["error"].startswith("RuntimeError")
        assert len(attrs["content_hash"]) == 64


class TestAggregation:
    def test_cell_point_summarises_rows(self):
        from repro.sweep.aggregate import cell_point, outcome_value

        result = run_sweep(SweepSpec((FLEET_CELL,), shard_trials=4))
        rows = result.rows(FLEET_CELL)
        point = cell_point(FLEET_CELL, rows, "rounds")
        assert point.series == "feedback"
        assert point.x == float(FLEET_CELL.n)
        assert point.trials == FLEET_CELL.trials
        values = [outcome_value(row, "rounds") for row in rows]
        assert point.mean == pytest.approx(sum(values) / len(values))

    def test_summarize_uses_the_sample_deviation(self):
        from repro.sweep.aggregate import summarize

        assert summarize([3.0]) == (3.0, 0.0)
        assert summarize([1.0, 3.0]) == (2.0, pytest.approx(2.0 ** 0.5))

    def test_outcome_value_rejects_unknown_quantity(self):
        from repro.sweep.aggregate import outcome_value

        result = run_sweep(SweepSpec((REFERENCE_CELL,)))
        with pytest.raises(ValueError, match="quantity"):
            outcome_value(result.rows(REFERENCE_CELL)[0], "latency")


class TestReportTimings:
    """SweepReport keeps the per-shard numbers it used to drop."""

    def test_cold_sweep_records_one_timing_per_shard(self, tmp_path):
        result = run_sweep(
            SweepSpec((FLEET_CELL,), shard_trials=4), store=tmp_path
        )
        report = result.report
        assert report.shards_total == 3
        assert len(report.timings) == 3
        assert all(not t.cached for t in report.timings)
        assert report.cache_hit_rate == 0.0
        assert sum(t.seconds for t in report.timings) == pytest.approx(
            report.seconds_executed
        )
        windows = sorted((t.lo, t.hi) for t in report.timings)
        assert windows == [(0, 4), (4, 8), (8, 10)]
        assert all(len(t.content_hash) == 64 for t in report.timings)

    def test_warm_sweep_timings_are_cached_lookups(self, tmp_path):
        spec = SweepSpec((FLEET_CELL,), shard_trials=4)
        run_sweep(spec, store=tmp_path)
        warm = run_sweep(spec, store=tmp_path).report
        assert warm.shards_executed == 0
        assert warm.cache_hit_rate == 1.0
        assert all(t.cached for t in warm.timings)
        assert warm.slowest_shards() == []

    def test_slowest_shards_rank_executed_work(self):
        from repro.sweep.orchestrator import ShardTiming, SweepReport

        report = SweepReport(shards_total=3)
        fast = ShardTiming("feedback", 30, 0, 4, 0.1, False, "aa")
        slow = ShardTiming("feedback", 30, 4, 8, 0.9, False, "bb")
        hit = ShardTiming("feedback", 30, 8, 10, 5.0, True, "cc")
        report.timings.extend([fast, slow, hit])
        report.shards_executed = 2
        report.shards_cached = 1
        report.seconds_executed = 1.0
        assert report.slowest_shards(1) == [slow]
        summary = report.summary()
        assert "executed=2" in summary
        assert "cached=1" in summary
        assert "hit-rate=33%" in summary
        assert "slowest=feedback[n=30 4:8] 0.900s" in summary

    def test_empty_report_summary(self):
        from repro.sweep.orchestrator import SweepReport

        report = SweepReport()
        assert report.cache_hit_rate is None
        assert "hit-rate=-" in report.summary()


class TestGraphMemo:
    """A fleet sweep draws each graph once per process: every shard of a
    cell, and every cell with the same family and master seed, reuses the
    graphs of the fingerprint drawn last."""

    CELLS = tuple(
        CellSpec(
            algorithm=algorithm,
            engine="fleet",
            family="gnp",
            n=40,
            edge_probability=0.5,
            trials=10,
            graphs=2,
            master_seed=5,
        )
        for algorithm in ("feedback", "afek-sweep")
    )
    # Width-3 shards straddle the two 5-trial graph groups: without the
    # memo each cell's four shards draw 1 + 2 + 1 + 1 = 5 graphs.
    SPEC = SweepSpec(CELLS, shard_trials=3)

    @pytest.fixture
    def draws(self, monkeypatch):
        from repro.experiments import runner
        from repro.sweep import spec as spec_module

        calls = []
        generator = spec_module.gnp_random_graph

        def counting(n, p, rng):
            calls.append((n, p))
            return generator(n, p, rng)

        monkeypatch.setattr(spec_module, "gnp_random_graph", counting)
        runner._FLEET_GRAPHS.clear()
        yield calls
        runner._FLEET_GRAPHS.clear()

    def test_two_cells_draw_each_graph_once(self, draws):
        run_sweep(self.SPEC, jobs=1)
        assert len(draws) == 2

    def test_rows_equal_runs_without_reuse(self, draws):
        from repro.experiments import runner

        shared = run_sweep(self.SPEC, jobs=1).outcomes
        for cell in self.CELLS:
            runner._FLEET_GRAPHS.clear()
            alone = run_sweep(SweepSpec((cell,), shard_trials=3), jobs=1)
            assert alone.outcomes[cell] == shared[cell]
            # A plain factory bypasses the memo altogether.
            assert fleet_oracle(cell) == shared[cell]

    def test_a_new_fingerprint_evicts_the_old_graphs(self, draws):
        first, other = self.CELLS[0], replace(self.CELLS[0], master_seed=6)
        for cell in (first, other, first):
            run_sweep(SweepSpec((cell,), shard_trials=3), jobs=1)
        assert len(draws) == 6

    def test_probes_count_drawn_and_reused_graphs(self, draws):
        from repro.experiments import runner

        with probes.capture() as collector:
            traced = run_sweep(self.SPEC, jobs=1).outcomes
        assert collector.counters["graphs.drawn"] == 2
        assert collector.counters["graphs.reused"] == 8
        runner._FLEET_GRAPHS.clear()
        assert run_sweep(self.SPEC, jobs=1).outcomes == traced

    def test_jobs_two_prints_the_same_csv(self, capsys, tmp_path):
        from repro.cli import main

        args = [
            "sweep", "--sizes", "40", "--trials", "10", "--graphs", "2",
            "--shard-trials", "3", "--csv",
        ]
        csvs = []
        for jobs in ("1", "2"):
            cache = str(tmp_path / f"jobs{jobs}")
            assert main(args + ["--jobs", jobs, "--cache-dir", cache]) == 0
            csvs.append(capsys.readouterr().out)
        assert csvs[0] == csvs[1] and csvs[0].count("\n") == 3


def _worker_blas_threads():
    getter = orchestrator._openblas_function("get_num_threads")
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return getter()


class TestPoolWorkers:
    """Pool workers share the cores: each caps OpenBLAS at
    ``cores // workers`` threads, and the parent keeps its own pool."""

    def test_worker_blas_threads_are_capped(self):
        if orchestrator._openblas_function("get_num_threads") is None:
            pytest.skip("no OpenBLAS loaded in this process")
        parent = _worker_blas_threads()
        environment = dict(os.environ)
        workers = 2
        with orchestrator._worker_pool(workers) as pool:
            threads = [
                pool.submit(_worker_blas_threads).result() for _ in range(4)
            ]
        cap = max(1, (os.cpu_count() or 1) // workers)
        assert all(1 <= count <= cap for count in threads), threads
        assert _worker_blas_threads() == parent
        assert dict(os.environ) == environment

    def test_replayed_dense_graphs_print_the_same_csv_at_any_jobs(
        self, capsys, tmp_path
    ):
        # G(300, 1/2) takes the numpy skip replay (22,425 expected skips)
        # and the dense backend's GEMM, in four shards over two workers.
        from repro.cli import main

        args = [
            "sweep", "--sizes", "300", "--trials", "8", "--graphs", "2",
            "--shard-trials", "2", "--csv",
        ]
        csvs = []
        for jobs in ("1", "2"):
            cache = str(tmp_path / f"jobs{jobs}")
            assert main(args + ["--jobs", jobs, "--cache-dir", cache]) == 0
            csvs.append(capsys.readouterr().out)
        assert csvs[0] == csvs[1] and csvs[0].count("\n") == 3
