"""End-to-end tests of the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_algorithms(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "feedback" in out
        assert "afek-sweep" in out


class TestRun:
    def test_random_graph_run(self, capsys):
        assert main(["run", "--nodes", "40", "--trials", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "algorithm=feedback" in out
        assert "trial 0:" in out
        assert "trial 1:" in out

    def test_grid_run(self, capsys):
        assert main(["run", "--grid", "5", "--algorithm", "luby-permutation"]) == 0
        out = capsys.readouterr().out
        assert "5x5 grid" in out

    def test_all_algorithms_runnable(self, capsys):
        from repro.algorithms.registry import available_algorithms

        for name in available_algorithms():
            assert main(
                ["run", "--algorithm", name, "--nodes", "20"]
            ) == 0
        capsys.readouterr()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "bogus"])


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--trials", "0"], "trials must be >= 1"),
            (["robustness", "--trials", "0"], "trials must be >= 1"),
            (["run", "--edge-probability", "2"], "probability"),
            (["color", "--edge-probability", "2"], "probability"),
            (["match", "--edge-probability", "2"], "probability"),
            (["wakeup", "--edge-probability", "2"], "probability"),
            (["animate", "--edge-probability", "2"], "probability"),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else None,
    )
    def test_invalid_value_exits_without_traceback(
        self, argv, message, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert message in str(exit_info.value.code)


class TestSweep:
    def test_cold_then_warm_run(self, capsys, tmp_path):
        args = [
            "sweep",
            "--algorithms", "feedback",
            "--sizes", "16",
            "--trials", "4",
            "--cache-dir", str(tmp_path),
            "--csv",
        ]
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert "series,x,mean,std,trials" in out
        # Under --csv stdout stays pure CSV; the shard report goes to stderr.
        assert "executed" not in out
        assert "executed=1" in err
        assert main(args) == 0
        warm, warm_err = capsys.readouterr()
        assert "executed=0" in warm_err
        assert "cached=1" in warm_err
        # identical CSV rows from the store
        assert warm == out

    def test_table_and_plot_without_csv(self, capsys):
        assert main([
            "sweep",
            "--algorithms", "feedback",
            "--sizes", "12", "16",
            "--trials", "2",
        ]) == 0
        out = capsys.readouterr().out
        table, plot = out.split("\n\n", 1)
        assert table.startswith("experiment: sweep (seed=1900)\n")
        assert "series   | x  | mean | std  | trials" in table
        assert plot.startswith("rounds\n")
        # Without --csv the shard report closes stdout.
        assert out.splitlines()[-1].startswith("# shards: total=2 ")

    def test_reference_engine_grid(self, capsys):
        assert main([
            "sweep",
            "--algorithms", "greedy",
            "--engine", "reference",
            "--family", "grid",
            "--sizes", "3",
            "--trials", "2",
            "--quantity", "mis-size",
            "--csv",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("series,x,mean,std,trials\ngreedy,9.0,")

    def test_jobs_flag_accepted_on_figures(self, capsys, tmp_path):
        assert main([
            "figure5",
            "--trials", "2",
            "--csv",
            "--jobs", "2",
            "--cache-dir", str(tmp_path),
        ]) == 0
        assert "feedback" in capsys.readouterr().out


class TestRobustness:
    def test_cold_then_warm_fault_grid(self, capsys, tmp_path):
        args = [
            "robustness",
            "--nodes", "20",
            "--trials", "4",
            "--loss", "0.0", "0.2",
            "--spurious", "0.0", "0.1",
            "--crash", "1:3",
            "--cache-dir", str(tmp_path),
            "--csv",
        ]
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert "series,x,mean,std,trials" in out
        assert "loss=0.2" in out
        assert "executed=4" in err
        # Warm rerun: the whole fault grid is served from the store.
        assert main(args) == 0
        warm, warm_err = capsys.readouterr()
        assert "executed=0" in warm_err
        assert warm == out

    def test_plot_output(self, capsys):
        assert main([
            "robustness",
            "--nodes", "16",
            "--trials", "3",
            "--loss", "0.0",
            "--spurious", "0.0", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "spurious probability" in out
        assert "legend:" in out

    def test_reference_engine_grid(self, capsys):
        assert main([
            "robustness",
            "--engine", "reference",
            "--nodes", "12",
            "--trials", "2",
            "--loss", "0.1",
            "--spurious", "0.0",
            "--csv",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("series,x,mean,std,trials\nloss=0.1,")

    def test_rejects_malformed_crash_entry(self):
        with pytest.raises(SystemExit):
            main(["robustness", "--crash", "nope"])

    def test_churn_grid_cold_then_warm(self, capsys, tmp_path):
        args = [
            "robustness",
            "--nodes", "16",
            "--trials", "4",
            "--loss", "0.0", "0.2",
            "--spurious", "0.0",
            "--churn", "leave:1:0", "sleep:2:3", "wake:4:3",
            "--cache-dir", str(tmp_path),
            "--csv",
        ]
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert out.startswith("series,x,mean,std,trials,repair,recovered\n")
        assert "executed=" in err
        # Warm rerun: byte-identical CSV, zero shards executed.
        assert main(args) == 0
        warm, warm_err = capsys.readouterr()
        assert "executed=0" in warm_err
        assert warm == out
        # The churn CSV is the shared writer with the two repair extras.
        from repro.beeping.faults import parse_churn_spec
        from repro.experiments.records import results_to_csv
        from repro.experiments.robustness import robustness_grid

        result = robustness_grid(
            n=16,
            loss_probabilities=(0.0, 0.2),
            spurious_probabilities=(0.0,),
            churn=parse_churn_spec(["leave:1:0", "sleep:2:3", "wake:4:3"]),
            trials=4,
            master_seed=1603,
            cache_dir=tmp_path,
        )
        assert out == results_to_csv(
            result, extra_columns=("repair", "recovered")
        )

    def test_churn_table_mode_prints_repair_section(self, capsys):
        assert main([
            "robustness",
            "--nodes", "14",
            "--trials", "3",
            "--loss", "0.0",
            "--spurious", "0.0",
            "--churn", "leave:1:0", "join:2:14:0+3",
        ]) == 0
        out = capsys.readouterr().out
        assert "self-repair (mean rounds to re-quiescence" in out
        assert "recovered" in out

    def test_rejects_malformed_churn_entry(self):
        with pytest.raises(SystemExit, match="--churn"):
            main(["robustness", "--churn", "nope"])
        with pytest.raises(SystemExit, match="--churn"):
            main(["robustness", "--churn", "wake:2:1"])  # wake w/o sleep


class TestCompareChurn:
    def test_compare_reports_repair_columns(self, capsys):
        assert main([
            "compare",
            "--sizes", "12",
            "--trials", "2",
            "--churn", "leave:1:0",
            "--algorithms", "feedback", "luby-permutation",
        ]) == 0
        out = capsys.readouterr().out
        assert "repair" in out
        assert "recovered" in out

    def test_compare_churn_default_panel_honours_churn(self, capsys):
        """Without --algorithms, churn runs the churn-honouring subset of
        the default panel."""
        assert main([
            "compare", "--sizes", "12", "--trials", "2", "--churn", "leave:1:0",
        ]) == 0
        out = capsys.readouterr().out
        rows = out.split("\n\n", 1)[0].splitlines()[3:]
        assert [row.split("|")[0].strip() for row in rows] == [
            "feedback", "afek-sweep", "luby-permutation", "luby-probability"
        ]
        assert "recovered" in out

    def test_compare_csv_keeps_stdout_pure(self, capsys):
        assert main([
            "compare", "--sizes", "12", "--trials", "2",
            "--algorithms", "feedback", "greedy", "--csv",
        ]) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0] == "series,x,quantity,mean,std,trials"
        assert len(lines) == 5
        assert all(line.count(",") == 5 for line in lines)
        assert "# shards:" not in out
        assert err.startswith("# shards: total=2 executed=2 ")

    def test_compare_rejects_churn_blind_algorithm(self):
        with pytest.raises(SystemExit, match="churn"):
            main([
                "compare",
                "--sizes", "12",
                "--trials", "2",
                "--churn", "leave:1:0",
                "--algorithms", "greedy",
            ])

    def test_compare_rejects_malformed_churn_entry(self):
        with pytest.raises(SystemExit, match="--churn"):
            main(["compare", "--churn", "leave:1"])


class TestFigures:
    def test_figure3_csv(self, capsys):
        assert main(["figure3", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out

    def test_figure3_csv_mode(self, capsys):
        assert main(["figure3", "--trials", "2", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("series,x,mean,std,trials")

    def test_figure5(self, capsys):
        assert main(["figure5", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "feedback" in out
        assert "beeps/node" in out


class TestPaperAliases:
    """figure3/figure5/theorem1/sizes print one paper registry artefact."""

    @pytest.mark.parametrize(
        "name", ["figure3", "figure5", "theorem1", "sizes"]
    )
    def test_csv_is_the_paper_only_artefact(self, name, capsys, tmp_path):
        from repro.experiments.paper import run_paper

        assert main([name, "--trials", "2", "--csv"]) == 0
        out = capsys.readouterr().out
        run_paper(
            trials=2,
            only=[name],
            out_dir=tmp_path,
            golden_dir=None,
            bench_dir=None,
        )
        assert out == (tmp_path / "csv" / f"{name}.csv").read_text(
            encoding="utf-8"
        )

    def test_report_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["report"])
        capsys.readouterr()


class TestTheorem1:
    def test_runs(self, capsys):
        assert main(["theorem1", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "afek-sweep" in out
        assert "feedback" in out


class TestBio:
    def test_lattice_report(self, capsys):
        assert main(["bio", "--rows", "5", "--cols", "5", "--t-end", "60"]) == 0
        out = capsys.readouterr().out
        assert "SOPs=" in out
        assert "pattern is an MIS" in out


class TestApplications:
    def test_sizes(self, capsys):
        assert main(["sizes", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimum_ratio" in out
        assert "feedback" in out

    def test_color(self, capsys):
        assert main(["color", "--nodes", "25"]) == 0
        out = capsys.readouterr().out
        assert "proper colouring" in out

    def test_color_fleet_engine(self, capsys):
        assert main(
            ["color", "--nodes", "25", "--engine", "fleet", "--trials", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "proper colouring" in out
        assert "fleet batch" in out
        assert "trial 0" in out

    def test_match(self, capsys):
        assert main(["match", "--nodes", "25"]) == 0
        out = capsys.readouterr().out
        assert "maximal matching" in out

    def test_match_fleet_engine(self, capsys):
        assert main(
            ["match", "--nodes", "25", "--engine", "fleet", "--trials", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "maximal matching" in out
        assert "fleet batch" in out
        assert "trial 0" in out

    def test_wakeup(self, capsys):
        assert main(["wakeup", "--nodes", "30", "--max-delay", "5"]) == 0
        out = capsys.readouterr().out
        assert "staggered starts" in out

    def test_animate(self, capsys):
        assert main(["animate", "--nodes", "9"]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out
        assert "MIS =" in out


class TestSeedDiscipline:
    def test_cli_streams_are_pairwise_distinct(self):
        """No (command, seed) pair may collide with any other.

        Regression: the algorithm RNGs used to be ``Random(args.seed + k)``
        with per-command offsets, so ``wakeup --seed 7`` and ``match
        --seed 8`` consumed the same ``Random(9)`` stream.  Routed
        through ``spawn_rng(seed, *path)``, every stream seed is a
        distinct splitmix derivation.
        """
        from repro.beeping.rng import derive_seed
        from repro.cli import CLI_ALGO_STREAMS

        seen = {}
        for seed in range(11):  # includes the historic 7/8 collision
            for command, path in CLI_ALGO_STREAMS.items():
                stream_seed = derive_seed(seed, *path)
                assert stream_seed not in seen, (
                    f"({command}, seed {seed}) collides with "
                    f"{seen[stream_seed]}"
                )
                seen[stream_seed] = (command, seed)

    def test_stream_paths_are_unique(self):
        from repro.cli import CLI_ALGO_STREAMS, CLI_GRAPH_STREAM

        paths = list(CLI_ALGO_STREAMS.values())
        assert len(set(paths)) == len(paths)
        assert (CLI_GRAPH_STREAM,) not in paths


class TestObservabilityFlags:
    """--telemetry/--verbose/--quiet behave the same on every subcommand."""

    SWEEP = [
        "sweep", "--algorithms", "feedback", "--sizes", "16",
        "--trials", "4", "--csv",
    ]

    def test_every_subcommand_accepts_the_trio(self):
        from repro.cli import _build_parser

        parser = _build_parser()
        subparsers = next(
            action for action in parser._actions
            if isinstance(action, __import__("argparse")._SubParsersAction)
        )
        for name, subparser in subparsers.choices.items():
            flags = {
                flag
                for action in subparser._actions
                for flag in action.option_strings
            }
            assert {"--telemetry", "--verbose", "--quiet"} <= flags, name

    def test_verbose_and_quiet_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(self.SWEEP + ["--verbose", "--quiet"])
        capsys.readouterr()

    def test_quiet_suppresses_the_summary_line(self, capsys, tmp_path):
        assert main(
            self.SWEEP + ["--cache-dir", str(tmp_path), "--quiet"]
        ) == 0
        out, err = capsys.readouterr()
        assert "series,x,mean,std,trials" in out
        assert "executed=" not in err

    def test_verbose_streams_shard_progress(self, capsys):
        assert main(self.SWEEP + ["--verbose"]) == 0
        _out, err = capsys.readouterr()
        assert "# shard 1/1 feedback[n=16 0:4]" in err
        assert "executed=1" in err

    def test_verbose_narrates_a_resumed_sweep(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path)]
        assert main(self.SWEEP + cache) == 0
        capsys.readouterr()
        grown = ["--sizes", "16", "20"]
        assert main(self.SWEEP + grown + cache + ["--verbose"]) == 0
        _out, err = capsys.readouterr()
        assert "# resuming: 1 shards cached, 1 to execute" in err
        # Only the executed shard is narrated, not the cached one.
        assert "feedback[n=20 0:4]" in err
        assert "feedback[n=16" not in err

    def test_telemetry_records_a_ledger_run(self, capsys, tmp_path):
        from repro.telemetry import load_runs

        ledger = tmp_path / "ledger"
        assert main(self.SWEEP + ["--telemetry", str(ledger)]) == 0
        capsys.readouterr()
        (run,) = load_runs(ledger)
        assert run.command == "sweep"
        assert run.status == "ok"
        assert run.argv[0] == "sweep"
        assert run.counters["sweep.cache.miss"] == 1.0
        assert run.versions["repro"]
        assert run.spec_hashes

    def test_environment_variable_sets_the_ledger(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.telemetry import load_runs

        ledger = tmp_path / "env-ledger"
        monkeypatch.setenv("REPRO_TELEMETRY_DIR", str(ledger))
        assert main(self.SWEEP) == 0
        capsys.readouterr()
        (run,) = load_runs(ledger)
        assert run.command == "sweep"

    def test_telemetry_leaves_output_bytes_unchanged(self, capsys, tmp_path):
        assert main(self.SWEEP) == 0
        plain = capsys.readouterr().out
        assert main(self.SWEEP + ["--telemetry", str(tmp_path / "l")]) == 0
        probed = capsys.readouterr().out
        assert plain == probed


class TestStats:
    SWEEP = [
        "sweep", "--algorithms", "feedback", "--sizes", "16",
        "--trials", "4", "--csv",
    ]

    def test_needs_a_ledger_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY_DIR", raising=False)
        with pytest.raises(SystemExit, match="ledger"):
            main(["stats"])

    def test_reports_a_recorded_sweep(self, capsys, tmp_path):
        ledger = tmp_path / "ledger"
        cache = tmp_path / "cache"
        sweep = self.SWEEP + [
            "--cache-dir", str(cache), "--telemetry", str(ledger),
        ]
        assert main(sweep) == 0
        assert main(sweep) == 0  # warm rerun: 100% hit-rate
        capsys.readouterr()
        assert main(["stats", "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "2 runs" in out
        assert "100%" in out
        assert "slowest shards" not in out or "feedback" in out

    def test_json_mode_is_machine_readable(self, capsys, tmp_path):
        import json

        ledger = tmp_path / "ledger"
        assert main(self.SWEEP + ["--telemetry", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["stats", "--ledger", str(ledger), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (run,) = payload["runs"]
        assert run["command"] == "sweep"
        assert payload["run_detail"]["spec_hashes"]

    def test_stats_itself_is_never_recorded(self, capsys, tmp_path):
        from repro.telemetry import load_runs

        ledger = tmp_path / "ledger"
        assert main(self.SWEEP + ["--telemetry", str(ledger)]) == 0
        capsys.readouterr()
        assert main(
            ["stats", "--ledger", str(ledger), "--telemetry", str(ledger)]
        ) == 0
        capsys.readouterr()
        assert len(load_runs(ledger)) == 1

    def test_bench_drift_section(self, capsys, tmp_path):
        import json

        ledger = tmp_path / "ledger"
        assert main(self.SWEEP + ["--telemetry", str(ledger)]) == 0
        (tmp_path / "BENCH_demo.json").write_text(
            json.dumps(
                {"bench": "demo", "results": {"speedup": 4.0}, "floor": 2.0}
            ),
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(
            ["stats", "--ledger", str(ledger), "--bench-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "bench floors" in out
        assert "4.00x" in out
        assert "2.00" in out

    def test_damaged_bench_record_does_not_break_stats(
        self, capsys, tmp_path
    ):
        import json

        ledger = tmp_path / "ledger"
        assert main(self.SWEEP + ["--telemetry", str(ledger)]) == 0
        (tmp_path / "BENCH_list.json").write_text("[]", encoding="utf-8")
        (tmp_path / "BENCH_demo.json").write_text(
            json.dumps(
                {"bench": "demo", "results": {"speedup": "fast"},
                 "floor": {"min": 2.0}}
            ),
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(
            ["stats", "--ledger", str(ledger), "--bench-dir", str(tmp_path)]
        ) == 0
        assert "demo" in capsys.readouterr().out

    def test_damaged_ledger_line_does_not_break_stats(
        self, capsys, tmp_path
    ):
        import json

        from repro.telemetry.stats import ledger_paths

        ledger = tmp_path / "ledger"
        assert main(self.SWEEP + ["--telemetry", str(ledger)]) == 0
        (path,) = ledger_paths(ledger)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"event":"annotation","attrs":[1]}\n')
            handle.write('{"event":"end","phases":[1]}\n')
            handle.write("[" * 100_000 + "]" * 100_000 + "\n")
            handle.write('{"event":"counter","name":"x","value":1e999}\n')
        capsys.readouterr()
        assert main(["stats", "--ledger", str(ledger)]) == 0
        assert "status=ok" in capsys.readouterr().out
        assert main(["stats", "--ledger", str(ledger), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "x" not in payload["runs"][0]["counters"]
