"""Command-line interface: ``python -m repro``.

Subcommands
-----------
- ``run``      — run one algorithm on one generated graph and report.
- ``figure3``, ``figure5``, ``theorem1``, ``sizes`` — print one paper
  registry artefact (Figure 3 rounds vs n, Figure 5 beeps per node, the
  Theorem 1 clique family, MIS sizes vs the optimum) as a table + plot,
  or with ``--csv`` exactly the bytes ``paper --only NAME`` writes.
  Ad-hoc scales go through ``sweep``.
- ``sweep``    — sharded, cached experiment grids (algorithms × sizes).
- ``compare``  — the paper's beeping-vs-message-passing comparison
  (rounds + bit complexity) across algorithms × workloads × sizes.
- ``robustness`` — fault grid (beep loss × spurious beeps, optional
  crashes) through the cached orchestrator, on the fleet engine.
- ``bio``      — run the Notch–Delta lattice model and report the pattern.
- ``paper``    — the one-command paper pipeline: regenerate every
  registered experiment through the cached orchestrator, write CSVs +
  a self-contained HTML report, record runs in a persistent run DB,
  and (``--check``) fail on drift vs the committed goldens.
- ``stats``    — summarise telemetry run ledgers, bench-floor drift,
  and (``--rundb``) the paper pipeline's run database.
- ``list``     — list the registered algorithms.

The four registry aliases, ``sweep``, ``compare``, ``robustness`` and
``paper`` accept ``--jobs`` (shard execution over worker processes) and
``--cache-dir`` (serve already-stored shards from the content-addressed
result store); neither affects results.

Every subcommand additionally accepts ``--telemetry DIR`` (write a JSONL
run ledger, default ``$REPRO_TELEMETRY_DIR``), ``--verbose`` (per-shard
progress lines on stderr as cold sweeps execute) and ``--quiet``
(suppress the ``#`` summary lines).  Telemetry is out of band: it draws
no randomness and changes no result bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.telemetry import Collector, capture, record_run

from repro.algorithms.registry import available_algorithms, make_algorithm
from repro.beeping.rng import derive_seed, spawn_rng
from repro.engine.sparse import BACKENDS
from repro.experiments.paper import (
    GOLDEN_AUTO,
    PaperSettings,
    experiment_names,
    run_experiment,
    run_paper,
    select_experiments,
    write_golden,
)
from repro.experiments.records import results_to_csv
from repro.experiments.tables import format_experiment
from repro.graphs.random_graphs import gnp_random_graph
from repro.graphs.structured import grid_graph, hex_lattice_graph
from repro.viz.ascii_plots import plot_experiment

#: Every CLI RNG flows through ``spawn_rng(seed, *path)`` /
#: ``derive_seed`` on a disjoint per-purpose path.  Path 0 draws the
#: graph — shared across commands deliberately, so one ``--seed`` shows
#: the same graph everywhere — and each command's algorithm randomness
#: gets its own path below (``run`` already uses the per-trial paths
#: ``(1, trial)``).  The old scheme seeded ``Random(args.seed + k)``
#: directly, so adjacent seeds collided across commands: ``wakeup --seed
#: 7`` and ``match --seed 8`` both consumed ``Random(9)``.
#: ``tests/test_cli.py`` pins the streams pairwise-distinct.
CLI_GRAPH_STREAM = 0
CLI_ALGO_STREAMS = {
    "color": (2,),
    "match": (3,),
    "wakeup-schedule": (4,),
    "wakeup-run": (5,),
    "animate": (6,),
    "bio": (7,),
}

#: Subcommands that print one paper registry artefact: each is
#: ``repro paper --only NAME`` rendered to stdout.
PAPER_ALIASES = ("figure3", "figure5", "theorem1", "sizes")


def _add_sweep_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """The execution knobs shared by every orchestrator-backed command."""
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for cache-missing shards (default: 1)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result store; reruns are served from it",
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """The observability knobs shared by *every* subcommand."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--telemetry", default=None, metavar="DIR",
        help=(
            "record this run as a JSONL ledger under DIR "
            "(default: $REPRO_TELEMETRY_DIR; results are unaffected)"
        ),
    )
    verbosity = group.add_mutually_exclusive_group()
    verbosity.add_argument(
        "--verbose", "-v", action="store_true",
        help="per-shard progress lines on stderr while sweeps execute",
    )
    verbosity.add_argument(
        "--quiet", "-q", action="store_true",
        help="suppress the trailing '#' summary lines",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction of 'Feedback from nature' (PODC 2013): "
            "beeping-model maximal independent set selection."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one algorithm on one random graph")
    run.add_argument("--algorithm", default="feedback",
                     choices=available_algorithms())
    run.add_argument("--nodes", type=int, default=100)
    run.add_argument("--edge-probability", type=float, default=0.5)
    run.add_argument("--grid", type=int, default=0, metavar="SIDE",
                     help="use a SIDE x SIDE grid instead of G(n, p)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trials", type=int, default=1)

    for entry in select_experiments(PAPER_ALIASES):
        alias = sub.add_parser(
            entry.name, help=f"{entry.title} (paper --only {entry.name})"
        )
        alias.add_argument(
            "--trials", type=int, default=3,
            help="trials per point (default: 3, the committed golden scale)",
        )
        alias.add_argument("--csv", action="store_true", help="emit CSV only")
        _add_sweep_execution_arguments(alias)

    bio = sub.add_parser("bio", help="Notch-Delta lattice simulation")
    bio.add_argument("--rows", type=int, default=8)
    bio.add_argument("--cols", type=int, default=8)
    bio.add_argument("--seed", type=int, default=7)
    bio.add_argument("--t-end", type=float, default=80.0)

    sweep = sub.add_parser(
        "sweep", help="sharded, cached sweep of algorithms x sizes"
    )
    sweep.add_argument(
        "--algorithms", nargs="+", default=["feedback", "afek-sweep"],
        metavar="NAME",
        help="algorithm names (fleet rules or registry algorithms)",
    )
    sweep.add_argument(
        "--engine", choices=("fleet", "reference"), default="fleet"
    )
    sweep.add_argument("--family", choices=("gnp", "grid"), default="gnp")
    sweep.add_argument(
        "--sizes", nargs="+", type=int, default=[50, 100, 200], metavar="N",
        help="graph sizes (grid family: side lengths)",
    )
    sweep.add_argument("--edge-probability", type=float, default=0.5)
    sweep.add_argument("--trials", type=int, default=32)
    sweep.add_argument(
        "--graphs", type=int, default=1,
        help="fleet engine: independent graphs per cell",
    )
    sweep.add_argument(
        "--backend", choices=BACKENDS, default="auto",
        help="engine neighbour-reduction kernel; pure execution strategy, "
        "rows are bit-identical across backends",
    )
    sweep.add_argument(
        "--quantity",
        choices=("rounds", "beeps", "mis-size", "messages", "bits"),
        default="rounds",
    )
    sweep.add_argument("--seed", type=int, default=1900)
    sweep.add_argument("--shard-trials", type=int, default=32)
    sweep.add_argument("--csv", action="store_true", help="emit CSV only")
    _add_sweep_execution_arguments(sweep)

    compare = sub.add_parser(
        "compare",
        help="beeping vs message-passing: rounds + bit complexity",
    )
    compare.add_argument(
        "--algorithms", nargs="+", metavar="NAME",
        default=None,
        help="algorithm names (default: the paper's comparison panel)",
    )
    compare.add_argument(
        "--families", nargs="+", choices=("gnp", "grid"), default=["gnp"],
        help="workload families (grid reads sizes as side lengths)",
    )
    compare.add_argument(
        "--sizes", nargs="+", type=int, default=[50, 100, 200], metavar="N"
    )
    compare.add_argument("--edge-probability", type=float, default=0.5)
    compare.add_argument("--trials", type=int, default=32)
    compare.add_argument(
        "--graphs", type=int, default=1,
        help="fleet engine: independent graphs per cell",
    )
    compare.add_argument(
        "--engine", choices=("auto", "fleet", "reference"), default="auto",
        help="auto: fleet where available, reference otherwise",
    )
    compare.add_argument("--seed", type=int, default=2013)
    compare.add_argument("--shard-trials", type=int, default=32)
    compare.add_argument("--csv", action="store_true", help="emit CSV only")
    compare.add_argument(
        "--churn", nargs="*", default=[], metavar="EVENT",
        help="churn events (leave:R:V sleep:R:V wake:R:V join:R:V:N1+N2) "
             "applied to every cell; adds repair/recovered columns",
    )
    _add_sweep_execution_arguments(compare)

    robust = sub.add_parser(
        "robustness",
        help="fault grid (beep loss x spurious beeps) via the cached sweep",
    )
    robust.add_argument(
        "--algorithm", default="feedback", metavar="NAME",
        help="fleet rule (or registry algorithm with --engine reference)",
    )
    robust.add_argument(
        "--engine", choices=("fleet", "reference"), default="fleet"
    )
    robust.add_argument("--nodes", type=int, default=100)
    robust.add_argument("--edge-probability", type=float, default=0.5)
    robust.add_argument(
        "--loss", nargs="+", type=float, default=[0.0, 0.05, 0.1, 0.2],
        metavar="P", help="beep-loss probabilities (one series per value)",
    )
    robust.add_argument(
        "--spurious", nargs="+", type=float, default=[0.0, 0.05, 0.1],
        metavar="P", help="spurious-beep probabilities (the x-axis)",
    )
    robust.add_argument(
        "--crash", nargs="*", default=[], metavar="ROUND:VERTEX",
        help="fail-stop crashes applied to every grid cell",
    )
    robust.add_argument(
        "--churn", nargs="*", default=[], metavar="EVENT",
        help="churn events (leave:R:V sleep:R:V wake:R:V join:R:V:N1+N2) "
             "applied to every grid cell; adds repair/recovered columns",
    )
    robust.add_argument("--trials", type=int, default=32)
    robust.add_argument(
        "--graphs", type=int, default=1,
        help="fleet engine: independent graphs per cell",
    )
    robust.add_argument(
        "--quantity",
        choices=(
            "rounds", "beeps", "mis-size", "messages", "bits",
            "repair", "recovered",
        ),
        default="rounds",
    )
    robust.add_argument("--seed", type=int, default=1603)
    robust.add_argument("--shard-trials", type=int, default=32)
    robust.add_argument("--csv", action="store_true", help="emit CSV only")
    _add_sweep_execution_arguments(robust)

    color = sub.add_parser("color", help="(Delta+1)-colouring by MIS peeling")
    color.add_argument("--nodes", type=int, default=60)
    color.add_argument("--edge-probability", type=float, default=0.15)
    color.add_argument("--seed", type=int, default=0)
    color.add_argument(
        "--engine", choices=("reference", "fleet"), default="reference",
        help="reference: per-node peeling; fleet: vectorised kernel batch",
    )
    color.add_argument(
        "--trials", type=int, default=8,
        help="fleet engine: lockstep colourings per batch",
    )

    match = sub.add_parser("match", help="maximal matching via line-graph MIS")
    match.add_argument("--nodes", type=int, default=40)
    match.add_argument("--edge-probability", type=float, default=0.1)
    match.add_argument("--seed", type=int, default=0)
    match.add_argument(
        "--engine", choices=("reference", "fleet"), default="reference",
        help="reference: per-node line-graph MIS; fleet: vectorised kernel",
    )
    match.add_argument(
        "--trials", type=int, default=8,
        help="fleet engine: lockstep matchings per batch",
    )

    wakeup = sub.add_parser(
        "wakeup", help="feedback MIS with staggered (wake-on-beep) starts"
    )
    wakeup.add_argument("--nodes", type=int, default=60)
    wakeup.add_argument("--edge-probability", type=float, default=0.3)
    wakeup.add_argument("--max-delay", type=int, default=10)
    wakeup.add_argument("--seed", type=int, default=0)

    paper = sub.add_parser(
        "paper",
        help=(
            "one-command paper pipeline: CSVs + HTML report + run DB, "
            "with drift checking against the committed goldens"
        ),
    )
    paper.add_argument(
        "--trials", type=int, default=3,
        help="trials per point (default: 3, the committed golden scale)",
    )
    paper.add_argument(
        "--out", default="paper-artefacts", metavar="DIR",
        help="output directory for csv/ and report.html",
    )
    paper.add_argument(
        "--only", nargs="+", default=None, metavar="NAME",
        help="run only these registry experiments",
    )
    paper.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless every artefact PASSes the drift check",
    )
    paper.add_argument(
        "--golden", default=None, metavar="DIR",
        help=(
            "golden directory to diff against "
            "(default: tests/experiments/golden_paper when present)"
        ),
    )
    paper.add_argument(
        "--write-golden", default=None, metavar="DIR",
        help="pin this run's CSVs (plus manifest) as the goldens under DIR",
    )
    paper.add_argument(
        "--bench-dir", default=".", metavar="DIR",
        help="directory holding committed BENCH_*.json records",
    )
    paper.add_argument(
        "--rundb", default=None, metavar="DIR",
        help="persistent run database root (default: <out>/rundb)",
    )
    paper.add_argument(
        "--now", default=None, metavar="STAMP",
        help=(
            "stamp the report with this timestamp string (omitting it "
            "keeps reruns byte-identical)"
        ),
    )
    paper.add_argument(
        "--list", action="store_true",
        help="list the registered experiments and exit",
    )
    _add_sweep_execution_arguments(paper)

    animate = sub.add_parser(
        "animate", help="round-by-round text animation of one run"
    )
    animate.add_argument("--nodes", type=int, default=16)
    animate.add_argument("--edge-probability", type=float, default=0.4)
    animate.add_argument("--seed", type=int, default=0)

    stats = sub.add_parser(
        "stats", help="summarise telemetry ledgers and bench-floor drift"
    )
    stats.add_argument(
        "--ledger", default=None, metavar="DIR",
        help="ledger directory (default: --telemetry / $REPRO_TELEMETRY_DIR)",
    )
    stats.add_argument(
        "--run", default=None, metavar="ID",
        help="run id (prefix ok) for the detail section (default: newest)",
    )
    stats.add_argument(
        "--bench-dir", default=".", metavar="DIR",
        help="directory holding committed BENCH_*.json records",
    )
    stats.add_argument(
        "--slowest", type=int, default=5, metavar="N",
        help="how many slowest shards to show (default: 5)",
    )
    stats.add_argument(
        "--rundb", default=None, metavar="DIR",
        help="also list the paper pipeline's run database under DIR",
    )
    stats.add_argument(
        "--json", action="store_true", help="emit the JSON document instead"
    )

    sub.add_parser("list", help="list registered algorithms")
    # Observability is uniform: every subcommand takes the same
    # --telemetry/--verbose/--quiet trio.
    for subparser in sub.choices.values():
        _add_telemetry_arguments(subparser)
    return parser


def _command_run(args: argparse.Namespace) -> int:
    if args.grid:
        graph = grid_graph(args.grid, args.grid)
        workload = f"{args.grid}x{args.grid} grid"
    else:
        graph = gnp_random_graph(
            args.nodes, args.edge_probability, spawn_rng(args.seed, 0)
        )
        workload = f"G({args.nodes}, {args.edge_probability})"
    algorithm = make_algorithm(args.algorithm)
    print(f"algorithm={algorithm.name} workload={workload} "
          f"edges={graph.num_edges}")
    for trial in range(args.trials):
        run = algorithm.run(graph, spawn_rng(args.seed, 1, trial))
        run.verify()
        print(
            f"trial {trial}: rounds={run.rounds} |MIS|={run.mis_size} "
            f"beeps/node={run.mean_beeps_per_node:.2f}"
        )
    return 0


def _command_paper_alias(args: argparse.Namespace) -> int:
    """``figure3``/``figure5``/``theorem1``/``sizes``: one registry entry."""
    (entry,) = select_experiments([args.command])
    artefact = run_experiment(
        entry,
        PaperSettings(
            trials=args.trials, jobs=args.jobs, cache_dir=args.cache_dir
        ),
    )
    if args.csv:
        print(artefact.csv, end="")
        return 0
    result = artefact.result
    print(format_experiment(result, extra_columns=entry.extra_columns))
    print()
    print(
        plot_experiment(result, y_label=entry.y_label, x_label=entry.x_label)
    )
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.records import ExperimentResult
    from repro.sweep.aggregate import cell_point
    from repro.sweep.orchestrator import run_sweep
    from repro.sweep.spec import CellSpec, SweepSpec

    quantity = args.quantity.replace("-", "_")
    cells = []
    for size_index, size in enumerate(args.sizes):
        if args.family == "gnp":
            family = {
                "family": "gnp",
                "n": size,
                "edge_probability": args.edge_probability,
            }
        else:
            family = {"family": "grid", "rows": size, "cols": size}
        for name in args.algorithms:
            # One master seed per size, shared by every algorithm: in
            # reference mode all algorithms then see identical graphs
            # (paired comparisons); cells stay distinct via `algorithm`.
            cells.append(
                CellSpec(
                    algorithm=name,
                    engine=args.engine,
                    trials=args.trials,
                    graphs=args.graphs,
                    master_seed=derive_seed(args.seed, size_index),
                    backend=args.backend,
                    **family,
                )
            )
    spec = SweepSpec(tuple(cells), shard_trials=args.shard_trials)
    sweep = run_sweep(spec, store=args.cache_dir, jobs=args.jobs)
    points = [cell_point(cell, sweep.rows(cell), quantity) for cell in cells]
    result = ExperimentResult(
        experiment="sweep",
        points=points,
        master_seed=args.seed,
        parameters={
            "engine": args.engine,
            "backend": args.backend,
            "family": args.family,
            "sizes": list(args.sizes),
            "trials": args.trials,
            "graphs": args.graphs,
            "quantity": quantity,
            **(
                {"edge_probability": args.edge_probability}
                if args.family == "gnp"
                else {}
            ),
        },
    )
    cache = args.cache_dir if args.cache_dir else "none"
    summary = f"# {sweep.report.summary()} cache={cache}"
    if args.csv:
        # Keep stdout pure CSV (byte-stable, parseable); report on stderr.
        print(results_to_csv(result), end="")
        if not args.quiet:
            print(summary, file=sys.stderr)
    else:
        print(format_experiment(result))
        print()
        print(plot_experiment(result, y_label=quantity))
        if not args.quiet:
            print(summary)
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    from repro.experiments.compare import (
        DEFAULT_ALGORITHMS,
        comparison_csv,
        comparison_experiment,
    )

    churn = _parse_churn_events(args.churn)
    if args.algorithms:
        algorithms = tuple(args.algorithms)
    elif churn:
        # The default panel includes fault-oblivious message kernels;
        # under churn, compare the churn-honouring subset instead.
        algorithms = (
            "feedback", "afek-sweep", "luby-permutation", "luby-probability"
        )
    else:
        algorithms = DEFAULT_ALGORITHMS
    result = comparison_experiment(
        algorithms=algorithms,
        families=tuple(args.families),
        sizes=tuple(args.sizes),
        edge_probability=args.edge_probability,
        trials=args.trials,
        graphs=args.graphs,
        master_seed=args.seed,
        shard_trials=args.shard_trials,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        engine=args.engine,
        churn=churn,
    )
    cache = args.cache_dir if args.cache_dir else "none"
    summary = f"# {result.report.summary()} cache={cache}"
    if args.csv:
        # Keep stdout pure CSV (byte-stable, parseable); report on stderr.
        print(comparison_csv(result), end="")
        if not args.quiet:
            print(summary, file=sys.stderr)
        return 0
    print(f"comparison (seed={args.seed})")
    print(result.table())
    print()
    print(plot_experiment(result.rounds, y_label="rounds"))
    print()
    print(plot_experiment(result.bits_per_node, y_label="bits/node"))
    if not args.quiet:
        print(summary)
    return 0


def _parse_crash_pairs(entries: List[str]) -> tuple:
    """Parse ``--crash`` entries, mapping parse errors to a clean exit."""
    from repro.beeping.faults import parse_crash_spec

    try:
        return parse_crash_spec(entries)
    except ValueError as exc:
        raise SystemExit(f"--crash: {exc}") from None


def _parse_churn_events(entries: List[str]) -> tuple:
    """Parse ``--churn`` entries, mapping parse errors to a clean exit."""
    from repro.beeping.faults import parse_churn_spec

    try:
        return parse_churn_spec(entries)
    except ValueError as exc:
        raise SystemExit(f"--churn: {exc}") from None


def _command_robustness(args: argparse.Namespace) -> int:
    from repro.experiments.robustness import robustness_grid

    quantity = args.quantity.replace("-", "_")
    churn = _parse_churn_events(args.churn)
    result, report = robustness_grid(
        algorithm=args.algorithm,
        engine=args.engine,
        n=args.nodes,
        edge_probability=args.edge_probability,
        loss_probabilities=args.loss,
        spurious_probabilities=args.spurious,
        crashes=_parse_crash_pairs(args.crash),
        churn=churn,
        trials=args.trials,
        graphs=args.graphs,
        master_seed=args.seed,
        quantity=quantity,
        shard_trials=args.shard_trials,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
    )
    cache = args.cache_dir if args.cache_dir else "none"
    summary = f"# {report.summary()} cache={cache}"
    extra_columns = ("repair", "recovered") if churn else ()
    if args.csv:
        # Keep stdout pure CSV (byte-stable, parseable); report on stderr.
        print(results_to_csv(result, extra_columns=extra_columns), end="")
        if not args.quiet:
            print(summary, file=sys.stderr)
    else:
        print(format_experiment(result, extra_columns=extra_columns))
        if churn:
            print("self-repair (mean rounds to re-quiescence, "
                  "recovered fraction): columns repair, recovered")
        print()
        print(
            plot_experiment(
                result, y_label=quantity, x_label="spurious probability"
            )
        )
        if not args.quiet:
            print(summary)
    return 0


def _command_bio(args: argparse.Namespace) -> int:
    from repro.bio.notch_delta import NotchDeltaModel
    from repro.bio.sop import analyze_sop_pattern, select_sops_by_delta
    from repro.viz.graph_render import render_grid_mis

    graph = hex_lattice_graph(args.rows, args.cols)
    model = NotchDeltaModel(graph)
    result = model.run(
        spawn_rng(args.seed, *CLI_ALGO_STREAMS["bio"]), t_end=args.t_end
    )
    sops = select_sops_by_delta(result.final_delta)
    report = analyze_sop_pattern(graph, sops, result.final_delta)
    print(
        f"cells={report.num_cells} SOPs={report.num_sops} "
        f"adjacent-SOP-pairs={report.adjacent_sop_pairs} "
        f"uncovered={report.uncovered_cells} "
        f"delta-separation={report.delta_separation:.3f}"
    )
    print(f"pattern is an MIS of the contact graph: {report.is_mis}")
    print(render_grid_mis(args.rows, args.cols, sops))
    return 0


def _command_color(args: argparse.Namespace) -> int:
    from repro.applications.coloring import mis_coloring

    graph = gnp_random_graph(
        args.nodes, args.edge_probability,
        spawn_rng(args.seed, CLI_GRAPH_STREAM),
    )
    print(
        f"n={graph.num_vertices} m={graph.num_edges} "
        f"max degree={graph.max_degree()}"
    )
    if args.engine == "fleet":
        from repro.beeping.rng import derive_seed_block
        from repro.engine.applications import (
            ApplicationFleetSimulator,
            ColoringRule,
        )

        seeds = derive_seed_block(
            args.seed, *CLI_ALGO_STREAMS["color"], count=args.trials
        )
        run = ApplicationFleetSimulator(graph, ColoringRule()).run_fleet(
            seeds, validate=True
        )
        print(
            f"fleet batch: {run.trials} proper colourings in lockstep "
            f"(bound {graph.max_degree() + 1}); "
            f"mean {float(run.layers.mean()):.2f} colours, "
            f"mean {float(run.rounds.mean()):.1f} total beeping rounds"
        )
        print(
            f"trial 0: {run.num_colors(0)} colours in "
            f"{int(run.rounds[0])} rounds"
        )
        return 0
    result = mis_coloring(
        graph, spawn_rng(args.seed, *CLI_ALGO_STREAMS["color"])
    )
    print(
        f"proper colouring: {result.num_colors} colours "
        f"(bound {graph.max_degree() + 1}), "
        f"{result.total_rounds} total beeping rounds"
    )
    for color, members in sorted(result.color_classes().items()):
        print(f"  colour {color}: {len(members)} vertices")
    return 0


def _command_match(args: argparse.Namespace) -> int:
    from repro.applications.matching import mis_matching

    graph = gnp_random_graph(
        args.nodes, args.edge_probability,
        spawn_rng(args.seed, CLI_GRAPH_STREAM),
    )
    print(f"n={graph.num_vertices} m={graph.num_edges}")
    if args.engine == "fleet":
        from repro.beeping.rng import derive_seed_block
        from repro.engine.applications import (
            ApplicationFleetSimulator,
            MatchingRule,
        )

        seeds = derive_seed_block(
            args.seed, *CLI_ALGO_STREAMS["match"], count=args.trials
        )
        run = ApplicationFleetSimulator(graph, MatchingRule()).run_fleet(
            seeds, validate=True
        )
        sizes = run.membership.sum(axis=1)
        print(
            f"fleet batch: {run.trials} maximal matchings in lockstep "
            f"on the {run.num_vertices}-vertex line graph; "
            f"mean {float(sizes.mean()):.2f} edges, "
            f"mean {float(run.rounds.mean()):.1f} rounds"
        )
        print(
            f"trial 0: {int(sizes[0])} edges in {int(run.rounds[0])} rounds"
        )
        return 0
    result = mis_matching(
        graph, spawn_rng(args.seed, *CLI_ALGO_STREAMS["match"])
    )
    print(
        f"maximal matching: {result.size} edges in {result.rounds} rounds; "
        f"{len(result.matched_vertices())} vertices matched"
    )
    return 0


def _command_wakeup(args: argparse.Namespace) -> int:
    from repro.beeping.wakeup import WakeupSimulation, random_wake_schedule
    from repro.core.policy import ExponentFeedbackNode

    graph = gnp_random_graph(
        args.nodes, args.edge_probability,
        spawn_rng(args.seed, CLI_GRAPH_STREAM),
    )
    schedule = random_wake_schedule(
        graph.num_vertices, args.max_delay,
        spawn_rng(args.seed, *CLI_ALGO_STREAMS["wakeup-schedule"]),
    )
    result = WakeupSimulation(
        graph,
        lambda v: ExponentFeedbackNode(),
        schedule,
        spawn_rng(args.seed, *CLI_ALGO_STREAMS["wakeup-run"]),
    ).run()
    result.verify()
    woken_by_beep = sum(
        1
        for v, actual in result.wake_round.items()
        if actual < schedule[v]
    )
    print(
        f"n={graph.num_vertices} staggered starts over "
        f"[0, {args.max_delay}] rounds"
    )
    print(
        f"MIS of {len(result.mis)} vertices in {result.num_rounds} rounds; "
        f"{woken_by_beep} nodes woken early by a neighbour's beep"
    )
    return 0


def _command_paper(args: argparse.Namespace) -> int:
    if args.list:
        for name in experiment_names():
            print(name)
        return 0
    quiet = getattr(args, "quiet", False)

    def progress(line: str) -> None:
        if not quiet:
            print(f"# {line}")

    pipeline = run_paper(
        trials=args.trials,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        out_dir=args.out,
        only=args.only,
        golden_dir=args.golden if args.golden is not None else GOLDEN_AUTO,
        bench_dir=args.bench_dir,
        rundb_dir=args.rundb,
        now=args.now,
        progress=progress,
    )
    if args.write_golden is not None:
        for path in write_golden(pipeline, args.write_golden):
            progress(f"golden pinned: {path}")
    for verdict in pipeline.drift:
        progress(f"drift {verdict.artefact}: {verdict.status} "
                 f"({verdict.detail})")
    progress(f"report: {pipeline.report_path}")
    if args.check and not pipeline.check_passed:
        print("paper --check FAILED: artefacts drifted from the goldens "
              "(or were unverifiable)", file=sys.stderr)
        return 1
    return 0


def _command_animate(args: argparse.Namespace) -> int:
    from repro.beeping.events import Trace
    from repro.beeping.scheduler import BeepingSimulation
    from repro.core.policy import ExponentFeedbackNode
    from repro.viz.animation import render_animation

    graph = gnp_random_graph(
        args.nodes, args.edge_probability,
        spawn_rng(args.seed, CLI_GRAPH_STREAM),
    )
    trace = Trace()
    result = BeepingSimulation(
        graph,
        lambda v: ExponentFeedbackNode(),
        spawn_rng(args.seed, *CLI_ALGO_STREAMS["animate"]),
        trace=trace,
    ).run()
    result.verify()
    print(render_animation(trace, graph.num_vertices))
    print(
        f"\ndone in {result.num_rounds} rounds; "
        f"MIS = {sorted(result.mis)}"
    )
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import format_stats, stats_payload

    root = args.ledger or _telemetry_root(args)
    if root is None and args.rundb is None:
        raise SystemExit(
            "repro stats needs a ledger directory (--ledger/--telemetry or "
            "REPRO_TELEMETRY_DIR) or a run database (--rundb)"
        )
    if args.json:
        print(
            json.dumps(
                stats_payload(
                    root, args.bench_dir, args.run, slowest=args.slowest,
                    rundb_dir=args.rundb,
                ),
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(
        format_stats(
            root, args.bench_dir, args.run, slowest=args.slowest,
            rundb_dir=args.rundb,
        )
    )
    return 0


def _command_list(_args: argparse.Namespace) -> int:
    for name in available_algorithms():
        print(name)
    return 0


_COMMANDS = {
    "run": _command_run,
    **{name: _command_paper_alias for name in PAPER_ALIASES},
    "sweep": _command_sweep,
    "compare": _command_compare,
    "robustness": _command_robustness,
    "bio": _command_bio,
    "color": _command_color,
    "match": _command_match,
    "wakeup": _command_wakeup,
    "paper": _command_paper,
    "animate": _command_animate,
    "stats": _command_stats,
    "list": _command_list,
}


def _telemetry_root(args: argparse.Namespace) -> Optional[str]:
    """The ledger root: ``--telemetry`` first, then the environment."""
    explicit = getattr(args, "telemetry", None)
    if explicit:
        return explicit
    return os.environ.get("REPRO_TELEMETRY_DIR") or None


def _progress_sink(event: dict) -> None:
    """``--verbose``: narrate sweep progress from the probe stream.

    Runs as a collector sink, so cold sweeps report each executed shard
    the moment its worker finishes — no engine or orchestrator code knows
    the CLI is watching.
    """
    name = event.get("name")
    if event.get("event") == "span" and name == "sweep.shard":
        attrs = event.get("attrs", {})
        if attrs.get("cached"):
            return
        print(
            f"# shard {attrs.get('index', '?')}/{attrs.get('total', '?')} "
            f"{attrs.get('algorithm', '?')}[n={attrs.get('n', '?')} "
            f"{attrs.get('lo', '?')}:{attrs.get('hi', '?')}] "
            f"{float(event.get('seconds', 0.0)):.3f}s",
            file=sys.stderr,
        )
    elif event.get("event") == "annotation" and name == "sweep.resume":
        attrs = event.get("attrs", {})
        print(
            f"# resuming: {attrs.get('cached', '?')} shards cached, "
            f"{attrs.get('missing', '?')} to execute",
            file=sys.stderr,
        )


def _dispatch(args: argparse.Namespace) -> int:
    """Run the parsed command.

    An out-of-range argument (``--trials 0``, ``--edge-probability 2``, a
    churn-blind algorithm under ``--churn``) surfaces as a ``ValueError``
    from the layer that validates it: a usage error, not a crash, so it
    exits argparse-style.
    """
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``.

    With ``--telemetry``/``$REPRO_TELEMETRY_DIR`` set, the whole command
    runs inside :func:`repro.telemetry.record_run`, so every probe the
    layers below fire lands in one per-run JSONL ledger; ``--verbose``
    additionally streams shard progress to stderr.  Neither changes any
    result byte (``stats`` only *reads* ledgers and is never recorded).
    """
    args = _build_parser().parse_args(argv)
    root = _telemetry_root(args) if args.command != "stats" else None
    verbose = getattr(args, "verbose", False)
    if root is None and not verbose:
        return _dispatch(args)
    collector = Collector()
    if verbose:
        collector.add_sink(_progress_sink)
    if root is not None:
        recorded_argv = list(argv) if argv is not None else sys.argv[1:]
        with record_run(root, args.command, recorded_argv, collector):
            return _dispatch(args)
    with capture(collector):
        return _dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
