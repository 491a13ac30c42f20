"""Package-level sanity: public API surface, version, doctests, and the
guard that every module is reached by a command or asserted by a test."""

import ast
import doctest
import importlib
import runpy
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: Modules no ``repro`` command imports, each mapped to the test node id,
#: example or benchmark that asserts what it computes.  A module that is
#: neither reached from :mod:`repro.cli` nor listed here is dead code.
CLAIM_MODULES = {
    "__main__": "tests/test_package.py::test_python_m_repro_runs_the_cli",
    "analysis.convergence": (
        "tests/analysis/test_convergence.py::TestOnRealRuns"
    ),
    "analysis.markov": "tests/analysis/test_markov.py::TestAgainstSimulation",
    "analysis.regression": "tests/experiments/test_paper.py::TestGoldenClaims",
    "analysis.statistics": (
        "tests/analysis/test_statistics.py::TestConfidenceInterval"
    ),
    "bio.stochastic": "tests/bio/test_stochastic.py::TestSelection",
    "core.automaton": (
        "tests/core/test_automaton.py::TestAgreementWithScheduler"
    ),
    "core.beep_accounting": (
        "tests/core/test_beep_accounting.py::TestTheorem6Bounds"
    ),
    "core.instrumentation": (
        "tests/core/test_instrumentation.py::TestClassification"
    ),
    "core.variants": "tests/core/test_variants.py::TestHeterogeneousFactory",
    "experiments.ablations": (
        "tests/experiments/test_ablations.py::TestFactorAblation"
    ),
    "graphs.io": "tests/graphs/test_io.py::TestEdgeList",
}

MODULES_WITH_DOCTESTS = [
    "repro.beeping.rng",
    "repro.algorithms.afek_sweep",
    "repro.algorithms.greedy",
    "repro.graphs.graph",
]


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_names_unique(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graphs",
            "repro.beeping",
            "repro.core",
            "repro.algorithms",
            "repro.engine",
            "repro.bio",
            "repro.analysis",
            "repro.experiments",
            "repro.viz",
            "repro.cli",
        ],
    )
    def test_subpackages_importable_with_all(self, module_name):
        module = importlib.import_module(module_name)
        if hasattr(module, "__all__"):
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.{name}"


@pytest.mark.parametrize("module_name", MODULES_WITH_DOCTESTS)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    failures, _tests = doctest.testmod(module)
    assert failures == 0


def test_package_quickstart():
    """The README quickstart must keep working."""
    from random import Random

    from repro import FeedbackMIS, gnp_random_graph, verify_mis

    graph = gnp_random_graph(50, 0.5, Random(1))
    run = FeedbackMIS().run(graph, Random(2))
    verify_mis(graph, run.mis)
    assert run.rounds >= 1


def test_python_m_repro_runs_the_cli(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["repro", "list"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("repro", run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.split() == repro.available_algorithms()


def _source(module):
    path = SRC.joinpath(*module.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def _absolute(node, module):
    """The dotted module an ``ImportFrom`` inside ``module`` names."""
    if node.level == 0:
        return node.module
    package = module.split(".")
    if _source(module).name != "__init__.py":
        package = package[:-1]
    package = package[: len(package) - node.level + 1]
    return ".".join(package + ([node.module] if node.module else []))


def _defining_module(package, name):
    """The module a package's ``from package import name`` really loads:
    a submodule, or the module the package ``__init__`` re-exports from."""
    if _source(f"{package}.{name}").exists():
        return f"{package}.{name}"
    init = _source(package)
    if init.name != "__init__.py":
        return package
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and any(
            (alias.asname or alias.name) == name for alias in node.names
        ):
            return _defining_module(_absolute(node, package), name)
    return package


def _direct_imports(module):
    """Every ``repro`` module ``module`` imports, at any nesting depth."""
    tree = ast.parse(_source(module).read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(
                alias.name for alias in node.names
                if alias.name.split(".")[0] == "repro"
            )
        elif isinstance(node, ast.ImportFrom):
            target = _absolute(node, module)
            if target and target.split(".")[0] == "repro":
                found.update(
                    _defining_module(target, alias.name)
                    for alias in node.names
                )
    return found


def _reached_from_cli():
    reached, frontier = set(), ["repro.cli"]
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        # A package's __init__ only re-exports; the names a module takes
        # from it were resolved to their defining modules above.
        if _source(module).name != "__init__.py":
            frontier.extend(_direct_imports(module) - reached)
    return reached


def _leaf_modules():
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }


class TestNoOrphanModules:
    def test_every_module_is_reached_or_claimed(self):
        unreached = {
            module[len("repro."):]
            for module in _leaf_modules() - _reached_from_cli()
        }
        orphans = sorted(unreached - set(CLAIM_MODULES))
        assert not orphans, (
            f"modules {orphans} are imported by no command and asserted "
            "by no listed test: delete them or map them in CLAIM_MODULES"
        )
        stale = sorted(set(CLAIM_MODULES) - unreached)
        assert not stale, (
            f"CLAIM_MODULES lists {stale}, which a command now reaches or "
            "which no longer exist"
        )

    @pytest.mark.parametrize("module", sorted(CLAIM_MODULES))
    def test_claim_target_exists(self, module):
        path, *names = CLAIM_MODULES[module].split("::")
        assert (REPO / path).is_file(), path
        scope = ast.parse((REPO / path).read_text(encoding="utf-8")).body
        for name in names:
            matches = [
                node for node in scope
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                and node.name == name
            ]
            assert matches, f"{CLAIM_MODULES[module]} names no test"
            scope = matches[0].body
