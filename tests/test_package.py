"""Package-level sanity: public API surface, version, doctests, the
guards that every module, every public name or method and every defaulted
parameter is reached by a command (or a listed root) or asserted by a
test, and the benchmark tracer's layer targets."""

import ast
import doctest
import functools
import importlib
import re
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
}

#: Public names and methods, as ``"module:qualname"``, in modules a command
#: reaches, that no command, claim module, example, tutorial block or
#: perfbench harness mentions; each mapped to the test node id or benchmark
#: that asserts what it computes.  Any other such name is dead code.
CLAIM_NAMES = {
    "analysis.theory:clique_progress_upper_bound": (
        "tests/analysis/test_theory.py::TestCliqueProgress"
    ),
    "analysis.theory:expected_rounds_complete_graph_first_join": (
        "tests/analysis/test_theory.py::TestCompleteGraphSlowness"
    ),
    # The per-node reference the application kernels are locked to.
    "applications.ruling_sets:ruling_set": (
        "tests/engine/test_applications.py::TestReferenceExactConformance"
        "::test_ruling"
    ),
    "engine.rules:GlobalScheduleRule": (
        "tests/engine/test_rules.py::TestGlobalScheduleRule"
    ),
    "experiments.figures:figure1_example": (
        "benchmarks/bench_fig1_example.py::test_fig1_regenerate"
    ),
    "experiments.paper:EXEMPT_MODULES": (
        "tests/experiments/test_paper.py::TestRegistry"
        "::test_every_experiment_module_is_registered_or_exempt"
    ),
    # The edgeless graph of the conformance suites.
    "graphs.structured:empty_graph": (
        "tests/engine/test_conformance.py::TestArmadaConformance"
        "::test_armada_backends_agree"
    ),
    "viz.graph_render:to_dot": (
        "benchmarks/bench_fig1_example.py::test_fig1_report"
    ),
}

#: Defaulted parameters, as ``"module:qualname(parameter)"``, of public
#: functions and methods in modules a command reaches, that no root passes;
#: each mapped to the test node id or benchmark that passes it to check a
#: paper claim, an engine contract or a test hook.  Any other such
#: parameter is a setting nothing uses: inline its default.
CLAIM_PARAMS = {
    # Section 6: the robustness variants are per-node policy factories.
    "algorithms.feedback:FeedbackMIS.__init__(node_factory)": (
        "tests/algorithms/test_feedback.py::TestBasics::test_custom_factory"
    ),
    # The adversarial ID assignment behind the linear worst case.
    "algorithms.local_minimum:LocalMinimumIDMIS.__init__(ids)": (
        "tests/algorithms/test_local_minimum.py::TestWorstCase"
        "::test_adversarial_path_is_linear"
    ),
    # Section 4: K_n is exponentially slow at p = 1/2, fast at p = 1/n.
    "analysis.theory:expected_rounds_complete_graph_first_join(p)": (
        "tests/analysis/test_theory.py::TestCompleteGraphSlowness"
        "::test_fast_at_good_probability"
    ),
    # The per-node reductions on EngineMIS are the kernels' exact
    # references.
    "applications.dominating:mis_dominating_set(algorithm)": (
        "tests/engine/test_applications.py::TestReferenceExactConformance"
        "::test_dominating"
    ),
    "applications.matching:mis_matching(algorithm)": (
        "tests/engine/test_applications.py::TestReferenceExactConformance"
        "::test_matching"
    ),
    "applications.ruling_sets:ruling_set(algorithm)": (
        "tests/engine/test_applications.py::TestReferenceExactConformance"
        "::test_ruling"
    ),
    # Tests drive the CLI in process.
    "cli:main(argv)": "tests/test_cli.py::TestList::test_lists_algorithms",
    # Section 6: a probability floor is one of the robust variants.
    "core.policy:FeedbackNode.__init__(min_probability)": (
        "tests/core/test_policy.py::TestFeedbackNode::test_floor_respected"
    ),
    # Backends are bit-identical: the conformance contract.
    "engine.applications:ApplicationFleetSimulator.__init__(backend)": (
        "tests/engine/test_applications.py::TestBitEquality"
        "::test_dense_equals_sparse"
    ),
    "engine.batch:run_batch(backend)": (
        "tests/engine/test_conformance.py::TestBatchConformance"
        "::test_run_batch_backends_agree"
    ),
    "engine.batch:run_batch(faults)": (
        "tests/engine/test_conformance.py::TestFaultConformance"
        "::test_fleet_batch_matches_loop_under_faults"
    ),
    "engine.batch:run_batch(rng_mode)": (
        "tests/engine/test_conformance.py::TestBatchConformance"
        "::test_fleet_batch_matches_loop"
    ),
    # Zero frontier entries keeps every round full width: the reference
    # the frontier tail is checked against.
    "engine.fleet:ArmadaSimulator.__init__(frontier_entries)": (
        "tests/engine/test_conformance.py::TestArmadaConformance"
        "::test_masked_laned_lockstep_matches_induced_subgraph_fleet"
    ),
    "engine.fleet:FleetSimulator.run_fleet(record_beeps)": (
        "tests/engine/test_conformance.py"
        "::test_frontier_tail_equals_full_width_rounds"
    ),
    "engine.messages:MessageFleetSimulator.__init__(backend)": (
        "tests/engine/test_messages.py::TestBitEquality"
        "::test_dense_equals_sparse"
    ),
    # The Figure 1A rendering marks the selected set.
    "viz.graph_render:to_dot(highlighted)": (
        "benchmarks/bench_fig1_example.py::test_fig1_report"
    ),
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


@functools.lru_cache(maxsize=None)
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
    return frozenset(reached)


def _leaf_modules():
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }


def _claim_scope(target):
    """The AST body a ``path::Class::test`` claim target names, failing
    when the file or any name along the path does not exist."""
    path, *names = target.split("::")
    assert (REPO / path).is_file(), path
    scope = ast.parse((REPO / path).read_text(encoding="utf-8")).body
    for name in names:
        matches = [
            node for node in scope
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and node.name == name
        ]
        assert matches, f"{target} names no test"
        scope = matches[0].body
    return scope


_IDENTIFIER_PATH = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _identifiers(tree):
    """``(identifier, line, bare)`` for every identifier ``tree`` mentions:
    names, attributes, import aliases and ``"Class.method"``-shaped
    strings; ``bare`` marks a plain ``Name``, which a method is never
    reached through."""
    for node in ast.walk(tree):
        bare = isinstance(node, ast.Name)
        if bare:
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = node.name.split(".") + [node.asname]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if not _IDENTIFIER_PATH.fullmatch(node.value):
                continue
            names = node.value.split(".")
        else:
            continue
        line = getattr(node, "lineno", None)
        for name in filter(None, names):
            yield name, line, bare


def _parse(module):
    return ast.parse(_source(module).read_text(encoding="utf-8"))


def _checked_modules():
    """The modules a command reaches, whose public names are checked."""
    return sorted(
        module for module in _reached_from_cli()
        if _source(module).name != "__init__.py"
    )


def _public_definitions(tree):
    """``(qualname, first line, last line)`` of each public top-level name
    of a module's ``tree`` and each public method of its public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_"):
                continue
            yield name, node.lineno, node.end_lineno
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("_")
                ):
                    yield f"{name}.{item.name}", item.lineno, item.end_lineno


def _root_trees():
    """``(module, tree)`` of every root of the name guard; ``module`` is
    ``None`` outside the package."""
    modules = set(_checked_modules())
    modules |= {f"repro.{module}" for module in CLAIM_MODULES}
    for module in sorted(modules):
        yield module, _parse(module)
    # Its strings are the names ``import repro`` promises.
    yield None, ast.parse(repr(repro.__all__))
    # perfbench is read here, never edited: its Tracer looks its layer
    # targets up by (module, "Class.method") strings.
    for folder in ("examples", "perfbench"):
        for path in sorted((REPO / folder).glob("*.py")):
            yield None, ast.parse(path.read_text(encoding="utf-8"))
    tutorial = (REPO / "docs" / "TUTORIAL.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", tutorial, flags=re.DOTALL):
        yield None, ast.parse(block)


def _unreached(checked, roots):
    """``"module:qualname"`` of every public name and method of the
    ``checked`` ``{module: tree}`` that no ``(module, tree)`` root mentions
    outside the name's own definition.

    Methods are matched by name only, not resolved to their class.  The
    guard can therefore miss an orphan method whose name a reached
    method of another class shares, but it never flags a reached name.
    A method counts as reached only through an attribute, an import
    alias or a string: a local variable of the same name is not a use.
    """
    seen, members = {}, {}
    for module, tree in roots:
        for name, line, bare in _identifiers(tree):
            seen.setdefault(name, set()).add((module, line))
            if not bare:
                members.setdefault(name, set()).add((module, line))
    unreached = set()
    for module, tree in checked.items():
        for qualname, first, last in _public_definitions(tree):
            owner, _, name = qualname.rpartition(".")
            uses = (members if owner else seen).get(name, ())
            if all(
                where == module and first <= line <= last
                for where, line in uses
            ):
                unreached.add(f"{module}:{qualname}")
    return unreached


def _unreached_names():
    """:func:`_unreached` over the command-reached modules and every root,
    keyed like :data:`CLAIM_NAMES`."""
    checked = {module: _parse(module) for module in _checked_modules()}
    return {
        key[len("repro."):] for key in _unreached(checked, _root_trees())
    }


def _defaulted_parameters(tree):
    """``(qualname, parameter, index, first, last)`` of every parameter
    with a default of a module's public functions and of the public
    methods and ``__init__`` of its public classes (dataclass fields are
    not parameters here).  ``index`` is the positional slot a call fills
    (``None`` when keyword-only); ``first`` and ``last`` bound the
    function or, for a method, its class."""

    def defaults(qualname, function, owner, bound):
        arguments = function.args
        positional = arguments.posonlyargs + arguments.args
        offset = len(positional) - len(arguments.defaults)
        for index, argument in enumerate(positional[offset:], offset):
            yield (
                qualname, argument.arg, index - bound,
                owner.lineno, owner.end_lineno,
            )
        for argument, default in zip(
            arguments.kwonlyargs, arguments.kw_defaults
        ):
            if default is not None:
                yield (
                    qualname, argument.arg, None,
                    owner.lineno, owner.end_lineno,
                )

    for node in tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            yield from defaults(node.name, node, node, 0)
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and (
                item.name == "__init__" or not item.name.startswith("_")
            ):
                static = any(
                    getattr(decorator, "id", None) == "staticmethod"
                    for decorator in item.decorator_list
                )
                yield from defaults(
                    f"{node.name}.{item.name}", item, node, int(not static)
                )


def _passes(call, parameter, index):
    """Whether ``call`` hands a value to ``parameter``: by keyword, by
    position, or through a ``*``/``**`` splat that may carry it."""
    return (
        any(isinstance(argument, ast.Starred) for argument in call.args)
        or any(keyword.arg in (None, parameter) for keyword in call.keywords)
        or (index is not None and len(call.args) > index)
    )


def _callee_names(qualname):
    """The names a call of ``qualname`` is spelled with: a function's or
    method's own name, or for a constructor its class or ``__init__``."""
    owner, _, name = qualname.rpartition(".")
    return (owner, name) if name == "__init__" else (name,)


def _calls(tree):
    """``(name, call)`` for every call in ``tree`` of a plain name or an
    attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name is not None:
                yield name, node


def _unset(checked, roots):
    """``"module:qualname(parameter)"`` of every defaulted parameter of the
    ``checked`` ``{module: tree}`` that no call in a ``(module, tree)``
    root passes, calls inside the parameter's own function or class aside.

    Calls are matched by the called name only, not resolved to their
    target: a call of any function or method of the same name passes the
    parameter too.  The guard can therefore miss an orphan parameter, but
    it never flags one that a root passes by name.
    """
    calls = {}
    for module, tree in roots:
        for name, call in _calls(tree):
            calls.setdefault(name, []).append((module, call))
    unset = set()
    for module, tree in checked.items():
        for qualname, parameter, index, first, last in (
            _defaulted_parameters(tree)
        ):
            if not any(
                _passes(call, parameter, index)
                for name in _callee_names(qualname)
                for where, call in calls.get(name, ())
                if not (where == module and first <= call.lineno <= last)
            ):
                unset.add(f"{module}:{qualname}({parameter})")
    return unset


def _unset_parameters():
    """:func:`_unset` over the command-reached modules and every root,
    keyed like :data:`CLAIM_PARAMS`."""
    checked = {module: _parse(module) for module in _checked_modules()}
    return {key[len("repro."):] for key in _unset(checked, _root_trees())}


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
        _claim_scope(CLAIM_MODULES[module])


class TestNoOrphanNames:
    def test_every_public_name_is_reached_or_claimed(self):
        unreached = _unreached_names()
        orphans = sorted(unreached - set(CLAIM_NAMES))
        assert not orphans, (
            f"{orphans} are mentioned by no command, claim module, example, "
            "tutorial block or perfbench harness: delete them or map them "
            "in CLAIM_NAMES"
        )
        stale = sorted(set(CLAIM_NAMES) - unreached)
        assert not stale, (
            f"CLAIM_NAMES lists {stale}, which a root now reaches or which "
            "no longer exist"
        )

    @pytest.mark.parametrize("key", sorted(CLAIM_NAMES))
    def test_claim_target_uses_the_name(self, key):
        scope = _claim_scope(CLAIM_NAMES[key])
        name = key.rsplit(":", 1)[-1].rsplit(".", 1)[-1]
        used = {
            identifier
            for identifier, _, _ in _identifiers(ast.Module(scope, []))
        }
        assert name in used, f"{CLAIM_NAMES[key]} never uses {name}"


class TestNameGuardRule:
    """:func:`_unreached` on one small module ``m`` and one outside root."""

    MODULE = """
def orphan():
    return orphan()

def used():
    pass

class Box:
    def shown(self):
        pass

def _private():
    pass
"""

    @staticmethod
    def unreached(root):
        module = ast.parse(TestNameGuardRule.MODULE)
        return _unreached({"m": module}, [("m", module), (None, ast.parse(root))])

    @pytest.mark.parametrize(
        "root, key",
        [
            ("used()", "m:used"),
            ("import m\nm.used", "m:used"),
            ("from m import used as alias", "m:used"),
            ("Box", "m:Box"),
            ("box.shown()", "m:Box.shown"),
            ('target = ("m", "Box.shown")', "m:Box.shown"),
            # Name-only matching: any ``.shown`` reaches every class's.
            ("other.shown", "m:Box.shown"),
        ],
    )
    def test_a_mention_reaches_the_name(self, root, key):
        assert key not in self.unreached(root)

    def test_unmentioned_names_are_flagged(self):
        assert self.unreached("") == {
            "m:orphan", "m:used", "m:Box", "m:Box.shown"
        }

    def test_a_name_inside_its_own_definition_does_not_count(self):
        assert "m:orphan" in self.unreached("used, Box")

    def test_a_mention_in_a_docstring_or_text_does_not_count(self):
        assert "m:used" in self.unreached('"""used() is documented"""')

    def test_a_local_variable_does_not_reach_a_method(self):
        assert "m:Box.shown" in self.unreached("shown = 1\nprint(shown)")


_PARAMETER_KEY = re.compile(r"([\w.]+):([\w.]+)\((\w+)\)")


class TestNoOrphanParameters:
    def test_every_defaulted_parameter_is_passed_or_claimed(self):
        unset = _unset_parameters()
        orphans = sorted(unset - set(CLAIM_PARAMS))
        assert not orphans, (
            f"{orphans} are passed by no command, claim module, example, "
            "tutorial block or perfbench harness: inline their defaults "
            "or map them in CLAIM_PARAMS"
        )
        stale = sorted(set(CLAIM_PARAMS) - unset)
        assert not stale, (
            f"CLAIM_PARAMS lists {stale}, which a root now passes or which "
            "no longer exist"
        )

    @pytest.mark.parametrize("key", sorted(CLAIM_PARAMS))
    def test_claim_target_passes_the_parameter(self, key):
        module, qualname, parameter = _PARAMETER_KEY.fullmatch(key).groups()
        (index,) = [
            index
            for name, argument, index, _, _ in _defaulted_parameters(
                _parse(f"repro.{module}")
            )
            if (name, argument) == (qualname, parameter)
        ]
        scope = ast.Module(_claim_scope(CLAIM_PARAMS[key]), [])
        assert any(
            name in _callee_names(qualname) and _passes(call, parameter, index)
            for name, call in _calls(scope)
        ), f"{CLAIM_PARAMS[key]} never passes {parameter}"


class TestParameterGuardRule:
    """:func:`_unset` on one small module ``m`` and one outside root."""

    MODULE = """
def f(a, b=1, *, c=2):
    return f(a, b=3, c=4)

class Box:
    def __init__(self, size=1):
        pass

    def shown(self, width=2):
        return self.shown(width=3)

    @staticmethod
    def make(size=1):
        return Box(size)

def _private(d=1):
    pass
"""

    ALL = {
        "m:f(b)", "m:f(c)", "m:Box.__init__(size)", "m:Box.shown(width)",
        "m:Box.make(size)",
    }

    @staticmethod
    def unset(root):
        module = ast.parse(TestParameterGuardRule.MODULE)
        return _unset({"m": module}, [("m", module), (None, ast.parse(root))])

    @pytest.mark.parametrize(
        "root, key",
        [
            ("f(0, b=2)", "m:f(b)"),
            ("m.f(0, c=2)", "m:f(c)"),
            ("f(0, 2)", "m:f(b)"),
            ("Box(3)", "m:Box.__init__(size)"),
            ("super().__init__(size=3)", "m:Box.__init__(size)"),
            # A method's first positional argument follows ``self``...
            ("box.shown(3)", "m:Box.shown(width)"),
            # ...a static method's does not.
            ("Box.make(3)", "m:Box.make(size)"),
            ("f(*args)", "m:f(b)"),
            ("f(0, **options)", "m:f(c)"),
            # Name-only matching: any ``.shown`` call passes every class's.
            ("other.shown(width=3)", "m:Box.shown(width)"),
        ],
    )
    def test_a_call_passing_the_parameter_reaches_it(self, root, key):
        assert key not in self.unset(root)

    def test_unpassed_parameters_are_flagged(self):
        assert self.unset("f(0)\nBox()\nbox.shown()\nBox.make()") == self.ALL

    def test_a_keyword_only_parameter_is_never_positional(self):
        assert "m:f(c)" in self.unset("f(0, 1, 2)")

    def test_a_call_inside_its_own_function_or_class_does_not_count(self):
        assert self.unset("") == self.ALL

    def test_a_splat_of_another_function_does_not_count(self):
        assert "m:f(b)" in self.unset("g(*args)")


def _layer_targets():
    """``perfbench/layers.py``'s ``LAYER_TARGETS`` literal as ``(module,
    attribute)`` pairs, read from its source without running it."""
    tree = ast.parse(
        (REPO / "perfbench" / "layers.py").read_text(encoding="utf-8")
    )
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.AnnAssign)
        and getattr(node.target, "id", None) == "LAYER_TARGETS"
    ]
    return [
        target
        for targets in ast.literal_eval(table).values()
        for target in targets
    ]


class TestPerfbenchLayerTargets:
    """Every name the benchmark's tracer wraps resolves as ``Tracer.install``
    looks it up, so a rename or deletion fails tier-1, not only a traced
    perfbench run."""

    @pytest.mark.parametrize(
        "module_name, attribute",
        _layer_targets(),
        ids=lambda value: value,
    )
    def test_target_resolves(self, module_name, attribute):
        module = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            assert method in vars(getattr(module, class_name)), attribute
        else:
            assert callable(getattr(module, attribute)), attribute

