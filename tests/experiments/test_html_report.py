"""Property tests for the self-contained HTML report renderer."""

from html.parser import HTMLParser
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.html_report import render_paper_report, result_table
from repro.experiments.paper import ExperimentArtefact
from repro.experiments.records import ExperimentResult, SeriesPoint

#: Elements that never take a closing tag in HTML.
_VOID_ELEMENTS = {
    "area", "base", "br", "col", "embed", "hr", "img", "input",
    "link", "meta", "param", "source", "track", "wbr",
}


class _WellFormedChecker(HTMLParser):
    """Asserts balanced tags and collects the text content."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.text = []
        self.errors = []

    def handle_starttag(self, tag, attrs):
        if tag not in _VOID_ELEMENTS:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        # Self-closed (SVG-style) tags open and close in place.
        pass

    def handle_endtag(self, tag):
        if tag in _VOID_ELEMENTS:
            return
        if not self.stack:
            self.errors.append(f"closing </{tag}> with nothing open")
        elif self.stack[-1] != tag:
            self.errors.append(
                f"closing </{tag}> but <{self.stack[-1]}> is open"
            )
        else:
            self.stack.pop()

    def handle_data(self, data):
        self.text.append(data)


def assert_well_formed(document):
    checker = _WellFormedChecker()
    checker.feed(document)
    checker.close()
    assert not checker.errors, checker.errors
    assert not checker.stack, f"unclosed tags: {checker.stack}"
    return checker


# Text strategies deliberately include markup metacharacters: the
# escaping contract is that *no* user-controlled string can inject tags.
_names = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs", "Cc"),
    ),
    min_size=1,
    max_size=24,
)
_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)


@st.composite
def experiment_results(draw):
    num_points = draw(st.integers(min_value=0, max_value=6))
    points = [
        SeriesPoint(
            series=draw(_names),
            x=draw(_floats),
            mean=draw(_floats),
            std=draw(st.floats(0, 1e3, allow_nan=False)),
            trials=draw(st.integers(0, 100)),
        )
        for _ in range(num_points)
    ]
    return ExperimentResult(
        experiment=draw(_names), points=points, master_seed=draw(
            st.integers(0, 2**31)
        )
    )


def make_artefact(result, name="x", title="t", description="d"):
    """A pipeline artefact around ``result`` with fixed provenance."""
    return ExperimentArtefact(
        name=name,
        title=title,
        description=description,
        csv="",
        result=result,
        spec_hash="0123456789ab" + "f" * 52,
        trials=3,
        seed=7,
        y_label="value",
        x_label="n",
    )


@st.composite
def artefacts(draw):
    return ExperimentArtefact(
        name=draw(_names),
        title=draw(_names),
        description=draw(_names),
        csv="",
        result=draw(experiment_results()),
        spec_hash=draw(
            st.text("0123456789abcdef", min_size=64, max_size=64)
        ),
        trials=draw(st.integers(1, 100)),
        seed=draw(st.integers(0, 2**31)),
        y_label=draw(_names),
        x_label=draw(_names),
    )


class TestRenderedDocument:
    @settings(max_examples=40, deadline=None)
    @given(
        figures=st.lists(artefacts(), max_size=3),
        provenance=st.dictionaries(_names, _names, max_size=4),
        drift=st.lists(
            st.tuples(
                _names,
                st.sampled_from(["PASS", "DRIFT", "MISSING", "SKIP"]),
                _names,
            ),
            max_size=4,
        ),
    )
    def test_always_well_formed_html(self, figures, provenance, drift):
        document = render_paper_report(
            figures, provenance=provenance, drift_rows=drift
        )
        assert document.startswith("<!DOCTYPE html>")
        assert_well_formed(document)

    @settings(max_examples=25, deadline=None)
    @given(result=experiment_results())
    def test_figures_with_points_embed_an_svg(self, result):
        document = render_paper_report([make_artefact(result)], provenance={})
        if result.points:
            assert "<svg" in document
        assert_well_formed(document)

    def test_meta_line_links_the_csv_and_spec_prefix(self):
        document = render_paper_report(
            [make_artefact(ExperimentResult("e", [], 0), name="grid")],
            provenance={},
        )
        assert (
            '<p class="meta">csv: <code>csv/grid.csv</code> · '
            "spec: <code>0123456789ab</code> · seed: <code>7</code> · "
            "trials: <code>3</code></p>"
        ) in document
        assert '<p class="meta">no data points</p>' in document

    def test_hostile_strings_are_escaped(self):
        hostile = '<script>alert("pwn")</script>'
        result = ExperimentResult(
            experiment=hostile,
            points=[
                SeriesPoint(series=hostile, x=1.0, mean=2.0, std=0.0,
                            trials=3)
            ],
            master_seed=1,
        )
        figure = make_artefact(
            result, name=hostile, title=hostile, description=hostile
        )
        document = render_paper_report(
            [figure],
            provenance={hostile: hostile},
            drift_rows=[(hostile, "DRIFT", hostile)],
            title=hostile,
            now=hostile,
        )
        assert "<script>" not in document
        assert_well_formed(document)

    def test_byte_identical_regeneration(self):
        result = ExperimentResult(
            experiment="e",
            points=[
                SeriesPoint(series="s", x=1.0, mean=2.0, std=0.5, trials=3)
            ],
            master_seed=9,
        )
        figure = make_artefact(result, name="e", title="T", description="D")
        render = lambda: render_paper_report(  # noqa: E731
            [figure], provenance={"python": "3"}, drift_rows=[("e", "PASS", "ok")]
        )
        assert render() == render()

    def test_bench_rows_render_as_a_table(self):
        rows = [
            SimpleNamespace(name="fleet", speedup=6.0, floor=3.0, headroom=2.0),
            SimpleNamespace(name="<new>", speedup=None, floor=None,
                            headroom=None),
        ]
        document = render_paper_report([], provenance={}, bench_rows=rows)
        assert '<section id="bench">' in document
        assert "<td>6.00x</td><td>3.00x</td><td>2.00</td>" in document
        assert "<td>&lt;new&gt;</td><td>-</td>" in document
        assert_well_formed(document)
        assert "bench" not in render_paper_report([], provenance={})

    def test_stamp_only_with_now(self):
        without = render_paper_report([], provenance={})
        with_now = render_paper_report([], provenance={}, now="NOW-MARK")
        assert "NOW-MARK" not in without
        assert "generated: NOW-MARK" in with_now


class TestResultTable:
    def test_extra_columns_render_blank_when_absent(self):
        result = ExperimentResult(
            experiment="e",
            points=[
                SeriesPoint(series="a", x=1, mean=2, std=0, trials=3,
                            extra={"ratio": 0.5}),
                SeriesPoint(series="b", x=1, mean=2, std=0, trials=3),
            ],
            master_seed=0,
        )
        table = result_table(result, extra_columns=("ratio",))
        assert "<th>ratio</th>" in table
        assert "<td>0.5</td>" in table
        assert "<td></td>" in table
        assert_well_formed(table)
