"""Hostile-input fuzzing of the text parsers users feed directly.

Arbitrary text must either parse or raise ``ValueError`` — never a bare
``TypeError``/``IndexError`` from deep inside the program — and every
edge-list rejection must name the 1-based line and text it tripped on.
The crash and churn CLI spec parsers ride along as regression guards for
the same contract.
"""

from __future__ import annotations

import io
import re

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.beeping.faults import parse_churn_spec, parse_crash_spec
from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list

#: Characters that steer the parsers into their interesting branches,
#: mixed with arbitrary unicode below.
_SYNTAX = "0123456789 \t\n#-+._:x" + "joinleavesleepwake"

_HOSTILE_TEXT = st.one_of(
    st.text(
        alphabet=st.one_of(st.sampled_from(_SYNTAX), st.characters()),
        max_size=80,
    ),
    # Near-miss edge lists: small-integer lines with junk tokens mixed
    # in, so valid parses and every line-level rejection both show up.
    st.lists(
        st.lists(
            st.one_of(
                st.integers(min_value=-2, max_value=6).map(str),
                st.sampled_from(("x", "1.5", "#", "")),
            ),
            max_size=3,
        ).map(" ".join),
        max_size=6,
    ).map("\n".join),
)


def _small_numbers_only(text: str) -> bool:
    """Whether every digit run stays below five digits, so no header can
    declare a vertex count large enough to strain memory."""
    return all(
        len(re.sub(r"\D", "", run)) < 5 for run in re.findall(r"[\d_]+", text)
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=_HOSTILE_TEXT)
def test_hostile_text_parses_or_raises_value_error(text):
    assume(_small_numbers_only(text))
    try:
        graph = read_edge_list(io.StringIO(text))
    except ValueError as error:
        message = str(error)
        if message.startswith("edge list is empty"):
            assert not any(
                line.strip() and not line.strip().startswith("#")
                for line in text.split("\n")
            )
        else:
            match = re.match(r"line (\d+) \(", message)
            assert match, message
            number = int(match.group(1))
            lines = text.split("\n")
            assert 1 <= number <= len(lines), message
            assert repr(lines[number - 1].strip()) in message
    else:
        assert isinstance(graph, Graph)
    entries = text.split("\n")
    for parse in (parse_crash_spec, parse_churn_spec):
        try:
            parse(entries)
        except ValueError:
            pass
