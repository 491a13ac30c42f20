"""Hostile-input fuzzing of the text parsers users feed directly.

Arbitrary text must either parse or raise ``ValueError`` — never a bare
``TypeError``/``IndexError`` from deep inside the program.  The crash and
churn CLI spec parsers are the text grammars a user types.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.beeping.faults import parse_churn_spec, parse_crash_spec

#: Characters that steer the parsers into their interesting branches,
#: mixed with arbitrary unicode below.
_SYNTAX = "0123456789 \t\n#-+._:x" + "joinleavesleepwake"

_HOSTILE_TEXT = st.one_of(
    st.text(
        alphabet=st.one_of(st.sampled_from(_SYNTAX), st.characters()),
        max_size=80,
    ),
    # Near-miss spec entries: colon-joined small integers, event kinds and
    # junk tokens, so valid parses and every entry-level rejection both
    # show up.
    st.lists(
        st.lists(
            st.one_of(
                st.integers(min_value=-2, max_value=6).map(str),
                st.sampled_from(
                    ("x", "1.5", "", "1+2", "3+", "join", "leave", "sleep",
                     "wake")
                ),
            ),
            max_size=4,
        ).map(":".join),
        max_size=6,
    ).map("\n".join),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=_HOSTILE_TEXT)
def test_hostile_text_parses_or_raises_value_error(text):
    entries = text.split("\n")
    for parse in (parse_crash_spec, parse_churn_spec):
        try:
            parse(entries)
        except ValueError:
            pass
