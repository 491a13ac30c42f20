"""Hypothesis strategy for one damaged line of a line-oriented file.

Shared by the damage-tolerance fuzz tests of every JSONL reader (the
result store's rows and manifests, the telemetry ledger): whatever one
line holds, the reader must lose that line at most, never the file.
"""

import re

from hypothesis import strategies as st

#: JSON tokens a damaged file may hold where a value belongs.
HOSTILE_VALUES = (
    "1e999", "-1e999", "NaN", "Infinity", "-Infinity", "true", "false",
    "null", '"7"', "[]", "{}", "[1e999]", "2.5", "-1", "1" + "0" * 400,
)


@st.composite
def mutated_lines(draw, text, hostile=HOSTILE_VALUES):
    """``text`` with one line damaged: a value swapped for a ``hostile``
    token, a splice of arbitrary characters, the whole line replaced, or
    the line dropped or duplicated."""
    lines = text.splitlines()
    index = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    line = lines[index]
    kind = draw(
        st.sampled_from(("value", "splice", "replace", "drop", "duplicate"))
    )
    if kind == "value" and re.search(r'"\w+": ?', line):
        names = re.findall(r'"(\w+)": ?', line)
        name = draw(st.sampled_from(names))
        token = draw(st.sampled_from(hostile))
        lines[index] = re.sub(
            rf'("{name}": ?)(\[[^\]]*\]|[^,}}]*)',
            lambda m: m.group(1) + token, line, count=1,
        )
    elif kind in ("value", "splice"):
        start = draw(st.integers(min_value=0, max_value=len(line)))
        stop = draw(st.integers(min_value=start, max_value=len(line)))
        lines[index] = line[:start] + draw(st.text(max_size=8)) + line[stop:]
    elif kind == "replace":
        lines[index] = draw(st.text(max_size=40))
    elif kind == "drop":
        del lines[index]
    else:
        lines.insert(index, line)
    return "\n".join(lines) + "\n"
