"""Round-by-round text animation of a traced run.

Renders a recorded :class:`~repro.beeping.events.Trace` as a sequence of
text frames — one per round — showing each vertex's status:

- ``!`` beeped this round
- ``*`` joined the MIS this round
- ``x`` retired this round
- ``.`` active and silent
- ``#`` already in the MIS
- `` `` (backtick) already retired

For grid-shaped graphs the frames are laid out as the grid; otherwise as a
fixed-width strip.  Useful for demos and for eyeballing pathological runs.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.beeping.events import Trace

GLYPH_BEEP = "!"
GLYPH_JOIN = "*"
GLYPH_RETIRE = "x"
GLYPH_ACTIVE = "."
GLYPH_IN_MIS = "#"
GLYPH_GONE = "`"


def _frame_glyphs(
    trace: Trace, round_index: int, num_vertices: int
) -> List[str]:
    in_mis: Set[int] = set()
    gone: Set[int] = set()
    for event in trace.rounds[:round_index]:
        in_mis |= event.joined
        gone |= event.retired | event.crashed
    event = trace.rounds[round_index]
    glyphs = []
    for v in range(num_vertices):
        if v in in_mis:
            glyphs.append(GLYPH_IN_MIS)
        elif v in gone:
            glyphs.append(GLYPH_GONE)
        elif v in event.joined:
            glyphs.append(GLYPH_JOIN)
        elif v in event.retired:
            glyphs.append(GLYPH_RETIRE)
        elif v in event.beepers:
            glyphs.append(GLYPH_BEEP)
        else:
            glyphs.append(GLYPH_ACTIVE)
    return glyphs


def render_frame(
    trace: Trace,
    round_index: int,
    num_vertices: int,
    columns: Optional[int] = None,
) -> str:
    """One round as a text frame (``columns`` defaults to ~square)."""
    if not 0 <= round_index < trace.num_rounds:
        raise ValueError(
            f"round_index must be in [0, {trace.num_rounds}), "
            f"got {round_index}"
        )
    glyphs = _frame_glyphs(trace, round_index, num_vertices)
    if columns is None:
        columns = max(1, int(num_vertices ** 0.5 + 0.999))
    lines = [
        " ".join(glyphs[row:row + columns])
        for row in range(0, num_vertices, columns)
    ]
    event = trace.rounds[round_index]
    header = (
        f"round {round_index}: beeps={len(event.beepers)} "
        f"joins={len(event.joined)} retire={len(event.retired)}"
    )
    return header + "\n" + "\n".join(lines)


def render_animation(
    trace: Trace,
    num_vertices: int,
    columns: Optional[int] = None,
) -> str:
    """All rounds as consecutive frames separated by blank lines."""
    frames = [
        render_frame(trace, t, num_vertices, columns)
        for t in range(trace.num_rounds)
    ]
    legend = (
        f"legend: {GLYPH_BEEP}=beep {GLYPH_JOIN}=join {GLYPH_RETIRE}=retire "
        f"{GLYPH_ACTIVE}=active {GLYPH_IN_MIS}=in MIS {GLYPH_GONE}=retired"
    )
    return legend + "\n\n" + "\n\n".join(frames)
