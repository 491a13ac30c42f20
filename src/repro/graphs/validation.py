"""Predicates for independent sets and maximal independent sets.

Every simulation in the test-suite and benchmark harness finishes by calling
:func:`verify_mis` on its output, so correctness of the algorithms is checked
by construction, not by eyeballing.  Batched engines check all their trials
of one graph at once with :func:`verify_mis_rows`.

This module reads a graph only through its public CSR arrays and
neighbour lists, and imports nothing from :mod:`repro.engine`: a
reduction bug shared by every engine backend cannot certify its own
output here.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.telemetry import probes


class MISValidationError(AssertionError):
    """Raised by :func:`verify_mis` when a claimed MIS is not one.

    :func:`verify_mis_rows` sets ``slot`` to the failing row's index.
    """

    slot: Optional[int] = None


def _as_checked_set(graph: Graph, vertices: Iterable[int]) -> Set[int]:
    vertex_set = set(vertices)
    for v in vertex_set:
        if v not in graph:
            raise ValueError(
                f"vertex {v} is not a vertex of {graph!r}"
            )
    return vertex_set


def independent_set_violations(
    graph: Graph, vertices: Iterable[int]
) -> List[Tuple[int, int]]:
    """All edges of ``graph`` with both endpoints in ``vertices``.

    An empty result means the set is independent.
    """
    vertex_set = _as_checked_set(graph, vertices)
    violations = []
    for u in sorted(vertex_set):
        for w in graph.neighbors(u):
            if u < w and w in vertex_set:
                violations.append((u, w))
    return violations


def is_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """Whether no two vertices of the set are adjacent."""
    return not independent_set_violations(graph, vertices)


def uncovered_vertices(graph: Graph, vertices: Iterable[int]) -> List[int]:
    """Vertices that are neither in the set nor adjacent to a set member.

    An independent set is *maximal* exactly when this list is empty.
    """
    vertex_set = _as_checked_set(graph, vertices)
    covered = set(vertex_set)
    for v in vertex_set:
        covered.update(graph.neighbors(v))
    return [v for v in graph.vertices() if v not in covered]


def is_dominating_for_uncovered(graph: Graph, vertices: Iterable[int]) -> bool:
    """Whether every vertex is in the set or adjacent to a set member."""
    return not uncovered_vertices(graph, vertices)


def is_maximal_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """Whether ``vertices`` is an independent dominating set (an MIS)."""
    return is_independent_set(graph, vertices) and is_dominating_for_uncovered(
        graph, vertices
    )


def verify_mis(
    graph: Graph,
    vertices: Iterable[int],
    crashed: Iterable[int] = (),
    absent: Iterable[int] = (),
    recovered: bool = True,
) -> Set[int]:
    """Assert that ``vertices`` is an MIS of ``graph`` and return it as a set.

    The one MIS contract: :meth:`SimulationResult.verify
    <repro.beeping.scheduler.SimulationResult.verify>` and
    :meth:`MISRun.verify <repro.algorithms.base.MISRun.verify>` call it,
    and :func:`verify_mis_rows` is its batched twin.

    ``crashed`` names fail-stop vertices that left the system mid-run:
    they must not appear in the set, and they are exempt from the
    maximality requirement (a crashed vertex may legitimately be
    uncovered).

    ``absent`` is the churn-aware counterpart: vertices of the universe
    graph that are not part of the final alive subgraph (departed,
    asleep at the end, or never joined).  Like crashed vertices they are
    banned from the set and exempt from maximality, so the assertion
    becomes "a valid MIS of the final alive subgraph".

    ``recovered=False`` marks a churn run the round budget cut off
    mid-repair: its set must still be independent and avoid crashed and
    absent vertices, but maximality is not checked.

    Raises
    ------
    MISValidationError
        With a message pinpointing the violated edge or uncovered vertex.
    """
    vertex_set = _as_checked_set(graph, vertices)
    crashed_set = set(crashed)
    absent_set = set(absent)
    in_both = vertex_set & crashed_set
    if in_both:
        raise MISValidationError(
            f"crashed vertex {min(in_both)} is in the MIS"
        )
    in_absent = vertex_set & absent_set
    if in_absent:
        raise MISValidationError(
            f"absent vertex {min(in_absent)} is in the MIS"
        )
    violations = independent_set_violations(graph, vertex_set)
    if violations:
        u, w = violations[0]
        raise MISValidationError(
            f"set is not independent: edge ({u}, {w}) has both endpoints "
            f"in the set ({len(violations)} violating edges in total)"
        )
    if not recovered:
        return vertex_set
    exempt = crashed_set | absent_set
    uncovered = [
        v
        for v in uncovered_vertices(graph, vertex_set)
        if v not in exempt
    ]
    if uncovered:
        raise MISValidationError(
            f"set is not maximal: vertex {uncovered[0]} is uncovered, "
            f"neither in the set nor adjacent to it ({len(uncovered)} "
            f"uncovered vertices)"
        )
    return vertex_set


def _slot_mask(
    mask: Optional[np.ndarray], shape: Tuple[int, ...], name: str
) -> Optional[np.ndarray]:
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise ValueError(
            f"{name} must have shape {shape}, got {mask.shape}"
        )
    return mask


def invalid_mis_rows(
    graph: Graph,
    membership: np.ndarray,
    crashed: Optional[np.ndarray] = None,
    absent: Optional[np.ndarray] = None,
    recovered: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-slot verdicts of :func:`verify_mis_rows`: ``True`` where row
    ``s`` of the ``(slots, n)`` bool ``membership`` is not an MIS of
    ``graph`` under :func:`verify_mis`'s contract.

    ``crashed`` and ``absent`` are ``(slots, n)`` bool masks of exempt
    vertices; slots whose ``(slots,)`` ``recovered`` flag is ``False``
    skip only maximality, as :func:`verify_mis` does with
    ``recovered=False``.  The work is linear in the total
    degree of the set members: each member's CSR segment is expanded
    into ``(slot, neighbour)`` pairs, which are tested for membership
    (independence) and scattered into a ``covered`` mask (maximality).
    """
    n = graph.num_vertices
    members = np.asarray(membership, dtype=bool)
    if members.ndim != 2 or members.shape[1] != n:
        raise ValueError(
            f"membership must have shape (slots, {n}), got {members.shape}"
        )
    slots = members.shape[0]
    covered = members.copy()
    bad = np.zeros(slots, dtype=bool)
    for name, mask in (("crashed", crashed), ("absent", absent)):
        mask = _slot_mask(mask, members.shape, name)
        if mask is not None:
            bad |= (members & mask).any(axis=1)
            covered |= mask
    # Flat ``slot * n + vertex`` index of every member, and of every
    # (member's slot, member's neighbour) pair.
    flat = np.flatnonzero(members)
    cols = flat % n if n else flat
    indptr = graph.indptr.astype(np.intp)
    degrees = np.diff(indptr)[cols]
    ends = np.cumsum(degrees)
    positions = np.arange(int(ends[-1]) if ends.size else 0)
    positions += np.repeat(indptr[cols] - ends + degrees, degrees)
    pairs = np.repeat(flat - cols, degrees)
    pairs += graph.indices[positions]
    conflicts = members.reshape(-1)[pairs]
    if conflicts.any():
        bad[pairs[conflicts] // n] = True
    covered.reshape(-1)[pairs] = True
    uncovered = ~covered.all(axis=1)
    recovered = _slot_mask(recovered, (slots,), "recovered")
    if recovered is not None:
        uncovered &= recovered
    return bad | uncovered


def verify_mis_rows(
    graph: Graph,
    membership: np.ndarray,
    crashed: Optional[np.ndarray] = None,
    absent: Optional[np.ndarray] = None,
    recovered: Optional[np.ndarray] = None,
) -> None:
    """Assert that every row of ``membership`` is an MIS of ``graph``:
    :func:`verify_mis` for a ``(slots, n)`` batch of trials.

    Masks are as in :func:`invalid_mis_rows`.  The lowest failing slot
    is re-checked by :func:`verify_mis`, so the error text is exactly
    the one-trial message; the raised :class:`MISValidationError` names
    the slot in its ``slot`` attribute.

    Raises
    ------
    MISValidationError
        For the lowest slot whose set is not an MIS.
    AssertionError
        If :func:`verify_mis` accepts a slot the batched check rejected
        (the two checks disagree).
    """
    failing = np.flatnonzero(
        invalid_mis_rows(graph, membership, crashed, absent, recovered)
    )
    if probes.enabled():
        probes.count(
            "verify.slots",
            len(membership) if recovered is None
            else int(np.count_nonzero(recovered)),
        )
        if failing.size:
            probes.count("verify.fallbacks")
    if not failing.size:
        return
    slot = int(failing[0])

    def row_set(mask: Optional[np.ndarray]) -> Set[int]:
        if mask is None:
            return set()
        return set(np.flatnonzero(mask[slot]).tolist())

    try:
        verify_mis(
            graph,
            row_set(membership),
            crashed=row_set(crashed),
            absent=row_set(absent),
            recovered=recovered is None or bool(recovered[slot]),
        )
    except MISValidationError as error:
        error.slot = slot
        raise
    raise AssertionError(
        f"batched MIS check rejected slot {slot}, but verify_mis accepts it"
    )
