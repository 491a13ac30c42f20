"""Documentation link integrity.

Every relative markdown link in README.md and docs/*.md must point at a
file (or directory) that exists in the repository, so the docs cannot
silently rot as files move.  External links (with a URL scheme) and pure
in-page anchors are skipped — this is a structural check, not a crawler.
It doubles as the CI "docs link-check" step.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)

_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


def relative_links(markdown: str):
    """All relative link targets (scheme-less, non-anchor) in a document."""
    for target in _LINK.findall(markdown):
        if "://" in target or target.startswith(("mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


def test_doc_files_present():
    names = {path.name for path in DOC_FILES}
    assert "README.md" in names
    assert "TUTORIAL.md" in names
    assert "robustness.md" in names
    assert "architecture.md" in names
    assert "perf.md" in names
    assert "algorithms.md" in names
    assert "sweep.md" in names
    assert "observability.md" in names
    assert "paper.md" in names


def test_docs_index_orders_the_docs():
    """docs/README.md is the reading-order index of the doc set."""
    index = (REPO_ROOT / "docs" / "README.md").read_text(encoding="utf-8")
    ordered = ["TUTORIAL.md", "architecture.md", "algorithms.md",
               "sweep.md", "robustness.md", "perf.md", "observability.md",
               "paper.md"]
    positions = [index.find(name) for name in ordered]
    assert all(p >= 0 for p in positions), (
        f"docs/README.md must link all of {ordered}"
    )
    assert positions == sorted(positions), (
        "docs/README.md must keep the reading order "
        "TUTORIAL -> architecture -> algorithms -> sweep -> robustness "
        "-> perf -> observability -> paper"
    )


def test_algorithm_gallery_covers_every_registry_algorithm():
    """Every registered algorithm appears in the docs/algorithms.md
    engine-coverage matrix (and therefore in the gallery)."""
    import sys

    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.algorithms.registry import available_algorithms
    finally:
        sys.path.pop(0)
    gallery = (REPO_ROOT / "docs" / "algorithms.md").read_text(
        encoding="utf-8"
    )
    matrix = gallery.split("## Engine coverage", 1)
    assert len(matrix) == 2, "algorithms.md needs an engine-coverage matrix"
    missing = [
        name
        for name in available_algorithms()
        if f"`{name}`" not in matrix[1]
    ]
    assert not missing, (
        f"docs/algorithms.md engine-coverage matrix misses: {missing}"
    )
    header = next(
        line for line in matrix[1].splitlines() if line.startswith("| algorithm")
    )
    for column in ("reference", "dense", "sparse", "fleet", "armada"):
        assert f"| {column} |" in header, (
            f"engine-coverage matrix lost its '{column}' column"
        )


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[str(p.relative_to(REPO_ROOT)) for p in DOC_FILES]
)
def test_relative_links_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    missing = [
        target
        for target in relative_links(text)
        if target and not (doc.parent / target).exists()
    ]
    assert not missing, (
        f"{doc.relative_to(REPO_ROOT)} has dangling links: {missing}"
    )
