"""Subject identification rates over cross-distance matrices.

A subject is correctly identified when its within-subject distance (the
diagonal cell of its probe row) is the strict minimum of that row. Ties count
as misses: strict-minimum is the conservative, platform-stable choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pairwise import DistanceMatrix
from .core import LabelMismatch, NotSquare


@dataclass(frozen=True)
class IdReport:
    """Identification rates in both probe directions plus their mean."""

    id12: float
    id21: float
    mean: float
    n_subjects: int
    per_subject_hits12: tuple[bool, ...]
    per_subject_hits21: tuple[bool, ...]


@dataclass(frozen=True)
class NearestMatch:
    """Per-probe-row diagnostic: who is closest, and by how much."""

    probe_label: str
    closest_gallery_label: str
    within_distance: float
    best_other_distance: float
    ambiguous: bool


def _check_square_labels(d: DistanceMatrix) -> None:
    if len(d.probe_labels) != len(d.gallery_labels):
        raise NotSquare(
            f"distance matrix is {len(d.probe_labels)}x{len(d.gallery_labels)}, not square"
        )
    for i, (p, g) in enumerate(zip(d.probe_labels, d.gallery_labels)):
        if p != g:
            raise LabelMismatch(f"label mismatch at index {i}: probe {p!r} vs gallery {g!r}")


def _within_and_best_other(d: DistanceMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Each probe row's diagonal cell and its smallest off-diagonal cell (inf if none)."""
    _check_square_labels(d)
    v = d.values
    off = v.copy()
    np.fill_diagonal(off, np.inf)
    return v.diagonal(), off.min(axis=1)


def compute_id_rate(d: DistanceMatrix) -> tuple[float, tuple[bool, ...]]:
    """Fraction of probe rows whose diagonal is the strict row minimum.

    Returns (rate, per-subject hit vector). A 1x1 matrix scores 1.0: with no
    competitors the diagonal is vacuously the strict minimum.
    """
    within, best_other = _within_and_best_other(d)
    hits = tuple((within < best_other).tolist())
    rate = sum(hits) / len(hits)
    return rate, hits


def id_report(d12: DistanceMatrix, d21: DistanceMatrix) -> IdReport:
    """Identification rates for both directions and their mean."""
    if d12.gallery_labels != d21.probe_labels:
        raise LabelMismatch("D21 probe labels must equal D12 gallery labels")
    id12, hits12 = compute_id_rate(d12)
    id21, hits21 = compute_id_rate(d21)
    return IdReport(
        id12=id12,
        id21=id21,
        mean=(id12 + id21) / 2,
        n_subjects=len(hits12),
        per_subject_hits12=hits12,
        per_subject_hits21=hits21,
    )


def nearest_match_table(d: DistanceMatrix) -> list[NearestMatch]:
    """Closest gallery subject per probe row, with the within/best-other split.

    Exact ties go to the lowest gallery index and are flagged ambiguous.
    """
    within, best_other = _within_and_best_other(d)
    v = d.values
    closest = v.argmin(axis=1)
    ties = np.count_nonzero(v == v.min(axis=1, keepdims=True), axis=1)
    return [
        NearestMatch(
            probe_label=d.probe_labels[i],
            closest_gallery_label=d.gallery_labels[j],
            within_distance=float(within[i]),
            best_other_distance=float(best_other[i]),
            ambiguous=bool(ties[i] > 1),
        )
        for i, j in enumerate(closest)
    ]
