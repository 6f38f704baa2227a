"""Labeled probe x gallery cross-distance matrices.

Every input matrix is prepared once, before any pair runs, into what the
sweep reads of it (:class:`spdid.metrics.Prepared`), never written again. The
CLI prepares in the process that loads each file, and the two functions below
in the caller; all then sweep each cell from two items, serially in row order.

Each cell is one :meth:`spdid.metrics.MetricSpec.evaluate` call, bit for bit
what ``dispatch`` gives. Where the spec is symmetric (``MetricSpec.symmetric``:
every kernel, except alpha_z with alpha != 1/2) :func:`sweep` computes one
direction and transposes it; the canonical orientation makes that transpose
bitwise equal to computing the other direction. alpha_z with alpha != 1/2 is
swept both ways over the same states, which hold both sides' powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DimensionMismatch, InvalidParameter, ShapeMismatch, SpdError, SpdMatrix
from .metrics import MetricSpec, Prepared


@dataclass(frozen=True)
class DistanceMatrix:
    """Rectangular matrix of probe-vs-gallery distances with row/column labels."""

    probe_labels: tuple[str, ...]
    gallery_labels: tuple[str, ...]
    values: np.ndarray
    metric: MetricSpec

    def __post_init__(self):
        labels = (len(self.probe_labels), len(self.gallery_labels))
        if np.shape(self.values) != labels:
            raise ShapeMismatch(f"values of shape {np.shape(self.values)} do not fit {labels} labels")


def prepare(spec: MetricSpec, m: SpdMatrix, side: str, index: int, label: str) -> Prepared:
    """``spec.prepare(m)`` for the sweep; an error names m's side, index and label."""
    try:
        return spec.prepare(m)
    except SpdError as exc:
        raise type(exc)(f"{exc} [{side} {index} ({label})]") from exc


def _prepare(probe, gallery, spec, probe_labels, gallery_labels, workers):
    """Check the inputs, then prepare every matrix once, probe side first.

    Returns the two sides, each (labels, prepared items).
    """
    if not probe or not gallery:
        raise InvalidParameter("probe and gallery lists must be non-empty")
    n = probe[0].n
    for m in list(probe) + list(gallery):
        if m.n != n:
            raise DimensionMismatch(f"mixed matrix orders: {n} and {m.n}")
    if probe_labels is None:
        probe_labels = [str(i) for i in range(len(probe))]
    if gallery_labels is None:
        gallery_labels = [str(j) for j in range(len(gallery))]
    if len(probe_labels) != len(probe) or len(gallery_labels) != len(gallery):
        raise InvalidParameter("label lists must match the matrix lists in length")
    if workers < 1:
        raise InvalidParameter(f"workers must be >= 1, got {workers}")
    return [
        (labels, [prepare(spec, m, side, i, labels[i]) for i, m in enumerate(mats)])
        for side, mats, labels in (("probe", probe, probe_labels), ("gallery", gallery, gallery_labels))
    ]


def _sweep(spec: MetricSpec, probe, gallery) -> DistanceMatrix:
    """Every probe x gallery cell in row order. Fails fast on the first kernel
    error, annotated with its row, column and labels."""
    (p_labels, p_items), (g_labels, g_items) = probe, gallery
    values = np.empty((len(p_items), len(g_items)))
    for i, a in enumerate(p_items):
        for j, b in enumerate(g_items):
            try:
                values[i, j] = spec.evaluate(a, b)
            except SpdError as exc:
                raise type(exc)(
                    f"{exc} [probe {i} ({p_labels[i]}) vs gallery {j} ({g_labels[j]})]"
                ) from exc
    values.setflags(write=False)
    return DistanceMatrix(tuple(p_labels), tuple(g_labels), values, spec)


def sweep(spec: MetricSpec, side1, side2) -> tuple[DistanceMatrix, DistanceMatrix]:
    """(side1 -> side2, side2 -> side1) cross matrices over prepared sides.

    Each side is (labels, items), one item per matrix, as :func:`prepare`
    returns it, all matrices of one order. Where ``spec.symmetric`` the second
    is the transpose of the first, bit for bit equal to sweeping side2 -> side1;
    that covers alpha_z at alpha = 1/2. Otherwise (alpha_z with alpha != 1/2)
    it is swept in the other direction, over the same items.
    """
    d12 = _sweep(spec, side1, side2)
    if spec.symmetric:
        d21 = DistanceMatrix(d12.gallery_labels, d12.probe_labels, d12.values.T, spec)
    else:
        d21 = _sweep(spec, side2, side1)
    return d12, d21


def cross_distances(
    probe: Sequence[SpdMatrix],
    gallery: Sequence[SpdMatrix],
    spec: MetricSpec,
    probe_labels: Sequence[str] | None = None,
    gallery_labels: Sequence[str] | None = None,
    workers: int = 1,
) -> DistanceMatrix:
    """values[i][j] = dispatch(spec, probe[i], gallery[j]); an error names its matrix or cell.

    ``workers`` must be >= 1 and changes nothing: the sweep is serial.
    """
    return _sweep(spec, *_prepare(probe, gallery, spec, probe_labels, gallery_labels, workers))


def both_directions(
    set1: Sequence[SpdMatrix],
    set2: Sequence[SpdMatrix],
    spec: MetricSpec,
    labels1: Sequence[str] | None = None,
    labels2: Sequence[str] | None = None,
    workers: int = 1,
) -> tuple[DistanceMatrix, DistanceMatrix]:
    """:func:`sweep` of set1 and set2, each matrix prepared once. ``workers``
    must be >= 1 and changes nothing, as in :func:`cross_distances`.
    """
    return sweep(spec, *_prepare(set1, set2, spec, labels1, labels2, workers))
