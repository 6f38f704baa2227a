"""Labeled probe x gallery cross-distance matrices.

Every input matrix is prepared once, before any pair runs:
:meth:`spdid.metrics.MetricSpec.prepare` turns it into a state that is never
written again. The sweep then computes each cell from two states, serially in
row order.

Each cell is one :meth:`spdid.metrics.MetricSpec.evaluate` call, bit for bit
what ``dispatch`` gives. Where the spec is symmetric (``MetricSpec.symmetric``:
every kernel, except alpha_z with alpha != 1/2) :func:`both_directions`
computes one direction and transposes it; the canonical orientation makes that
transpose bitwise equal to computing the other direction. alpha_z with
alpha != 1/2 is swept both ways over the same states, which hold both sides'
powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DimensionMismatch, InvalidParameter, ShapeMismatch, SpdError, SpdMatrix
from .metrics import MetricSpec


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


def _prepare(probe, gallery, spec, probe_labels, gallery_labels, workers):
    """Check the inputs, then prepare every matrix once, probe side first.

    Returns (matrices, labels, states) per side. An error names its matrix.
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

    sides = []
    for side, mats, labels in (("probe", probe, probe_labels), ("gallery", gallery, gallery_labels)):
        states = []
        for i, m in enumerate(mats):
            try:
                states.append(spec.prepare(m))
            except SpdError as exc:
                raise type(exc)(f"{exc} [{side} {i} ({labels[i]})]") from exc
        sides.append((mats, tuple(labels), states))
    return sides


def _sweep(spec: MetricSpec, probe, gallery) -> DistanceMatrix:
    """Every probe x gallery cell in row order. Fails fast on the first kernel
    error, annotated with its row, column and labels."""
    (p_mats, p_labels, p_states), (g_mats, g_labels, g_states) = probe, gallery
    values = np.empty((len(p_mats), len(g_mats)))
    for i, (a, sa) in enumerate(zip(p_mats, p_states)):
        for j, (b, sb) in enumerate(zip(g_mats, g_states)):
            try:
                values[i, j] = spec.evaluate(a, sa, b, sb)
            except SpdError as exc:
                raise type(exc)(
                    f"{exc} [probe {i} ({p_labels[i]}) vs gallery {j} ({g_labels[j]})]"
                ) from exc
    values.setflags(write=False)
    return DistanceMatrix(p_labels, g_labels, values, spec)


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
    """(set1 -> set2, set2 -> set1) cross matrices, each matrix prepared once.

    Where ``spec.symmetric`` the second is the transpose of the first, bit for
    bit equal to ``cross_distances(set2, set1, ...)``; that covers alpha_z at
    alpha = 1/2. Otherwise (alpha_z with alpha != 1/2) it is computed in the
    other direction. ``workers`` must be >= 1 and changes nothing, as in
    :func:`cross_distances`.
    """
    side1, side2 = _prepare(set1, set2, spec, labels1, labels2, workers)
    d12 = _sweep(spec, side1, side2)
    if spec.symmetric:
        d21 = DistanceMatrix(d12.gallery_labels, d12.probe_labels, d12.values.T, spec)
    else:
        d21 = _sweep(spec, side2, side1)
    return d12, d21
