"""Labeled probe x gallery cross-distance matrices with row-parallel execution.

Each cell is computed independently from the matrix entries and written to its
preassigned slot, so the result is bitwise identical for any worker count.
Row 0 and then column 0 are computed serially first: every gallery matrix
meets the kernel once on the gallery side and every probe matrix once on the
probe side, which fills the spectra and matrix powers the kernel caches on
each matrix before any worker thread starts. The remaining rows go to the
pool, one probe row per unit of work, and only read those caches.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DimensionMismatch, InvalidParameter, SpdError, SpdMatrix
from .metrics import MetricSpec


@dataclass(frozen=True)
class DistanceMatrix:
    """Rectangular matrix of probe-vs-gallery distances with row/column labels."""

    probe_labels: tuple[str, ...]
    gallery_labels: tuple[str, ...]
    values: np.ndarray
    metric: MetricSpec


def cross_distances(
    probe: Sequence[SpdMatrix],
    gallery: Sequence[SpdMatrix],
    spec: MetricSpec,
    probe_labels: Sequence[str] | None = None,
    gallery_labels: Sequence[str] | None = None,
    workers: int = 1,
) -> DistanceMatrix:
    """Compute values[i][j] = dispatch(spec, probe[i], gallery[j]).

    Fails fast on the first kernel error, annotated with the offending
    (row, column, probe label, gallery label). ``workers`` defaults to 1,
    since each kernel call may already run multi-threaded BLAS; it never
    affects the output values.
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

    kernel = spec.kernel()
    values = np.empty((len(probe), len(gallery)))

    def fill(i: int, columns: range) -> None:
        for j in columns:
            try:
                values[i, j] = kernel(probe[i], gallery[j])
            except SpdError as exc:
                raise type(exc)(
                    f"{exc} [probe {i} ({probe_labels[i]}) vs gallery {j} "
                    f"({gallery_labels[j]})]"
                ) from exc

    # Row 0, then column 0, run serially: each matrix meets the kernel once on
    # its own side, so its caches are filled before any worker thread reads them.
    fill(0, range(len(gallery)))
    for i in range(1, len(probe)):
        fill(i, range(1))

    def rest_of_row(i: int) -> None:
        fill(i, range(1, len(gallery)))

    if workers == 1:
        for i in range(1, len(probe)):
            rest_of_row(i)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(rest_of_row, range(1, len(probe))))

    values.setflags(write=False)
    return DistanceMatrix(tuple(probe_labels), tuple(gallery_labels), values, spec)


def both_directions(
    set1: Sequence[SpdMatrix],
    set2: Sequence[SpdMatrix],
    spec: MetricSpec,
    labels1: Sequence[str] | None = None,
    labels2: Sequence[str] | None = None,
    workers: int = 1,
) -> tuple[DistanceMatrix, DistanceMatrix]:
    """(set1 -> set2, set2 -> set1) cross matrices, both genuinely computed.

    No transpose shortcut: the alpha_z divergence is asymmetric, so both
    directions are evaluated even for symmetric metrics.
    """
    d12 = cross_distances(set1, set2, spec, labels1, labels2, workers)
    d21 = cross_distances(set2, set1, spec, labels2, labels1, workers)
    return d12, d21
