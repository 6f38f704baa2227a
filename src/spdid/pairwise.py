"""Labeled probe x gallery cross-distance matrices with row-parallel execution.

Each cell is computed independently from immutable inputs and written to its
preassigned slot, so the result is bitwise identical for any worker count.
The unit of parallel work is one probe row, which keeps the probe matrix's
cached eigendecomposition hot; gallery decompositions (and the fixed matrix
powers a metric needs) are warmed once before the sweep.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DimensionMismatch, InvalidParameter, MetricSpec, SpdError, SpdMatrix
from .matfun import eig_sym, sym_inv_sqrt, sym_log, sym_pow, sym_sqrt
from .metrics import alpha_z_exponents, dispatch


@dataclass(frozen=True)
class DistanceMatrix:
    """Rectangular matrix of probe-vs-gallery distances with row/column labels."""

    probe_labels: tuple[str, ...]
    gallery_labels: tuple[str, ...]
    values: np.ndarray
    metric: MetricSpec


def _warm_caches(spec: MetricSpec, probe: Sequence[SpdMatrix], gallery: Sequence[SpdMatrix]) -> None:
    if spec.kind in ("euclid", "pearson"):
        return
    for m in probe:
        eig_sym(m)
    for m in gallery:
        eig_sym(m)
    if spec.kind == "log":
        for m in probe:
            sym_log(m)
        for m in gallery:
            sym_log(m)
    elif spec.kind == "ai":
        for m in probe:
            sym_inv_sqrt(m)
    elif spec.kind == "bw":
        for m in probe:
            sym_sqrt(m)
    elif spec.kind == "alpha_pro":
        for m in probe:
            sym_pow(m, 2.0 * spec.alpha)
        for m in gallery:
            sym_pow(m, 2.0 * spec.alpha)
    elif spec.kind == "alpha_z":
        p, g = alpha_z_exponents(spec.alpha, spec.z)
        for m in probe:
            sym_pow(m, p)
        for m in gallery:
            sym_pow(m, g)


def cross_distances(
    probe: Sequence[SpdMatrix],
    gallery: Sequence[SpdMatrix],
    spec: MetricSpec,
    probe_labels: Sequence[str] | None = None,
    gallery_labels: Sequence[str] | None = None,
    workers: int | None = None,
) -> DistanceMatrix:
    """Compute values[i][j] = dispatch(spec, probe[i], gallery[j]).

    Fails fast on the first kernel error, annotated with the offending
    (row, column, probe label, gallery label). ``workers`` defaults to the
    machine's CPU count and never affects the output values.
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

    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise InvalidParameter(f"workers must be >= 1, got {workers}")

    _warm_caches(spec, probe, gallery)

    def one_row(i: int) -> np.ndarray:
        row = np.empty(len(gallery))
        for j, b in enumerate(gallery):
            try:
                row[j] = dispatch(spec, probe[i], b)
            except SpdError as exc:
                raise type(exc)(
                    f"{exc} [probe {i} ({probe_labels[i]}) vs gallery {j} "
                    f"({gallery_labels[j]})]"
                ) from exc
        return row

    if workers == 1:
        rows = [one_row(i) for i in range(len(probe))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one_row, range(len(probe))))

    values = np.vstack(rows)
    values.setflags(write=False)
    return DistanceMatrix(tuple(probe_labels), tuple(gallery_labels), values, spec)


def both_directions(
    set1: Sequence[SpdMatrix],
    set2: Sequence[SpdMatrix],
    spec: MetricSpec,
    labels1: Sequence[str] | None = None,
    labels2: Sequence[str] | None = None,
    workers: int | None = None,
) -> tuple[DistanceMatrix, DistanceMatrix]:
    """(set1 -> set2, set2 -> set1) cross matrices, both genuinely computed.

    No transpose shortcut: the alpha_z divergence is asymmetric, so both
    directions are evaluated even for symmetric metrics.
    """
    d12 = cross_distances(set1, set2, spec, labels1, labels2, workers)
    d21 = cross_distances(set2, set1, spec, labels2, labels1, workers)
    return d12, d21
