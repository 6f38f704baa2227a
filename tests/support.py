"""Shared helpers for the test suite: random SPD generators, oracles, CSV reader."""

from pathlib import Path

import numpy as np

from spdid import DistanceMatrix, MetricSpec, SpdMatrix, validate_spd


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def random_spd(rng, n, lo=1e-2, hi=1e2) -> SpdMatrix:
    """Q diag(lambda) Q^T with log-uniform eigenvalues in [lo, hi]."""
    q = random_orthogonal(rng, n)
    lam = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    return validate_spd((q * lam) @ q.T)


def spd_pool(rng, n, count, lo=1e-2, hi=1e2):
    return [random_spd(rng, n, lo, hi) for _ in range(count)]


def read_distance_csv(path, metric: MetricSpec) -> DistanceMatrix:
    """Read back a D12.csv/D21.csv written by ``spdid.cli.write_distance_csv``."""
    lines = Path(path).read_text().splitlines()
    gallery = tuple(lines[0].split(",")[1:])
    probe = []
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        probe.append(cells[0])
        rows.append([float(c) for c in cells[1:]])
    values = np.array(rows)
    values.setflags(write=False)
    return DistanceMatrix(tuple(probe), gallery, values, metric)
