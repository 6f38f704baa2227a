"""Shared helpers for the test suite: random SPD generators, oracles, CSV reader."""

import csv
import os

import numpy as np

from spdid import DistanceMatrix, MetricSpec, SpdMatrix, load_matrix, validate_spd


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


def load_or_exit(path, **kwargs) -> SpdMatrix:
    """``load_matrix``, except that the process exits at once on a ``*_5.txt`` path.

    Module-level, so a spawned loading process can unpickle it by name.
    """
    if str(path).endswith("_5.txt"):
        os._exit(3)
    return load_matrix(path, **kwargs)


def read_distance_csv(path, metric: MetricSpec) -> DistanceMatrix:
    """Read back a D12.csv/D21.csv written by ``spdid.cli.write_distance_csv``."""
    with open(path, newline="") as fh:
        header, *body = csv.reader(fh)
    gallery = tuple(header[1:])
    probe = []
    rows = []
    for cells in body:
        probe.append(cells[0])
        rows.append([float(c) for c in cells[1:]])
    values = np.array(rows)
    values.setflags(write=False)
    return DistanceMatrix(tuple(probe), gallery, values, metric)
