"""Shared helpers for the test suite: the kernel table, random SPD generators, CSV reader."""

import csv
import functools
import os
from typing import Callable, NamedTuple

import numpy as np

import spdid
from spdid import DistanceMatrix, MetricSpec, SpdMatrix, validate_spd
from spdid.cli import _load_prepared


class Kind(NamedTuple):
    """A kernel as the suites see it: its public function, the parameters they sweep it
    at, as MetricSpec's (alpha, z), and the facts about it that the library does not state."""

    public: Callable[..., float]
    params: tuple[tuple, ...] = ((),)
    triangle: bool = True  # obeys the triangle inequality
    congruent: bool = True  # invariant under orthogonal congruence A -> Q A Q^T
    min_order: int = 1
    eigh: bool = True  # its prepare takes an eigendecomposition


# One row per metrics.KERNELS entry; test_kernel_table_complete holds the two to each other.
KINDS = {
    "euclid": Kind(spdid.euclid, eigh=False),
    "pearson": Kind(spdid.pearson_dist, triangle=False, congruent=False, min_order=3, eigh=False),
    "log": Kind(spdid.log_euclid),
    "ai": Kind(spdid.affine_invariant),
    "bw": Kind(spdid.bures_wasserstein),
    "alpha_pro": Kind(spdid.alpha_procrustes, ((0.3,),)),
    "alpha_z": Kind(spdid.alpha_z_bw, ((0.5, 0.8), (0.5, 1.0), (0.99, 1.0)), triangle=False),
}

# Every configuration the suites sweep, in table order.
CONFIGS = [MetricSpec(kind, *p) for kind, row in KINDS.items() for p in row.params]


def spec_id(spec: MetricSpec) -> str:
    return f"{spec.kind}-{spec.alpha}-{spec.z}"


def kernels(n: int, keep: Callable[[MetricSpec], bool] = lambda s: True) -> dict[str, Callable]:
    """spec_id -> public function, parameters bound, of each configuration defined at
    matrix order ``n`` for which ``keep`` holds."""
    return {
        spec_id(s): functools.partial(KINDS[s.kind].public, **s.params)
        for s in CONFIGS
        if n >= KINDS[s.kind].min_order and keep(s)
    }


# Path templates with all four required placeholders that still cannot be formatted:
# an unknown field, a positional {}, an unbalanced brace, an index into the integer
# resolution and an attribute a string lacks.
MALFORMED_TEMPLATES = (
    "{base}/{subject}/{task}_{scan}_{res}_{foo}.txt",
    "{base}/{subject}/{task}_{scan}_{res}_{}.txt",
    "{base}/{subject}/{task}_{scan}_{res}_{.txt",
    "{base}/{subject}/{task}_{scan}_{res}_{res[0]}.txt",
    "{base}/{subject}/{task}_{scan}_{res}_{scan.x}.txt",
)


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


def task_or_exit(spec, tau, res, job):
    """The CLI's file task, except that the process exits at once on a ``*_5.txt`` path.

    Module-level, so a spawned loading process can unpickle it by name.
    """
    if str(job[-1]).endswith("_5.txt"):
        os._exit(3)
    return _load_prepared(spec, tau, res, job)


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
