import re
from pathlib import Path

import numpy as np
import pytest

import spdid
from spdid import MetricSpec, both_directions, cross_distances, validate_spd
from spdid.core import DegenerateVariance, DimensionMismatch, InvalidParameter, NumericalError
from support import CONFIGS, KINDS, spd_pool, spec_id


def scalar(v):
    return validate_spd([[float(v)]])


def test_singleton_identity():
    d = cross_distances([validate_spd(np.eye(2))], [validate_spd(np.eye(2))], MetricSpec("euclid"))
    np.testing.assert_array_equal(d.values, [[0.0]])


def test_bw_scalar_cross_matrix():
    mats = [scalar(1.0), scalar(4.0)]
    d = cross_distances(mats, mats, MetricSpec("bw"))
    # scalar bw closed form |sqrt(a) - sqrt(b)|
    np.testing.assert_allclose(d.values, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)


def test_alpha_z_scalar_cross_matrix_asymmetric():
    alpha, z = 0.99, 1.0
    mats = [scalar(1.0), scalar(np.e)]
    d = cross_distances(mats, mats, MetricSpec("alpha_z", alpha, z))

    def oracle(a, b):
        return (1 - alpha) * a + alpha * b - a ** (1 - alpha) * b**alpha

    expected = [[0.0, oracle(1.0, np.e)], [oracle(np.e, 1.0), 0.0]]
    np.testing.assert_allclose(d.values, expected, atol=1e-12)
    assert d.values[0, 1] != pytest.approx(d.values[1, 0], rel=1e-3)


@pytest.mark.parametrize(
    "spec", [s for s in CONFIGS if s.symmetric], ids=lambda s: spec_id(s).removesuffix("-None")
)
def test_both_directions_symmetric_metric_transposes(spec):
    rng = np.random.default_rng(1)
    s1 = spd_pool(rng, 4, 3)
    s2 = spd_pool(rng, 4, 3)
    d12, d21 = both_directions(s1, s2, spec, ["a", "b", "c"], ["x", "y", "z"])
    np.testing.assert_array_equal(d21.values, d12.values.T)
    assert (d21.probe_labels, d21.gallery_labels) == (("x", "y", "z"), ("a", "b", "c"))


def test_both_directions_alpha_z_not_transpose():
    rng = np.random.default_rng(2)
    s1 = spd_pool(rng, 4, 3)
    s2 = spd_pool(rng, 4, 3)
    d12, d21 = both_directions(s1, s2, MetricSpec("alpha_z", 0.99, 1.0))
    assert np.abs(d21.values - d12.values.T).max() > 1e-6


@pytest.mark.parametrize("spec", CONFIGS, ids=spec_id)
def test_both_directions_d21_equals_reverse_sweep_bitwise(spec):
    # a caller that sweeps set2 -> set1 itself gets D21's exact bytes
    rng = np.random.default_rng(6)
    s1 = spd_pool(rng, 5, 4, lo=1e-4, hi=1e4)
    s2 = spd_pool(rng, 5, 3, lo=1e-4, hi=1e4)
    d21 = both_directions(s1, s2, spec)[1]
    np.testing.assert_array_equal(cross_distances(s2, s1, spec).values, d21.values)


def test_both_directions_singleton_identical():
    a = [validate_spd(np.eye(3))]
    d12, d21 = both_directions(a, a, MetricSpec("ai"))
    assert d12.values[0, 0] == pytest.approx(0.0, abs=1e-10)
    assert d21.values[0, 0] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("spec", CONFIGS, ids=spec_id)
def test_worker_count_never_changes_bits(spec):
    rng = np.random.default_rng(3)
    probe = spd_pool(rng, 6, 4)
    gallery = spd_pool(rng, 6, 5)
    baseline = cross_distances(probe, gallery, spec, workers=1).values
    for w in (2, 8):
        again = cross_distances(probe, gallery, spec, workers=w).values
        np.testing.assert_array_equal(again, baseline)


@pytest.mark.parametrize("spec", CONFIGS, ids=spec_id)
def test_prepare_once_per_matrix_before_the_pool(monkeypatch, spec):
    # (named for the thread pool the sweep no longer has) every matrix is
    # prepared exactly once, all before the first pair, so `pair` only reads
    # states; alpha_z with alpha != 1/2 sweeps both directions over the same states
    from spdid import metrics

    rng = np.random.default_rng(7)
    set1 = spd_pool(rng, 5, 4)
    set2 = spd_pool(rng, 5, 4)
    expected = both_directions(set1, set2, spec)
    events = []
    record = metrics.KERNELS[spec.kind]

    def prepare(m, **params):
        events.append(id(m))
        return record.prepare(m, **params)

    def pair(sa, sb, **params):
        events.append("pair")
        return record.pair(sa, sb, **params)

    monkeypatch.setitem(metrics.KERNELS, spec.kind, record._replace(prepare=prepare, pair=pair))
    got = both_directions(set1, set2, spec, workers=2)
    first = events.index("pair")
    assert sorted(events[:first]) == sorted(id(m) for m in set1 + set2)
    cells = len(set1) * len(set2)
    assert events[first:] == ["pair"] * (cells if spec.symmetric else 2 * cells)
    for d, e in zip(got, expected):
        np.testing.assert_array_equal(d.values, e.values)


def test_source_starts_no_threads():
    """--workers sizes only the loading processes: no module of the package
    imports a thread pool or the threading module."""
    threads = re.compile(r"\b(ThreadPoolExecutor|threading)\b")
    offenders = [
        f"{path.name}:{k}: {line.strip()}"
        for path in sorted(Path(spdid.__file__).parent.glob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if threads.search(line)
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "spec,shared",
    [*[(s, False) for s in CONFIGS], (MetricSpec("alpha_z", 0.5, 0.8), True)],
    ids=lambda v: spec_id(v) if isinstance(v, MetricSpec) else None,
)
def test_spectrum_reuse_matches_cold_computation(spec, shared):
    from spdid.metrics import dispatch

    rng = np.random.default_rng(4)
    if shared:
        # one list on both sides: each matrix is prepared for both sides
        probe = gallery = spd_pool(rng, 5, 8)
    else:
        probe = spd_pool(rng, 5, 3)
        gallery = spd_pool(rng, 5, 3)
    # the non-shared cases leave workers at its default
    workers = {"workers": 4} if shared else {}
    warm = cross_distances(probe, gallery, spec, **workers).values
    cold = np.array(
        [
            [
                dispatch(spec, validate_spd(a.entries), validate_spd(b.entries))
                for b in gallery
            ]
            for a in probe
        ]
    )
    np.testing.assert_array_equal(warm, cold)


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    probe = spd_pool(rng, 4, 4)
    gallery = spd_pool(rng, 4, 4)
    spec = MetricSpec("log")
    base = cross_distances(probe, gallery, spec).values
    perm = [2, 0, 3, 1]
    shuffled = cross_distances([probe[i] for i in perm], gallery, spec).values
    np.testing.assert_array_equal(shuffled, base[perm, :])
    shuffled_cols = cross_distances(probe, [gallery[j] for j in perm], spec).values
    np.testing.assert_array_equal(shuffled_cols, base[:, perm])


def test_mixed_orders_rejected():
    with pytest.raises(DimensionMismatch):
        cross_distances(
            [validate_spd(np.eye(2))], [validate_spd(np.eye(3))], MetricSpec("euclid")
        )


def test_empty_lists_rejected():
    with pytest.raises(InvalidParameter):
        cross_distances([], [validate_spd(np.eye(2))], MetricSpec("euclid"))


@pytest.mark.parametrize("kwargs,message", [
    ({"probe_labels": ["p0"]}, "label lists must match"),
    ({"gallery_labels": ["g0", "g1", "g2"]}, "label lists must match"),
    ({"workers": 0}, "workers must be >= 1"),
], ids=["short_probe_labels", "long_gallery_labels", "workers_0"])
def test_bad_labels_or_workers_rejected(kwargs, message):
    mats = [validate_spd(np.eye(2)), validate_spd(2 * np.eye(2))]
    with pytest.raises(InvalidParameter, match=message):
        cross_distances(mats, mats, MetricSpec("euclid"), **kwargs)


def test_kernel_error_annotated_with_position():
    # constant triangles: each state prepares, the pair then fails
    mats = [validate_spd(2 * np.eye(3)), validate_spd(np.eye(3) + 0.1)]
    with pytest.raises(DegenerateVariance) as err:
        cross_distances(mats, mats, MetricSpec("pearson"), ["p0", "p1"], ["g0", "g1"])
    assert str(err.value).endswith(" [probe 0 (p0) vs gallery 0 (g0)]")


@pytest.mark.parametrize("spec", [s for s in CONFIGS if KINDS[s.kind].eigh], ids=spec_id)
def test_prepare_error_names_its_matrix(monkeypatch, spec):
    rng = np.random.default_rng(8)
    set1 = spd_pool(rng, 4, 3)
    set2 = spd_pool(rng, 4, 3)
    eigh = np.linalg.eigh

    def fails_on_set2_2(m):
        if np.array_equal(m, set2[2].entries):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", fails_on_set2_2)
    with pytest.raises(NumericalError) as err:
        both_directions(set1, set2, spec, ["s1", "s2", "s3"], ["s001", "s002", "s003"])
    assert str(err.value) == "eigensolver did not converge: Eigenvalues did not converge [gallery 2 (s003)]"


def test_labels_default_to_indices():
    d = cross_distances(
        [validate_spd(np.eye(2))], [validate_spd(np.eye(2))], MetricSpec("euclid")
    )
    assert d.probe_labels == ("0",)
    assert d.gallery_labels == ("0",)
