import math

import numpy as np
import pytest

from spdid import MetricSpec, compute_id_rate, id_report, nearest_match_table
from spdid.core import LabelMismatch, NotSquare
from spdid.pairwise import DistanceMatrix


def dm(values, probe=None, gallery=None):
    values = np.asarray(values, dtype=float)
    n_p, n_g = values.shape
    probe = tuple(probe) if probe else tuple(f"s{i}" for i in range(n_p))
    gallery = tuple(gallery) if gallery else tuple(f"s{j}" for j in range(n_g))
    return DistanceMatrix(probe, gallery, values, MetricSpec("euclid"))


def brute_force_hits(values):
    """Independent double-loop argmin oracle."""
    n = values.shape[0]
    hits = []
    for i in range(n):
        hit = True
        for j in range(n):
            if j != i and values[i, j] <= values[i, i]:
                hit = False
        hits.append(hit)
    return hits


def brute_force_nearest(values):
    """Independent double-loop oracle: (closest, within, best other, ambiguous) per row."""
    n = values.shape[0]
    rows = []
    for i in range(n):
        closest = 0
        best_other = math.inf
        for j in range(n):
            if values[i, j] < values[i, closest]:
                closest = j  # strict, so the lowest index keeps a tie
            if j != i and values[i, j] < best_other:
                best_other = values[i, j]
        ties = sum(1 for j in range(n) if values[i, j] == values[i, closest])
        rows.append((closest, values[i, i], best_other, ties > 1))
    return rows


class TestComputeIdRate:
    def test_perfect_diagonal(self):
        rate, hits = compute_id_rate(dm([[0.1, 0.9], [0.8, 0.2]]))
        assert rate == 1.0
        assert hits == (True, True)

    def test_tie_is_miss(self):
        rate, hits = compute_id_rate(dm([[0.5, 0.5], [0.3, 0.2]]))
        assert rate == 0.5
        assert hits == (False, True)

    def test_singleton_vacuous_hit(self):
        rate, hits = compute_id_rate(dm([[0.0]]))
        assert rate == 1.0
        assert hits == (True,)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            compute_id_rate(dm(np.zeros((2, 3))))

    def test_label_mismatch(self):
        with pytest.raises(LabelMismatch):
            compute_id_rate(dm(np.zeros((2, 2)), probe=("a", "b"), gallery=("b", "a")))

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            values = rng.random((n, n))
            # engineer some exact ties onto the diagonal
            if n > 1 and rng.random() < 0.5:
                i = int(rng.integers(n))
                j = (i + 1) % n
                values[i, j] = values[i, i]
            rate, hits = compute_id_rate(dm(values))
            expected = brute_force_hits(values)
            assert list(hits) == expected
            assert rate == sum(expected) / n

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(18)
        values = rng.random((10, 10))
        _, hits = compute_id_rate(dm(values))
        for f in (np.sqrt, lambda x: x**3 + x, lambda x: 5 * x + 2, np.log1p):
            _, hits_f = compute_id_rate(dm(f(values)))
            assert hits_f == hits

    def test_joint_permutation_preserves_rate(self):
        rng = np.random.default_rng(19)
        values = rng.random((8, 8))
        labels = tuple(f"s{i}" for i in range(8))
        rate, _ = compute_id_rate(dm(values, labels, labels))
        perm = rng.permutation(8)
        p_labels = tuple(labels[i] for i in perm)
        rate_p, _ = compute_id_rate(dm(values[np.ix_(perm, perm)], p_labels, p_labels))
        assert rate_p == rate


class TestIdReport:
    def test_perfect_both_directions(self):
        d = dm([[0.0, 1.0], [1.0, 0.0]])
        rep = id_report(d, d)
        assert rep.id12 == rep.id21 == rep.mean == 1.0
        assert rep.n_subjects == 2

    def test_mean_of_mixed_directions(self):
        d12 = dm([[0.1, 0.9], [0.9, 0.1]])
        d21 = dm([[0.5, 0.1], [0.1, 0.5]])
        rep = id_report(d12, d21)
        assert rep.id12 == 1.0
        assert rep.id21 == 0.0
        assert rep.mean == 0.5

    def test_mean_is_exact_average(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            v1, v2 = rng.random((5, 5)), rng.random((5, 5))
            rep = id_report(dm(v1), dm(v2))
            assert rep.mean == (rep.id12 + rep.id21) / 2

    def test_inconsistent_labels_rejected(self):
        d12 = dm(np.zeros((2, 2)), ("a", "b"), ("a", "b"))
        d21 = dm(np.zeros((2, 2)), ("x", "y"), ("x", "y"))
        with pytest.raises(LabelMismatch):
            id_report(d12, d21)


class TestNearestMatchTable:
    def test_perfect_diagonal(self):
        rows = nearest_match_table(dm([[0.1, 0.9], [0.8, 0.2]]))
        for row in rows:
            assert row.closest_gallery_label == row.probe_label
            assert row.within_distance < row.best_other_distance
            assert not row.ambiguous

    def test_misidentification_reported(self):
        rows = nearest_match_table(
            dm([[0.340, 0.332], [0.9, 0.1]], ("s1", "s2"), ("s1", "s2"))
        )
        assert rows[0].closest_gallery_label == "s2"
        assert rows[0].within_distance == pytest.approx(0.340)
        assert rows[0].best_other_distance == pytest.approx(0.332)

    def test_tie_flagged_lowest_index(self):
        rows = nearest_match_table(
            dm([[0.5, 0.5], [0.9, 0.1]], ("a", "b"), ("a", "b"))
        )
        assert rows[0].ambiguous
        assert rows[0].closest_gallery_label == "a"

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(1, 31))
            if rng.random() < 0.3:
                values = rng.integers(0, 4, size=(n, n)).astype(float)  # dense ties
            else:
                values = rng.random((n, n))
            # plant exact ties at the row minimum, on and off the diagonal
            for i in rng.integers(n, size=n // 2):
                j1, j2 = sorted(rng.choice(n, size=2)) if n > 1 else (0, 0)
                values[i, j1] = values[i, j2] = values[i].min()
            labels = tuple(f"s{i}" for i in range(n))
            rows = nearest_match_table(dm(values, labels, labels))
            assert len(rows) == n
            for row, label, (closest, within, best_other, ambiguous) in zip(
                rows, labels, brute_force_nearest(values)
            ):
                assert row.probe_label == label
                assert row.closest_gallery_label == labels[closest]
                assert row.within_distance == within
                assert row.best_other_distance == best_other
                assert row.ambiguous == ambiguous
