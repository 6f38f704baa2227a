import numpy as np

from spdid import eig_sym, sym_inv_sqrt, sym_log, sym_pow, sym_sqrt, validate_spd
from spdid.matfun import spectrum_map
from support import random_orthogonal, random_spd


def test_eig_identity():
    spec = eig_sym(validate_spd(np.eye(2)))
    np.testing.assert_array_equal(spec.eigenvalues, [1.0, 1.0])
    np.testing.assert_array_equal(spec.eigenvectors, np.eye(2))


def test_eig_diagonal():
    spec = eig_sym(validate_spd(np.diag([4.0, 9.0])))
    np.testing.assert_allclose(spec.eigenvalues, [4.0, 9.0])


def test_eig_2x2_hand_computed():
    # eigenvectors are unique only up to sign: check |components| and A v = lambda v
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    spec = eig_sym(validate_spd(a))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(spec.eigenvectors), np.full((2, 2), 1 / np.sqrt(2)), atol=1e-12)
    np.testing.assert_allclose(a @ spec.eigenvectors, spec.eigenvectors * spec.eigenvalues, atol=1e-12)


def test_spectrum_invariants_random():
    rng = np.random.default_rng(11)
    for n in (2, 5, 20):
        a = random_spd(rng, n)
        spec = eig_sym(a)
        assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert np.all(spec.eigenvalues > 0)
        v = spec.eigenvectors
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-8
        scale = 1 + np.abs(a.entries).max()
        assert np.abs((v * spec.eigenvalues) @ v.T - a.entries).max() <= 1e-8 * scale


def test_pow_one_recovers_input():
    rng = np.random.default_rng(2)
    a = random_spd(rng, 10)
    assert np.abs(sym_pow(a, 1.0).entries - a.entries).max() <= 1e-12 * (
        1 + np.abs(a.entries).max()
    )


def test_sqrt_and_inv_sqrt_diagonal():
    a = validate_spd(np.diag([4.0, 9.0]))
    np.testing.assert_allclose(sym_sqrt(a).entries, np.diag([2.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(
        sym_inv_sqrt(a).entries, np.diag([0.5, 1 / 3]), atol=1e-12
    )


def test_log_eigenvalues():
    lam = np.linalg.eigvalsh(sym_log(validate_spd([[2.0, 1.0], [1.0, 2.0]])))
    np.testing.assert_allclose(lam, [0.0, np.log(3.0)], atol=1e-12)


def test_sqrt_squares_back():
    rng = np.random.default_rng(5)
    for n in (2, 20, 200):
        a = random_spd(rng, n)
        r = sym_sqrt(a).entries
        scale = 1 + np.abs(a.entries).max()
        assert np.abs(r @ r - a.entries).max() <= 1e-8 * scale


def test_power_addition():
    rng = np.random.default_rng(6)
    a = random_spd(rng, 30)
    scale = 1 + np.abs(a.entries).max()
    for p in (-0.5, 0.3, 0.5, 1.0):
        for q in (-0.5, 0.3, 0.5, 1.0):
            lhs = sym_pow(a, p).entries @ sym_pow(a, q).entries
            rhs = sym_pow(a, p + q).entries
            # same eigenbasis, so difference is pure round-off
            assert np.abs(lhs - rhs).max() <= 1e-8 * scale


def test_log_exp_inversion():
    rng = np.random.default_rng(8)
    a = random_spd(rng, 40)
    log_a = sym_log(a)
    lam, vec = np.linalg.eigh(log_a)
    back = (vec * np.exp(lam)) @ vec.T
    assert np.abs(back - a.entries).max() <= 1e-8 * (1 + np.abs(a.entries).max())


def test_orthogonal_congruence():
    rng = np.random.default_rng(9)
    a = random_spd(rng, 15)
    q = random_orthogonal(rng, 15)
    rotated = validate_spd(q @ a.entries @ q.T)
    for p in (0.5, -0.5, 0.3):
        lhs = sym_pow(rotated, p).entries
        rhs = q @ sym_pow(a, p).entries @ q.T
        assert np.abs(lhs - rhs).max() <= 1e-8 * (1 + np.abs(a.entries).max())


def test_outputs_exactly_symmetric():
    rng = np.random.default_rng(10)
    a = random_spd(rng, 17)
    for m in (sym_pow(a, 0.37).entries, sym_log(a)):
        np.testing.assert_array_equal(m, m.T)


def test_repeated_calls_give_the_same_bits():
    # nothing is cached, so a kernel's states are recomputed per sweep and
    # dispatch call; recomputing must reproduce every bit
    rng = np.random.default_rng(12)
    a = random_spd(rng, 6)
    first, again = sym_pow(a, 0.5), sym_pow(a, 0.5)
    assert first is not again
    assert first.entries.tobytes() == again.entries.tobytes()
    assert first.min_eigenvalue == again.min_eigenvalue
    for x, y in zip(eig_sym(a), eig_sym(a)):
        assert x.tobytes() == y.tobytes()
    assert sym_log(a).tobytes() == sym_log(a).tobytes()


def test_spectrum_map_ignores_eigenvector_signs():
    # eig_sym returns LAPACK's signs; a spectral map must not depend on them
    rng = np.random.default_rng(13)
    for n in (5, 100, 200):
        lam, vec = eig_sym(random_spd(rng, n))
        signs = rng.choice([-1.0, 1.0], size=n)
        for values in (lam, lam**0.5, lam**-0.5, np.log(lam)):
            assert spectrum_map(vec * signs, values).tobytes() == spectrum_map(vec, values).tobytes()
