"""Closed-form second moments of the signature-tunable estimators.

The frozen fractions below were validated out of band against large
Monte-Carlo runs of the full estimator pipeline (see the acceptance tests
for the in-repo version of that comparison).
"""

from fractions import Fraction

import numpy as np
import pytest

from symshadows.channel import channel_weights, dephase
from symshadows.rng import RngStream
from symshadows.shadows import shadow_estimates
from symshadows.spaces import make_space
from symshadows.variance import (
    analytic_second_moment,
    second_moment_aiii,
    second_moment_bdi,
    second_moment_coefficients,
)
from symshadows.variance import (
    _second_moment_aiii_expanded,
    _second_moment_bdi_expanded,
)


def _random_state(d, seed):
    gen = RngStream(seed).generator()
    g = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _random_observable(d, seed, real=False):
    gen = RngStream(seed).generator()
    o = gen.standard_normal((d, d))
    if not real:
        o = o + 1j * gen.standard_normal((d, d))
    return o + o.conj().T


# ------------------------------------------------------------- coefficients


def test_frozen_coefficients_aiii():
    c = second_moment_coefficients("AIII", 2, 0)
    assert c.diag_eigenvalue == Fraction(7, 15)
    assert c.offdiag_eigenvalue == Fraction(4, 15)
    assert c.c_full == Fraction(4, 105)
    assert c.c_mixed == Fraction(2, 35)
    assert c.c_diag == Fraction(-1, 7)


def test_frozen_coefficients_bdi():
    c = second_moment_coefficients("BDI", 4, 0)
    assert c.diag_eigenvalue == Fraction(9, 25)
    assert c.offdiag_eigenvalue == Fraction(8, 25)
    assert c.c_full == Fraction(24, 1225)
    assert c.c_mixed == Fraction(2, 1225)
    assert c.c_diag == Fraction(1, 49)


@pytest.mark.parametrize("d", range(2, 17))
def test_aiii_eigenvalue_identities_exact(d):
    for s in range(-d, d + 1, 2):
        p, q = (d + s) // 2, (d - s) // 2
        alpha = channel_weights(make_space("AIII", d, p, q)).mixing_weight
        c = second_moment_coefficients("AIII", d, s)
        assert c.offdiag_eigenvalue == (1 - alpha) / (d + 1)
        assert c.diag_eigenvalue == c.offdiag_eigenvalue + alpha


@pytest.mark.parametrize("d", range(2, 17))
def test_bdi_eigenvalue_identities_exact(d):
    for s in range(-d, d + 1, 2):
        p, q = (d + s) // 2, (d - s) // 2
        alpha = channel_weights(make_space("BDI", d, p, q)).mixing_weight
        c = second_moment_coefficients("BDI", d, s)
        assert c.offdiag_eigenvalue == 2 * (1 - alpha) / (d + 2)
        assert c.diag_eigenvalue == c.offdiag_eigenvalue + alpha


def test_signature_sign_symmetry():
    # swapping the blocks cannot change any second-moment quantity
    a = second_moment_coefficients("AIII", 6, 2)
    b = second_moment_coefficients("AIII", 6, -2)
    assert (a.c_full, a.c_mixed, a.c_diag) == (b.c_full, b.c_mixed, b.c_diag)


def test_degenerate_signature_collapses_to_diagonal_term():
    c = second_moment_coefficients("AIII", 4, 4)
    assert (c.c_full, c.c_mixed, c.c_diag) == (0, 0, 1)
    assert c.diag_eigenvalue == 1
    assert c.offdiag_eigenvalue == 0


def test_coefficients_reject_bad_inputs():
    with pytest.raises(ValueError):
        second_moment_coefficients("CI", 4, 0)
    with pytest.raises(ValueError):
        second_moment_coefficients("AIII", 4, 1)  # parity mismatch
    with pytest.raises(ValueError):
        second_moment_coefficients("AIII", 4, 6)  # |s| > d


# ----------------------------------------------------------- second moments


@pytest.mark.parametrize("s", [0, 2])
def test_aiii_assembled_matches_expanded(s):
    d = 4
    spec = make_space("AIII", d, (d + s) // 2, (d - s) // 2)
    rho = _random_state(d, 40)
    obs = _random_observable(d, 41)
    a = second_moment_aiii(rho, obs, spec)
    b = _second_moment_aiii_expanded(rho, obs, spec)
    assert a == pytest.approx(b, rel=1e-10)


@pytest.mark.parametrize("s", [0, 2])
def test_bdi_assembled_matches_expanded(s):
    d = 4
    spec = make_space("BDI", d, (d + s) // 2, (d - s) // 2)
    rho = _random_state(d, 42)
    obs = _random_observable(d, 43, real=True)
    a = second_moment_bdi(rho, obs, spec)
    b = _second_moment_bdi_expanded(rho, obs, spec)
    assert a == pytest.approx(b, rel=1e-10)


def test_degenerate_second_moment_is_diagonal_average():
    spec = make_space("AIII", 4, 4, 0)
    rho = _random_state(4, 44)
    obs = _random_observable(4, 45)
    o0 = obs - np.trace(obs) / 4 * np.eye(4)
    diag = dephase(o0)
    expected = np.trace(rho @ diag @ diag).real
    assert second_moment_aiii(rho, obs, spec) == pytest.approx(expected, rel=1e-12)


def test_second_moment_input_validation():
    rho = _random_state(4, 46)
    obs = _random_observable(4, 47)
    with pytest.raises(ValueError):
        second_moment_aiii(rho, obs, make_space("BDI", 4, 2, 2))
    with pytest.raises(ValueError):
        second_moment_aiii(np.eye(3) / 3, obs, make_space("AIII", 4, 2, 2))


def test_dispatcher_covers_closed_form_families_only():
    rho = _random_state(4, 48)
    obs = _random_observable(4, 49)
    aiii = make_space("AIII", 4, 2, 2)
    assert analytic_second_moment(rho, obs, aiii) == pytest.approx(
        second_moment_aiii(rho, obs, aiii)
    )
    bdi = make_space("BDI", 4, 2, 2)
    assert analytic_second_moment(rho, obs, bdi) == pytest.approx(
        second_moment_bdi(rho, obs, bdi)
    )
    for other in [make_space("U", 4), make_space("CI", 4), make_space("AI", 4)]:
        assert analytic_second_moment(rho, obs, other) is None


def test_second_moment_matches_monte_carlo():
    # AIII is the k = 1 branch of the assembly, BDI (real observable) k = 2.
    d = 4
    for family, moment, seed, real in (
        ("AIII", second_moment_aiii, 50, False),
        ("BDI", second_moment_bdi, 53, True),
    ):
        spec = make_space(family, d, 2, 2)
        rho = _random_state(d, seed)
        obs = _random_observable(d, seed + 1, real=real)
        obs = obs - np.trace(obs) / d * np.eye(d)
        predicted = moment(rho, obs, spec)
        values = shadow_estimates(spec, rho, obs, 40_000, RngStream(seed + 2))
        sq = values**2
        sem = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(sq.mean() - predicted) <= 5 * sem, family


@pytest.mark.parametrize("family", ["AIII", "BDI"])
@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_assembly_matches_expanded_at_every_signature(family, d):
    # |s| = d empties the off-diagonal sector, which the expansion divides by.
    expanded = {"AIII": _second_moment_aiii_expanded, "BDI": _second_moment_bdi_expanded}
    rho = _random_state(d, 56)
    obs = _random_observable(d, 57, real=family == "BDI")
    for s in range(2 - d, d - 1, 2):
        spec = make_space(family, d, (d + s) // 2, (d - s) // 2)
        a = analytic_second_moment(rho, obs, spec)
        assert a == pytest.approx(expanded[family](rho, obs, spec), rel=1e-10), s


def test_seeded_second_moments_are_pinned():
    rho = _random_state(5, 60)
    aiii = make_space("AIII", 5, 3, 2)
    assert analytic_second_moment(rho, _random_observable(5, 61), aiii) == pytest.approx(
        92.04196882758126, rel=1e-12
    )
    bdi = make_space("BDI", 5, 4, 1)
    obs = _random_observable(5, 61, real=True)
    assert analytic_second_moment(rho, obs, bdi) == pytest.approx(27.86911058000758, rel=1e-12)
