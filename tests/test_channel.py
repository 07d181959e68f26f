"""Exact channel parameters, spectra, and pseudo-inverse behaviour.

The rational weights asserted here were derived independently (symbolic
moment sums over the invariant delta/form bases, cross-checked by Monte
Carlo in the fit and verify suites) and are frozen as exact fractions.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symshadows import channel
from symshadows.channel import (
    DENSE_MAX_DIM,
    NULL_TOL,
    ChannelWeights,
    apply_channel,
    build_superoperator,
    channel_spectrum,
    channel_weights,
    choi_matrix,
    dephase,
    invert_channel,
    parent_channel,
)
from symshadows.rng import RngStream
from symshadows.shadows import random_observable, random_pure_state, run_estimation
from symshadows.spaces import ALL_FAMILIES, GROUP_FAMILIES, make_space

ALL_D4_SPECS = [
    make_space("U", 4),
    make_space("O", 4),
    make_space("SO", 4),
    make_space("SP", 4),
    make_space("AI", 4),
    make_space("AII", 4),
    make_space("AIII", 4, 2, 2),
    make_space("BDI", 4, 2, 2),
    make_space("DIII", 4),
    make_space("CI", 4),
    make_space("CII", 4, 1, 1),
]


def _random_hermitian(d, seed=0):
    gen = RngStream(seed).generator()
    m = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    return m + m.conj().T


# ----------------------------------------------------------------- weights


FROZEN_WEIGHTS = [
    (make_space("AI", 2), Fraction(1, 5), Fraction(1, 5)),
    (make_space("AI", 3), Fraction(1, 9), Fraction(1, 9)),
    (make_space("AI", 4), Fraction(1, 14), Fraction(1, 14)),
    (make_space("AII", 4), Fraction(1, 6), Fraction(1, 6)),
    (make_space("AIII", 4, 2, 2), Fraction(1, 21), Fraction(1, 21)),
    (make_space("AIII", 4, 3, 1), Fraction(1, 7), Fraction(1, 7)),
    (make_space("BDI", 4, 2, 2), Fraction(1, 25), Fraction(1, 25)),
    (make_space("DIII", 4), Fraction(1, 5), Fraction(1, 5)),
    (make_space("CI", 4), Fraction(1, 7), Fraction(13, 105)),
    (make_space("CII", 4, 1, 1), Fraction(3, 7), Fraction(11, 35)),
    (make_space("CII", 8, 2, 2), Fraction(5, 77), Fraction(37, 693)),
]


@pytest.mark.parametrize(
    "spec,alpha,beta", FROZEN_WEIGHTS, ids=[s.label() for s, _, _ in FROZEN_WEIGHTS]
)
def test_channel_weights_frozen_values(spec, alpha, beta):
    w = channel_weights(spec)
    assert isinstance(w, ChannelWeights)
    assert isinstance(w.mixing_weight, Fraction)
    assert w.mixing_weight == alpha
    assert w.dephasing_weight == beta
    assert w.has_pair_term == (w.parent == "SP" and alpha != beta)
    assert w.pair_coupling_weight == alpha - beta


def test_channel_weights_degenerate_split_is_fully_dephasing():
    for spec in [make_space("AIII", 4, 4, 0), make_space("BDI", 3, 0, 3)]:
        w = channel_weights(spec)
        assert w.mixing_weight == 1
        assert w.dephasing_weight == 1


def test_channel_weights_rejects_groups():
    for family in ("U", "O", "SO", "SP"):
        with pytest.raises(ValueError):
            channel_weights(make_space(family, 4))


def test_cii_minimal_dimension_weights_are_unity():
    w = channel_weights(make_space("CII", 2, 1, 0))
    assert w.mixing_weight == 1
    assert w.dephasing_weight == 1


# ----------------------------------------------------------------- channel


def test_dephase_zeroes_off_diagonal():
    m = _random_hermitian(4)
    out = dephase(m)
    np.testing.assert_array_equal(np.diag(out), np.diag(m))
    assert np.all(out[~np.eye(4, dtype=bool)] == 0)
    with pytest.raises(ValueError):
        dephase(np.zeros((2, 3)))


def test_parent_channel_closed_forms():
    m = _random_hermitian(5)
    d = 5
    expected_u = (np.trace(m) * np.eye(d) + m) / (d + 1)
    expected_o = (np.trace(m) * np.eye(d) + m + m.T) / (d + 2)
    np.testing.assert_allclose(parent_channel("U", m), expected_u, atol=1e-14)
    np.testing.assert_allclose(parent_channel("SP", m), expected_u, atol=1e-14)
    np.testing.assert_allclose(parent_channel("O", m), expected_o, atol=1e-14)
    np.testing.assert_allclose(parent_channel("SO", m), expected_o, atol=1e-14)
    with pytest.raises(ValueError):
        parent_channel("G2", m)


def test_apply_channel_frozen_real_symmetric_case():
    # one fully hand-computed case: dim-2 real-symmetric ensemble acting on
    # the projector |0><0| gives diag(11/15, 4/15)
    spec = make_space("AI", 2)
    rho = np.diag([1.0, 0.0]).astype(complex)
    out = apply_channel(spec, rho)
    np.testing.assert_allclose(out, np.diag([11 / 15, 4 / 15]), atol=1e-15)


@pytest.mark.parametrize("spec", ALL_D4_SPECS, ids=[s.label() for s in ALL_D4_SPECS])
def test_apply_channel_preserves_trace_and_hermiticity(spec):
    m = _random_hermitian(spec.dim, seed=3)
    out = apply_channel(spec, m)
    assert abs(np.trace(out) - np.trace(m)) < 1e-12
    np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


def test_apply_channel_rejects_wrong_shape():
    with pytest.raises(ValueError):
        apply_channel(make_space("U", 4), np.eye(3))


def test_degenerate_split_channel_is_exactly_dephasing():
    # a one-sided signature forces every rotation to the identity, so the
    # channel must equal plain diagonal projection with no roundoff at all
    spec = make_space("AIII", 4, 4, 0)
    m = _random_hermitian(4, seed=9)
    np.testing.assert_array_equal(apply_channel(spec, m), dephase(m))


# ------------------------------------------------------- superop / spectra


@pytest.mark.parametrize("spec", ALL_D4_SPECS, ids=[s.label() for s in ALL_D4_SPECS])
def test_superoperator_is_hermitian_and_matches_channel(spec):
    s = build_superoperator(spec)
    np.testing.assert_allclose(s, s.conj().T, atol=1e-13)
    m = _random_hermitian(spec.dim, seed=5)
    vec_out = s @ m.reshape(-1)
    np.testing.assert_allclose(
        vec_out.reshape(spec.dim, spec.dim), apply_channel(spec, m), atol=1e-12
    )


@pytest.mark.parametrize("spec", ALL_D4_SPECS, ids=[s.label() for s in ALL_D4_SPECS])
def test_choi_matrix_is_positive_semidefinite(spec):
    evals = np.linalg.eigvalsh(choi_matrix(spec))
    assert evals.min() > -1e-12


@pytest.mark.parametrize("spec", ALL_D4_SPECS, ids=[s.label() for s in ALL_D4_SPECS])
def test_spectrum_matches_dense_diagonalization(spec):
    spectrum = channel_spectrum(spec)
    assert sum(spectrum.multiplicities) == spec.dim**2
    dense = np.sort(np.linalg.eigvalsh(build_superoperator(spec)))[::-1]
    np.testing.assert_allclose(spectrum.dense(), dense, atol=1e-10)


def test_group_spectra_closed_forms():
    d = 4
    u = channel_spectrum(make_space("U", d))
    assert u.eigenvalue("identity") == pytest.approx(1.0, abs=1e-14)
    assert u.eigenvalue("traceless") == pytest.approx(1 / (d + 1), abs=1e-14)
    assert u.multiplicities == (1, d * d - 1)
    o = channel_spectrum(make_space("O", d))
    assert o.eigenvalue("symmetric_traceless") == pytest.approx(
        2 / (d + 2), abs=1e-14
    )
    assert o.eigenvalue("antisymmetric") == pytest.approx(0.0, abs=1e-14)
    assert o.multiplicities == (1, d * (d + 1) // 2 - 1, d * (d - 1) // 2)


def test_unitary_parent_quotient_spectrum_closed_form():
    d = 4
    spec = make_space("AIII", d, 2, 2)
    alpha = float(channel_weights(spec).mixing_weight)
    s = channel_spectrum(spec)
    lam_off = (1 - alpha) / (d + 1)
    assert s.eigenvalue("diagonal") == pytest.approx(lam_off + alpha, abs=1e-14)
    assert s.eigenvalue("off_diagonal") == pytest.approx(lam_off, abs=1e-14)
    assert s.multiplicities == (1, d - 1, d * d - d)


def test_orthogonal_parent_quotient_spectrum_closed_form():
    d = 4
    spec = make_space("BDI", d, 2, 2)
    alpha = float(channel_weights(spec).mixing_weight)
    s = channel_spectrum(spec)
    lam_off = 2 * (1 - alpha) / (d + 2)
    assert s.eigenvalue("diagonal") == pytest.approx(lam_off + alpha, abs=1e-14)
    assert s.eigenvalue("symmetric_off_diagonal") == pytest.approx(
        lam_off, abs=1e-14
    )
    assert s.eigenvalue("antisymmetric") == pytest.approx(0.0, abs=1e-14)


def test_symplectic_parent_quotient_spectra_frozen():
    # the closed-form SP-parent sectors, in channel_spectrum's order with
    # zero-multiplicity sectors dropped; values frozen as exact fractions
    ci = channel_spectrum(make_space("CI", 4))
    np.testing.assert_allclose(
        ci.eigenvalues, [1.0, 11 / 35, 29 / 105, 4 / 21, 6 / 35], atol=1e-12
    )
    assert ci.multiplicities == (1, 1, 2, 4, 8)
    cii = channel_spectrum(make_space("CII", 4, 1, 1))
    np.testing.assert_allclose(
        cii.eigenvalues, [1.0, 19 / 35, 11 / 35, 8 / 35, 4 / 35], atol=1e-12
    )
    assert cii.multiplicities == (1, 1, 2, 4, 8)


def test_sector_spectrum_label_lookup_raises_on_unknown():
    s = channel_spectrum(make_space("U", 3))
    with pytest.raises(KeyError):
        s.eigenvalue("no_such_sector")


# ------------------------------------------------------------ pseudo-inverse


@pytest.mark.parametrize("spec", ALL_D4_SPECS, ids=[s.label() for s in ALL_D4_SPECS])
def test_pseudo_inverse_fixes_identity_and_channel_image(spec):
    inv = invert_channel(spec)
    d = spec.dim
    np.testing.assert_allclose(inv(np.eye(d)), np.eye(d), atol=1e-12)
    # M o M+ o M == M on arbitrary Hermitian input
    m = _random_hermitian(d, seed=7)
    once = apply_channel(spec, m)
    again = apply_channel(spec, inv(once))
    np.testing.assert_allclose(again, once, atol=1e-11)


def test_pseudo_inverse_reciprocates_sector_eigenvalues():
    spec = make_space("AIII", 4, 2, 2)
    inv = invert_channel(spec)
    s = channel_spectrum(spec)
    diag_op = np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex)
    np.testing.assert_allclose(
        inv(diag_op), diag_op / s.eigenvalue("diagonal"), atol=1e-13
    )
    off = np.zeros((4, 4), dtype=complex)
    off[0, 1] = off[1, 0] = 1.0
    np.testing.assert_allclose(
        inv(off), off / s.eigenvalue("off_diagonal"), atol=1e-13
    )


def test_pseudo_inverse_annihilates_null_sectors():
    spec = make_space("BDI", 4, 2, 2)
    inv = invert_channel(spec)
    anti = np.zeros((4, 4), dtype=complex)
    anti[0, 1], anti[1, 0] = 1.0, -1.0
    np.testing.assert_allclose(inv(anti), 0.0, atol=1e-14)
    assert inv.removed_norm(anti) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert inv.is_projected(anti)
    sym = np.zeros((4, 4), dtype=complex)
    sym[0, 1] = sym[1, 0] = 1.0
    assert not inv.is_projected(sym)
    assert inv.removed_norm(sym) < 1e-12


def test_pseudo_inverse_of_fully_dephasing_quotient():
    spec = make_space("AIII", 4, 4, 0)
    inv = invert_channel(spec)
    m = _random_hermitian(4, seed=11)
    # only the diagonal survives: M is exact dephasing, so M+ == dephase
    np.testing.assert_allclose(inv(m), dephase(m), atol=1e-13)
    assert inv.is_projected(m)


def test_pseudo_inverse_of_fully_dephasing_symplectic_quotient():
    # one-sided quaternionic blocks: a = b = 1, so M is exact dephasing
    spec = make_space("CII", 8, 4, 0)
    inv = invert_channel(spec)
    m = _random_hermitian(8, seed=12)
    np.testing.assert_allclose(inv(m), dephase(m), atol=1e-13)
    assert inv.is_projected(m)


def test_invert_channel_is_cached():
    spec = make_space("CI", 4)
    assert invert_channel(spec) is invert_channel(make_space("CI", 4))


def test_pseudo_inverse_rejects_wrong_shape():
    inv = invert_channel(make_space("U", 4))
    with pytest.raises(ValueError):
        inv(np.eye(3))


# ------------------------------------------- closed form vs the dense oracle


_EVEN_DIM = {"SP", "AII", "DIII", "CI", "CII"}


@st.composite
def _admissible_specs(draw):
    family = draw(st.sampled_from(ALL_FAMILIES))
    if family in _EVEN_DIM:
        d = 2 * draw(st.integers(1, 12))
    else:
        d = draw(st.integers(1 if family in GROUP_FAMILIES else 2, 24))
    if family in ("AIII", "BDI"):
        p = draw(st.integers(0, d))
        return make_space(family, d, p, d - p)
    if family == "CII":
        p = draw(st.integers(0, d // 2))
        return make_space(family, d, p, d // 2 - p)
    return make_space(family, d)


def _dense_pinv_and_null_projector(spec):
    vals, vecs = np.linalg.eigh(build_superoperator(spec))
    keep = np.abs(vals) > NULL_TOL
    inv_vals = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    pinv = (vecs * inv_vals) @ vecs.conj().T
    null_proj = (vecs * ~keep) @ vecs.conj().T
    return pinv, null_proj, vals


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(spec=_admissible_specs(), seed=st.integers(0, 2**32 - 1))
@example(spec=make_space("CII", 2, 1, 0), seed=0)
@example(spec=make_space("CII", 8, 4, 0), seed=1)
@example(spec=make_space("CI", 2), seed=2)
@example(spec=make_space("AIII", 2, 2, 0), seed=3)
@example(spec=make_space("BDI", 5, 0, 5), seed=4)
@example(spec=make_space("SP", 2), seed=5)
@example(spec=make_space("O", 1), seed=6)
def test_closed_form_inverse_matches_dense_oracle(spec, seed):
    d = spec.dim
    gen = np.random.default_rng(seed)
    m = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    m /= np.linalg.norm(m)
    pinv, null_proj, vals = _dense_pinv_and_null_projector(spec)
    inv = invert_channel(spec)
    dense_out = (pinv @ m.reshape(-1)).reshape(d, d)
    assert np.max(np.abs(inv.apply(m) - dense_out)) <= 1e-10
    assert abs(inv.removed_norm(m) - np.linalg.norm(null_proj @ m.reshape(-1))) <= 1e-10
    np.testing.assert_allclose(
        channel_spectrum(spec).dense(), np.sort(vals)[::-1], atol=1e-10
    )
    once = apply_channel(spec, m)
    np.testing.assert_allclose(apply_channel(spec, inv(once)), once, atol=1e-10)


def test_dense_superoperator_refuses_large_dimension():
    spec = make_space("CI", DENSE_MAX_DIM + 2)
    with pytest.raises(ValueError, match=r"d = 66 needs \d+ bytes .*limit is d <= 64"):
        build_superoperator(spec)
    with pytest.raises(ValueError, match="limit is d <= 64"):
        choi_matrix(spec)


def test_symplectic_parent_inverse_runs_at_d128_without_dense_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense superoperator path used")

    monkeypatch.setattr(channel, "build_superoperator", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    invert_channel.cache_clear()
    m = _random_hermitian(128, seed=13)
    for spec in (make_space("CI", 128), make_space("CII", 128, 40, 24)):
        inv = invert_channel(spec)
        once = apply_channel(spec, m)
        np.testing.assert_allclose(apply_channel(spec, inv(once)), once, atol=1e-9)
    spec = make_space("CII", 128, 40, 24)
    report = run_estimation(
        spec,
        random_pure_state(128, RngStream(14)),
        random_observable(128, 0.5, rng=RngStream(15)),
        16,
        rng=RngStream(16),
    )
    assert np.isfinite(report.mean)


_SPLIT_SPECS = ALL_D4_SPECS + [
    make_space("AII", 2),
    make_space("BDI", 4, 0, 4),
    make_space("CII", 4, 0, 2),
    make_space("CI", 2),
]


@pytest.mark.parametrize("spec", _SPLIT_SPECS, ids=lambda s: s.label())
def test_split_of_a_stack_splits_each_matrix(spec):
    gen = RngStream(17).generator()
    d = spec.dim
    stack = gen.standard_normal((3, d, d)) + 1j * gen.standard_normal((3, d, d))
    split = invert_channel(spec).split(stack)
    assert split.inverse.shape == split.null.shape == stack.shape
    for k, m in enumerate(stack):
        one = invert_channel(spec).split(m)
        np.testing.assert_array_equal(split.inverse[k], one.inverse)
        np.testing.assert_array_equal(split.null[k], one.null)


@pytest.mark.parametrize(
    "spec",
    [
        make_space("U", 128),
        make_space("O", 128),
        make_space("AIII", 128, 64, 64),
        make_space("BDI", 128, 80, 48),
        make_space("DIII", 128),
        make_space("CI", 128),
        make_space("CII", 128, 40, 24),
    ],
    ids=lambda s: s.label(),
)
def test_split_holds_two_arrays(spec):
    # One (2, d, d) block for M+(m) and the null part, plus O(d) vectors
    # (and, for orthogonal parents, NumPy's buffer for the transposed add).
    m = _random_hermitian(128, seed=18)
    inv = invert_channel(spec)
    inv.split(m)
    tracemalloc.start()
    try:
        inv.split(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * m.nbytes


@pytest.mark.parametrize("spec", _SPLIT_SPECS, ids=lambda s: s.label())
def test_apply_is_the_inverse_of_split_to_the_bit(spec):
    # apply forms M+(m) alone, without the null part and its norms.
    gen = RngStream(19).generator()
    d = spec.dim
    complex_ = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    for m in (complex_, complex_.real + complex_.real.T, complex_[None].repeat(2, axis=0)):
        inverse = invert_channel(spec).apply(m)
        assert inverse.tobytes() == invert_channel(spec).split(m).inverse.tobytes()


def test_apply_holds_one_array(monkeypatch):
    # M+(m) is one (d, d) array, and no norm is taken.
    spec = make_space("BDI", 128, 80, 48)
    m = _random_hermitian(128, seed=20)
    inv = invert_channel(spec)

    def refuse(*args, **kwargs):
        raise AssertionError("apply took a norm")

    monkeypatch.setattr(np.linalg, "norm", refuse)
    inv.apply(m)
    tracemalloc.start()
    try:
        inv.apply(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * m.nbytes
