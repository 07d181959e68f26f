"""The per-sample kernels against explicit loops over their definitions."""

import numpy as np
import pytest

from symshadows import _kernels
from symshadows.haar import haar_unitary, symplectic_form, symplectic_pairing
from symshadows.rng import RngStream


@pytest.fixture(scope="module")
def batch():
    d = 6
    rng = RngStream(100)
    v = np.ascontiguousarray(haar_unitary(d, rng.child(0), size=32))
    gen = rng.child(1).generator()
    u = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    u /= np.linalg.norm(u)
    x = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    x = x + x.conj().T
    uniforms = gen.random(32)
    _, jsign = symplectic_pairing(d)
    return {
        "v": v,
        "amplitudes": v @ u,
        "x": np.ascontiguousarray(x),
        "uniforms": uniforms,
        "jsign": jsign,
    }


def test_born_probs_rows_are_distributions(batch):
    amplitudes = batch["amplitudes"]
    p = _kernels.born_probs(amplitudes)
    assert p.shape == (32, 6)
    assert np.all(p >= 0.0)
    np.testing.assert_allclose(p, np.abs(amplitudes) ** 2, rtol=1e-14, atol=0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)


def test_choose_outcomes_matches_inverse_cdf(batch):
    p = _kernels.born_probs(batch["amplitudes"])
    idx = _kernels.choose_outcomes(p, batch["uniforms"])
    cum = np.cumsum(p, axis=1)
    for n in range(p.shape[0]):
        u = batch["uniforms"][n]
        w = idx[n]
        assert cum[n, w] >= u or w == p.shape[1] - 1
        if w > 0:
            assert cum[n, w - 1] < u


def test_choose_outcomes_final_bin_absorbs_roundoff():
    probs = np.array([[0.25, 0.25, 0.25, 0.25 - 1e-12]])
    uniforms = np.array([1.0 - 1e-13])
    idx = _kernels.choose_outcomes(probs, uniforms)
    assert idx[0] == 3


def test_row_quadratic_matches_direct_form(batch):
    rows = batch["v"][:, 0, :]
    got = _kernels.row_quadratic(rows, batch["x"])
    expected = np.array(
        [(r @ batch["x"] @ r.conj()).real for r in rows]
    )
    np.testing.assert_allclose(got, expected, atol=1e-12)


def _moment_contribution(v):
    """T[a, b, i, j] = sum_w v_wa conj(v_wb) conj(v_wi) v_wj for one sample."""
    d = v.shape[0]
    t = np.zeros((d, d, d, d), dtype=complex)
    for row in v:
        t += np.einsum("a,b,i,j->abij", row, row.conj(), row.conj(), row)
    return t


def _delta_basis(parent, d):
    """The parent group's delta tensors, indexed [a, b, i, j]."""
    eye = np.eye(d)
    deph = np.zeros((d, d, d, d))
    for a in range(d):
        deph[a, a, a, a] = 1.0
    basis = [np.einsum("ab,ij->abij", eye, eye), np.einsum("ai,bj->abij", eye, eye)]
    if parent == "U":
        return basis + [deph]
    if parent == "O":
        return basis + [np.einsum("aj,bi->abij", eye, eye), deph]
    form = symplectic_form(d)
    jperm, _ = symplectic_pairing(d)
    pair_diag = np.zeros((d, d, d, d))
    pair_cross = np.zeros((d, d, d, d))
    for a in range(d):
        pair_diag[a, a, jperm[a], jperm[a]] = 1.0
        pair_cross[a, jperm[a], a, jperm[a]] = 1.0
    form_term = np.einsum("aj,bi->abij", form, form)
    return basis + [form_term, deph, pair_diag, pair_cross]


def _projections_by_loop(v, parent):
    basis = _delta_basis(parent, v.shape[1])
    return np.array(
        [
            [np.sum(tensor * _moment_contribution(sample)).real for tensor in basis]
            for sample in v
        ]
    )


@pytest.mark.parametrize("parent", ["U", "O", "SP"])
def test_projections_match_per_sample_contraction(batch, parent):
    v = batch["v"]
    if parent == "U":
        got = _kernels.proj_unitary(v)
    elif parent == "O":
        got = _kernels.proj_orthogonal(v)
    else:
        got = _kernels.proj_symplectic(v, batch["jsign"])
    np.testing.assert_allclose(got, _projections_by_loop(v, parent), atol=1e-12)
