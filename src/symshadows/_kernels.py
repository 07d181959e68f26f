"""Vectorized NumPy kernels for the per-sample hot loops.

Born-rule probabilities, inverse-CDF outcome choice, the estimator's
quadratic form and moment-basis projections.  Every function takes stacked
inputs (leading batch axis) and returns plain ``ndarray`` results.
Callers look the functions up as attributes of this module at call time
(``_kernels.born_probs(...)``), so a wrapper set on the module attribute
sees every call.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "born_probs",
    "choose_outcomes",
    "row_quadratic",
    "proj_unitary",
    "proj_orthogonal",
    "proj_symplectic",
]


def born_probs(amplitudes: np.ndarray) -> np.ndarray:
    """Measurement-basis outcome probabilities ``p[n, w] = |amplitudes[n, w]|²``.

    Parameters
    ----------
    amplitudes : (B, d) ndarray
        One rotated state vector ``V_n u_n`` per row.

    Returns
    -------
    (B, d) float ndarray
    """
    return amplitudes.real**2 + amplitudes.imag**2


def choose_outcomes(probs: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling of one outcome index per row.

    ``uniforms`` must be i.i.d. on [0, 1); the outcome for row ``n`` is the
    smallest ``w`` with ``cumsum(probs[n])[w] >= uniforms[n]``.
    """
    cum = np.cumsum(probs, axis=1)
    idx = np.argmax(cum >= uniforms[:, None], axis=1)
    # Roundoff can leave the total marginally below the drawn uniform; the
    # final bin absorbs that sliver.
    short = cum[:, -1] < uniforms
    if np.any(short):
        idx = np.where(short, probs.shape[1] - 1, idx)
    return idx.astype(np.int64)


def row_quadratic(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per-row quadratic form ``Re(<row_n| X |row_n>)``.

    Parameters
    ----------
    rows : (B, d) complex ndarray
    x : (d, d) complex ndarray (Hermitian in normal use)
    """
    # One gemm, then a real row reduction: Re(y conj(r)) = Re y Re r + Im y Im r.
    # A three-operand einsum would plan its contraction path on every call.
    y = rows @ x
    return np.einsum("nb,nb->n", y.real, rows.real) + np.einsum("nb,nb->n", y.imag, rows.imag)


def proj_unitary(v: np.ndarray) -> np.ndarray:
    """Per-sample inner products with the unitary-parent delta basis.

    Columns correspond to the basis tensors
    ``[delta(a,b)delta(i,j), delta(a,i)delta(b,j), delta4(a,b,i,j)]``
    contracted against the sample's rank-one moment contribution.
    """
    a2 = np.abs(v) ** 2
    ynorm = (a2.sum(axis=2) ** 2).sum(axis=1)
    ydeph = (a2**2).sum(axis=(1, 2))
    return np.stack([ynorm, ynorm, ydeph], axis=1)


def proj_orthogonal(v: np.ndarray) -> np.ndarray:
    """Like :func:`proj_unitary` with the extra ``delta(a,j)delta(b,i)`` column."""
    a2 = np.abs(v) ** 2
    ynorm = (a2.sum(axis=2) ** 2).sum(axis=1)
    yswap = (np.abs((v**2).sum(axis=2)) ** 2).sum(axis=1)
    ydeph = (a2**2).sum(axis=(1, 2))
    return np.stack([ynorm, ynorm, yswap, ydeph], axis=1)


def proj_symplectic(v: np.ndarray, jperm: np.ndarray, jsign: np.ndarray) -> np.ndarray:
    """Projections onto the six-term symplectic-parent delta basis.

    ``jperm[a]`` is the symplectic partner of index ``a`` and ``jsign[a]``
    the sign of the form entry coupling ``a`` to its partner.
    """
    a2 = np.abs(v) ** 2
    ynorm = (a2.sum(axis=2) ** 2).sum(axis=1)
    form = (jsign[None, None, :] * v * v[:, :, jperm]).sum(axis=2)
    yform = (np.abs(form) ** 2).sum(axis=1)
    ydeph = (a2**2).sum(axis=(1, 2))
    ypair = (a2 * a2[:, :, jperm]).sum(axis=(1, 2))
    return np.stack([ynorm, ynorm, yform, ydeph, ypair, ypair], axis=1)
