"""Closed-form second moments of the signature-tunable shadow estimators.

For the two ensembles whose channel weight can be tuned through the block
signature at fixed dimension -- AIII (unitary parent) and BDI (orthogonal
parent) -- the full second moment of the single-shot estimator of a
traceless observable admits an exact closed form.  Writing O_0 for the
traceless part of the observable and X = M+(O_0) for its pseudo-inverted
image, the second moment assembles from three coefficient families
``c_full``, ``c_mixed``, ``c_diag`` (exact rationals in the dimension d and
signature s) contracted with trace monomials in (rho, X, D), in one formula
for both:

    E[o^2] = c_full (k tr Xs^2 + 2k^2 tr rhos Xs^2)
             + c_mixed (2k tr(A(rho) Xs^2) + 2k tr rhos {D, Xs} + tr D^2)
             + c_diag tr rhos D^2

Here k = 1 for AIII, with Xs = X and rhos = rho, and k = 2 for BDI, with
Xs = (X + X^T)/2 and rhos = (rho + rho^T)/2 the transpose symmetrizations
that the orthogonal parent forces; D = dephase(Xs), and A is the diagonal
dephasing map.  The channel eigenvalues on the traceless-diagonal and
off-diagonal sectors enter through X and are exposed here as exact
rationals alongside the coefficients.

All rationals are evaluated with :class:`fractions.Fraction` and converted
to floating point only at the boundary, so no precision is lost to
intermediate cancellations even at large d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import channel_weights, dephase, invert_channel
from .spaces import SpaceSpec, make_space

__all__ = [
    "VarianceCoefficients",
    "second_moment_coefficients",
    "second_moment_aiii",
    "second_moment_bdi",
    "analytic_second_moment",
]


@dataclass(frozen=True)
class VarianceCoefficients:
    """Exact second-moment coefficients for one (family, d, s) ensemble.

    Attributes
    ----------
    family : str
        ``"AIII"`` or ``"BDI"``.
    dim : int
        Hilbert-space dimension d.
    signature : int
        Block signature s = p - q.
    c_full, c_mixed, c_diag : Fraction
        Coefficients of the full-operator, mixed, and purely diagonal
        trace combinations in the second-moment assembly.
    diag_eigenvalue : Fraction
        Channel eigenvalue on the traceless-diagonal sector.
    offdiag_eigenvalue : Fraction
        Channel eigenvalue on the (symmetric) off-diagonal sector.
    """

    family: str
    dim: int
    signature: int
    c_full: Fraction
    c_mixed: Fraction
    c_diag: Fraction
    diag_eigenvalue: Fraction
    offdiag_eigenvalue: Fraction


def _aiii_coefficients(d: int, s: int) -> tuple[Fraction, ...]:
    c_full = Fraction(
        (s * s - d * d)
        * (s * s - (d + 2) ** 2)
        * (d**3 + 8 * d * d + 2 * d * s * s + 7 * d + 6 * s * s - 36),
        d * d * (d - 1) * (d + 1) ** 2 * (d + 2) * (d + 3) * (d + 4) * (d + 5),
    )
    c_mixed = -Fraction(
        (s * s - d * d)
        * (
            d**3
            + 2 * d * d * s * s
            + 7 * d * d
            + d * s**4
            + 2 * d * s * s
            + 20 * d
            + 3 * s**4
            - 20 * s * s
            + 32
        ),
        d * d * (d - 1) * (d + 1) ** 2 * (d + 3) * (d + 4) * (d + 5),
    )
    c_diag = Fraction(
        (s * s - 1) * (s * s + 3 * d - 2 * s) * (s * s + 3 * d + 2 * s),
        d * d * (d - 1) * (d + 1) ** 2 * (d + 5),
    )
    lam_off = Fraction(
        -(s**4) - 2 * s * s * (d - 2) + d * d * (d * d + 2 * d - 4),
        d * d * (d - 1) * (d + 1) * (d + 3),
    )
    lam_diag = Fraction(
        s**4 + 2 * s * s * (d - 2) + d * (d * d + 3 * d - 3),
        d * (d - 1) * (d + 1) * (d + 3),
    )
    return c_full, c_mixed, c_diag, lam_diag, lam_off


def _bdi_coefficients(d: int, s: int) -> tuple[Fraction, ...]:
    c_full = Fraction(
        (d - s)
        * (d + s)
        * (d - s + 4)
        * (d + s + 4)
        * (d**3 + 19 * d * d + 2 * d * s * s + 82 * d + 12 * s * s - 48),
        d
        * (d - 1)
        * (d + 1)
        * (d + 2)
        * (d + 3)
        * (d + 4)
        * (d + 6)
        * (d + 8)
        * (d + 10),
    )
    c_mixed = Fraction(
        (d - s)
        * (d + s)
        * (
            3 * d**3
            + 6 * d * d * s * s
            + 24 * d * d
            + d * s**4
            + 44 * d * s * s
            - 12 * d
            + 6 * s**4
            - 96
        ),
        d * (d - 1) * (d + 1) * (d + 2) * (d + 3) * (d + 6) * (d + 8) * (d + 10),
    )
    c_diag = Fraction(
        15 * d**3
        + 45 * d * d * s * s
        + 15 * d * s**4
        + 30 * d * s * s
        - 60 * d
        + s**6
        + 10 * s**4
        - 56 * s * s,
        d * (d - 1) * (d + 1) * (d + 2) * (d + 3) * (d + 10),
    )
    lam_off = Fraction(
        2 * (d * d - s * s) * (d * d + 6 * d + s * s - 4),
        d * (d - 1) * (d + 1) * (d + 2) * (d + 6),
    )
    lam_diag = Fraction(
        s**4 - 4 * s * s + 2 * d**3 + 15 * d * d - 12 + d * (6 * s * s - 8),
        (d - 1) * (d + 1) * (d + 2) * (d + 6),
    )
    return c_full, c_mixed, c_diag, lam_diag, lam_off


#: Per family: the builder of (c_full, c_mixed, c_diag, diag_eigenvalue,
#: offdiag_eigenvalue), and k, 1 for the unitary parent and 2 for the
#: orthogonal one.
_CLOSED_FORMS = {"AIII": (_aiii_coefficients, 1), "BDI": (_bdi_coefficients, 2)}


def second_moment_coefficients(family: str, dim: int, signature: int) -> VarianceCoefficients:
    """Exact coefficients for the closed-form second moment.

    Parameters
    ----------
    family : str
        ``"AIII"`` or ``"BDI"``.
    dim : int
        Hilbert-space dimension d >= 2.
    signature : int
        Block signature s with |s| <= d and s = d (mod 2).

    Returns
    -------
    VarianceCoefficients

    Examples
    --------
    >>> second_moment_coefficients("AIII", 2, 0).diag_eigenvalue
    Fraction(7, 15)
    """
    # Validates (dim, signature) admissibility as a side effect.
    make_space(family, dim, p=(dim + signature) // 2, q=(dim - signature) // 2)
    if family not in _CLOSED_FORMS:
        raise ValueError(
            f"closed-form second moments exist for AIII and BDI only, not {family!r}"
        )
    build, _ = _CLOSED_FORMS[family]
    return VarianceCoefficients(family, dim, signature, *build(dim, signature))


def _real_trace(m: np.ndarray) -> float:
    return float(np.trace(m).real)


def _check_inputs(rho: np.ndarray, observable: np.ndarray, spec: SpaceSpec, family: str):
    if spec.family != family:
        raise ValueError(f"expected a {family} ensemble, got {spec.label()}")
    rho = np.asarray(rho, dtype=complex)
    observable = np.asarray(observable, dtype=complex)
    d = spec.dim
    if rho.shape != (d, d) or observable.shape != (d, d):
        raise ValueError(
            f"state/observable shapes {rho.shape}/{observable.shape} do not "
            f"match ensemble dimension {d}"
        )
    return rho, observable


def _second_moment(
    rho: np.ndarray, observable: np.ndarray, spec: SpaceSpec, family: str
) -> float:
    """The one assembly of the module docstring, with k from the family."""
    rho, observable = _check_inputs(rho, observable, spec, family)
    d = spec.dim
    k = _CLOSED_FORMS[family][1]
    coeff = second_moment_coefficients(family, d, spec.signature)
    o0 = observable - np.trace(observable) / d * np.eye(d)
    x = invert_channel(spec).apply(o0)
    rho_s = rho
    if k == 2:
        x = (x + x.T) / 2.0
        rho_s = (rho + rho.T) / 2.0
    diag = dephase(x)
    a_rho = dephase(rho)
    x_sq = x @ x
    anti = diag @ x + x @ diag
    full_terms = k * _real_trace(x_sq) + 2 * k * k * _real_trace(rho_s @ x_sq)
    mixed_terms = (
        2 * k * _real_trace(a_rho @ x_sq)
        + 2 * k * _real_trace(rho_s @ anti)
        + _real_trace(diag @ diag)
    )
    diag_term = _real_trace(rho_s @ diag @ diag)
    return (
        float(coeff.c_full) * full_terms
        + float(coeff.c_mixed) * mixed_terms
        + float(coeff.c_diag) * diag_term
    )


def second_moment_aiii(rho: np.ndarray, observable: np.ndarray, spec: SpaceSpec) -> float:
    """Exact E[o^2] of the single-shot AIII estimator of ``observable``.

    The traceless part of ``observable`` is estimated; the returned value is
    the raw second moment (subtract the squared target to get a variance).

    Parameters
    ----------
    rho : ndarray, shape (d, d)
        The measured state.
    observable : ndarray, shape (d, d)
        Hermitian observable.
    spec : SpaceSpec
        An AIII ensemble of matching dimension.

    Returns
    -------
    float
    """
    return _second_moment(rho, observable, spec, "AIII")


def second_moment_bdi(rho: np.ndarray, observable: np.ndarray, spec: SpaceSpec) -> float:
    """Exact E[o^2] of the single-shot BDI estimator of ``observable``.

    Antisymmetric components of the observable lie in the channel's null
    space and drop out; real symmetric observables are the natural inputs.

    Parameters
    ----------
    rho : ndarray, shape (d, d)
        The measured state.
    observable : ndarray, shape (d, d)
        Hermitian observable.
    spec : SpaceSpec
        A BDI ensemble of matching dimension.

    Returns
    -------
    float
    """
    return _second_moment(rho, observable, spec, "BDI")


def _second_moment_aiii_expanded(
    rho: np.ndarray, observable: np.ndarray, spec: SpaceSpec
) -> float:
    """AIII second moment via the sector-resolved expansion (cross-check)."""
    rho, observable = _check_inputs(rho, observable, spec, "AIII")
    d = spec.dim
    coeff = second_moment_coefficients("AIII", d, spec.signature)
    c1, c2, c3 = float(coeff.c_full), float(coeff.c_mixed), float(coeff.c_diag)
    ld, lo = float(coeff.diag_eigenvalue), float(coeff.offdiag_eigenvalue)
    o0 = observable - np.trace(observable) / d * np.eye(d)
    od = dephase(o0)
    oo = o0 - od
    a_rho = dephase(rho)
    return (
        ld**-2 * (c1 + c2) * _real_trace(od @ od)
        + lo**-2 * c1 * _real_trace(oo @ oo)
        + ld**-2 * (2 * c1 + 6 * c2 + c3) * _real_trace(rho @ od @ od)
        + 2 * lo**-2 * (
            c1 * _real_trace(rho @ oo @ oo)
            + c2 * _real_trace(a_rho @ oo @ oo)
        )
        + 2 * (ld * lo) ** -1 * (c1 + c2) * _real_trace(rho @ (od @ oo + oo @ od))
    )


def _second_moment_bdi_expanded(
    rho: np.ndarray, observable: np.ndarray, spec: SpaceSpec
) -> float:
    """BDI second moment via the sector-resolved expansion (cross-check)."""
    rho, observable = _check_inputs(rho, observable, spec, "BDI")
    d = spec.dim
    coeff = second_moment_coefficients("BDI", d, spec.signature)
    c1, c2, c3 = float(coeff.c_full), float(coeff.c_mixed), float(coeff.c_diag)
    ld, lo = float(coeff.diag_eigenvalue), float(coeff.offdiag_eigenvalue)
    o0 = observable - np.trace(observable) / d * np.eye(d)
    o_sym = (o0 + o0.T) / 2.0
    od = dephase(o_sym)
    oo = o_sym - od
    a_rho = dephase(rho)
    return (
        ld**-2 * (2 * c1 + c2) * _real_trace(od @ od)
        + 2 * lo**-2 * c1 * _real_trace(oo @ oo)
        + ld**-2 * (8 * c1 + 12 * c2 + c3) * _real_trace(rho @ od @ od)
        + 4 * lo**-2 * (
            2 * c1 * _real_trace(rho @ oo @ oo)
            + c2 * _real_trace(a_rho @ oo @ oo)
        )
        + 4 * (ld * lo) ** -1 * (2 * c1 + c2) * _real_trace(rho @ (od @ oo + oo @ od))
    )


def analytic_second_moment(
    rho: np.ndarray, observable: np.ndarray, spec: SpaceSpec
) -> float | None:
    """Closed-form E[o^2] when available for ``spec``, else ``None``.

    AIII and BDI share one assembly (see the module docstring); every other
    family returns ``None`` (no printed closed form).
    """
    if spec.family not in _CLOSED_FORMS:
        return None
    return _second_moment(rho, observable, spec, spec.family)
