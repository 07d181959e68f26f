"""Exact measurement channels for every ensemble.

Averaging one randomized-measurement round over an ensemble defines the
measurement channel

    M(rho) = E_V [ sum_w <w|V rho V†|w> V† |w><w| V ].

For the parent groups this is classical: U(d) and SP(d) give the
depolarizing-like map (tr(rho) 1 + rho)/(d+1), while O(d)/SO(d) give the
transpose-symmetrizing map (tr(rho) 1 + rho + rho^T)/(d+2).  For each
quotient ensemble the channel is an exact two-parameter combination of the
parent channel, the diagonal dephasing map A, and -- for symplectic parents
only -- a correction that couples symplectically paired coordinates:

    M(rho) = (1 - a) M_parent(rho) + b A(rho)
             + (a - b) (J A(rho) J† - A(rho J) J),

with a (:attr:`ChannelWeights.mixing_weight`) and b
(:attr:`ChannelWeights.dephasing_weight`) exact rationals in d and the block
signature, and a = b whenever the parent is not symplectic.  This module
evaluates those rationals exactly and applies the channel.  The formula fixes
the eigenvectors: every channel, of every parent, is diagonal on a handful of
named operator sectors (identity, traceless diagonal, off-diagonal, split
further by transpose symmetry for orthogonal parents and by the symplectic
pairing i <-> i# for symplectic ones), so its spectrum and its
Moore-Penrose pseudo-inverse are closed form.  The pseudo-inverse is one
O(d^2) elementwise assembly, with no sector part formed: off the diagonal
every part is the input times one weight, and the O(d) diagonal and pair
entries are summed sector by sector.  The dense d^2 x d^2 superoperator and
Choi matrix are still materialized, for small d only, as an independent
oracle for tests and the verify suite.

The DIII weight follows the matrix-dimension convention a = 3/(d^2 - 1),
confirmed empirically by the coefficient fits of
:func:`symshadows.momentlab.fit_channel_coefficients` at d = 4 and d = 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .haar import symplectic_form, symplectic_pairing
from .spaces import SpaceSpec

__all__ = [
    "ChannelWeights",
    "SectorSpectrum",
    "ChannelInverse",
    "SectorSplit",
    "dephase",
    "parent_channel",
    "channel_weights",
    "apply_channel",
    "build_superoperator",
    "choi_matrix",
    "channel_spectrum",
    "invert_channel",
]

#: Eigenvalues at or below this magnitude count as null sectors when
#: pseudo-inverting a channel.
NULL_TOL = 1e-9

#: Largest dimension for which :func:`build_superoperator` materializes the
#: dense superoperator.  The matrix-unit batch, its image and the result are
#: three d^4 complex arrays: 0.8 GB at d = 64, 12.9 GB at d = 128.
DENSE_MAX_DIM = 64


@dataclass(frozen=True)
class ChannelWeights:
    """The two exact rational parameters of a quotient-ensemble channel.

    Attributes
    ----------
    mixing_weight : Fraction
        Total weight moved off the parent-group channel; the parent term
        carries ``1 - mixing_weight``.
    dephasing_weight : Fraction
        Coefficient of the plain diagonal dephasing map.  Equal to
        ``mixing_weight`` except for symplectic parents.
    parent : str
        Parent-group label, one of ``{"U", "O", "SP"}``.
    """

    mixing_weight: Fraction
    dephasing_weight: Fraction
    parent: str

    @property
    def pair_coupling_weight(self) -> Fraction:
        """Weight of the paired-coordinate correction (zero unless SP)."""
        return self.mixing_weight - self.dephasing_weight

    @property
    def has_pair_term(self) -> bool:
        """True when the symplectic pairing term is present."""
        return self.mixing_weight != self.dephasing_weight


def dephase(m: np.ndarray) -> np.ndarray:
    """Project onto the diagonal in the fixed measurement basis.

    Parameters
    ----------
    m : ndarray, shape (..., d, d)
        Matrix or batch of matrices.

    Returns
    -------
    ndarray
        Copy of ``m`` with every off-diagonal entry zeroed.
    """
    m = np.asarray(m)
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    out = np.zeros_like(m)
    idx = np.arange(m.shape[-1])
    out[..., idx, idx] = m[..., idx, idx]
    return out


def parent_channel(parent: str, m: np.ndarray) -> np.ndarray:
    """Measurement channel of a parent group acting on ``m``.

    Parameters
    ----------
    parent : str
        ``"U"`` or ``"SP"`` for (tr(m) 1 + m)/(d+1); ``"O"`` or ``"SO"``
        for (tr(m) 1 + m + m^T)/(d+2).
    m : ndarray, shape (..., d, d)

    Returns
    -------
    ndarray
        Channel output, same shape as ``m``.
    """
    m = np.asarray(m)
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {m.shape}")
    d = m.shape[-1]
    tr = np.trace(m, axis1=-2, axis2=-1)
    eye = np.eye(d, dtype=m.dtype)
    if parent in ("U", "SP"):
        return (tr[..., None, None] * eye + m) / (d + 1)
    if parent in ("O", "SO"):
        mt = np.swapaxes(m, -1, -2)
        return (tr[..., None, None] * eye + m + mt) / (d + 2)
    raise ValueError(f"unsupported parent group {parent!r}")


def channel_weights(spec: SpaceSpec) -> ChannelWeights:
    """Exact rational channel parameters for a quotient ensemble.

    Parameters
    ----------
    spec : SpaceSpec
        A quotient-family ensemble (group families have no weights; their
        channel *is* :func:`parent_channel`).

    Returns
    -------
    ChannelWeights

    Raises
    ------
    ValueError
        If ``spec`` names a group family.

    Examples
    --------
    >>> from symshadows.spaces import make_space
    >>> channel_weights(make_space("AI", 4)).mixing_weight
    Fraction(1, 14)
    """
    if spec.is_group:
        raise ValueError(
            f"{spec.family} is a group family; its channel is parent_channel "
            "and carries no mixing weights"
        )
    d = spec.dim
    family = spec.family
    if family == "AI":
        a = b = Fraction(2, d * (d + 3))
    elif family == "AII":
        a = b = Fraction(2, d * (d - 1))
    elif family == "AIII":
        s = spec.signature
        a = b = Fraction(
            s**4 + 2 * s**2 * (d - 2) + d * d,
            d * d * (d - 1) * (d + 3),
        )
    elif family == "BDI":
        s = spec.signature
        a = b = Fraction(
            s**4 + (6 * d - 4) * s**2 + 3 * d * (d - 2),
            d * (d - 1) * (d + 1) * (d + 6),
        )
    elif family == "DIII":
        a = b = Fraction(3, d * d - 1)
    elif family == "CI":
        n = d // 2
        a = Fraction(3, (2 * n - 1) * (2 * n + 3))
        b = Fraction(6 * n + 1, (2 * n - 1) * (2 * n + 1) * (2 * n + 3))
    elif family == "CII":
        n = d // 2
        if n == 1:
            # Single quaternionic coordinate: one block is empty, the
            # ensemble is trivial and the channel is pure dephasing.
            a = b = Fraction(1)
        else:
            s = spec.signature
            a = Fraction(
                4 * s**4 - 10 * s**2 + 3 * n * n + 3 * n,
                n * (n - 1) * (2 * n - 1) * (2 * n + 3),
            )
            b = Fraction(
                3 * n * (n + 1) * (2 * n * n + n + 1)
                + 4 * s**2 * ((2 * n * n + n + 1) * s**2 + 2 * n**3 - 5 * n * n - 6 * n - 1),
                n * (n - 1) * (n + 1) * (2 * n - 1) * (2 * n + 1) * (2 * n + 3),
            )
    else:  # pragma: no cover - make_space already rejects unknown families
        raise ValueError(f"unknown family {family!r}")
    return ChannelWeights(mixing_weight=a, dephasing_weight=b, parent=spec.parent)


def apply_channel(spec: SpaceSpec, rho: np.ndarray) -> np.ndarray:
    """Apply the exact measurement channel of ``spec`` to ``rho``.

    Trace preserving for every ensemble; reduces to pure dephasing when the
    mixing weight reaches 1 (degenerate quotients).

    Parameters
    ----------
    spec : SpaceSpec
    rho : ndarray, shape (..., d, d)
        Input matrix (not required to be a state; the channel is linear).

    Returns
    -------
    ndarray
        Channel output, same shape as ``rho``.
    """
    rho = np.asarray(rho)
    if rho.shape[-1] != spec.dim or rho.shape[-2] != spec.dim:
        raise ValueError(
            f"matrix shape {rho.shape} does not match ensemble dimension {spec.dim}"
        )
    if spec.is_group:
        return parent_channel(spec.parent, rho)
    w = channel_weights(spec)
    a = float(w.mixing_weight)
    b = float(w.dephasing_weight)
    out = (1.0 - a) * parent_channel(w.parent, rho) + b * dephase(rho)
    if w.has_pair_term:
        c = float(w.pair_coupling_weight)
        j = symplectic_form(spec.dim)
        out = out + c * (j @ dephase(rho) @ j.T - dephase(rho @ j) @ j)
    return out


def _matrix_units(d: int, dtype=complex) -> np.ndarray:
    """All d^2 matrix units as a batch; entry a*d+b is E_ab."""
    basis = np.zeros((d * d, d, d), dtype=dtype)
    rows = np.repeat(np.arange(d), d)
    cols = np.tile(np.arange(d), d)
    basis[np.arange(d * d), rows, cols] = 1.0
    return basis


def build_superoperator(spec: SpaceSpec) -> np.ndarray:
    """Matrix of the channel in the matrix-unit basis.

    Uses the row-major vectorization vec(m)[i*d+j] = m[i, j], so that
    ``S @ vec(rho) == vec(apply_channel(spec, rho))``.  The result is
    Hermitian: the channel is self-adjoint in the Hilbert-Schmidt inner
    product because every effect V†|w><w|V entering its definition is.

    Returns
    -------
    ndarray, shape (d**2, d**2)

    Raises
    ------
    ValueError
        Before allocating anything, when d exceeds :data:`DENSE_MAX_DIM`.
    """
    d = spec.dim
    if d > DENSE_MAX_DIM:
        need = 3 * np.dtype(complex).itemsize * d**4
        raise ValueError(
            f"dense superoperator of {spec.label()} at d = {d} needs {need} bytes "
            f"({need / 1e9:.1f} GB); the limit is d <= {DENSE_MAX_DIM}"
        )
    images = apply_channel(spec, _matrix_units(d))
    # images[a*d+b] = M(E_ab); transpose so rows index the output entry.
    return images.reshape(d * d, d * d).T.copy()


def choi_matrix(spec: SpaceSpec) -> np.ndarray:
    """Choi matrix sum_ab E_ab (x) M(E_ab); PSD iff the channel is CP.

    Built from :func:`build_superoperator`, so refused above
    :data:`DENSE_MAX_DIM` in the same way.
    """
    d = spec.dim
    s = build_superoperator(spec)
    return s.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


@dataclass(frozen=True)
class SectorSpectrum:
    """Channel eigenvalues grouped by invariant operator sector.

    Attributes
    ----------
    labels : tuple of str
        Sector names, e.g. ``"identity"``, ``"diagonal"``,
        ``"off_diagonal"``; see :func:`channel_spectrum` for every parent.
    eigenvalues : tuple of float
        One eigenvalue per sector.
    multiplicities : tuple of int
        Sector dimensions; they sum to d^2.
    """

    labels: tuple[str, ...]
    eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]

    def eigenvalue(self, label: str) -> float:
        """Eigenvalue of the named sector."""
        try:
            return self.eigenvalues[self.labels.index(label)]
        except ValueError:
            raise KeyError(f"no sector named {label!r}; have {self.labels}") from None

    def dense(self) -> np.ndarray:
        """All d^2 eigenvalues with multiplicity, sorted descending."""
        flat = np.repeat(self.eigenvalues, self.multiplicities)
        return np.sort(flat)[::-1]


def channel_spectrum(spec: SpaceSpec) -> SectorSpectrum:
    """Eigenvalues of the measurement channel by invariant sector, exactly.

    With off = (1 - a)/(d + 1) for unitary and symplectic parents and
    off = 2(1 - a)/(d + 2) for orthogonal ones, the sectors are:

    - groups U(d), SP(d): ``identity`` (1), ``traceless`` (1/(d+1));
    - groups O(d), SO(d): ``identity``, ``symmetric_traceless`` (2/(d+2)),
      ``antisymmetric`` (0);
    - unitary-parent quotients: ``identity``, ``diagonal`` (traceless
      diagonal, off + a), ``off_diagonal`` (off);
    - orthogonal-parent quotients: ``identity``, ``diagonal`` (off + a),
      ``symmetric_off_diagonal`` (off), ``antisymmetric`` (0);
    - symplectic-parent quotients, with n = d/2 and i# the partner index of
      :func:`symshadows.haar.symplectic_pairing`: ``identity``,
      ``diagonal_pair_symmetric`` (traceless diagonal with x_i = x_{i#},
      off + a, multiplicity n - 1), ``diagonal_pair_antisymmetric``
      (x_i = -x_{i#}, off + 2b - a, n), ``pair_off_diagonal`` (the entries
      E_{i,i#}, off + a - b, d) and ``off_diagonal`` (every other E_ij,
      off, d^2 - 2d); sectors of multiplicity zero are dropped.

    Examples
    --------
    >>> from symshadows.spaces import make_space
    >>> channel_spectrum(make_space("AIII", 2, p=1, q=1)).eigenvalues
    (1.0, 0.4666666666666667, 0.26666666666666666)
    """
    d = spec.dim
    if spec.is_group:
        if spec.parent in ("U", "SP"):
            return SectorSpectrum(
                labels=("identity", "traceless"),
                eigenvalues=(1.0, 1.0 / (d + 1)),
                multiplicities=(1, d * d - 1),
            )
        return SectorSpectrum(
            labels=("identity", "symmetric_traceless", "antisymmetric"),
            eigenvalues=(1.0, 2.0 / (d + 2), 0.0),
            multiplicities=(1, d * (d + 1) // 2 - 1, d * (d - 1) // 2),
        )
    w = channel_weights(spec)
    a = w.mixing_weight
    if w.parent == "U":
        off = Fraction(1 - a, d + 1)
        return SectorSpectrum(
            labels=("identity", "diagonal", "off_diagonal"),
            eigenvalues=(1.0, float(off + a), float(off)),
            multiplicities=(1, d - 1, d * d - d),
        )
    if w.parent == "O":
        off = Fraction(2 * (1 - a), d + 2)
        return SectorSpectrum(
            labels=("identity", "diagonal", "symmetric_off_diagonal", "antisymmetric"),
            eigenvalues=(1.0, float(off + a), float(off), 0.0),
            multiplicities=(1, d - 1, d * (d - 1) // 2, d * (d - 1) // 2),
        )
    b = w.dephasing_weight
    n = d // 2
    off = Fraction(1 - a, d + 1)
    sectors = [
        ("identity", Fraction(1), 1),
        ("diagonal_pair_symmetric", off + a, n - 1),
        ("diagonal_pair_antisymmetric", off + 2 * b - a, n),
        ("pair_off_diagonal", off + a - b, d),
        ("off_diagonal", off, d * d - 2 * d),
    ]
    kept = [(label, float(lam), mult) for label, lam, mult in sectors if mult > 0]
    labels, eigenvalues, multiplicities = zip(*kept)
    return SectorSpectrum(labels, eigenvalues, multiplicities)


#: The sector holding the off-diagonal entries m_ij, i != j, of every parent
#: (bar the pair entries m_{i,i#} of symplectic-parent quotients).
_BULK = ("traceless", "symmetric_traceless", "off_diagonal", "symmetric_off_diagonal")


class SectorSplit(NamedTuple):
    """One sector split of an operator ``m`` by a :class:`ChannelInverse`.

    Attributes
    ----------
    inverse : ndarray
        M+(m).
    null : ndarray
        The component of ``m`` in the channel's null sectors; ``m - null``
        is the projection of ``m`` onto the channel image, M(M+(m)).
    projected : bool
        True when ``null`` has non-negligible weight, above 1e-9 of the
        Hilbert-Schmidt norm of ``m``.

    ``inverse`` and ``null`` are the two slots of one ``(2,) + m.shape``
    block; copy one to keep it without the other.
    """

    inverse: np.ndarray
    null: np.ndarray
    projected: bool


class ChannelInverse:
    """Moore-Penrose pseudo-inverse of a measurement channel.

    Reciprocates the channel eigenvalue on every sector of
    :func:`channel_spectrum` with |eigenvalue| above :data:`NULL_TOL` and
    annihilates the rest (the antisymmetric sector of orthogonal parents is
    always null; the off-diagonal sectors join it for fully dephasing
    quotients).  Building one costs only the exact channel weights, and
    applying it is O(d^2) for every parent.  Instances are cached and must
    be treated as immutable.

    :meth:`split` returns M+(m), the null-sector component of ``m`` and
    whether that component is non-negligible, without forming any sector
    part: off the diagonal every part is ``m`` (its symmetric or
    antisymmetric half, for orthogonal parents) times one weight, and the
    diagonal and symplectic pair entries are summed sector by sector in
    O(d).  :meth:`apply` (or calling the object) forms M+(m) alone, the
    same bits without the null part and its norms; :meth:`removed_norm` and
    :meth:`is_projected` each read one field of a split.
    """

    def __init__(self, spec: SpaceSpec):
        self.spec = spec
        spectrum = channel_spectrum(spec)
        sectors = list(zip(spectrum.labels, spectrum.eigenvalues))
        # The identity sector (eigenvalue 1) starts every sum of split.
        self._kept = tuple(
            (lab, lam) for lab, lam in sectors if abs(lam) > NULL_TOL and lab != "identity"
        )
        self._null = tuple(lab for lab, lam in sectors if abs(lam) <= NULL_TOL)
        if not self._kept:
            raise ValueError(
                f"{spec.label()} channel is null on every non-identity sector"
            )
        # The bulk sector's eigenvalue, None where it is null or, for
        # symplectic-parent quotients at d = 2, empty.
        self._bulk = next((lam for lab, lam in self._kept if lab in _BULK), None)
        self._bulk_null = any(lab in _BULK for lab in self._null)

    def split(self, m: np.ndarray) -> SectorSplit:
        """Split ``m`` into its sectors once; see :class:`SectorSplit`."""
        m = self._checked(m)
        scale = float(np.linalg.norm(m))
        inverse, null = np.empty((2,) + m.shape, dtype=complex)
        self._assemble(m, inverse, null)
        projected = scale > 0.0 and float(np.linalg.norm(null)) > 1e-9 * scale
        return SectorSplit(inverse, null, projected)

    def apply(self, m: np.ndarray) -> np.ndarray:
        """Evaluate M+(m); components in null sectors are projected out.

        The inverse of :meth:`split`, to the bit, without the null part and
        the two norms of its ``projected`` flag.
        """
        m = self._checked(m)
        return self._assemble(m, np.empty(m.shape, dtype=complex), None)

    __call__ = apply

    def _checked(self, m) -> np.ndarray:
        m = np.asarray(m, dtype=complex)
        d = self.spec.dim
        if m.shape[-2:] != (d, d):
            raise ValueError(
                f"matrix shape {m.shape} does not match ensemble dimension {d}"
            )
        return m

    def _assemble(self, m: np.ndarray, inverse: np.ndarray, null: np.ndarray | None):
        """M+(m) into ``inverse`` and, unless it is None, the null part into ``null``."""
        d = self.spec.dim
        idx = np.arange(d)
        # Per sector, its part's diagonal and (SP-parent quotients) its
        # entries m_{i,i#}; a sector that leaves them zero is absent.
        diagonal, pair = {}, {}
        orthogonal = self.spec.parent in ("O", "SO")
        if orthogonal:
            # m = s + (m - s), s symmetric: s is split further, and m - s
            # is the antisymmetric sector, null for every orthogonal parent.
            np.add(m, np.swapaxes(m, -1, -2), out=inverse)
            inverse *= 0.5
            if null is not None:
                np.subtract(m, inverse, out=null)
                diagonal["antisymmetric"] = null[..., idx, idx]
            m = inverse
        trace = np.trace(m, axis1=-2, axis2=-1)[..., None] / d
        entries = m[..., idx, idx]
        traceless = entries - trace
        diagonal.update(
            traceless=traceless,
            symmetric_traceless=traceless,
            diagonal=traceless,
            off_diagonal=entries - entries,
            symmetric_off_diagonal=entries - entries,
        )
        if self.spec.parent == "SP" and not self.spec.is_group:
            jperm, _ = symplectic_pairing(d)
            swapped = traceless[..., jperm]
            diagonal["diagonal_pair_symmetric"] = (traceless + swapped) * 0.5
            diagonal["diagonal_pair_antisymmetric"] = (traceless - swapped) * 0.5
            pair["pair_off_diagonal"] = m[..., idx, jperm]
        # Every other entry is the bulk sector's: M+(m) is m/lambda there (0
        # where the sector is null), and the null part sums the null
        # sectors in label order.  Adding 0.0 turns -0.0 into 0.0, so each
        # entry equals the sum of whole sector parts started from a zero
        # matrix; it also makes m * (1/lambda) equal NumPy's m / lambda,
        # which is (a + 0b)(1/lambda) per real part.
        if null is not None and orthogonal:
            if self._bulk_null:
                np.add(np.add(m, 0.0, out=m), null, out=null)
            else:
                null += 0.0
        elif null is not None and self._bulk_null:
            np.add(m, 0.0, out=null)
        elif null is not None:
            null.fill(0.0)
        if self._bulk is None:
            inverse.fill(0.0)
        else:
            np.multiply(m, 1.0 / self._bulk, out=inverse)
            inverse += 0.0
        inverse[..., idx, idx] = self._inverse_sum(diagonal, trace)
        if pair:
            inverse[..., idx, jperm] = self._inverse_sum(pair, 0.0)
        if null is not None:
            null[..., idx, idx] = self._null_sum(diagonal)
            if pair:
                null[..., idx, jperm] = self._null_sum(pair)
        return inverse

    def _inverse_sum(self, parts: dict, start):
        """M+ on the entries ``parts`` gives per sector.

        Summed over the kept sectors in label order from ``start`` (the
        identity part's entries), as whole parts would be; an absent sector
        adds 0.0.  :meth:`_null_sum` sums the null sectors so from 0.
        """
        for label, lam in self._kept:
            start = start + parts.get(label, 0.0) / lam
        return start

    def _null_sum(self, parts: dict):
        """The null part on the entries ``parts`` gives per sector; see :meth:`_inverse_sum`."""
        null = 0.0
        for label in self._null:
            null = null + parts.get(label, 0.0)
        return null

    def removed_norm(self, m: np.ndarray) -> float:
        """Hilbert-Schmidt norm of the null-sector component of ``m``."""
        return float(np.linalg.norm(self.split(m).null))

    def is_projected(self, m: np.ndarray) -> bool:
        """True when ``m`` has non-negligible weight outside the image."""
        return self.split(m).projected


@lru_cache(maxsize=64)
def invert_channel(spec: SpaceSpec) -> ChannelInverse:
    """Cached pseudo-inverse applier for the channel of ``spec``.

    Examples
    --------
    >>> from symshadows.spaces import make_space
    >>> import numpy as np
    >>> inv = invert_channel(make_space("U", 3))
    >>> bool(np.allclose(inv(np.eye(3)), np.eye(3)))
    True
    """
    return ChannelInverse(spec)
