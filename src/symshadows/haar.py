"""Haar sampling on the classical compact groups U(d), O(d), SO(d), SP(d).

All four are drawn as products of Householder reflectors built from fresh
Gaussian vectors of decreasing length (Stewart, SIAM J. Numer. Anal.
17:403 (1980); Mezzadri, "How to generate random matrices from the
classical compact groups", Notices AMS 54 (2007)), quaternionic ones for
SP(d) (Bunse-Gerstner, Byers & Mehrmann, Numer. Math. 55:83 (1989)).
Reflector ``k`` is the one Householder QR of a Ginibre matrix would build
from its ``k``-th column, and a gauge (unit phases; a Haar Sp(1) element
per quaternionic coordinate for SP) makes the law exactly Haar.  A draw is
held packed (:class:`HouseholderDraw`, returned with ``dense=False``): a
round costs about d²/2 Gaussians, and applying it to a vector costs O(d²),
with no d×d matrix formed unless :meth:`HouseholderDraw.matrix` is asked
for.  Reflector ``k`` fixes the first ``k`` basis vectors, so the first
``m`` columns of a draw depend only on reflectors ``0, …, m-1`` and their
gauge entries; ``columns=m`` draws only those, d·m − m(m−1)/2 Gaussians,
and applying the draw then costs O(d·m).

The matrix samplers accept ``size=None`` for a single ``(d, d)`` matrix or
an integer ``size`` for a stacked ``(size, d, d)`` batch, and draw from a
:class:`numpy.random.Generator` (or anything :func:`symshadows.rng.as_generator`
accepts).
"""

from __future__ import annotations

import numpy as np

from .rng import as_generator

__all__ = [
    "HouseholderDraw",
    "ginibre",
    "haar_unitary",
    "haar_orthogonal",
    "haar_symplectic",
    "symplectic_form",
    "symplectic_pairing",
]


def _integer(value, name: str) -> int:
    """``value`` as an int; ``ValueError`` naming it unless it is integral.

    NumPy integers and integral floats pass; bools and strings do not.
    """
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return n


def ginibre(kind: str, n: int, rng=None, size: int | None = None) -> np.ndarray:
    """Sample a Ginibre matrix with i.i.d. standard Gaussian entries.

    Parameters
    ----------
    kind : {'real', 'complex', 'quaternion'}
        Entry field.  ``real``: N(0,1) reals.  ``complex``: independent
        N(0, 1/2) real and imaginary parts (unit-variance complex entries).
        ``quaternion``: the 2n x 2n complex representation
        ``[[A, -conj(B)], [B, conj(A)]]`` with A, B complex Ginibre of size n.
    n : int
        Base dimension (the quaternion kind returns a ``2n x 2n`` matrix).
    rng : Generator, RngStream, int, or None
        Randomness source.
    size : int, optional
        Number of stacked samples.

    Returns
    -------
    ndarray
        ``(n, n)`` (or ``(2n, 2n)`` for quaternion kind), stacked when
        ``size`` is given.  Complex dtype except for ``kind='real'``.
    """
    gen = as_generator(rng)
    n = _integer(n, "n")
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    nsamp = 1 if size is None else _integer(size, "size")
    if nsamp < 1:
        raise ValueError(f"size must be a positive integer, got {nsamp}")
    if kind == "real":
        z = gen.standard_normal((nsamp, n, n))
    elif kind == "complex":
        z = (
            gen.standard_normal((nsamp, n, n))
            + 1j * gen.standard_normal((nsamp, n, n))
        ) / np.sqrt(2.0)
    elif kind == "quaternion":
        a = (
            gen.standard_normal((nsamp, n, n))
            + 1j * gen.standard_normal((nsamp, n, n))
        ) / np.sqrt(2.0)
        b = (
            gen.standard_normal((nsamp, n, n))
            + 1j * gen.standard_normal((nsamp, n, n))
        ) / np.sqrt(2.0)
        z = np.empty((nsamp, 2 * n, 2 * n), dtype=np.complex128)
        z[:, :n, :n] = a
        z[:, :n, n:] = -b.conj()
        z[:, n:, :n] = b
        z[:, n:, n:] = a.conj()
    else:
        raise ValueError(f"unknown Ginibre kind {kind!r}")
    return z[0] if size is None else z


#: Dimension from which :meth:`HouseholderDraw.matrix` forms each draw with
#: LAPACK's blocked ``?ungqr``/``?orgqr`` rather than a batched NumPy pass.
#: Measured per U(d) draw on a 2-core machine (OpenBLAS): NumPy 14 µs vs
#: LAPACK 17 µs at d = 16, 40 µs vs 22 µs at d = 24, 84 µs vs 33 µs at
#: d = 32, 6.6 ms vs 1.7 ms at d = 128; O(d) breaks even near d = 24.
ORGQR_MIN_DIM = 24


class _MatrixStack:
    """``shape`` and ``ndim`` of the ``(B, d, d)`` stack that ``matrix()`` returns.

    A draw reports the shape of the matrices it stands for, so code that
    counts draws by ``result.shape[0]`` counts a draw object and a dense
    stack alike.
    """

    ndim = 3

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.size, self.dim, self.dim)


class HouseholderDraw(_MatrixStack):
    """A batch of Haar draws from U(d), O(d), SO(d) or SP(d), held as reflectors.

    Draw ``n`` is ``g = H_0 H_1 ⋯ H_{m-1} D`` with ``H_k = 1 - tau[k, n]
    v_k v_kᴴ`` and ``tau = 2/‖v_k‖²``; ``m`` is d − 1 (d/2 − 1 quaternionic
    reflectors for SP) for a full draw, and the ``columns`` asked for
    otherwise, with ``D = 1`` past them.  (LAPACK scales ``v_k[k]`` to 1; the
    scale of ``v_k`` does not change ``H_k``, so it is left as drawn.)  In
    the ``(c, d/c)`` view of a vector (``c = 2`` for SP, whose rows ``i``,
    ``d/2 + i`` form quaternionic coordinate ``i``; else 1), ``v_k`` covers
    coordinates ``k//c, …``; SP's ``v_{2j+1} = J conj(v_{2j})`` is
    orthogonal to ``v_{2j}``.  Every array keeps the batch axis last.

    Attributes
    ----------
    dim : int
        Matrix dimension d.
    size : int
        Number of draws B.
    reflectors : (rows, B) ndarray
        ``v_0, …, v_{m-1}`` packed one after another.
    offsets : (m,) int ndarray
        Start row of each reflector in ``reflectors``.
    tau : (m, B) float ndarray
        Reflector scales ``2/‖v_k‖²`` (0 only for an all-zero Gaussian column).
    signs : (d, B) ndarray
        Gauge diagonal: complex phases for U(d), ±1 for O(d)/SO(d).
    swap : (d, B) complex ndarray or None
        SP only: with ``signs = (a, ā)`` and ``swap = (-b̄, b)`` at ``(i, i ±
        d/2)``, coordinate ``i`` carries the Sp(1) gauge ``[[a, -b̄], [b, ā]]``.
    """

    def __init__(self, reflectors, offsets, tau, signs, swap=None):
        self.reflectors = reflectors
        self.offsets = offsets
        self.tau = tau
        self.signs = signs
        self.swap = swap
        self.dim, self.size = signs.shape
        self._blocks = 1 if swap is None else 2

    def _reflect_all(self, out: np.ndarray, order) -> None:
        """In place: ``out <- H_k out`` for each ``k`` in ``order``; ``out`` is ``(d, B)``."""
        c = self._blocks
        view = out.reshape(c, self.dim // c, out.shape[1])
        for k in order:
            lo, m = self.offsets[k], self.dim // c - k // c
            v = self.reflectors[lo : lo + c * m].reshape(c, m, -1)
            seg = view[:, k // c :]
            coef = (v.conj() * seg).sum(axis=(0, 1))
            coef *= self.tau[k]
            seg -= v * coef

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Return ``g y`` for stacked vectors ``y`` of shape ``(d, B)``."""
        out = np.ascontiguousarray(y * self.signs)
        if self.swap is not None:
            out += self.swap * np.roll(y, self.dim // 2, axis=0)
        self._reflect_all(out, range(len(self.offsets) - 1, -1, -1))
        return out

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """Return ``gᴴ y`` for stacked vectors ``y`` of shape ``(d, B)``."""
        out = np.array(y, dtype=np.result_type(y, self.reflectors), order="C")
        self._reflect_all(out, range(len(self.offsets)))
        if self.swap is None:
            out *= self.signs.conj()
            return out
        return self.signs.conj() * out + np.roll(self.swap.conj() * out, self.dim // 2, axis=0)

    def matrix(self) -> np.ndarray:
        """The draws as dense ``(B, d, d)`` matrices.

        Reflectors are applied to ``D`` right to left, and ``H_k`` only
        touches the trailing ``k//c, …`` coordinate block of the partial
        product, so this costs d³/3 per draw rather than d³.  For U/O from
        ``d = ORGQR_MIN_DIM`` on, LAPACK's blocked ``?ungqr``/``?orgqr``
        does this per draw; below it, and for SP, one NumPy pass over the
        whole batch is faster.
        """
        d, c = self.dim, self._blocks
        if c == 1 and d >= ORGQR_MIN_DIM:
            return self._matrix_lapack()
        out = np.zeros((d, d, self.size), dtype=self.signs.dtype)
        rows = np.arange(d)
        out[rows, rows] = self.signs
        if self.swap is not None:
            out[rows, np.roll(rows, d // 2)] = self.swap
        view = out.reshape(c, d // c, c, d // c, self.size)
        for k in range(len(self.offsets) - 1, -1, -1):
            lo, m = self.offsets[k], d // c - k // c
            v = self.reflectors[lo : lo + c * m].reshape(c, m, -1)
            sub = view[:, k // c :, :, k // c :]
            coef = np.einsum("aib,aicjb->cjb", v.conj(), sub) * self.tau[k]
            sub -= v[:, :, None, None, :] * coef[None, None]
        return np.ascontiguousarray(out.transpose(2, 0, 1))

    def _matrix_lapack(self) -> np.ndarray:
        # scipy.linalg takes about 0.3 s to import; only dense draws at
        # d >= ORGQR_MIN_DIM need it.
        from scipy.linalg import lapack

        d, dtype = self.dim, self.signs.dtype
        orgqr = lapack.zungqr if dtype.kind == "c" else lapack.dorgqr
        # LAPACK's packing: reflector k is 1 - t v vᴴ with v[k] = 1, stored
        # below the diagonal of column k; packed[n, k] is that column of
        # draw n, so packed[n].T is the Fortran-ordered matrix.  Scaling
        # v_k by 1/v_k[0] scales tau by |v_k[0]|².
        packed = np.zeros((self.size, d, d), dtype=dtype)
        tau = np.zeros((self.size, d), dtype=dtype)
        for k in range(len(self.offsets)):
            lo, m = self.offsets[k], d - k
            v = self.reflectors[lo : lo + m]
            head = np.where(self.tau[k] > 0, v[0], 1.0)
            packed[:, k, k + 1 :] = (v[1:] / head).T
            tau[:, k] = self.tau[k] * np.abs(v[0]) ** 2
        out = np.empty_like(packed)
        signs = self.signs.T
        for n in range(self.size):
            q, _, info = orgqr(packed[n].T, tau[n], lwork=32 * d, overwrite_a=1)
            if info != 0:
                raise RuntimeError(f"LAPACK ?ungqr/?orgqr failed with info={info}")
            np.multiply(q, signs[n], out=out[n])
        return out


def _columns(columns, n: int) -> int:
    """Validate a ``columns`` request against ``n`` (quaternionic) columns."""
    if columns is None:
        return n
    m = _integer(columns, "columns")
    if not 1 <= m <= n:
        raise ValueError(f"columns must be an integer from 1 to {n}, got {columns}")
    return m


def _haar_reflectors(
    d: int, rng, size: int | None, *, real: bool, special: bool = False, columns=None
) -> HouseholderDraw:
    """Draw Haar elements of U(d) (``real=False``) or O(d)/SO(d) as reflectors.

    Column ``k`` of a Ginibre matrix, after the first ``k`` reflectors of
    its Householder QR, is again a standard Gaussian vector; its trailing
    ``d - k`` entries ``x`` are therefore drawn fresh, d(d+1)/2 Gaussians
    per draw in all.  With ``phase = x[0]/|x[0]|`` the reflector mapping
    ``x`` to ``-phase·‖x‖·e_0`` is ``1 - tau v vᴴ`` with
    ``v = x + phase‖x‖e_0`` and ``tau = 2/‖v‖² = 1/(‖x‖(‖x‖ + |x[0]|))``,
    and the gauge entry that makes the law Haar (dividing out the phase of
    R's diagonal) is ``-phase``.  The last column is a scalar; its
    reflector is ``-1`` and is folded into its gauge entry, which is then
    just ``phase``.  ``columns=m < d`` stops after column ``m - 1``.

    With ``special=True`` (real only) draws of determinant -1 have one gauge
    sign flipped: the first for a full draw, which makes the law Haar on
    SO(d), and the one past the drawn columns otherwise, which leaves those
    columns as drawn (for ``m < d`` they have the same law in SO(d) as in
    O(d)).
    """
    gen = as_generator(rng)
    d = _integer(d, "d")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    size = 1 if size is None else _integer(size, "size")
    if size < 1:
        raise ValueError(f"size must be a positive integer, got {size}")
    m = _columns(columns, d)
    lengths = np.arange(d, d - m, -1)
    n = int(lengths.sum())
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    if real:
        flat = x = gen.standard_normal((n, size))
    else:
        flat = gen.standard_normal((n, 2 * size))
        x = flat.view(np.complex128)
    # Column norms one segment at a time: np.add.reduceat over axis 0 is
    # several times slower here.
    norm2 = np.empty((m, flat.shape[1]))
    for k, (lo, length) in enumerate(zip(offsets, lengths)):
        np.einsum("ij,ij->j", flat[lo : lo + length], flat[lo : lo + length], out=norm2[k])
    if not real:
        norm2 = norm2.reshape(m, size, 2).sum(axis=2)
    norm = np.sqrt(norm2)
    heads = x[offsets]
    head_abs = np.abs(heads)
    phase = np.where(head_abs > 0, heads / np.where(head_abs > 0, head_abs, 1.0), 1.0)
    full = m == d
    r = m - 1 if full else m
    reflectors = x[: n - 1] if full else x
    reflectors[offsets[:r]] += (phase * norm)[:r]
    denom = (norm * (norm + head_abs))[:r]
    tau = np.where(denom > 0, 1.0 / np.where(denom > 0, denom, 1.0), 0.0)
    signs = np.ones((d, size), dtype=phase.dtype)
    signs[:m] = -phase
    if full:
        signs[-1] = phase[-1]
    if special:
        # det g = (-1)^(number of proper reflectors) * prod(signs)
        flips = np.count_nonzero(tau, axis=0) % 2
        det = np.prod(signs, axis=0) * (1.0 - 2.0 * flips)
        signs[0 if full else m] *= det
    return HouseholderDraw(reflectors, offsets[:r], tau, signs)


def _dense(draw: HouseholderDraw, size: int | None) -> np.ndarray:
    q = draw.matrix()
    return q[0] if size is None else q


def haar_unitary(
    d: int, rng=None, size: int | None = None, *, dense: bool = True, columns: int | None = None
):
    """Sample Haar-distributed unitaries from U(d).

    Parameters
    ----------
    dense : bool
        True (default): return ``(d, d)`` or ``(size, d, d)`` matrices.
        False: return the :class:`HouseholderDraw` itself (``size`` draws,
        one for ``size=None``), for code that only applies the unitaries
        to vectors.
    columns : int, optional
        Draw only the ``columns`` reflectors (``1 <= columns <= d``) that
        the first ``columns`` columns depend on.  Those columns then have
        the law of a Haar draw's, and the matrix is still unitary, but its
        other columns are not Haar.  For code that needs only the span of
        the first columns, such as a Haar-random projector.

    Examples
    --------
    >>> u = haar_unitary(3, rng=0)
    >>> np.allclose(u.conj().T @ u, np.eye(3))
    True
    >>> w = haar_unitary(5, rng=0, size=2, dense=False, columns=2)
    >>> w.reflectors.shape  # 5 + 4 Gaussians per draw, not 5·6/2
    (9, 2)
    """
    draw = _haar_reflectors(d, rng, size, real=False, columns=columns)
    return _dense(draw, size) if dense else draw


def haar_orthogonal(
    d: int,
    rng=None,
    special: bool = False,
    size: int | None = None,
    *,
    dense: bool = True,
    columns: int | None = None,
):
    """Sample Haar-distributed real orthogonal matrices from O(d) or SO(d).

    Parameters
    ----------
    special : bool
        When True, condition on determinant +1 (Haar on SO(d)) by flipping
        a gauge sign of draws with determinant -1.
    dense : bool
        As for :func:`haar_unitary`.
    columns : int, optional
        As for :func:`haar_unitary`; with ``special=True`` the flipped sign
        lies past the drawn columns.

    Returns
    -------
    ndarray or HouseholderDraw
        Real ``float64`` matrices, or the draw when ``dense=False``.

    Examples
    --------
    >>> w = haar_orthogonal(4, rng=0, special=True, size=3, columns=1)
    >>> np.allclose(np.linalg.det(w), 1.0), np.allclose(np.linalg.norm(w[:, :, 0], axis=1), 1.0)
    (True, True)
    """
    draw = _haar_reflectors(d, rng, size, real=True, special=special, columns=columns)
    return _dense(draw, size) if dense else draw


def symplectic_form(d: int) -> np.ndarray:
    """The skew form J = [[0, -1], [1, 0]] in d/2-blocks defining SP(d).

    Conventions: ``U`` is symplectic iff ``U.T @ J @ U == J``; the partner of
    basis index ``i`` is ``i + d/2`` (mod d).
    """
    if d % 2:
        raise ValueError(f"symplectic form needs even dimension, got {d}")
    n = d // 2
    j = np.zeros((d, d))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def symplectic_pairing(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index map and signs of the symplectic form.

    Returns
    -------
    jperm : (d,) int64 ndarray
        Partner index ``a#`` of each basis index ``a``.
    jsign : (d,) float64 ndarray
        ``J[a, a#]`` (so ``-1`` for the first half, ``+1`` for the second).
    """
    if d % 2:
        raise ValueError(f"symplectic pairing needs even dimension, got {d}")
    n = d // 2
    jperm = np.concatenate([np.arange(n, d), np.arange(0, n)]).astype(np.int64)
    jsign = np.concatenate([-np.ones(n), np.ones(n)])
    return jperm, jsign


def _symplectic_reflectors(d: int, rng, size: int | None, columns=None) -> HouseholderDraw:
    """Draw Haar elements of SP(d) as quaternionic reflectors.

    As :func:`_haar_reflectors`, per quaternionic coordinate ``j < d/2 - 1``:
    a fresh Gaussian ``x`` on coordinates ``j, …`` is mapped onto
    coordinate ``j`` by ``1 - tau (v vᴴ + θv θvᴴ)``, ``θv = J conj(v)``, with
    ``r`` the norm of ``x``'s two entries ``x_head`` on coordinate ``j``,
    ``v = x + (‖x‖/r) x_head`` and ``tau = 1/(‖x‖(‖x‖ + r))``.  An
    independent Haar Sp(1) gauge per coordinate makes the law Haar and
    absorbs the last coordinate's reflector (-1).  ``columns=m < d/2``
    stops after coordinate ``m - 1``, and gauges only coordinates ``< m``.
    """
    gen = as_generator(rng)
    d = _integer(d, "d")
    if d < 2 or d % 2:
        raise ValueError(f"symplectic dimension must be even and at least 2, got {d}")
    size = 1 if size is None else _integer(size, "size")
    if size < 1:
        raise ValueError(f"size must be a positive integer, got {size}")
    n = d // 2
    m = _columns(columns, n)
    lengths = 2 * np.arange(n, n - min(m, n - 1), -1)
    starts = np.cumsum(lengths) - lengths
    flat = gen.standard_normal((int(lengths.sum()), 2 * size))
    x = flat.view(np.complex128)
    reflectors = np.empty((2 * x.shape[0], size), dtype=np.complex128)
    tau = np.empty((2 * lengths.size, size))
    for j, (lo, length) in enumerate(zip(starts, lengths)):
        seg = flat[lo : lo + length]
        norm = np.sqrt(np.einsum("ij,ij->j", seg, seg).reshape(size, 2).sum(axis=1))
        v, theta = reflectors[2 * lo : 2 * (lo + length)].reshape(2, 2, length // 2, size)
        v[...] = x[lo : lo + length].reshape(2, length // 2, size)
        r = np.sqrt((np.abs(v[:, 0]) ** 2).sum(axis=0))
        v[:, 0] *= 1.0 + norm / r
        np.negative(v[1].conj(), out=theta[0])
        np.conjugate(v[0], out=theta[1])
        tau[2 * j] = tau[2 * j + 1] = 1.0 / (norm * (norm + r))
    offsets = np.stack([2 * starts, 2 * starts + lengths], axis=1).reshape(-1)
    q = gen.standard_normal((4, m, size))
    a = np.ones((n, size), dtype=np.complex128)
    b = np.zeros((n, size), dtype=np.complex128)
    a[:m], b[:m] = (q[0::2] + 1j * q[1::2]) / np.sqrt((q * q).sum(axis=0))
    return HouseholderDraw(
        reflectors, offsets, tau, np.concatenate([a, a.conj()]), np.concatenate([-b.conj(), b])
    )


def haar_symplectic(
    d: int, rng=None, size: int | None = None, *, dense: bool = True, columns: int | None = None
):
    """Sample Haar-distributed symplectic unitaries from SP(d) ⊂ U(d).

    ``U.T @ J @ U = J`` with :func:`symplectic_form`'s J.

    Parameters
    ----------
    dense : bool
        As for :func:`haar_unitary`.
    columns : int, optional
        As for :func:`haar_unitary`, counted in quaternionic coordinates
        (``1 <= columns <= d/2``): coordinate ``i`` is the column pair
        ``i``, ``d/2 + i``.

    Examples
    --------
    >>> u = haar_symplectic(4, rng=1)
    >>> j = symplectic_form(4)
    >>> np.allclose(u.T @ j @ u, j), np.allclose(u.conj().T @ u, np.eye(4))
    (True, True)
    >>> w = haar_symplectic(6, rng=1, dense=False, columns=1)
    >>> w.reflectors.shape  # one pair v, J conj(v) of length 6, not three
    (12, 1)
    """
    draw = _symplectic_reflectors(d, rng, size, columns)
    return _dense(draw, size) if dense else draw
