"""The classical compact groups, their symmetric quotients, and samplers.

Each of the seven classical families is a quotient G/K of a compact group
G ∈ {U(d), SO(d), SP(d)} by the fixed-point subgroup K of an involutive
automorphism σ.  The invariant measure on the quotient is realized by the
coset map applied to a Haar sample of the parent:

    V = σ(g)⁻¹ g,   g ~ Haar(G).

The families, their parents, involutions, and fixed subgroups:

=======  ==========  =======================  =====================
family   parent G    involution σ(g)          subgroup K
=======  ==========  =======================  =====================
AI       U(d)        conj(g)                  O(d)
AII      U(d)        J conj(g) J⁻¹            SP(d)
AIII     U(d)        I_pq g I_pq              S(U(p) x U(q))
BDI      SO(d)       I_pq g I_pq              SO(p) x SO(q)
DIII     SO(d)       J g J⁻¹                  U(d/2) (embedded)
CI       SP(d)       J g J⁻¹                  U(d/2) (embedded)
CII      SP(d)       K_pq g K_pq              SP(2p) x SP(2q)
=======  ==========  =======================  =====================

Here J is the skew form of :func:`symshadows.haar.symplectic_form`,
I_pq = diag(1_p, -1_q), and K_pq = I_pq ⊕ I_pq (CII block sizes p, q count
quaternionic coordinates, so p + q = d/2).  The parent groups themselves
("U", "O", "SO", "SP") are admitted as additional ensembles whose sampler is
plain Haar.

Every σ has the form σ(g) = M κ(g) Mᵀ with M a signed permutation (1, J,
or S = I_pq / K_pq) and κ complex conjugation or the identity.  The table
above is :data:`_FAMILIES` in code: per family the parent, M, whether κ
conjugates, and the kind of K's blocks; every other per-family fact
(realness, the even-dimension rule, which families take p/q) is read off
it.  It drives :func:`involution` and :func:`sample_point`; with
``dense=False`` the latter returns an :class:`EnsembleDraw`, which applies
``V y = σ(g)ᴴ(g y)`` and ``Vᴴ y = gᴴ(σ(g) y)`` to vectors without forming
V, through a deferred parent draw that reveals only the directions it is
applied to (:class:`~symshadows.haar.DeferredUnitary`): a pure-state shot
draws 2 fresh d-vectors for a group and 4 for AI, AII, DIII and CI (a real
parent reveals a complex vector's real and imaginary parts apart).

AIII, BDI and CII are Grassmannians, and are drawn without σ.  With
S = I_pq (K_pq for CII) and P_q the projector onto the q-block,
V = S gᴴSg = S(1 − 2gᴴP_q g) depends on g only through a Haar-random
rank-q projector.  With m = min(p, q), that projector has the law of
P = h P_m hᴴ, or of 1 − P when m = p, where P_m projects onto the first
m (quaternionic) coordinates: P projects onto the span of a Haar draw's
first m columns (the ``columns`` keyword of the :mod:`symshadows.haar`
samplers).  So V = ±S(1 − 2P), + when m = q.  A dense draw forms the m
columns W and V = ±S(1 − 2WWᴴ); a deferred one
(:class:`~symshadows.haar.DeferredSubspace`) reveals ``P y`` with one Beta
variate and one fresh d-vector, so a shot costs the same at every m.

K is stated once, as the diagonal blocks of :func:`_k_blocks` read off
the K column of the table; :func:`sample_subgroup` draws Haar on each block
and :func:`sample_signed_symmetry` a signed permutation.

Each coset representative V inherits an exact algebraic structure from σ
(e.g. type AI gives symmetric unitaries V = gᵀg); these relations are frozen
here as per-family structural witnesses used throughout the test batteries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .haar import (
    _SLACK,
    _Completable,
    _count,
    _draw_blocks,
    _draw_bytes,
    _integer,
    _output,
    _refuse_oversize,
    _Workspace,
    haar_orthogonal,
    haar_symplectic,
    haar_unitary,
    symplectic_form,
    symplectic_pairing,
)
from .rng import as_generator

__all__ = [
    "GROUP_FAMILIES",
    "QUOTIENT_FAMILIES",
    "ALL_FAMILIES",
    "EnsembleDraw",
    "SpaceSpec",
    "WitnessResult",
    "make_space",
    "involution",
    "sample_point",
    "sample_subgroup",
    "sample_signed_symmetry",
    "signature_matrix",
]


class _Family(NamedTuple):
    """One row of the module table."""

    parent: str  # "U", "O" or "SP"
    m: str | None  # σ's signed permutation: "1", "J" or "S" (I_pq/K_pq); None for a group
    conj: bool  # whether κ is complex conjugation
    k: str  # K's block kind; "U/2" is U(n/2) embedded as by _embed_complex


_FAMILIES = {
    "U": _Family("U", None, False, "U"),
    "O": _Family("O", None, False, "O"),
    "SO": _Family("O", None, False, "SO"),
    "SP": _Family("SP", None, False, "SP"),
    "AI": _Family("U", "1", True, "O"),
    "AII": _Family("U", "J", True, "SP"),
    "AIII": _Family("U", "S", False, "U"),
    "BDI": _Family("O", "S", False, "SO"),
    "DIII": _Family("O", "J", False, "U/2"),
    "CI": _Family("SP", "J", False, "U/2"),
    "CII": _Family("SP", "S", False, "SP"),
}

GROUP_FAMILIES = tuple(f for f, row in _FAMILIES.items() if row.m is None)
QUOTIENT_FAMILIES = tuple(f for f, row in _FAMILIES.items() if row.m is not None)
ALL_FAMILIES = GROUP_FAMILIES + QUOTIENT_FAMILIES


def _block_total(family: str, dim: int) -> int | None:
    """p + q for the families that take blocks (M = S), else None.

    CII's blocks count quaternionic coordinates, so their total is d/2.
    """
    row = _FAMILIES.get(family)
    if row is None or row.m != "S":
        return None
    return dim // 2 if row.parent == "SP" else dim


@dataclass(frozen=True)
class SpaceSpec:
    """Immutable description of one measurement ensemble.

    Attributes
    ----------
    family : str
        One of :data:`ALL_FAMILIES`.
    dim : int
        Matrix (Hilbert-space) dimension d.
    p, q : int or None
        Block sizes for the signature families (AIII/BDI: p + q = d;
        CII: quaternionic blocks with p + q = d/2).  ``None`` otherwise.
    """

    family: str
    dim: int
    p: int | None = None
    q: int | None = None

    @property
    def is_group(self) -> bool:
        return self.family in GROUP_FAMILIES

    @property
    def parent(self) -> str:
        """Parent-group label: 'U', 'O', or 'SP'."""
        return _FAMILIES[self.family].parent

    @property
    def signature(self) -> int | None:
        """p - q for the signature families, else None."""
        if self.p is None:
            return None
        return self.p - self.q

    @property
    def is_degenerate(self) -> bool:
        """True when one block is empty, collapsing the ensemble to {1}."""
        return self.p is not None and (self.p == 0 or self.q == 0)

    @property
    def is_real(self) -> bool:
        """True when sampled matrices are real."""
        return self.parent == "O"

    def label(self) -> str:
        """Short human-readable tag, e.g. ``AIII(d=4,p=2,q=2)``."""
        if self.p is None:
            return f"{self.family}(d={self.dim})"
        return f"{self.family}(d={self.dim},p={self.p},q={self.q})"


def make_space(
    family: str, dim: int, p: int | None = None, q: int | None = None
) -> SpaceSpec:
    """Validate parameters and build a :class:`SpaceSpec`.

    For the signature families, a missing block split defaults to the most
    balanced one (``p = ceil(total/2)``); supplying either of ``p``/``q``
    pins both.

    Raises
    ------
    ValueError
        On unknown family names, invalid dimensions, or inconsistent blocks.
    """
    if family not in ALL_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {ALL_FAMILIES}")
    dim = _integer(dim, "dim")
    min_dim = 1 if family in GROUP_FAMILIES else 2
    if dim < min_dim:
        raise ValueError(f"{family} needs dimension >= {min_dim}, got {dim}")
    row = _FAMILIES[family]
    if (row.parent == "SP" or row.m == "J") and dim % 2:
        raise ValueError(f"{family} needs an even dimension, got {dim}")
    total = _block_total(family, dim)
    if total is None:
        if p is not None or q is not None:
            raise ValueError(f"{family} does not take block sizes p/q")
        return SpaceSpec(family, dim)
    if p is None and q is None:
        p = (total + 1) // 2
        q = total - p
    elif p is None:
        q = _integer(q, "q")
        p = total - q
    elif q is None:
        p = _integer(p, "p")
        q = total - p
    else:
        p, q = _integer(p, "p"), _integer(q, "q")
    if p < 0 or q < 0 or p + q != total:
        raise ValueError(
            f"{family} at dim {dim} needs p + q = {total} with p, q >= 0; "
            f"got p={p}, q={q}"
        )
    return SpaceSpec(family, dim, p, q)


def _coords(spec: SpaceSpec, lo: int, hi: int) -> np.ndarray:
    """Coordinates ``lo, …, hi - 1`` of a block; quaternionic ones (SP parent,
    so CII) come with their J-partners ``d/2 + i``."""
    coords = np.arange(lo, hi)
    if spec.parent == "SP":
        coords = np.concatenate([coords, spec.dim // 2 + coords])
    return coords


def signature_matrix(spec: SpaceSpec) -> np.ndarray:
    """The diagonal sign matrix defining the involution (I_pq or K_pq)."""
    if spec.p is None:
        raise ValueError(f"{spec.family} has no signature matrix")
    return np.diag(_signature(spec))


def _signature(spec: SpaceSpec) -> np.ndarray:
    """The diagonal of :func:`signature_matrix`."""
    sign = -np.ones(spec.dim)
    sign[_coords(spec, 0, spec.p)] = 1.0
    return sign


@dataclass(frozen=True)
class _Involution:
    """σ(g) = M κ(g) Mᵀ, with ``(M y)[i] = sign[i] * y[perm[i]]``.

    ``(Mᵀ y)[i] = sign_t[i] * y[perm_t[i]]`` with the inverse index map.
    """

    perm: np.ndarray
    sign: np.ndarray
    perm_t: np.ndarray
    sign_t: np.ndarray
    conj: bool

    def m(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``M y`` into ``out``, for vectors stacked ``(d, B)``."""
        # mode="clip" writes straight into out; the default would buffer.
        np.take(y, self.perm, axis=0, out=out, mode="clip")
        return np.multiply(self.sign[:, None], out, out=out)

    def mt(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``Mᵀ y`` into ``out``, for vectors stacked ``(d, B)``."""
        np.take(y, self.perm_t, axis=0, out=out, mode="clip")
        return np.multiply(self.sign_t[:, None], out, out=out)


def _sigma(spec: SpaceSpec) -> _Involution:
    row = _FAMILIES[spec.family]
    if row.m is None:
        raise ValueError(f"group ensemble {spec.family} carries no involution")
    if row.m == "J":
        perm, sign = symplectic_pairing(spec.dim)
    else:
        perm = np.arange(spec.dim)
        sign = _signature(spec) if row.m == "S" else np.ones(spec.dim)
    perm_t = np.argsort(perm)
    return _Involution(perm, sign, perm_t, sign[perm_t], row.conj)


def involution(spec: SpaceSpec, g: np.ndarray) -> np.ndarray:
    """Apply the family's involutive automorphism σ to parent elements ``g``.

    Works on a single matrix or any stack ``(..., d, d)``.
    """
    sigma = _sigma(spec)
    h = g.conj() if sigma.conj else g
    signs = sigma.sign[:, None] * sigma.sign[None, :]
    return signs * h[..., sigma.perm[:, None], sigma.perm[None, :]]


class EnsembleDraw(_Completable):
    """A batch of ensemble elements V, applied to vectors without forming V.

    ``V = g`` for the groups, ``V = σ(g)ᴴ g`` for AI, AII, DIII and CI,
    ``V = ±S(1 − 2P)`` for the Grassmannians AIII, BDI and CII (see the
    module docstring) and ``V = 1`` for a degenerate quotient.  Vectors are
    stacked with the batch axis last, ``(d, B)``.  The parent is deferred:
    a :class:`~symshadows.haar.DeferredUnitary` ``g``, or for the
    Grassmannians a :class:`~symshadows.haar.DeferredSubspace` of rank
    ``min(p, q)`` with projector P, and it draws only the directions that
    ``apply`` and ``apply_adjoint`` read.  The draw and its parent work in
    one workspace: a streamed call's (:meth:`_use`), or their own, made at
    first use and sized for one ``apply`` and one ``apply_adjoint``.  Both
    write their result to ``out`` when it is given (a streamed call gives
    arrays of its workspace) and return it; else they return a new array.
    :meth:`matrix` completes V by applying it to the basis vectors.
    ``shape`` is that of :meth:`matrix`, ``(B, d, d)``.
    """

    def __init__(self, spec: SpaceSpec, parent, size: int):
        self.spec = spec
        self.parent = parent
        self.size = size
        self.dim = spec.dim
        self._dtype = np.float64 if spec.is_real else np.complex128
        self._involution = self._sign = None
        self._ws = None
        if parent is not None and spec.p is not None:
            self._sign = _grassmannian_sign(spec)[:, None]
        elif parent is not None and not spec.is_group:
            self._involution = _sigma(spec)

    def _use(self, workspace: _Workspace) -> None:
        """Work in ``workspace``, with the parent's frames sized for one measured round."""
        self._ws = workspace
        if self.parent is not None:
            self.parent._use(workspace, _parent_applications(self.spec))

    def _workspace(self) -> _Workspace:
        if self._ws is None:
            self._use(_Workspace(self.size * _round_bytes(self.spec) + _SLACK))
        return self._ws

    def apply(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``V y = σ(g)ᴴ (g y) = M κ(gᴴ κ(Mᵀ g y))``, or ``±S(y − 2Py)``."""
        y = np.asarray(y)
        out = _output(y, y.dtype if self.parent is None else self._dtype, out)
        if self.parent is None:
            np.copyto(out, y)
            return out
        ws = self._workspace()
        if self._sign is not None:
            a = self.parent.project(y, out)
            a *= -2.0
            a += y
            a *= self._sign
            return a
        sigma = self._involution
        if sigma is None:
            return self.parent.apply(y, out)
        with ws:
            a = self.parent.apply(y, ws.take(y.shape, out.dtype))
            a = sigma.mt(a, ws.take(y.shape, out.dtype))
            if sigma.conj:
                np.conjugate(a, out=a)
            a = self.parent.apply_adjoint(a, ws.take(y.shape, out.dtype))
            if sigma.conj:
                np.conjugate(a, out=a)
            return sigma.m(a, out)

    def apply_adjoint(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``Vᴴ y = gᴴ (σ(g) y) = gᴴ M κ(g κ(Mᵀ y))``, or ``(1 − 2P)(±S y)``."""
        y = np.asarray(y)
        out = _output(y, y.dtype if self.parent is None else self._dtype, out)
        if self.parent is None:
            np.copyto(out, y)
            return out
        ws = self._workspace()
        if self._sign is not None:
            with ws:
                # ±S y in V's dtype: a complex parent then reads it as it is.
                y = np.multiply(
                    self._sign, y, out=ws.take(y.shape, np.promote_types(y.dtype, out.dtype))
                )
                a = self.parent.project(y, out)
                a *= -2.0
                a += y
            return a
        sigma = self._involution
        if sigma is None:
            return self.parent.apply_adjoint(y, out)
        with ws:
            a = sigma.mt(y, ws.take(y.shape, y.dtype))
            if sigma.conj:
                np.conjugate(a, out=a)
            a = self.parent.apply(a, ws.take(y.shape, out.dtype))
            if sigma.conj:
                np.conjugate(a, out=a)
            return self.parent.apply_adjoint(sigma.m(a, ws.take(y.shape, out.dtype)), out)


def _parent_applications(spec: SpaceSpec) -> int:
    """Parent applications in one ``apply`` and one ``apply_adjoint`` of V.

    One each for a group or a Grassmannian, two each for a σ map.
    """
    return 2 if spec.is_group or spec.p is not None else 4


def _round_bytes(spec: SpaceSpec) -> int:
    """Workspace bytes per round of a deferred draw of ``spec``, its parent's included."""
    if spec.is_degenerate:
        return 0
    field = {"U": "complex", "O": "real", "SP": "quaternion"}[spec.parent]
    parent = _draw_bytes(spec.dim, field, _parent_applications(spec), spec.p is not None)
    # Complex d-vectors V holds besides its parent's: σ's three registers
    # around the parent's two applications, or ±S y for a Grassmannian's Vᴴ.
    coset = 0 if spec.is_group else 1 if spec.p is not None else 3
    return parent + coset * 16 * spec.dim


def _coset_matrix(spec: SpaceSpec, g: np.ndarray) -> np.ndarray:
    """V from dense parent draws ``g``, ``(B, d, d)``; for the Grassmannians
    ``g`` is ``(B, d, c·m)``, an orthonormal basis W of P's range.

    The draws are mapped a block at a time (:func:`~symshadows.haar._draw_blocks`),
    so that a temporary holds one block.  A σ quotient's V is formed in one
    reused buffer of a block and written over that block of ``g``, which is
    returned: ``g`` must be the caller's own.  A Grassmannian's blocks of
    W Wᴴ are written into V and finished there.  A draw's bits do not
    depend on its block.
    """
    if spec.is_group:
        return g
    d = spec.dim
    if spec.p is not None:
        v = np.empty((len(g), d, d), dtype=g.dtype)
        eye, sign = np.eye(d), _grassmannian_sign(spec)[:, None]
        for s in _draw_blocks(len(g), v[0].nbytes):
            # As the whole-batch map: a real W times its own transposed view, a syrk.
            block = np.matmul(g[s], np.swapaxes(g[s].conj(), -1, -2), out=v[s])
            block *= -2.0
            block += eye
            block *= sign
        return v
    blocks = _draw_blocks(len(g), g[0].nbytes)
    # Each block's (b, d, d) view of these buffers is contiguous.
    work = np.empty(g[blocks[0]].size, dtype=g.dtype)
    ai = _FAMILIES[spec.family].m == "1"
    if ai:
        gt = np.empty_like(work)
    for s in blocks:
        block = work[: g[s].size].reshape(g[s].shape)
        if ai:
            # AI: σ(g) = ḡ, so V = gᵀ g, from a contiguous gᵀ: g's own
            # transposed view would make it a syrk, with other bits.
            t = gt[: g[s].size].reshape(g[s].shape)
            np.copyto(t, np.swapaxes(g[s], -1, -2))
            np.matmul(t, g[s], out=block)
        else:
            np.matmul(np.swapaxes(involution(spec, g[s]).conj(), -1, -2), g[s], out=block)
        g[s] = block
    return g


def _grassmannian_sign(spec: SpaceSpec) -> np.ndarray:
    """The diagonal of ±S in ``V = ±S(1 − 2P)``, P of rank m = min(p, q).

    + when m = q; see the module docstring.
    """
    m = min(spec.p, spec.q)
    return _signature(spec) * (1.0 if m == spec.q else -1.0)


def _parent_draw(spec: SpaceSpec, gen: np.random.Generator, size: int, dense: bool):
    # The samplers are looked up as this module's attributes at call time,
    # so a wrapper set on ``spaces.haar_unitary`` (a tracer) sees every draw.
    # The Grassmannians need only the span of the first min(p, q) columns.
    columns = None if spec.p is None else min(spec.p, spec.q)
    parent = spec.parent
    if parent == "U":
        return haar_unitary(spec.dim, gen, size, dense=dense, columns=columns)
    if parent == "O":
        special = spec.family != "O"
        return haar_orthogonal(spec.dim, gen, special, size, dense=dense, columns=columns)
    return haar_symplectic(spec.dim, gen, size, dense=dense, columns=columns)


def sample_point(spec: SpaceSpec, rng=None, size: int | None = None, *, dense: bool = True):
    """Draw from the ensemble: Haar for groups, V = σ(g)⁻¹g for quotients.

    Degenerate signature choices (an empty block) make the quotient a single
    point; the exact identity matrix is returned for every draw, and no
    randomness is drawn.  A dense result that would exceed physical memory
    is refused with a ``ValueError`` before any draw.

    Parameters
    ----------
    dense : bool
        True (default): return matrices, formed from Householder draws of
        the parent.  False: return the :class:`EnsembleDraw` (``size``
        draws, one for ``size=None``), whose deferred parent draws only the
        directions it is applied to.  Its ``matrix()`` completes those draws
        from their own generator, which it advances, with the same law, not
        with the values ``dense=True`` gives on the same stream.

    Returns
    -------
    ndarray or EnsembleDraw
        ``(d, d)`` or ``(size, d, d)``, real for the real families; or the
        draw when ``dense=False``.
    """
    gen = as_generator(rng)
    count = _count(size)
    if dense:
        dtype = np.float64 if spec.is_real else np.complex128
        _refuse_oversize((count, spec.dim, spec.dim), dtype, f"d={spec.dim}, size={count}")
    parent = None if spec.is_degenerate else _parent_draw(spec, gen, count, dense)
    if not dense:
        return EnsembleDraw(spec, parent, count)
    # A degenerate draw is the identity; its completion draws nothing.
    v = EnsembleDraw(spec, None, count).matrix() if parent is None else _coset_matrix(spec, parent)
    return v[0] if size is None else v


def _k_blocks(spec: SpaceSpec) -> list[tuple[str, np.ndarray]]:
    """K as diagonal blocks: ``(kind, coordinates)`` per non-empty block.

    A group is one block of its own kind; the blocks of the families that
    take p/q hold the coordinates of :func:`_coords`.
    """
    if spec.family not in _FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    kind = _FAMILIES[spec.family].k
    if spec.p is None:
        return [(kind, np.arange(spec.dim))]
    bounds = ((0, spec.p), (spec.p, spec.p + spec.q))
    return [(kind, _coords(spec, lo, hi)) for lo, hi in bounds if hi > lo]


#: Per block kind of :func:`_k_blocks`: an ``(size, n, n)`` Haar stack.  The
#: samplers are looked up as module attributes at call time, so a tracer set
#: on them sees these draws.  SO(1) = {1}: a 1 x 1 BDI block draws nothing.
_HAAR_BLOCK = {
    "U": lambda n, gen, size: haar_unitary(n, gen, size=size),
    "O": lambda n, gen, size: haar_orthogonal(n, gen, size=size),
    "SO": lambda n, gen, size: (
        np.ones((size, 1, 1)) if n == 1 else haar_orthogonal(n, gen, special=True, size=size)
    ),
    "SP": lambda n, gen, size: haar_symplectic(n, gen, size=size),
    "U/2": lambda n, gen, size: _embed_complex(haar_unitary(n // 2, gen, size=size)),
}


def sample_subgroup(spec: SpaceSpec, rng=None, size: int | None = None) -> np.ndarray:
    """Draw Haar samples from the fixed-point subgroup K of the involution.

    For the group ensembles K is taken to be the group itself (the full
    symmetry group of the ensemble).  For AIII the block-diagonal draw is
    normalized to det 1, giving S(U(p) x U(q)).
    """
    gen = as_generator(rng)
    if spec.is_group:
        return sample_point(spec, gen, size)
    nsamp = _count(size)
    d, blocks = spec.dim, _k_blocks(spec)
    dtype = np.complex128 if any(kind in ("U", "SP") for kind, _ in blocks) else np.float64
    _refuse_oversize((nsamp, d, d), dtype, f"d={d}, size={nsamp}")
    draws = [(coords, _HAAR_BLOCK[kind](coords.size, gen, nsamp)) for kind, coords in blocks]
    out = np.zeros((nsamp, d, d), dtype=np.result_type(*(b.dtype for _, b in draws)))
    for coords, block in draws:
        out[:, coords[:, None], coords[None, :]] = block
    if spec.family == "AIII":
        det = np.linalg.det(out)
        out *= (det ** (-1.0 / d))[:, None, None]
    return out[0] if size is None else out


def _embed_complex(u: np.ndarray) -> np.ndarray:
    """Embed U(n) into SO(2n) ∩ SP(2n): x + iy -> [[x, -y], [y, x]]."""
    n = u.shape[-1]
    shape = u.shape[:-2] + (2 * n, 2 * n)
    out = np.empty(shape)
    out[..., :n, :n] = u.real
    out[..., :n, n:] = -u.imag
    out[..., n:, :n] = u.imag
    out[..., n:, n:] = u.real
    return out


# ---------------------------------------------------------------------------
# Signed symmetries: elements of K that are also signed permutation matrices
# (they normalize the measurement basis, so conjugation by them must commute
# with the measurement channel).
# ---------------------------------------------------------------------------


def _signed_perm(d: int, gen: np.random.Generator) -> np.ndarray:
    perm = gen.permutation(d)
    signs = gen.choice([-1.0, 1.0], size=d)
    out = np.zeros((d, d))
    out[perm, np.arange(d)] = signs
    return out


def _fix_det(m: np.ndarray) -> np.ndarray:
    """Flip one signed entry so det(m) = +1 (m a signed permutation block)."""
    if np.linalg.det(m) < 0:
        col = 0
        row = int(np.argmax(np.abs(m[:, col])))
        m[row, col] *= -1.0
    return m


def _symplectic_signed_perm(n_pairs: int, gen: np.random.Generator) -> np.ndarray:
    """A signed permutation preserving the symplectic form on 2*n_pairs coords.

    Pairs are relabeled by a random permutation, then each pair is acted on
    by one of the four sign/swap operations compatible with the form:
    ±identity or ±(J-swap).
    """
    d = 2 * n_pairs
    tau = gen.permutation(n_pairs)
    ops = gen.integers(0, 4, size=n_pairs)
    out = np.zeros((d, d))
    for i in range(n_pairs):
        t = tau[i]
        op = ops[i]
        sign = 1.0 if op in (0, 2) else -1.0
        if op < 2:
            out[t, i] = sign
            out[n_pairs + t, n_pairs + i] = sign
        else:
            out[n_pairs + t, i] = sign
            out[t, n_pairs + i] = -sign
    return out


def _embedded_phase_perm(d: int, gen: np.random.Generator) -> np.ndarray:
    """A permutation with phases in {±1, ±i} in U(d/2), embedded in d coords."""
    n = d // 2
    tau = gen.permutation(n)
    phases = gen.choice([1.0 + 0j, 1j, -1.0 + 0j, -1j], size=n)
    u = np.zeros((n, n), dtype=np.complex128)
    u[tau, np.arange(n)] = phases
    return _embed_complex(u)


#: Per block kind of :func:`_k_blocks`: a signed permutation of n coordinates.
_SIGNED_BLOCK = {
    "U": _signed_perm,
    "O": _signed_perm,
    "SO": lambda n, gen: _fix_det(_signed_perm(n, gen)),
    "SP": lambda n, gen: _symplectic_signed_perm(n // 2, gen),
    "U/2": _embedded_phase_perm,
}


def sample_signed_symmetry(spec: SpaceSpec, rng=None) -> np.ndarray:
    """Draw a random signed permutation matrix lying in the subgroup K.

    These are exactly the basis symmetries under which the measurement
    channel of the ensemble is equivariant; each family admits a different
    set (e.g. block-respecting for AIII, pair-respecting for the symplectic
    families).  One is drawn per block of K; for AIII the whole is then
    brought to det 1.

    Returns
    -------
    (d, d) float ndarray with entries in {0, ±1}.
    """
    gen = as_generator(rng)
    out = np.zeros((spec.dim, spec.dim))
    for kind, coords in _k_blocks(spec):
        out[coords[:, None], coords[None, :]] = _SIGNED_BLOCK[kind](coords.size, gen)
    return _fix_det(out) if spec.family == "AIII" else out


# ---------------------------------------------------------------------------
# Structural witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of the per-family structural checks on sampled matrices."""

    passed: bool
    residual: float
    tol: float
    family: str


def _maxabs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x))) if x.size else 0.0


def structural_witness(spec, v: np.ndarray, tol: float = 1e-12) -> WitnessResult:
    """Check the exact algebraic relations that ensemble members must satisfy.

    Accepts a single matrix or a stack; the reported residual is the maximum
    absolute violation over all checks and all stacked samples.

    Checks per family (on top of unitarity, which is always included):

    * U: none further.  O/SO: realness (and det +1 for SO).
      SP: ``VᵀJV = J``.
    * AI: ``V = Vᵀ``.  AII: ``JV`` antisymmetric.
    * AIII: ``I_pq V`` Hermitian.  BDI: real, ``I_pq V`` symmetric.
    * DIII: real, ``JV`` antisymmetric.
    * CI: ``VᵀJV = J`` and ``JV`` anti-Hermitian.
    * CII: ``VᵀJV = J`` and ``K_pq V`` Hermitian.
    """
    v = np.asarray(v)
    if v.ndim == 2:
        v = v[None]
    d = spec.dim
    eye = np.eye(d)
    tv = np.swapaxes(v, -1, -2)
    hv = tv.conj()
    residuals = [_maxabs(hv @ v - eye)]
    fam = spec.family
    if spec.is_real:
        residuals.append(_maxabs(v.imag))
    if fam == "SO":
        residuals.append(_maxabs(np.linalg.det(v.real) - 1.0))
    if fam in ("SP", "CI", "CII"):
        j = symplectic_form(d)
        residuals.append(_maxabs(tv @ j @ v - j))
    if fam == "AI":
        residuals.append(_maxabs(v - tv))
    if fam == "AII":
        j = symplectic_form(d)
        jv = j @ v
        residuals.append(_maxabs(jv + np.swapaxes(jv, -1, -2)))
    if fam in ("AIII", "BDI"):
        iv = signature_matrix(spec) @ v
        ivt = np.swapaxes(iv, -1, -2)
        residuals.append(_maxabs(iv - (ivt if fam == "BDI" else ivt.conj())))
    if fam == "DIII":
        j = symplectic_form(d)
        jv = j @ v
        residuals.append(_maxabs(jv + np.swapaxes(jv, -1, -2)))
    if fam == "CI":
        j = symplectic_form(d)
        jv = j @ v
        residuals.append(_maxabs(jv + np.swapaxes(jv, -1, -2).conj()))
    if fam == "CII":
        kv = signature_matrix(spec) @ v
        residuals.append(_maxabs(kv - np.swapaxes(kv, -1, -2).conj()))
    residual = max(residuals)
    return WitnessResult(residual <= tol, residual, tol, fam)
