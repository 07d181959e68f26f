"""Haar sampling on the classical compact groups U(d), O(d), SO(d), SP(d).

Two samplers share each group, one per use.

* **Dense** (``dense=True``, the default): products of Householder
  reflectors built from fresh Gaussian vectors of decreasing length
  (Stewart, SIAM J. Numer. Anal. 17:403 (1980); Mezzadri, "How to generate
  random matrices from the classical compact groups", Notices AMS 54
  (2007)), quaternionic ones for SP(d) (Bunse-Gerstner, Byers & Mehrmann,
  Numer. Math. 55:83 (1989)).  Reflector ``k`` is the one Householder QR of
  a Ginibre matrix would build from its ``k``-th column, and a gauge (unit
  phases; a Haar Sp(1) element per quaternionic coordinate for SP) makes
  the law exactly Haar.  A private ``HouseholderDraw`` holds the
  reflectors, about d²/2 Gaussians per draw, and forms the matrices a
  cache-sized block of draws at a time, one NumPy pass per reflector and
  block, at every d.  Reflector ``k`` fixes the first
  ``k`` basis vectors, so ``columns=m`` draws only the ``m`` reflectors
  that the first ``m`` columns depend on and forms only those columns.  A
  request whose result would exceed physical memory raises ``ValueError``
  before drawing.
* **Deferred** (``dense=False``): for code that applies a draw to a few
  vectors.  Haar measure is revealed one direction at a time: given the
  input/output pairs fixed so far, a new direction's image is uniform on the
  unit sphere of the outputs' complement (:class:`DeferredUnitary`), and the
  squared length of a Haar subspace's projection of a fresh direction is
  Beta-distributed (:class:`DeferredSubspace`, the span of the first
  ``columns`` columns).  Applying a draw to k vectors costs k fresh Gaussian
  d-vectors and O(k²d), whatever d.  :meth:`DeferredUnitary.measure` takes
  a fresh draw's measured row and outcome for a state vector from their
  law instead: one fresh Gaussian d-vector per draw, no Born
  probabilities.  :meth:`DeferredUnitary.matrix`
  completes a draw from its own generator, which it advances, with the same
  law.  Every operation (``apply``, ``apply_adjoint``, ``project``) writes
  to an ``out`` array when one is given and returns it.  A deferred draw
  works in a workspace, one allocation: a streamed call's (see
  :func:`symshadows.shadows.shadow_estimates`), or one of its own, made at
  first use.  It holds the revealed directions, as many as one streamed
  round reveals (``measure`` of a group draw; ``apply`` then
  ``apply_adjoint`` of a quotient's parent, or of a draw on its own), a product
  register of as many, in which the inner products with them are one
  stacked NumPy product, and the d-vector registers of the arithmetic: a
  combination of the directions is summed a term at a time through one of
  them, and a query is used as it is when it is C-contiguous in the draw's
  dtype and otherwise copied into one (a real draw takes a complex query's
  real and imaginary parts apart).  A draw applied past that round, as
  ``matrix()`` and ``momentlab.entry_moments`` do, moves its directions to
  an array of its own that doubles as it fills, and its products to arrays
  of their own.

The samplers accept ``size=None`` for a single ``(d, d)`` matrix or an
integer ``size`` for a stacked ``(size, d, d)`` batch, and draw from a
:class:`numpy.random.Generator` (or anything :func:`symshadows.rng.as_generator`
accepts).
"""

from __future__ import annotations

import math
import os

import numpy as np

from .rng import as_generator

__all__ = [
    "DeferredSubspace",
    "DeferredUnitary",
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


def _count(size) -> int:
    """Draws a sampler's ``size`` asks for, 1 for None; ``ValueError`` unless positive."""
    count = 1 if size is None else _integer(size, "size")
    if count < 1:
        raise ValueError(f"size must be a positive integer, got {count}")
    return count


def _physical_memory() -> int | None:
    """The machine's physical memory in bytes, or None where ``os.sysconf`` cannot say."""
    try:
        pages, page = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return pages * page if pages > 0 and page > 0 else None


def _refuse_oversize(shape: tuple[int, ...], dtype, request: str) -> None:
    """``ValueError`` naming ``request`` when a ``shape`` result exceeds physical memory."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    _refuse_bytes(nbytes, request, f"the {shape} result")


def _refuse_bytes(nbytes: int, request: str, what: str) -> None:
    """``ValueError`` naming ``request`` when ``what`` needs more than physical memory.

    Raised before anything is allocated: otherwise NumPy's ``MemoryError``
    comes later, or, under overcommit, the process is killed once gigabytes
    of a lazily touched array have been written.  Nothing is refused where
    the physical memory cannot be read.
    """
    limit = _physical_memory()
    if limit is not None and nbytes > limit:
        raise ValueError(f"{request}: {what} needs {nbytes} bytes, "
                         f"more than the {limit} bytes of physical memory")


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
    nsamp = _count(size)
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


#: Bytes of dense draws that one step of the dense code works on: Householder
#: formation (:meth:`HouseholderDraw.matrix`), the coset map
#: (``spaces._coset_matrix``), and a fit's projections and pair products
#: (``momentlab``) each take a batch this many bytes of draws at a time, so
#: their temporaries stay in cache and no stack is held twice.  The blocks
#: change no bits: every draw's arithmetic is the same in any block.  Sizes
#: tried on the seven d = 8 fits of 2048 draws of the benchmark's
#: ``sweep_fit`` round (median of 17 rounds, three runs, 2-vCPU VM), with the
#: minor faults of an AII(8) fit of 2048 draws run alone after two others:
#: 64 KiB 96-120 ms, 0 faults; 128 KiB 89-98 ms, 0; 256 KiB 87-90 ms, 993;
#: 512 KiB 84-103 ms, 1121.  128 KiB is the largest whose fits stay within
#: the heap glibc keeps from one fit to the next.
_DENSE_BLOCK_BYTES = 2**17


def _draw_blocks(size: int, draw_bytes: int) -> list[slice]:
    """Consecutive slices of ``size`` draws (or rows), ``draw_bytes`` each, of at
    most :data:`_DENSE_BLOCK_BYTES` (one draw at least); the first is the longest."""
    step = max(1, _DENSE_BLOCK_BYTES // draw_bytes)
    return [slice(lo, min(lo + step, size)) for lo in range(0, size, step)]


class _Completable:
    """A deferred draw of ``(B, d, d)`` matrices that ``apply`` reveals as it is read.

    It reports the ``shape`` and ``ndim`` of the stack that :meth:`matrix`
    returns, so code that counts draws by ``result.shape[0]`` counts a draw
    object and a dense stack alike.
    """

    ndim = 3

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.size, self.dim, self.dim)

    def matrix(self) -> np.ndarray:
        """Complete the draws and return them as dense ``(B, d, d)`` matrices.

        Column ``j`` is ``apply(e_j)``: it reveals what the draw has not yet
        revealed, from the draw's own generator, which advances.  Once the
        draw is complete a call draws nothing more.  Real for a real draw.
        """
        out = np.empty(self.shape, dtype=self._dtype)
        for j in range(self.dim):
            e = np.zeros((self.dim, self.size), dtype=self._dtype)
            e[j] = 1.0
            out[:, :, j] = self.apply(e).T
        return out


class HouseholderDraw:
    """A batch of Haar draws from U(d), O(d), SO(d) or SP(d), held as reflectors.

    The dense samplers' draw: :meth:`matrix` forms it.  Draw ``n`` is
    ``g = H_0 H_1 ⋯ H_{m-1} D`` with ``H_k = 1 - tau[k, n] v_k v_kᴴ`` and
    ``tau = 2/‖v_k‖²``; ``m`` is d − 1 (d/2 − 1 quaternionic reflectors for
    SP) for a full draw, and the ``columns`` asked for otherwise, with
    ``D = 1`` past them.  In the ``(c, d/c)`` view of a vector (``c = 2``
    for SP, whose rows ``i``, ``d/2 + i`` form quaternionic coordinate
    ``i``; else 1), ``v_k`` covers coordinates ``k//c, …``; SP's
    ``v_{2j+1} = J conj(v_{2j})`` is orthogonal to ``v_{2j}``.  Every array
    keeps the batch axis last.

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

    def matrix(self, columns: int | None = None) -> np.ndarray:
        """The draws as dense matrices, ``(B, d, d)``, or their leading columns.

        With ``columns=m`` only the first ``m`` (quaternionic) columns are
        formed, ``(B, d, c·m)``; SP's are columns ``0, …, m-1`` and then
        ``d/2, …, d/2 + m - 1``.  They depend on reflectors ``0, …, m-1``
        alone.  Reflectors are applied to ``D`` right to left, and ``H_k``
        only touches the trailing ``k//c, …`` coordinate block of the
        partial product, so a full draw costs d³/3 rather than d³.  The
        draws are formed a block at a time (:func:`_draw_blocks`), one NumPy
        pass per reflector and block, batch axis last in one reused buffer,
        and each block's transpose is copied into the result: no second
        stack.  A draw's bits do not depend on its block.
        """
        d, c = self.dim, self._blocks
        kept = d // c if columns is None else columns
        out = np.empty((self.size, d, c * kept), dtype=self.signs.dtype)
        blocks = _draw_blocks(self.size, out[0].nbytes)
        # Each block's (d, c·kept, b) view of this buffer is contiguous.
        work = np.empty(out[blocks[0]].size, dtype=out.dtype)
        diag = np.arange(kept)
        for s in blocks:
            block = work[: out[s].size].reshape(d, c * kept, -1)
            block[...] = 0
            view = block.reshape(c, d // c, c, kept, -1)
            for a in range(c):
                view[a, diag, a, diag] = self.signs[a * (d // c) + diag, s]
                if self.swap is not None:
                    view[a, diag, 1 - a, diag] = self.swap[a * (d // c) + diag, s]
            for k in range(len(self.offsets) - 1, -1, -1):
                lo, m = self.offsets[k], d // c - k // c
                v = self.reflectors[lo : lo + c * m, s].reshape(c, m, -1)
                sub = view[:, k // c :, :, k // c :]
                coef = np.einsum("aib,aicjb->cjb", v.conj(), sub) * self.tau[k, s]
                sub -= v[:, :, None, None, :] * coef[None, None]
            out[s] = block.transpose(2, 0, 1)
        return out


#: A query whose part outside the directions a deferred draw has revealed is
#: at most this fraction of its norm is taken to lie in their span: that part
#: is roundoff (or exactly zero), and its direction would be garbage.  Where
#: a reveal is needed anyway, for other draws of the batch, such a draw
#: reveals a fresh direction instead.
REVEAL_RTOL = 1e-12

#: Byte boundary of every array a workspace hands out.
_ALIGN = 64
#: Bytes a workspace holds past its rounds' arrays, for their alignment.
_SLACK = 4096
#: Complex d-vectors per round that one application of a deferred draw holds
#: at once besides its frames and its product register: the split's
#: remainder (or the conjugated query), the remainder of a Grassmannian's
#: settled split, and a complex copy of a real query (or a real draw's parts
#: of a complex one).  :func:`_combine`'s one-vector register is taken only
#: while the product register is free.
_SCRATCH_VECTORS = 3


class _Workspace:
    """One allocation that deferred draws work in, handed out as a stack of arrays.

    A streamed call makes one, sized for its largest batch, and every
    batch's draw works inside it: the draw's frames and the d-vector
    registers of its arithmetic are views of it.  glibc raises its mmap
    threshold to the largest block freed and trims only free top space of
    twice that, so the one block stays mapped from call to call, where a
    dozen separate (d, B) arrays per batch were handed back to the OS and
    faulted in again on every call.

    :meth:`take` hands out the next free bytes as an array, and ``with
    workspace:`` releases at exit what was taken inside it.  A request past
    the end gets an array of its own: a draw used past the rounds it was
    sized for is still right, only slower.
    """

    def __init__(self, nbytes: int):
        self._buffer = np.empty(nbytes, dtype=np.uint8)
        self._top = 0
        self._marks: list[int] = []

    def take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialized C-contiguous array of ``shape`` and ``dtype``."""
        dtype = np.dtype(dtype)
        start = -(-self._top // _ALIGN) * _ALIGN
        end = start + math.prod(shape) * dtype.itemsize
        if end > self._buffer.size:
            return np.empty(shape, dtype)
        self._top = end
        return np.ndarray(shape, dtype, self._buffer, start)

    def clear(self) -> None:
        """Release every array: the next batch starts from the bottom."""
        self._top = 0

    def __enter__(self) -> _Workspace:
        self._marks.append(self._top)
        return self

    def __exit__(self, *exc) -> None:
        self._top = self._marks.pop()


def _frame_capacity(dim: int, field: str, applications: int, subspace: bool) -> int:
    """Directions a frame gains over ``applications`` of a deferred draw, at most ``dim``.

    A reveal adds one direction, or a subspace's pair ``x``, ``w``, each with
    its θ partner for a quaternionic draw, and a real draw reveals a complex
    query's real and imaginary parts apart.
    """
    per_reveal = 2 if subspace else 1
    parts = 2 if field == "real" else 1
    copies = 2 if field == "quaternion" else 1
    return min(dim, applications * per_reveal * parts * copies)


def _draw_bytes(dim: int, field: str, applications: int, subspace: bool) -> int:
    """Workspace bytes per round of a deferred draw used ``applications`` times.

    Its frames (one for a subspace, inputs and outputs otherwise), the
    product register of :func:`_coefficients`, which holds a full frame,
    then the scratch of one application.
    """
    frames = 1 if subspace else 2
    capacity = _frame_capacity(dim, field, applications, subspace)
    itemsize = 8 if field == "real" else 16
    return ((frames + 1) * capacity * itemsize + _SCRATCH_VECTORS * 16) * dim


def _measured_capacity(field: str) -> int:
    """Directions each frame of a :class:`DeferredUnitary` gains in :meth:`~DeferredUnitary.measure`:
    one, and its θ partner for a quaternionic draw."""
    return 2 if field == "quaternion" else 1


def _measure_bytes(dim: int, field: str) -> int:
    """Workspace bytes per round of :meth:`DeferredUnitary.measure`.

    Its frames' pair, one d-vector register (the conjugated component, or
    a real draw's axis) and the two extra Gaussians.
    """
    itemsize = 8 if field == "real" else 16
    return (2 * _measured_capacity(field) + 1) * itemsize * dim + 16


class _Frame:
    """Orthonormal vectors ``v_0, …, v_{n-1}``, stacked ``(n, d, B)``.

    The store is a view of the draw's workspace, with room for the
    directions the draw was sized for (:meth:`_DeferredDraw._use`); the
    workspace holds a product register of that size too (:func:`_draw_bytes`).
    A draw applied past that, as ``matrix()`` completion and
    ``momentlab.entry_moments`` do, doubles the store into an array of its
    own, up to ``d`` vectors, and its products no longer fit the workspace.
    """

    def __init__(self, dim: int, size: int, dtype):
        self.dim = dim
        self.n = 0
        self._store = np.empty((0, dim, size), dtype=dtype)

    @property
    def vectors(self) -> np.ndarray:
        return self._store[: self.n]

    def room(self, k: int) -> np.ndarray:
        """Slots for the next ``k`` vectors, ``(k, d, B)``: write them, then :meth:`push`."""
        if self.n + k > len(self._store):
            capacity = min(self.dim, max(2 * len(self._store), self.n + k))
            grown = np.empty((capacity,) + self._store.shape[1:], self._store.dtype)
            grown[: self.n] = self.vectors
            self._store = grown
        return self._store[self.n : self.n + k]

    def push(self) -> None:
        """Keep the vector written to the first slot of :meth:`room`."""
        self.n += 1


def _coefficients(
    vectors: np.ndarray, z: np.ndarray, ws: _Workspace, out: np.ndarray
) -> np.ndarray:
    """``⟨v_i, z⟩`` into ``out``, ``(n, B)``, for vectors ``(n, d, B)`` and ``z`` ``(d, B)``.

    One stacked product in a register of the vectors' size, summed over
    ``d``: a measured round's frames fit the workspace, a completion's may
    not.
    """
    if vectors.shape[2] == 1:
        # One draw, as a single recorded round has: one BLAS product.
        out[:, 0] = vectors[:, :, 0].conj() @ z[:, 0]
        return out
    n = len(vectors)
    complex_ = out.dtype.kind == "c"
    with ws:
        # The product, then (complex only) the conjugated query, in one take.
        registers = ws.take((n + complex_,) + z.shape, out.dtype)
        if complex_:
            # Conjugating z and the (n, B) result copies less than conjugating the vectors.
            z = np.conjugate(z, out=registers[n])
        np.add.reduce(np.multiply(vectors, z, out=registers[:n]), axis=1, out=out)
    if complex_:
        np.conjugate(out, out=out)
    return out


def _combine(vectors: np.ndarray, coef: np.ndarray, out: np.ndarray, ws: _Workspace) -> np.ndarray:
    """``Σ_i coef[i] v_i`` into ``out``, for vectors ``(n, d, B)`` and coefficients ``(n, B)``."""
    if not len(vectors):
        out[...] = 0.0
        return out
    if vectors.shape[2] == 1:
        out[:, 0] = coef[:, 0] @ vectors[:, :, 0]
        return out
    # One term at a time through one register, unlike _coefficients: a
    # stacked product would write n·d·B values that the sum then reads back
    # from beyond the cache, which made streamed shots slower.
    np.multiply(vectors[0], coef[0], out=out)
    if len(vectors) > 1:
        with ws:
            term = ws.take(out.shape, out.dtype)
            for v, c in zip(vectors[1:], coef[1:]):
                out += np.multiply(v, c, out=term)
    return out


def _split(vectors: np.ndarray, z: np.ndarray, out: np.ndarray, ws: _Workspace, room: int = 0):
    """Split ``z`` over the span of ``vectors`` and the rest.

    Returns the coefficients ``⟨v_i, z⟩``, the first n rows of an
    ``(n + room, B)`` array whose last ``room`` rows are left for the
    caller, the remainder, written to ``out`` (which may be ``z``), and the
    norms of the remainder and of ``z``.  Classical Gram–Schmidt, with a
    second pass where the first cancelled more than a third of ``z``'s
    norm: twice is enough (Kahan and Parlett), so the remainder is
    orthogonal to the vectors to roundoff even when it is small.  With no
    vectors the remainder is ``z`` itself.
    """
    n = len(vectors)
    coef = np.empty((n + room, z.shape[1]), np.promote_types(vectors.dtype, z.dtype))
    z_norm = _norms(z)
    if not n:
        if out is not z:
            np.copyto(out, z)
        return coef, out, z_norm, z_norm
    head = _coefficients(vectors, z, ws, coef[:n])
    with ws:
        np.subtract(z, _combine(vectors, head, ws.take(z.shape, z.dtype), ws), out=out)
    norm = _norms(out)
    if (norm < (2.0 / 3.0) * z_norm).any():
        again = _coefficients(vectors, out, ws, np.empty_like(head))
        with ws:
            out -= _combine(vectors, again, ws.take(z.shape, z.dtype), ws)
        head += again
        norm = _norms(out)
    return coef, out, norm, z_norm


def _output(y: np.ndarray, dtype, out: np.ndarray | None) -> np.ndarray:
    """``out``, or a new array for the image of ``y`` under a map of ``dtype``."""
    return np.empty(y.shape, np.result_type(y, dtype)) if out is None else out


def _norms(z: np.ndarray) -> np.ndarray:
    """Euclidean norms of the columns of ``z``, ``(d, B)``."""
    squares = _squared_norms(z)
    return np.sqrt(squares, out=squares)


def _squared_norms(z: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms of the columns of ``z``, ``(d, B)``."""
    if z.dtype.kind != "c":
        return np.einsum("ib,ib->b", z, z)
    parts = np.ascontiguousarray(z).view(np.float64)
    squares = np.einsum("ib,ib->b", parts, parts)
    # Each column's real and imaginary sums, added: what a sum over the pair
    # gives.
    return np.add(squares[0::2], squares[1::2])


def _theta(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``J conj(v)`` into ``out``, for vectors stacked ``(d, B)``: SP(d) commutes with it."""
    n = v.shape[0] // 2
    np.negative(np.conjugate(v[n:], out=out[:n]), out=out[:n])
    np.conjugate(v[:n], out=out[n:])
    return out


class _DeferredDraw:
    """What both deferred draws share: the field, the stream, the workspace and fresh directions.

    Reveals draw from the generator the draw was made with, as the draw is
    used.  The draw works in a :class:`_Workspace`: the one a streamed call
    gives it (:meth:`_use`) before it is first applied, or else one of its
    own, made at first use and sized for ``apply`` and ``apply_adjoint`` of
    every draw of the batch.  Each operation writes its result to an
    ``out`` array when one is given, as a streamed call gives them from its
    workspace, and returns it; else to a new array (:func:`_output`).
    """

    #: Whether the draw is a subspace, whose reveals add pairs x, w to one frame.
    _SUBSPACE = False

    def __init__(self, dim: int, size: int, gen: np.random.Generator, field: str):
        self.dim = dim
        self.size = size
        self.field = field
        self._gen = gen
        self._dtype = np.float64 if field == "real" else np.complex128
        self._copies = 2 if field == "quaternion" else 1
        self._ws: _Workspace | None = None

    def _frames(self) -> tuple[_Frame, ...]:
        raise NotImplementedError

    def _use(self, workspace: _Workspace, capacity: int) -> None:
        """Work in ``workspace``, with frames of ``capacity`` directions per draw."""
        for frame in self._frames():
            frame._store = workspace.take((capacity, self.dim, self.size), self._dtype)
        self._ws = workspace

    def _workspace(self) -> _Workspace:
        if self._ws is None:
            nbytes = self.size * _draw_bytes(self.dim, self.field, 2, self._SUBSPACE) + _SLACK
            self._use(_Workspace(nbytes), _frame_capacity(self.dim, self.field, 2, self._SUBSPACE))
        return self._ws

    def _fresh(self, vectors: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Unit vectors uniform on the sphere of the complement of ``vectors``, into ``out``.

        ``vectors`` is ``(n, d, b)`` and ``out`` a C-contiguous ``(d, b)``.
        One fresh Gaussian d-vector per column is drawn into ``out``:
        ``standard_normal(out=…)`` draws the values a new array would hold.
        A quaternionic complement is closed under ``J conj``, so the result
        is uniform on its sphere too.
        """
        self._gen.standard_normal(out=out if self.field == "real" else out.view(np.float64))
        _, w, norm, _ = _split(vectors, out, out, self._ws)
        w *= 1.0 / norm
        return w

    def _directions(self, frame: _Frame, z: np.ndarray, room: int):
        """Split ``z`` over ``frame``: its coefficients and the unit direction x
        of its remainder.

        x is written to the first of ``room`` slots the frame makes for what
        a reveal adds (:meth:`_Frame.room`).  It is ``None`` when no draw of
        the batch has a remainder above :data:`REVEAL_RTOL`, and the
        coefficients are those on the frame.  Otherwise they run on over the
        ``room`` directions the reveal adds: the remainder's norm on x, then
        zeros.  Draws whose remainder is below it get a fresh direction off
        the frame instead, with coefficient 0, so every draw of the batch
        reveals one.
        """
        n, x = frame.n, frame.room(room)[0]
        # Off an empty frame the remainder is z itself, scaled into x below.
        coef, rest, norm, z_norm = _split(frame.vectors, z, x if n else z, self._ws, room)
        small = norm <= REVEAL_RTOL * z_norm
        if not small.any():
            np.multiply(rest, 1.0 / norm, out=x)
        elif small.all():
            return coef[:n], None
        else:
            np.multiply(rest, 1.0 / np.where(small, 1.0, norm), out=x)
            with self._ws as ws:
                out = ws.take((self.dim, int(small.sum())), self._dtype)
                x[:, small] = self._fresh(frame.vectors[:, :, small], out)
            norm[small] = 0.0
        # The remainder lies along x: its coefficients on the other
        # directions the reveal adds are 0.
        coef[n] = norm
        coef[n + 1 :] = 0.0
        return coef, x

    def _run(self, y, one, out: np.ndarray | None) -> np.ndarray:
        """``one(z, out)`` for ``z = y``; a real draw takes a complex ``y`` part by part.

        Any other ``y`` is used as it is when it is C-contiguous in the
        draw's dtype, and otherwise copied into one register of it.
        """
        y = np.asarray(y)
        out = _output(y, self._dtype, out)
        ws = self._workspace()
        if self.field != "real" or y.dtype.kind != "c":
            if y.dtype == self._dtype and y.flags.c_contiguous:
                return one(y, out)
            with ws:
                z = ws.take(y.shape, self._dtype)
                np.copyto(z, y)
                return one(z, out)
        with ws:
            part = ws.take(y.shape, np.float64)
            np.copyto(part, y.real)
            real = one(part, ws.take(y.shape, np.float64))
            if not np.any(y.imag):
                np.copyto(out, real)
                return out
            np.copyto(part, y.imag)
            imag = one(part, ws.take(y.shape, np.float64))
            return np.add(real, np.multiply(1j, imag, out=out), out=out)


class DeferredUnitary(_Completable, _DeferredDraw):
    """A batch of Haar draws from U(d), O(d), SO(d) or SP(d), revealed as they are read.

    A draw holds orthonormal inputs ``x_i`` and outputs ``y_i = g x_i``.
    Applying ``g`` to ``z`` splits ``z`` over the ``x_i``; a remainder ``r``
    reveals one more pair: ``x = r/‖r‖``, and ``g x`` uniform on the unit
    sphere of the outputs' complement, which is its law given the pairs so
    far (Mezzadri, Notices AMS 54 (2007)).  So applying a draw to k
    independent vectors costs k fresh Gaussian d-vectors and O(k²d), and
    applying it again to a vector in their span costs no randomness.
    ``gᴴ`` reveals the same way with inputs and outputs swapped.

    * SP(d) commutes with ``θ = J conj``: a pair ``(x, y)`` comes with
      ``(θx, θy)``, and the complement stays quaternionic.
    * A real parent takes a complex vector as its real and imaginary parts,
      two real reveals; an all-zero part reveals nothing.
    * SO(d): the first d − 1 pairs are those of O(d); the last output is
      fixed, up to sign, by the others, and its sign by ``det g = +1``.

    :meth:`matrix` applies ``g`` to the basis vectors, which fills the
    frame, and returns a Haar draw that agrees with everything revealed.
    ``shape`` is that of :meth:`matrix`, ``(B, d, d)``.
    """

    def __init__(self, dim: int, size: int, gen, *, field: str, special: bool = False):
        _DeferredDraw.__init__(self, dim, size, gen, field)
        self.special = special
        self._inputs = _Frame(dim, size, self._dtype)
        self._outputs = _Frame(dim, size, self._dtype)

    def _frames(self) -> tuple[_Frame, ...]:
        return self._inputs, self._outputs

    @property
    def revealed(self) -> int:
        """Input directions revealed so far, θ partners included; d once complete."""
        return self._inputs.n

    def apply(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Return ``g y`` for stacked vectors ``y`` of shape ``(d, B)``, in ``out`` if given."""
        return self._run(y, lambda z, o: self._map(z, self._inputs, self._outputs, o), out)

    def apply_adjoint(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Return ``gᴴ y`` for stacked vectors ``y`` of shape ``(d, B)``, in ``out`` if given."""
        return self._run(y, lambda z, o: self._map(z, self._outputs, self._inputs, o), out)

    def measure(self, u: np.ndarray, out: np.ndarray | None = None):
        """Measure ``g u`` in the computational basis: outcomes ``w`` and rows ``g[w, :]``.

        ``u`` is ``(d, B)``, a unit vector per draw.  Returns the ``(B,)``
        int64 outcomes and the rows as the columns of a ``(d, B)`` array,
        real for a real draw, written to ``out`` when it is given.  The draw
        must be fresh: nothing applied to it yet.

        The pair is drawn from its law, with no Born probabilities.  Every
        row of a Haar draw is uniform on the unit sphere of its field, so
        ``w`` is uniform and the row ``r`` has density ``d·|r·u|²`` there.
        One fresh Gaussian d-vector ``z`` and two more Gaussians ``g`` per
        draw give it, with ``e`` the axis below:

        * complex (U, SP), ``e = u``: ``conj(r) = a·u + √(1 − |a|²)·n``,
          ``n`` the direction of ``z`` off ``u``, ``a`` of the phase of
          ``⟨u, z⟩`` and ``|a|² = (|⟨u, z⟩|² + |g|²)/(‖z‖² + |g|²)``,
          which is Beta(2, d − 1);
        * real (O, SO): with ``u = x + iy``, ``(r·x)² + (r·y)²`` is
          ``‖x‖²(r·x̂)² + ‖y‖²(r·ŷ)²``, so ``e`` is ``x̂`` or ``ŷ`` with
          those weights, and ``r = ±√t·e + √(1 − t)·n`` with the sign of
          ``e·z`` and ``t = ((e·z)² + ‖g‖²)/(‖z‖² + ‖g‖²)``, which is
          Beta(3/2, (d − 1)/2).  SO(1) = {1} has the one row 1.

        The frames keep the pair ``conj(r) ↦ e_w`` (and its θ partner for
        SP), so :meth:`matrix` completes a draw whose row ``w`` is ``r``:
        ``(g, w)`` has the law of a Haar draw and its Born outcome.
        """
        if self.revealed:
            raise ValueError("measure needs a draw that nothing has been applied to")
        u = np.ascontiguousarray(u, dtype=np.complex128)
        out = np.empty(u.shape, self._dtype) if out is None else out
        ws, gen, size = self._workspace(), self._gen, self.size
        src, dst = self._inputs, self._outputs
        # conj(r) is drawn in the input frame's slot, where it is kept.
        s = src.room(self._copies)[0]
        with ws:
            extra = ws.take((2, size), np.float64)
            gen.standard_normal(out=s if self.field == "real" else s.view(np.float64))
            gen.standard_normal(out=extra)
            outcomes = gen.integers(self.dim, size=size)
            extra = np.einsum("kb,kb->b", extra, extra)
            if self.field == "real":
                axis = term = self._axis(u, ws.take(u.shape, np.float64))
                c = np.einsum("ib,ib->b", axis, s)
                coef = np.copysign(np.sqrt(c * c + extra) - np.abs(c), c)
            else:
                axis, term = u, ws.take(u.shape, np.complex128)
                # A multiply and a sum: a complex einsum takes twice as long.
                c = np.add.reduce(np.multiply(np.conjugate(u, out=term), s, out=term), axis=0)
                modulus = np.abs(c)
                phase = np.where(modulus > 0, c / np.where(modulus > 0, modulus, 1.0), 1.0)
                coef = phase * (np.sqrt(modulus * modulus + extra) - modulus)
            # z's part c along the axis becomes c + coef, of squared modulus
            # |c|² + ‖g‖², so the vector's squared norm is ‖z‖² + ‖g‖².
            scale = 1.0 / np.sqrt(_squared_norms(s) + extra)
            # In s's dtype: a complex array times a float vector is slower.
            s *= scale.astype(s.dtype)
            s += np.multiply(axis, coef * scale, out=term)
        if self.special and self.dim == 1:
            s[...] = 1.0
        src.push()
        basis = dst.room(self._copies)[0]
        basis.fill(0.0)
        basis[outcomes, np.arange(size)] = 1.0
        dst.push()
        if self.field == "quaternion":
            _theta(s, src.room(1)[0])
            src.push()
            _theta(basis, dst.room(1)[0])
            dst.push()
        if self.field == "real":
            np.copyto(out, s)
        else:
            np.conjugate(s, out=out)
        return outcomes, out

    def _axis(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A real draw's axis for :meth:`measure`, into ``out``: ``x̂`` or ``ŷ`` of
        ``u = x + iy``, with probabilities ``‖x‖²`` and ``‖y‖²``."""
        parts = u.view(np.float64)
        squares = np.einsum("ib,ib->b", parts, parts)
        xx, yy = squares[0::2], squares[1::2]
        # The uniform is below 1, so an empty part is never picked.
        real = self._gen.random(self.size) * (xx + yy) < xx
        np.copyto(out, u.real)
        np.copyto(out, u.imag, where=~real)
        out *= 1.0 / np.sqrt(np.where(real, xx, yy))
        return out

    def _map(self, z, src: _Frame, dst: _Frame, out: np.ndarray) -> np.ndarray:
        ws = self._ws
        if src.n == self.dim:
            coef = np.empty((self.dim, self.size), np.promote_types(self._dtype, z.dtype))
            return _combine(dst.vectors, _coefficients(src.vectors, z, ws, coef), out, ws)
        coef, x = self._directions(src, z, self._copies)
        if x is not None:
            self._reveal(src, dst, x)
        return _combine(dst.vectors, coef, out, ws)

    def _reveal(self, src: _Frame, dst: _Frame, x: np.ndarray) -> None:
        """Keep the pair of ``x`` (unit, off ``src``, in its room), a fresh image,
        and, for a quaternionic draw, their θ partners."""
        y = dst.room(self._copies)[0]
        self._fresh(dst.vectors, y)
        if self.special and src.n == self.dim - 1:
            frames = [np.concatenate([f.vectors, v[None]]) for f, v in ((src, x), (dst, y))]
            y *= np.sign(np.linalg.det(frames[0].T) * np.linalg.det(frames[1].T))
        src.push()
        dst.push()
        if self.field == "quaternion":
            _theta(x, src.room(1)[0])
            src.push()
            _theta(y, dst.room(1)[0])
            dst.push()


class DeferredSubspace(_DeferredDraw):
    """A batch of Haar-random subspaces of rank m, revealed through their projector P.

    The span of the first ``m`` columns of a Haar draw ``g`` (quaternionic
    columns for SP(d)), ``P = g P_m gᴴ``.  A draw holds orthonormal vectors
    ``Q = (x_1, w_1, x_2, w_2, …)`` whose span P maps to itself, with
    ``P x_j = t_j x_j + s_j w_j`` and ``P w_j = s_j x_j + (1 - t_j) w_j``,
    ``s_j = √(t_j(1-t_j))``; off Q it is a Haar projector of rank ``k`` on
    the remaining ``n`` dimensions (``n = d``, or ``d/2`` quaternionic, and
    ``k = m`` at first).  Projecting ``z`` reveals, for the unit remainder
    ``x`` of ``z`` off Q, ``t = ‖P x‖²``, which is Beta(βk/2, β(n-k)/2)
    with β = 1, 2, 4 for real, complex, quaternionic spaces, and ``w``,
    uniform on the unit sphere off Q and x; then ``(n, k)`` becomes
    ``(n-2, k-1)``.  At ``k = 0`` P vanishes off Q, and at ``k = n`` it is
    the identity there: no further randomness.  So projecting costs one Beta
    variate and one fresh Gaussian d-vector per reveal at every m, and
    O(d·|Q|).  A real space takes a complex vector part by part; a
    quaternionic one adds ``θ = J conj`` of each vector with it.

    ``shape`` is that of the dense draw's kept columns, ``(B, d, c·m)`` with
    c = 2 for quaternionic spaces.
    """

    ndim = 3
    _SUBSPACE = True
    #: β of each field: real, complex and quaternionic dimensions count 1, 2, 4 reals.
    _BETA = {"real": 1, "complex": 2, "quaternion": 4}

    def __init__(self, dim: int, size: int, gen, *, field: str, rank: int):
        _DeferredDraw.__init__(self, dim, size, gen, field)
        self.rank = rank
        self._settled = _Frame(dim, size, self._dtype)
        self._t: list[np.ndarray] = []
        self._free = dim // self._copies
        self._left = rank

    def _frames(self) -> tuple[_Frame, ...]:
        return (self._settled,)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.size, self.dim, self._copies * self.rank)

    @property
    def revealed(self) -> int:
        """Dimension of the span of Q, on which P is known so far."""
        return self._settled.n

    def project(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Return ``P y`` for stacked vectors ``y`` of shape ``(d, B)``, in ``out`` if given."""
        return self._run(y, self._project_part, out)

    def _project_part(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        settled, ws = self._settled, self._ws
        if 0 < self._left < self._free:
            coef, x = self._directions(settled, z, 2 * self._copies)
            if x is not None:
                self._reveal(x)
            return _combine(settled.vectors, self._on_settled(coef), out, ws)
        if self._left == self._free > 0:
            with ws:
                coef, rest, _, _ = _split(settled.vectors, z, ws.take(z.shape, z.dtype), ws)
                _combine(settled.vectors, self._on_settled(coef), out, ws)
                out += rest
            return out
        coef = np.empty((settled.n, self.size), np.promote_types(self._dtype, z.dtype))
        coef = _coefficients(settled.vectors, z, ws, coef)
        return _combine(settled.vectors, self._on_settled(coef), out, ws)

    def _on_settled(self, coef: np.ndarray) -> np.ndarray:
        """P on Q, in Q's coordinates: the 2 x 2 block of each reveal."""
        if not self._t:
            return coef
        t = np.array(self._t)[:, None, :]
        rest = 1.0 - t
        s = np.sqrt(t * rest)
        c = coef.reshape(len(self._t), 2, self._copies, -1)
        out = np.empty_like(c)
        out[:, 0] = t * c[:, 0] + s * c[:, 1]
        out[:, 1] = s * c[:, 0] + rest * c[:, 1]
        return out.reshape(coef.shape)

    def _keep(self, v: np.ndarray) -> None:
        """Keep ``v``, written to the settled frame's room, and its θ partner."""
        settled = self._settled
        settled.push()
        if self._copies == 2:
            _theta(v, settled.room(1)[0])
            settled.push()

    def _reveal(self, x: np.ndarray) -> None:
        """Reveal ``P x`` for unit ``x`` off Q, in the frame's room; see the class docstring."""
        beta = self._BETA[self.field]
        t = self._gen.beta(beta * self._left / 2, beta * (self._free - self._left) / 2, self.size)
        self._keep(x)
        w = self._settled.room(1)[0]
        self._keep(self._fresh(self._settled.vectors, w))
        self._t.append(t)
        self._free -= 2
        self._left -= 1


def _columns(columns, n: int) -> int:
    """Validate a ``columns`` request against ``n`` (quaternionic) columns."""
    if columns is None:
        return n
    m = _integer(columns, "columns")
    if not 1 <= m <= n:
        raise ValueError(f"columns must be an integer from 1 to {n}, got {columns}")
    return m


def _haar_reflectors(
    d: int, gen: np.random.Generator, size: int, m: int, *, real: bool, special: bool = False
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
    just ``phase``.  ``m < d`` stops after column ``m - 1``.

    With ``special=True`` (real only) draws of determinant -1 have one gauge
    sign flipped: the first for a full draw, which makes the law Haar on
    SO(d), and the one past the drawn columns otherwise, which leaves those
    columns as drawn (for ``m < d`` they have the same law in SO(d) as in
    O(d)).
    """
    lengths = np.arange(d, d - m, -1)
    n = int(lengths.sum())
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    if real:
        flat = x = gen.standard_normal((n, size))
    else:
        flat = gen.standard_normal((n, 2 * size))
        x = flat.view(np.complex128)
    full = m == d
    r = m - 1 if full else m
    # The draw's own arrays before any temporary: the temporaries, freed,
    # then join the free top of the heap, which the formation reuses.  The
    # other order costs the third AII(8) fit of 2048 draws in a process
    # about 1100 minor faults against none.
    tau = np.empty((r, size))
    signs = np.ones((d, size), dtype=x.dtype)
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
    reflectors = x[: n - 1] if full else x
    reflectors[offsets[:r]] += (phase * norm)[:r]
    denom = (norm * (norm + head_abs))[:r]
    tau[...] = np.where(denom > 0, 1.0 / np.where(denom > 0, denom, 1.0), 0.0)
    signs[:m] = -phase
    if full:
        signs[-1] = phase[-1]
    if special:
        # det g = (-1)^(number of proper reflectors) * prod(signs)
        flips = np.count_nonzero(tau, axis=0) % 2
        det = np.prod(signs, axis=0) * (1.0 - 2.0 * flips)
        signs[0 if full else m] *= det
    return HouseholderDraw(reflectors, offsets[:r], tau, signs)


def _draw(d, rng, size, dense: bool, columns, *, field: str, special: bool = False):
    """Check the sizes, then draw as the public samplers document."""
    gen = as_generator(rng)
    d = _integer(d, "d")
    if field == "quaternion" and (d < 2 or d % 2):
        raise ValueError(f"symplectic dimension must be even and at least 2, got {d}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    count = _count(size)
    m = _columns(columns, d // 2 if field == "quaternion" else d)
    if not dense:
        if columns is None:
            return DeferredUnitary(d, count, gen, field=field, special=special)
        return DeferredSubspace(d, count, gen, field=field, rank=m)
    kept = d if columns is None else (2 * m if field == "quaternion" else m)
    dtype = np.float64 if field == "real" else np.complex128
    _refuse_oversize((count, d, kept), dtype, f"d={d}, size={count}")
    if field == "quaternion":
        draw = _symplectic_reflectors(d, gen, count, m)
    else:
        draw = _haar_reflectors(d, gen, count, m, real=field == "real", special=special)
    q = draw.matrix(None if columns is None else m)
    return q[0] if size is None else q


def haar_unitary(
    d: int, rng=None, size: int | None = None, *, dense: bool = True, columns: int | None = None
):
    """Sample Haar-distributed unitaries from U(d).

    Parameters
    ----------
    dense : bool
        True (default): return ``(d, d)`` or ``(size, d, d)`` matrices,
        formed from Householder reflectors.  False: return a deferred draw
        (``size`` draws, one for ``size=None``) for code that only applies
        the unitaries to vectors: a :class:`DeferredUnitary`, which draws
        only the directions it is applied to.  Its ``matrix()`` completes
        the draws from their own generator, which it advances.
    columns : int, optional
        Only the span of the first ``columns`` columns (``1 <= columns <=
        d``), a Haar-random subspace.  Dense: those columns, ``(size, d,
        columns)``, drawn from the ``columns`` reflectors they depend on.
        Deferred: a :class:`DeferredSubspace`, which applies the subspace's
        projector to vectors.

    Examples
    --------
    >>> u = haar_unitary(3, rng=0)
    >>> np.allclose(u.conj().T @ u, np.eye(3))
    True
    >>> haar_unitary(5, rng=0, size=2, columns=2).shape
    (2, 5, 2)
    >>> w = haar_unitary(5, rng=0, size=2, dense=False)
    >>> y = np.eye(5)[:, :2]
    >>> np.allclose(w.apply_adjoint(w.apply(y)), y)
    True
    """
    return _draw(d, rng, size, dense, columns, field="complex")


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
        When True, condition on determinant +1 (Haar on SO(d)).  A dense
        draw flips a gauge sign of draws with determinant -1; a deferred
        one fixes the sign of its last revealed direction.
    dense : bool
        As for :func:`haar_unitary`.
    columns : int, optional
        As for :func:`haar_unitary`.  For ``columns < d`` the columns have
        the same law in SO(d) as in O(d).

    Returns
    -------
    ndarray, DeferredUnitary or DeferredSubspace
        Real ``float64`` matrices, or the deferred draw when ``dense=False``.

    Examples
    --------
    >>> w = haar_orthogonal(4, rng=0, special=True, size=3)
    >>> np.allclose(np.linalg.det(w), 1.0), np.allclose(np.linalg.norm(w[:, :, 0], axis=1), 1.0)
    (True, True)
    """
    return _draw(d, rng, size, dense, columns, field="real", special=special)


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


def _symplectic_reflectors(d: int, gen: np.random.Generator, size: int, m: int) -> HouseholderDraw:
    """Draw Haar elements of SP(d) as quaternionic reflectors.

    As :func:`_haar_reflectors`, per quaternionic coordinate ``j < d/2 - 1``:
    a fresh Gaussian ``x`` on coordinates ``j, …`` is mapped onto
    coordinate ``j`` by ``1 - tau (v vᴴ + θv θvᴴ)``, ``θv = J conj(v)``, with
    ``r`` the norm of ``x``'s two entries ``x_head`` on coordinate ``j``,
    ``v = x + (‖x‖/r) x_head`` and ``tau = 1/(‖x‖(‖x‖ + r))``.  An
    independent Haar Sp(1) gauge per coordinate makes the law Haar and
    absorbs the last coordinate's reflector (-1).  ``m < d/2`` stops after
    coordinate ``m - 1``, and gauges only coordinates ``< m``.
    """
    n = d // 2
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
        ``i``, ``d/2 + i``, so a dense draw returns columns ``0, …,
        columns - 1`` and then ``d/2, …, d/2 + columns - 1``.

    Examples
    --------
    >>> u = haar_symplectic(4, rng=1)
    >>> j = symplectic_form(4)
    >>> np.allclose(u.T @ j @ u, j), np.allclose(u.conj().T @ u, np.eye(4))
    (True, True)
    >>> haar_symplectic(6, rng=1, columns=1).shape  # columns 0 and 3
    (6, 2)
    """
    return _draw(d, rng, size, dense, columns, field="quaternion")
