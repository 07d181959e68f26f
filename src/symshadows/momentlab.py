"""Monte-Carlo moment laboratory: independent verification machinery.

Everything in this module estimates ensemble moments directly from samples
and compares them against the closed forms of :mod:`symshadows.channel`,
with no shared code path: single-entry moments E|V_ij|^k, twirls of order
k = 1..3, the fourth-moment
tensor T[a,b,i,j] = sum_w E[v_wa conj(v_wb) conj(v_wi) v_wj] that encodes
the measurement channel, least-squares fits of that tensor onto the
family's delta-tensor basis (recovering the channel weights with standard
errors), and the two equivariance properties every ensemble must satisfy:
exact commutation of the closed-form channel with measurement-basis signed
symmetries, and Monte-Carlo commutation of the twirl with the fixed
subgroup K.

The delta-tensor bases are the exact combinatorial objects underlying the
moment expansions:

* unitary parent:    d_ab d_ij, d_ai d_bj, d_abij
* orthogonal parent: + d_aj d_bi
* symplectic parent: d_ab d_ij, d_ai d_bj, J_aj J_bi, d_abij, and the two
  partner-index tensors d_ab d_{i,a#} d_{j,a#} and d_ai d_{b,a#} d_{j,a#}
  (a# the symplectically paired coordinate)

with the index convention fixed by the channel relation
``M(rho)[i, j] = sum_ab rho[a, b] T[a, b, i, j]``.  The symplectic-parent
convention is validated by recovering the exact CI/CII channel weights.
The fit never builds these d^4 tensors, nor the empirical one: the basis
Gram matrix is closed form, and the residual needs only the empirical
tensor's Frobenius norm.  Regrouped as [(a,j), (b,i)], T is a Gram of pair
products v_wa v_wj on the symmetric square, so the fit and
:func:`mc_moment_tensor` accumulate it packed, d(d+1)/2 on a side, in
blocks of pair products of a fixed byte size, each block one real symmetric
rank-k update (complex draws as their stacked real and imaginary parts).

Every Monte-Carlo estimator draws through one checked, byte-bounded loop,
:func:`_batches`; all but :func:`mc_moment_tensor`, which uses 32 block
means, take their standard errors from :func:`_finalize`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channel import apply_channel
from .haar import _draw_blocks, _integer, _refuse_bytes, symplectic_pairing
from .rng import as_generator
from .spaces import (
    SpaceSpec,
    make_space,
    sample_point,
    sample_signed_symmetry,
    sample_subgroup,
)

__all__ = [
    "FitDegenerateError",
    "PairPartition",
    "TwirlEstimate",
    "MomentTensor",
    "MomentFit",
    "MomentCheck",
    "PairedTwirlReport",
    "pair_partitions",
    "entry_moments",
    "mc_channel",
    "mc_twirl",
    "mc_moment_tensor",
    "fit_channel_coefficients",
    "moment_identities_ai",
    "k_equivariance_check",
    "h_equivariance_check",
]


class FitDegenerateError(RuntimeError):
    """The delta-tensor basis is too collinear to fit at this dimension."""


# --------------------------------------------------------------------------
# pair partitions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PairPartition:
    """A perfect matching of {1, ..., 2k} in canonical order.

    Pairs are ascending within each pair and sorted by first element, so
    the partition list for each k is lexicographically ordered.
    """

    pairs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)


def pair_partitions(k: int) -> list[PairPartition]:
    """All (2k-1)!! canonical perfect matchings of {1, ..., 2k}.

    Examples
    --------
    >>> [p.pairs for p in pair_partitions(2)]
    [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]
    """
    if k < 1:
        raise ValueError("need at least one pair (k >= 1)")

    def rec(points: tuple[int, ...]):
        if not points:
            yield ()
            return
        first = points[0]
        rest = points[1:]
        for i, partner in enumerate(rest):
            remaining = rest[:i] + rest[i + 1 :]
            for tail in rec(remaining):
                yield ((first, partner),) + tail

    return [PairPartition(p) for p in rec(tuple(range(1, 2 * k + 1)))]


# --------------------------------------------------------------------------
# the draw loop and the mean/SEM rule
# --------------------------------------------------------------------------

#: Largest accumulator an estimator may hold, refused before any draw: a
#: moment tensor's 32 packed block means, 32 * 16 P^2 bytes, P = d(d+1)/2,
#: and its mean and SEM, 24 d^4 bytes (d <= 30); a fit's, charged at
#: 16 d^4 bytes (d <= 53) though its packed Gram takes 16 P^2 bytes, on
#: purpose, as the charge fixes the sizes the fit and the CLI refuse.
STATE_MAX_BYTES = 2**27

# Budget for the largest temporary of a batch (the stack of draws, of pair
# products, or of d^(2k) twirl operands).  Batches shrink below their caps
# only past it.  A fit or moment tensor charges 16 d^3 bytes per draw, the
# d x d pair products of its d rows, though it holds only _GRAM_BLOCK_BYTES
# of packed ones at a time; the charge is kept on purpose, since it sets the
# batch split and so the seeded draws: a d = 8 fit batch, 8192 * 16 * 8^3 B,
# fills it exactly.
_BATCH_BYTES = 64 * 2**20
# Pair products held at once by one block of the residual Gram
# (:func:`_add_packed_pair_gram`): 16 P bytes per row of a complex draw, its
# real and imaginary parts, held once as the planar [Re g; Im g], and 8 P
# for a real one.  The block sets which rows one syrk sums, and so the bits.
_GRAM_BLOCK_BYTES = 2**20
_BATCH_DRAWS = 8192
_IDENTITY_BATCH_DRAWS = 65536
_TWIRL_ELEMENTS = 4_000_000
_CHANNEL_ELEMENTS = 2_000_000
_N_BLOCKS = 32


def _batches(
    spec, gen, n_samples, cap, draw_bytes, blocks=1, state_bytes=0, dense=True, request=None
):
    """Check a Monte-Carlo request, then return its draws as lazy batches.

    Raises ``ValueError`` before any draw when ``n_samples`` is not an
    integer of at least 2, the caller's ``state_bytes`` exceed
    :data:`STATE_MAX_BYTES`, or one draw's ``draw_bytes`` exceed physical
    memory; that refusal names ``request`` (default ``d=…``).  A batch
    holds at most ``cap`` draws, fewer if ``draw_bytes`` per draw would
    pass the budget, and never straddles two of ``blocks`` equal blocks.
    Batches call the module-level :func:`sample_point` when iterated, so a
    wrapper set on it sees every draw, and values the caller takes from
    ``gen`` first come first.  They
    hold the draws as drawn: real for the real families.  With ``dense=False``
    each batch is a deferred :class:`~symshadows.spaces.EnsembleDraw`,
    split the same way, which takes its values from ``gen`` as it is
    applied: the same law as the dense draws, not the same values.
    """
    n_samples = _integer(n_samples, "n_samples")
    if n_samples < 2:
        raise ValueError(f"a standard error needs at least 2 samples, got {n_samples}")
    if state_bytes > STATE_MAX_BYTES:
        raise ValueError(
            f"{spec.label()}: the moment accumulators need {state_bytes} bytes "
            f"({state_bytes / 2**30:.2f} GiB); the limit is {STATE_MAX_BYTES} bytes"
        )
    _refuse_bytes(draw_bytes, request or f"d={spec.dim}", "one draw")
    per_block = n_samples // blocks
    size = max(1, min(cap, per_block, _BATCH_BYTES // draw_bytes))
    sizes = (
        min(size, start + per_block - lo)
        for start in range(0, per_block * blocks, per_block)
        for lo in range(start, start + per_block, size)
    )
    if not dense:
        return (sample_point(spec, gen, size=n, dense=False) for n in sizes)
    return (np.ascontiguousarray(sample_point(spec, gen, size=n)) for n in sizes)


def _finalize(values, n):
    """Entrywise mean and standard error of ``n >= 2`` draws' values, draw axis first."""
    total = total_sq = 0.0
    for z in values:
        total = total + z.sum(axis=0)
        total_sq = total_sq + (z.real**2 + z.imag**2).sum(axis=0)
    mean = total / n
    var = (total_sq / n - (mean.real**2 + mean.imag**2)) * (n / (n - 1))
    return mean, np.sqrt(np.maximum(var, 0.0) / n)


def _sem_deviation(estimate, expected, sem):
    """Entrywise ``|estimate - expected| / sem``; with ``sem == 0`` (all draws
    equal), 0 within the structural tolerance 1e-12 and inf beyond it."""
    gap = np.abs(np.asarray(estimate) - expected)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sem > 0, gap / sem, np.where(gap <= 1e-12, 0.0, np.inf))


# --------------------------------------------------------------------------
# Monte-Carlo twirls
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TwirlEstimate:
    """Monte-Carlo twirl with entrywise standard errors."""

    mean: np.ndarray
    sem: np.ndarray
    n_samples: int


def mc_twirl(spec: SpaceSpec, k: int, a: np.ndarray, n_samples: int, rng=None) -> TwirlEstimate:
    """Estimate the order-k twirl E[V^(x)k A (V^(x)k)^dagger] by sampling.

    Parameters
    ----------
    spec : SpaceSpec
    k : int
        Twirl order, 1, 2 or 3 (the operand lives on d^k dimensions).  A
        ``ValueError`` naming k and d refuses, before any draw, an order
        whose one draw's d^k x d^k values would exceed physical memory.
    a : ndarray, shape (d**k, d**k)
        Operand in matrix form.
    n_samples : int
        Number of ensemble draws, at least 2.
    rng : Generator, RngStream, int or None

    Returns
    -------
    TwirlEstimate
        Entrywise mean and standard error.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"twirl order must be 1, 2 or 3, got {k}")
    d = spec.dim
    dk = d**k
    a = np.asarray(a, dtype=complex)
    if a.shape != (dk, dk):
        raise ValueError(f"operand shape {a.shape} does not match (d^k, d^k) = ({dk}, {dk})")
    batches = _batches(
        spec, as_generator(rng), n_samples, _TWIRL_ELEMENTS // (dk * dk), 16 * dk * dk,
        request=f"k={k}, d={d}",
    )

    def values(v):
        w = v
        if k == 2:
            w = np.einsum("nab,ncd->nacbd", v, v).reshape(len(v), dk, dk)
        elif k == 3:
            w = np.einsum("nab,ncd,nef->nacebdf", v, v, v).reshape(len(v), dk, dk)
        return np.einsum("nxa,ab,nyb->nxy", w, a, w.conj(), optimize=True)

    mean, sem = _finalize(map(values, batches), n_samples)
    return TwirlEstimate(mean=mean, sem=sem, n_samples=n_samples)


def mc_channel(spec: SpaceSpec, operand: np.ndarray, n_samples: int, rng=None) -> TwirlEstimate:
    """Estimate the measurement channel M(A) by direct protocol sampling.

    Each draw contributes ``sum_w (V A V^dagger)_ww V^dagger |w><w| V`` —
    the fourth-moment contraction the channel is made of — so the sample
    mean converges to ``apply_channel(spec, operand)`` with exact entrywise
    standard errors.

    Parameters
    ----------
    spec : SpaceSpec
    operand : ndarray, shape (d, d)
        Matrix the channel acts on.
    n_samples : int
        Number of ensemble draws, at least 2.
    rng : Generator, RngStream, int or None

    Returns
    -------
    TwirlEstimate
        Entrywise mean and standard error.
    """
    d = spec.dim
    a = np.asarray(operand, dtype=complex)
    if a.shape != (d, d):
        raise ValueError(f"operand shape {a.shape} does not match ({d}, {d})")
    batches = _batches(
        spec, as_generator(rng), n_samples, _CHANNEL_ELEMENTS // (d * d), 16 * d * d
    )

    def values(v):
        diag = np.einsum("nwa,ab,nwb->nw", v, a, v.conj(), optimize=True)
        return np.einsum("nw,nwi,nwj->nij", diag, v.conj(), v, optimize=True)

    mean, sem = _finalize(map(values, batches), n_samples)
    return TwirlEstimate(mean=mean, sem=sem, n_samples=n_samples)


# --------------------------------------------------------------------------
# fourth-moment tensor and coefficient fitting
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentTensor:
    """Empirical channel tensor T[a,b,i,j] with entrywise standard errors.

    ``mean[a, b, i, j]`` estimates sum_w E[v_wa conj(v_wb) conj(v_wi) v_wj],
    so ``mean[a, b, i, j]`` equals the superoperator entry S[(i,j), (a,b)]
    of :func:`symshadows.channel.build_superoperator`.
    """

    mean: np.ndarray
    sem: np.ndarray
    n_samples: int


def _add_packed_pair_gram(out: np.ndarray, v: np.ndarray) -> None:
    """Add sum_w g_w g_w^dagger over the rows of ``v`` to the P x P ``out``.

    g_w[a, j] = v_wa v_wj (a <= j) is the pair product on the symmetric
    square, packed with weight sqrt(2) off the diagonal, so that packing is
    an isometry.  T[a, b, i, j] = sum_w g_w[a, j] conj(g_w[b, i]), so
    ``out`` holds T (see :func:`_unpack_pair_gram`) with its Frobenius norm
    at P = d(d+1)/2 on a side.

    The rows are taken in blocks of :data:`_GRAM_BLOCK_BYTES` of pair
    products, so the working set does not grow with the batch.  Every block
    is a real symmetric rank-k update, ``m @ m.T``: for real draws (the
    O-parent families) m = g; for complex ones, single points included,
    m = [Re g; Im g] (2P rows), and g g^dagger = (A11 + A22) + i(A21 - A12)
    in the 2 x 2 block split of m m^T, half the flops of a complex gemm.
    m is one buffer, reused by every block.  It is filled a cache-sized
    part of the block's rows at a time (:func:`~symshadows.haar._draw_blocks`),
    and a complex row of products a at a time, copied into m's two halves,
    so the complex g is never held whole.
    """
    d = v.shape[-1]
    p = d * (d + 1) // 2
    rows = v.reshape(-1, d)
    real = rows.dtype.kind != "c"
    step = max(1, _GRAM_BLOCK_BYTES // ((8 if real else 16) * p))
    n = min(step, len(rows))
    mbuf = np.empty((1 if real else 2) * p * n)
    # A part's contiguous transpose x and x·sqrt(2), and one row of its
    # complex products.
    width = _draw_blocks(n, rows[0].nbytes)[0].stop
    xbuf = np.empty((2, d * width), dtype=rows.dtype)
    products = np.empty(0 if real else d * width, dtype=rows.dtype)
    acc = np.zeros((p, p) if real else (2 * p, 2 * p))
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step]
        m = mbuf[: mbuf.size // n * len(block)].reshape(-1, len(block))
        for s in _draw_blocks(len(block), rows[0].nbytes):
            w = s.stop - s.start
            x, x_off = xbuf[:, : d * w].reshape(2, d, w)
            np.copyto(x, block[s].T)
            np.multiply(x, np.sqrt(2.0), out=x_off)
            k = 0
            for a in range(d):
                gb = m[k : k + d - a, s] if real else products[: (d - a) * w].reshape(d - a, w)
                np.multiply(x[a], x[a], out=gb[0])
                np.multiply(x[a], x_off[a + 1 :], out=gb[1:])
                if not real:
                    np.copyto(m[k : k + d - a, s], gb.real)
                    np.copyto(m[p + k : p + k + d - a, s], gb.imag)
                k += d - a
        acc += m @ m.T
    if real:
        out += acc
    else:
        out += (acc[:p, :p] + acc[p:, p:]) + 1j * (acc[p:, :p] - acc[:p, p:])


def _unpack_pair_gram(gram: np.ndarray, d: int) -> np.ndarray:
    """T[a, b, i, j] = G[pk(a, j), pk(b, i)] / (w(a, j) w(b, i)) of a P x P
    ``gram`` packed as by :func:`_add_packed_pair_gram`: pk in
    ``np.triu_indices(d)`` order, w = sqrt(2) off the diagonal, 1 on it."""
    rows, cols = np.triu_indices(d)
    pk = np.empty((d, d), dtype=np.intp)
    pk[rows, cols] = pk[cols, rows] = np.arange(rows.size)
    w = np.where(rows == cols, 1.0, np.sqrt(2.0))
    g = gram / np.outer(w, w)
    return g[pk[:, None, None, :], pk[None, :, :, None]]


def mc_moment_tensor(spec: SpaceSpec, n_samples: int, rng=None) -> MomentTensor:
    """Estimate the channel tensor T by direct Monte Carlo.

    Standard errors come from 32 independent block means (``n_samples``
    blocks of one draw below 32 samples), so ``n_samples`` is rounded down
    to a multiple of the block count.

    Raises
    ------
    ValueError
        Before any draw, when ``n_samples < 2`` or when the packed block
        means (32 * 16 P^2 bytes) and the returned mean and SEM (24 d^4
        bytes) would exceed :data:`STATE_MAX_BYTES` (d > 30).  Draws are
        charged 16 d^3 bytes, which fixes the seeded batch split.
    """
    n_samples = _integer(n_samples, "n_samples")
    d = spec.dim
    p = d * (d + 1) // 2
    blocks = min(_N_BLOCKS, n_samples)
    state = blocks * 16 * p**2 + 24 * d**4
    batches = _batches(spec, as_generator(rng), n_samples, n_samples, 16 * d**3, blocks, state)
    per_block = n_samples // blocks
    block_means = np.zeros((blocks, p, p), dtype=complex)
    done = 0
    for v in batches:
        _add_packed_pair_gram(block_means[done // per_block], v)
        done += len(v)
    block_means /= per_block
    mean = block_means.mean(axis=0)
    block_means -= mean
    sem = np.sqrt(sum(np.abs(b) ** 2 for b in block_means) / (blocks - 1) / blocks)
    return MomentTensor(
        mean=_unpack_pair_gram(mean, d),
        sem=_unpack_pair_gram(sem, d),
        n_samples=per_block * blocks,
    )


@dataclass(frozen=True)
class MomentFit:
    """Least-squares fit of the empirical channel tensor onto a delta basis.

    Attributes
    ----------
    labels : tuple of str
        Names of the basis tensors, in coefficient order.
    coefficients, standard_errors : ndarray
        Fitted basis weights and their Monte-Carlo standard errors.
    residual_norm : float
        Frobenius distance between the empirical tensor and the fit.
    noise_floor : float
        Expected residual from sampling noise alone; a sound basis keeps
        ``residual_norm`` within a few times this floor.
    n_samples : int
    mixing_weight, mixing_weight_sem : float
        The channel mixing weight implied by the fit.
    dephasing_weight, dephasing_weight_sem : float
        The implied dephasing weight (equals the mixing weight for
        non-symplectic parents).
    """

    labels: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    residual_norm: float
    noise_floor: float
    n_samples: int
    mixing_weight: float
    mixing_weight_sem: float
    dephasing_weight: float
    dephasing_weight_sem: float


_BASIS_LABELS = {
    "U": ("delta_ab_delta_ij", "delta_ai_delta_bj", "delta_abij"),
    "O": ("delta_ab_delta_ij", "delta_ai_delta_bj", "delta_aj_delta_bi", "delta_abij"),
    "SP": (
        "delta_ab_delta_ij",
        "delta_ai_delta_bj",
        "form_aj_form_bi",
        "delta_abij",
        "delta_ab_pair_ij",
        "delta_ai_pair_bj",
    ),
}


def _basis_gram(parent: str, d: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and exact Gram matrix <B_m, B_n> of one parent's delta basis.

    Each entry counts the index tuples (a, b, i, j) on which both tensors
    are nonzero, signed by the symplectic form where it enters, so no d^4
    tensor is built.
    """
    s = d * d
    gram = {
        "U": [[s, d, d], [d, s, d], [d, d, d]],
        "O": [[s, d, d, d], [d, s, d, d], [d, d, s, d], [d, d, d, d]],
        "SP": [
            [s, d, d, d, d, 0],
            [d, s, -d, d, 0, d],
            [d, -d, s, 0, d, -d],
            [d, d, 0, d, 0, 0],
            [d, 0, d, 0, d, 0],
            [0, d, -d, 0, 0, d],
        ],
    }[parent]
    return _BASIS_LABELS[parent], np.array(gram, dtype=float)


def fit_channel_coefficients(spec: SpaceSpec, n_samples: int, rng=None) -> MomentFit:
    """Fit the empirical channel tensor onto the family's delta basis.

    Draws ``n_samples`` ensemble elements, projects each sample's rank-one
    contribution onto the basis in O(d^2) time, and solves the normal
    equations per sample so that coefficient standard errors come from the
    per-sample scatter.  The implied channel weights are derived from the
    fitted basis weights and reported with propagated errors.  The residual
    needs only the empirical tensor's Frobenius norm, which the fit takes
    from the tensor's Gram on the symmetric square: a P x P accumulator,
    P = d(d+1)/2, of 16 P^2 bytes, summed over 1 MiB blocks of pair
    products in real arithmetic (complex draws as [Re g; Im g]), so its
    working set does not grow with the batch.  Draws are still charged
    16 d^3 bytes and the state 16 d^4, so the batch splits, and with them
    the seeded draws, are those of the unblocked fit.  A batch is formed
    (:func:`~symshadows.spaces.sample_point`) and projected a cache-sized
    block of draws at a time, so a fit holds its stack of draws and a few
    blocks: an AII(8) fit of 2048 draws peaks at about 4.2 MB under
    ``tracemalloc`` for its 2 MiB stack, and glibc keeps those pages from
    one such fit to the next.

    Raises
    ------
    FitDegenerateError
        For orthogonal parents at d = 2 (collinear delta terms) or any
        basis whose Gram matrix is numerically rank deficient.
    ValueError
        Before any draw, when ``n_samples < 2`` or when a full empirical
        tensor, 16 d^4 bytes, would exceed :data:`STATE_MAX_BYTES` (d > 53;
        the charge is kept though the packed accumulator is smaller).
    """
    d = spec.dim
    parent = spec.parent
    if parent == "O" and d < 3:
        raise FitDegenerateError(
            "orthogonal-parent delta basis is collinear at d = 2; refit at d >= 3"
        )
    batches = _batches(
        spec, as_generator(rng), n_samples, _BATCH_DRAWS, 16 * d**3, state_bytes=16 * d**4
    )
    labels, gram = _basis_gram(parent, d)
    cond = np.linalg.cond(gram)
    if cond > 1e12:
        raise FitDegenerateError(
            f"delta-basis Gram matrix is numerically singular (cond = {cond:.3e})"
        )
    gram_inv = np.linalg.inv(gram)
    if parent == "SP":
        _, jsign = symplectic_pairing(d)
    t_gram = np.zeros((d * (d + 1) // 2,) * 2, dtype=complex)

    def project(v):
        if parent == "U":
            return _kernels.proj_unitary(v)
        if parent == "O":
            return _kernels.proj_orthogonal(v)
        return _kernels.proj_symplectic(v, jsign)

    def coefficients():
        for v in batches:
            # A block of draws at a time, so the kernels' temporaries stay in
            # cache; each draw's row has the same bits in any block.
            y = np.concatenate([project(v[s]) for s in _draw_blocks(len(v), v[0].nbytes)])
            _add_packed_pair_gram(t_gram, v)
            yield y @ gram_inv

    coef, sems = _finalize(coefficients(), n_samples)
    # c = y_mean G^-1 and <B_m, T_hat> = y_mean[m], so the squared residual
    # |T_hat - sum_m c_m B_m|^2 is |T_hat|^2 - c^T G c; t_gram has the
    # Frobenius norm of n T_hat.
    tensor_norm_sq = float(coef @ gram @ coef)
    t_norm_sq = float(np.linalg.norm(t_gram) / n_samples) ** 2
    residual = float(np.sqrt(max(t_norm_sq - tensor_norm_sq, 0.0)))
    noise_floor = float(np.sqrt(max(d - tensor_norm_sq, 0.0) / n_samples))
    if parent == "SP":
        mix = 1.0 - (d + 1) * coef[0]
        mix_sem = (d + 1) * sems[0]
        deph = coef[3]
        deph_sem = sems[3]
    else:
        deph_idx = labels.index("delta_abij")
        mix = deph = coef[deph_idx]
        mix_sem = deph_sem = sems[deph_idx]
    return MomentFit(
        labels=labels,
        coefficients=coef,
        standard_errors=sems,
        residual_norm=residual,
        noise_floor=noise_floor,
        n_samples=n_samples,
        mixing_weight=float(mix),
        mixing_weight_sem=float(mix_sem),
        dephasing_weight=float(deph),
        dephasing_weight_sem=float(deph_sem),
    )


# --------------------------------------------------------------------------
# spot identities and equivariance checks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentCheck:
    """One Monte-Carlo estimate against its exact target."""

    name: str
    estimate: float
    sem: float
    expected: float

    @property
    def deviation_sems(self) -> float:
        """|estimate - expected| in standard-error units."""
        return float(_sem_deviation(self.estimate, self.expected, self.sem))


def entry_moments(spec: SpaceSpec, targets, n_samples: int, rng=None) -> list[MomentCheck]:
    """Monte-Carlo moments ``E|V_ij|^k`` of single entries against exact values.

    Parameters
    ----------
    spec : SpaceSpec
    targets : sequence of (name, (i, j), k, expected)
        One :class:`MomentCheck` per target, in order, all from the same
        draws.
    n_samples : int
        Number of ensemble draws, at least 2.
    rng : Generator, RngStream, int or None

    Examples
    --------
    >>> from symshadows.spaces import make_space
    >>> [c.deviation_sems for c in entry_moments(
    ...     make_space("O", 1), [("E|V00|^2", (0, 0), 2, 1.0)], 10, rng=0)]
    [0.0]
    """
    d = spec.dim
    # Draws are charged 16 d^2 bytes, a dense draw's size, though a deferred
    # draw holds only the few directions its columns reveal: the charge fixes
    # the batch split, and with it which seeded values each draw reveals.
    batches = _batches(
        spec, as_generator(rng), n_samples, _IDENTITY_BATCH_DRAWS, 16 * d * d, dense=False
    )
    wanted = {j for _, (_, j), _, _ in targets}

    def values(draw):
        # V[:, i, j] is row i of V e_j: one applied column per distinct j,
        # a few revealed directions per draw, where the dense matrix costs O(d^3).
        columns = {}
        for j in wanted:
            e = np.zeros((d, draw.size))
            e[j] = 1.0
            columns[j] = draw.apply(e)
        # Column-major, so each target's column is summed pairwise.
        out = np.empty((draw.size, len(targets)), order="F")
        for t, (_, (i, j), k, _) in enumerate(targets):
            out[:, t] = np.abs(columns[j][i]) ** k
        return out

    mean, sem = _finalize(map(values, batches), n_samples)
    return [
        MomentCheck(name, float(mean[t]), float(sem[t]), float(expected))
        for t, (name, _, _, expected) in enumerate(targets)
    ]


def moment_identities_ai(d: int, n_samples: int, rng=None) -> list[MomentCheck]:
    """Fourth-moment identities of the symmetric-unitary (AI) ensemble.

    Checks E|V_11|^4 against 8/((d+1)(d+3)) and E|V_12|^4 against
    2/(d(d+3)) on ``n_samples >= 2`` draws.
    """
    targets = [
        ("E|V_11|^4", (0, 0), 4, 8.0 / ((d + 1) * (d + 3))),
        ("E|V_12|^4", (0, 1), 4, 2.0 / (d * (d + 3))),
    ]
    return entry_moments(make_space("AI", d), targets, n_samples, rng)


@dataclass(frozen=True)
class PairedTwirlReport:
    """Entrywise comparison of two twirls sharing the same samples."""

    max_discrepancy: float
    sem_at_max: float
    n_samples: int

    @property
    def max_sems(self) -> float:
        """Largest discrepancy in standard-error units."""
        return float(_sem_deviation(self.max_discrepancy, 0.0, self.sem_at_max))


def k_equivariance_check(
    spec: SpaceSpec,
    n_samples: int,
    rng=None,
    conjugator: np.ndarray | None = None,
) -> PairedTwirlReport:
    """Monte-Carlo check that the twirl commutes with the fixed subgroup.

    Draws one subgroup element k (or uses ``conjugator`` -- pass a generic
    unitary for a negative control) and one random operand A, then compares
    the sample means of V (k A k^dagger) V^dagger and k (V A V^dagger)
    k^dagger on the *same* ``n_samples >= 2`` draws of V, so the difference
    carries paired standard errors.
    """
    d = spec.dim
    gen = as_generator(rng)
    # The request is checked here; draws of V start after k and A are drawn.
    batches = _batches(spec, gen, n_samples, _BATCH_DRAWS, 16 * d * d)
    k = (
        np.asarray(conjugator, dtype=complex)
        if conjugator is not None
        else np.asarray(sample_subgroup(spec, gen), dtype=complex)
    )
    a = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    kak = k @ a @ k.conj().T

    def differences(v):
        lhs = np.einsum("nij,jk,nlk->nil", v, kak, v.conj(), optimize=True)
        inner = np.einsum("nij,jk,nlk->nil", v, a, v.conj(), optimize=True)
        return lhs - np.einsum("ij,njk,lk->nil", k, inner, k.conj(), optimize=True)

    mean, sem = _finalize(map(differences, batches), n_samples)
    flat_idx = int(np.argmax(np.abs(mean)))
    return PairedTwirlReport(
        max_discrepancy=float(np.abs(mean).reshape(-1)[flat_idx]),
        sem_at_max=float(sem.reshape(-1)[flat_idx]),
        n_samples=n_samples,
    )


def h_equivariance_check(
    spec: SpaceSpec,
    n_trials: int = 100,
    rng=None,
    conjugators=None,
) -> float:
    """Exact equivariance of the closed-form channel under basis symmetries.

    For ``n_trials`` random signed symmetries h of the measurement basis
    (family-appropriate, drawn by
    :func:`symshadows.spaces.sample_signed_symmetry`) and random states rho,
    returns the worst max-norm residual of M(h rho h^dagger) - h M(rho)
    h^dagger.  Pass explicit ``conjugators`` (e.g. generic unitaries) for a
    negative control.

    Raises
    ------
    ValueError
        Before any draw, when there is no trial to run (``n_trials < 1`` or
        empty ``conjugators``): a worst residual over no trials would pass.
    """
    d = spec.dim
    if conjugators is not None:
        conjugators = [np.asarray(h, dtype=complex) for h in conjugators]
        n_trials = len(conjugators)
    n_trials = _integer(n_trials, "n_trials")
    if n_trials < 1:
        raise ValueError(f"an equivariance check needs at least 1 trial, got {n_trials}")
    gen = as_generator(rng)
    worst = 0.0
    for t in range(n_trials):
        h = (
            conjugators[t]
            if conjugators is not None
            else np.asarray(sample_signed_symmetry(spec, gen), dtype=complex)
        )
        g = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        lhs = apply_channel(spec, h @ rho @ h.conj().T)
        rhs = h @ apply_channel(spec, rho) @ h.conj().T
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst
