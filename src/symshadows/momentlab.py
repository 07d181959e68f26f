"""Monte-Carlo moment laboratory: independent verification machinery.

Everything in this module estimates ensemble moments directly from samples
and compares them against the closed forms of :mod:`symshadows.channel`,
with no shared code path: twirls of order k = 1..3, the fourth-moment
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channel import apply_channel
from .haar import symplectic_form, symplectic_pairing
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
    "delta_value",
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
# pair partitions and delta tensors
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


def delta_value(klass: str, pairing, indices, d: int | None = None) -> int:
    """Evaluate one family-dependent delta tensor at concrete indices.

    Parameters
    ----------
    klass : str
        ``"A"``: ``pairing`` is a permutation sigma of {0..k-1} and
        ``indices`` is the concatenation (i_1..i_k, j_1..j_k); the value is
        prod_r delta(i_r, j_{sigma(r)}).
        ``"BD"``: ``pairing`` is a :class:`PairPartition` (or pair list,
        1-based positions) and the value is the product of Kronecker deltas
        over matched positions of ``indices``.
        ``"C"``: as BD but each matched pair contributes the symplectic-form
        entry J[indices[a], indices[b]] in {0, +1, -1}; requires ``d``.
    pairing : permutation or PairPartition
    indices : sequence of int
        2k index values.
    d : int, optional
        Hilbert-space dimension, required for class ``"C"``.

    Examples
    --------
    >>> delta_value("BD", [(1, 2)], (3, 3))
    1
    """
    indices = tuple(indices)
    if klass == "A":
        sigma = tuple(pairing)
        k = len(sigma)
        if len(indices) != 2 * k:
            raise ValueError(
                f"class A with degree {k} needs 2k = {2 * k} indices, got {len(indices)}"
            )
        left, right = indices[:k], indices[k:]
        return int(all(left[r] == right[sigma[r]] for r in range(k)))
    pairs = pairing.pairs if isinstance(pairing, PairPartition) else tuple(
        tuple(p) for p in pairing
    )
    if len(indices) != 2 * len(pairs):
        raise ValueError(
            f"matching with {len(pairs)} pairs needs {2 * len(pairs)} indices, "
            f"got {len(indices)}"
        )
    if klass == "BD":
        return int(all(indices[a - 1] == indices[b - 1] for a, b in pairs))
    if klass == "C":
        if d is None:
            raise ValueError("class C needs the dimension d to build the form")
        form = symplectic_form(d)
        value = 1
        for a, b in pairs:
            value *= int(form[indices[a - 1], indices[b - 1]])
            if value == 0:
                return 0
        return value
    raise ValueError(f"unknown delta class {klass!r}; expected 'A', 'BD', or 'C'")


# --------------------------------------------------------------------------
# Monte-Carlo twirls
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TwirlEstimate:
    """Monte-Carlo twirl with entrywise standard errors."""

    mean: np.ndarray
    sem: np.ndarray
    n_samples: int


def _finalize(sum_z, sum_sq, n):
    mean = sum_z / n
    var = sum_sq / n - (mean.real**2 + mean.imag**2)
    if n > 1:
        var = var * (n / (n - 1))
    sem = np.sqrt(np.maximum(var, 0.0) / n)
    return mean, sem


def mc_twirl(
    spec: SpaceSpec,
    k: int,
    a: np.ndarray,
    n_samples: int,
    rng=None,
    batch_size: int | None = None,
) -> TwirlEstimate:
    """Estimate the order-k twirl E[V^(x)k A (V^(x)k)^dagger] by sampling.

    Parameters
    ----------
    spec : SpaceSpec
    k : int
        Twirl order, 1, 2 or 3 (the operand lives on d^k dimensions).
    a : ndarray, shape (d**k, d**k)
        Operand in matrix form.
    n_samples : int
        Number of ensemble draws.
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
    gen = as_generator(rng)
    if batch_size is None:
        batch_size = max(1, min(n_samples, 4_000_000 // (dk * dk)))
    sum_z = np.zeros((dk, dk), dtype=complex)
    sum_sq = np.zeros((dk, dk))
    done = 0
    while done < n_samples:
        b = min(batch_size, n_samples - done)
        v = np.ascontiguousarray(sample_point(spec, gen, size=b), dtype=np.complex128)
        if k == 1:
            part_z, part_sq = _kernels.twirl1_accum(v, a)
            sum_z += part_z
            sum_sq += part_sq
        else:
            if k == 2:
                w = np.einsum("nab,ncd->nacbd", v, v).reshape(b, dk, dk)
            else:
                w = np.einsum("nab,ncd,nef->nacebdf", v, v, v).reshape(b, dk, dk)
            z = np.einsum("nxa,ab,nyb->nxy", w, a, w.conj(), optimize=True)
            sum_z += z.sum(axis=0)
            sum_sq += (z.real**2 + z.imag**2).sum(axis=0)
        done += b
    mean, sem = _finalize(sum_z, sum_sq, n_samples)
    return TwirlEstimate(mean=mean, sem=sem, n_samples=n_samples)


def mc_channel(
    spec: SpaceSpec,
    operand: np.ndarray,
    n_samples: int,
    rng=None,
    batch_size: int | None = None,
) -> TwirlEstimate:
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
        Number of ensemble draws.
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
    gen = as_generator(rng)
    if batch_size is None:
        batch_size = max(1, min(n_samples, 2_000_000 // (d * d)))
    sum_z = np.zeros((d, d), dtype=complex)
    sum_sq = np.zeros((d, d))
    done = 0
    while done < n_samples:
        b = min(batch_size, n_samples - done)
        v = np.ascontiguousarray(sample_point(spec, gen, size=b), dtype=np.complex128)
        diag = np.einsum("nwa,ab,nwb->nw", v, a, v.conj(), optimize=True)
        z = np.einsum("nw,nwi,nwj->nij", diag, v.conj(), v, optimize=True)
        sum_z += z.sum(axis=0)
        sum_sq += (z.real**2 + z.imag**2).sum(axis=0)
        done += b
    mean, sem = _finalize(sum_z, sum_sq, n_samples)
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


def _pair_products(v: np.ndarray) -> np.ndarray:
    """Flattened per-row rank-one products r_w[a, b] = v_wa conj(v_wb)."""
    b, d, _ = v.shape
    return (v[:, :, :, None] * v[:, :, None, :].conj()).reshape(b * d, d * d)


def mc_moment_tensor(
    spec: SpaceSpec,
    n_samples: int,
    rng=None,
    n_blocks: int = 32,
) -> MomentTensor:
    """Estimate the channel tensor T by direct Monte Carlo.

    Standard errors come from ``n_blocks`` independent block means, so
    ``n_samples`` is rounded down to a multiple of ``n_blocks``.
    """
    d = spec.dim
    n_blocks = max(1, min(n_blocks, n_samples))
    per_block = max(1, n_samples // n_blocks)
    gen = as_generator(rng)
    block_means = np.empty((n_blocks, d * d, d * d), dtype=complex)
    for blk in range(n_blocks):
        v = np.ascontiguousarray(sample_point(spec, gen, size=per_block), dtype=np.complex128)
        f = _pair_products(v)
        block_means[blk] = (f.T @ f.conj()) / per_block
    mean = block_means.mean(axis=0)
    if n_blocks > 1:
        dev = np.abs(block_means - mean) ** 2
        sem = np.sqrt(dev.sum(axis=0) / (n_blocks - 1) / n_blocks)
    else:
        sem = np.full_like(mean, np.inf, dtype=float)
    # T[a, b, i, j] with the pair products giving [(ab), (ij)] directly.
    shape = (d, d, d, d)
    return MomentTensor(
        mean=mean.reshape(shape),
        sem=sem.reshape(shape),
        n_samples=per_block * n_blocks,
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


def _basis_tensors(parent: str, d: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Materialized delta-tensor basis for one parent group.

    Returns labels and a stacked array of shape (n_basis, d, d, d, d)
    indexed [m, a, b, i, j].
    """
    eye = np.eye(d)
    t_norm = np.einsum("ab,ij->abij", eye, eye)
    t_dual = np.einsum("ai,bj->abij", eye, eye)
    t_deph = np.zeros((d, d, d, d))
    rng_d = np.arange(d)
    t_deph[rng_d, rng_d, rng_d, rng_d] = 1.0
    if parent == "U":
        labels = ("delta_ab_delta_ij", "delta_ai_delta_bj", "delta_abij")
        return labels, np.stack([t_norm, t_dual, t_deph])
    if parent == "O":
        t_swap = np.einsum("aj,bi->abij", eye, eye)
        labels = (
            "delta_ab_delta_ij",
            "delta_ai_delta_bj",
            "delta_aj_delta_bi",
            "delta_abij",
        )
        return labels, np.stack([t_norm, t_dual, t_swap, t_deph])
    if parent == "SP":
        form = symplectic_form(d)
        jperm, _ = symplectic_pairing(d)
        t_form = np.einsum("aj,bi->abij", form, form)
        t_pair_diag = np.zeros((d, d, d, d))
        t_pair_diag[rng_d, rng_d, jperm, jperm] = 1.0
        t_pair_cross = np.zeros((d, d, d, d))
        t_pair_cross[rng_d, jperm, rng_d, jperm] = 1.0
        labels = (
            "delta_ab_delta_ij",
            "delta_ai_delta_bj",
            "form_aj_form_bi",
            "delta_abij",
            "delta_ab_pair_ij",
            "delta_ai_pair_bj",
        )
        return labels, np.stack(
            [t_norm, t_dual, t_form, t_deph, t_pair_diag, t_pair_cross]
        )
    raise ValueError(f"unsupported parent group {parent!r}")


def fit_channel_coefficients(
    spec: SpaceSpec,
    n_samples: int,
    rng=None,
    batch_size: int = 8192,
) -> MomentFit:
    """Fit the empirical channel tensor onto the family's delta basis.

    Draws ``n_samples`` ensemble elements, projects each sample's rank-one
    contribution onto the basis in O(d^2) time, and solves the normal
    equations per sample so that coefficient standard errors come from the
    per-sample scatter.  The implied channel weights are derived from the
    fitted basis weights and reported with propagated errors.

    Raises
    ------
    FitDegenerateError
        For orthogonal parents at d = 2 (collinear delta terms) or any
        basis whose Gram matrix is numerically rank deficient.
    """
    d = spec.dim
    parent = spec.parent
    if parent == "O" and d < 3:
        raise FitDegenerateError(
            "orthogonal-parent delta basis is collinear at d = 2; refit at d >= 3"
        )
    labels, tensors = _basis_tensors(parent, d)
    flat = tensors.reshape(len(labels), -1)
    gram = flat @ flat.T
    cond = np.linalg.cond(gram)
    if cond > 1e12:
        raise FitDegenerateError(
            f"delta-basis Gram matrix is numerically singular (cond = {cond:.3e})"
        )
    gram_inv = np.linalg.inv(gram)
    if parent == "SP":
        jperm, jsign = symplectic_pairing(d)
    gen = as_generator(rng)
    n_basis = len(labels)
    sum_c = np.zeros(n_basis)
    sum_csq = np.zeros(n_basis)
    t_hat = np.zeros((d * d, d * d), dtype=complex)
    done = 0
    while done < n_samples:
        b = min(batch_size, n_samples - done)
        v = np.ascontiguousarray(sample_point(spec, gen, size=b), dtype=np.complex128)
        if parent == "U":
            y = _kernels.proj_unitary(v)
        elif parent == "O":
            y = _kernels.proj_orthogonal(v)
        else:
            y = _kernels.proj_symplectic(v, jperm, jsign)
        c = y @ gram_inv
        sum_c += c.sum(axis=0)
        sum_csq += (c**2).sum(axis=0)
        f = _pair_products(v)
        t_hat += f.T @ f.conj()
        done += b
    coef = sum_c / n_samples
    var = sum_csq / n_samples - coef**2
    if n_samples > 1:
        var = var * (n_samples / (n_samples - 1))
    sems = np.sqrt(np.maximum(var, 0.0) / n_samples)
    fitted = np.einsum("m,mx->x", coef, flat)
    residual = float(np.linalg.norm(t_hat.reshape(-1) / n_samples - fitted))
    tensor_norm_sq = float(coef @ gram @ coef)
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
        if self.sem == 0.0:
            return 0.0 if self.estimate == self.expected else float("inf")
        return abs(self.estimate - self.expected) / self.sem


def moment_identities_ai(
    d: int, n_samples: int, rng=None, batch_size: int = 65536
) -> list[MomentCheck]:
    """Fourth-moment identities of the symmetric-unitary (AI) ensemble.

    Checks E|V_11|^4 against 8/((d+1)(d+3)) and E|V_12|^4 against
    2/(d(d+3)).
    """
    spec = make_space("AI", d)
    gen = as_generator(rng)
    sums = np.zeros(2)
    sums_sq = np.zeros(2)
    done = 0
    while done < n_samples:
        b = min(batch_size, n_samples - done)
        v = sample_point(spec, gen, size=b)
        diag4 = np.abs(v[:, 0, 0]) ** 4
        sums[0] += diag4.sum()
        sums_sq[0] += (diag4**2).sum()
        if d > 1:
            off4 = np.abs(v[:, 0, 1]) ** 4
            sums[1] += off4.sum()
            sums_sq[1] += (off4**2).sum()
        done += b
    mean = sums / n_samples
    var = (sums_sq / n_samples - mean**2) * (n_samples / (n_samples - 1))
    sem = np.sqrt(np.maximum(var, 0.0) / n_samples)
    return [
        MomentCheck("E|V_11|^4", float(mean[0]), float(sem[0]), 8.0 / ((d + 1) * (d + 3))),
        MomentCheck("E|V_12|^4", float(mean[1]), float(sem[1]), 2.0 / (d * (d + 3))),
    ]


@dataclass(frozen=True)
class PairedTwirlReport:
    """Entrywise comparison of two twirls sharing the same samples."""

    max_discrepancy: float
    sem_at_max: float
    n_samples: int

    @property
    def max_sems(self) -> float:
        """Largest discrepancy in standard-error units."""
        if self.sem_at_max == 0.0:
            return 0.0 if self.max_discrepancy == 0.0 else float("inf")
        return self.max_discrepancy / self.sem_at_max


def k_equivariance_check(
    spec: SpaceSpec,
    n_samples: int,
    rng=None,
    batch_size: int = 8192,
    conjugator: np.ndarray | None = None,
) -> PairedTwirlReport:
    """Monte-Carlo check that the twirl commutes with the fixed subgroup.

    Draws one subgroup element k (or uses ``conjugator`` -- pass a generic
    unitary for a negative control) and one random operand A, then compares
    the sample means of V (k A k^dagger) V^dagger and k (V A V^dagger)
    k^dagger on the *same* draws of V, so the difference carries paired
    standard errors.
    """
    d = spec.dim
    gen = as_generator(rng)
    k = (
        np.asarray(conjugator, dtype=complex)
        if conjugator is not None
        else np.asarray(sample_subgroup(spec, gen), dtype=complex)
    )
    a = gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))
    kak = k @ a @ k.conj().T
    sum_z = np.zeros((d, d), dtype=complex)
    sum_sq = np.zeros((d, d))
    done = 0
    while done < n_samples:
        b = min(batch_size, n_samples - done)
        v = np.ascontiguousarray(sample_point(spec, gen, size=b), dtype=np.complex128)
        lhs = np.einsum("nij,jk,nlk->nil", v, kak, v.conj(), optimize=True)
        inner = np.einsum("nij,jk,nlk->nil", v, a, v.conj(), optimize=True)
        rhs = np.einsum("ij,njk,lk->nil", k, inner, k.conj(), optimize=True)
        diff = lhs - rhs
        sum_z += diff.sum(axis=0)
        sum_sq += (diff.real**2 + diff.imag**2).sum(axis=0)
        done += b
    mean, sem = _finalize(sum_z, sum_sq, n_samples)
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
    """
    d = spec.dim
    gen = as_generator(rng)
    if conjugators is not None:
        conjugators = [np.asarray(h, dtype=complex) for h in conjugators]
        n_trials = len(conjugators)
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
