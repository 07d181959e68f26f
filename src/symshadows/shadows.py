"""End-to-end randomized-measurement protocol built on the symmetric ensembles.

One protocol round draws a rotation ``V`` from the configured ensemble,
measures ``V rho V^†`` in the computational basis, and stores the pair
``(row, outcome)``: the measured row ``V[w, :] = conj(V^† e_w)`` and its
index ``w``, the classical shadow of Huang, Kueng & Preskill (Nat. Phys.
16:1050, 2020).  The Born law ``<w|V rho V^†|w>`` is linear in ``rho``,
so a round first picks one pure component ``u_k`` of
``rho = sum_k w_k u_k u_k^†`` with probability ``w_k`` and then measures
``V u_k``: the outcome has the same law, at every rank.  No round forms
``V``: it applies the draw to the chosen component for the Born
probabilities and to the measured basis vector for the row.  The draw is
deferred (:mod:`symshadows.haar`): it reveals only the directions these two
vectors read, so a shot draws a few fresh Gaussian d-vectors and costs O(d)
per revealed direction, for every family.  Linear functionals
``tr(rho O)`` are then estimated by applying the pseudo-inverse of the
measurement channel to the *observable* (the adjoint trick: the channel is
self-adjoint in the Hilbert-Schmidt inner product), so each record
contributes a single quadratic form ``<w| V M⁺(O) V† |w>``.

The module also provides the observable ensemble used in the variance study
(a diagonal/off-diagonal interpolation with unit Frobenius norm) and the
sweep driver that tabulates empirical single-shot variances against the
closed-form second moments from :mod:`symshadows.variance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import _kernels
# Nothing here calls apply_channel; it stays a module attribute because the
# benchmark's tracer (perfbench/tracing.py) wraps shadows.apply_channel by name.
from .channel import apply_channel, invert_channel  # noqa: F401
from .haar import _SLACK, _integer, _refuse_bytes, _refuse_oversize, _Workspace
from .rng import RngStream, as_generator
from .spaces import (
    EnsembleDraw,
    SpaceSpec,
    _block_total,
    _round_bytes,
    make_space,
    sample_point,
)
from .variance import analytic_second_moment

__all__ = [
    "DENSITY_TOL",
    "EstimationReport",
    "InvalidStateError",
    "ResultRow",
    "ShadowRecord",
    "SWEEP_COLUMNS",
    "SweepConfig",
    "estimate_observable",
    "median_of_means",
    "random_observable",
    "random_pure_state",
    "run_estimation",
    "sample_outcome",
    "shadow_estimates",
    "signature_for_fraction",
    "validate_density",
    "variance_sweep",
]

#: Tolerance for density-matrix validation (Hermiticity, trace, positivity).
DENSITY_TOL = 1e-10

#: Tolerance for the per-draw check that outcome probabilities sum to one.
PROB_TOL = 1e-10

#: The low-rank factor of a state stops once every diagonal entry left is at
#: most this fraction of the largest diagonal entry (a pure state keeps one
#: component).
FACTOR_RTOL = 1e-14


class InvalidStateError(ValueError):
    """Raised when an input fails density-matrix validation."""


def validate_density(rho: np.ndarray, *, tol: float = DENSITY_TOL) -> np.ndarray:
    """Check that ``rho`` is a density matrix and return it as complex128.

    Parameters
    ----------
    rho : (d, d) array_like
        Candidate state.
    tol : float, optional
        Largest tolerated deviation in Hermiticity, unit trace, and
        eigenvalue positivity.

    Returns
    -------
    (d, d) complex ndarray
        The validated input as a C-contiguous complex128 array: ``rho``
        itself when it already is one, else a copy.

    Raises
    ------
    InvalidStateError
        If the matrix is not square, has a non-finite entry, is not
        Hermitian or not unit trace, or has an eigenvalue below ``-tol``.

    Notes
    -----
    Positivity is tested by a Cholesky factorization of ``rho + tol·I``,
    which exists iff every eigenvalue exceeds ``-tol``.  Only when it fails
    are the eigenvalues computed, and the state is rejected iff the least
    one is below ``-tol``; so a state is never rejected without an
    eigenvalue check, and a valid one costs no eigendecomposition.
    """
    arr, _ = _checked_density(rho, tol)
    _check_positive(arr, tol)
    return arr


def _checked_density(rho, tol: float) -> tuple[np.ndarray, float]:
    """``rho`` as C-contiguous complex128, and its Hermitian gap ``max|ρ − ρᴴ|``.

    Runs every check of :func:`validate_density` but positivity, in its
    order: shape, finite entries, Hermiticity, unit trace.
    """
    arr = np.ascontiguousarray(rho, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidStateError(f"state must be a square matrix, got shape {arr.shape}")
    herm_gap = _hermitian_gap(arr)
    # NaN compares False, so every tolerance check below would pass on it.
    if not _finite(arr, herm_gap):
        raise InvalidStateError("state has non-finite entries")
    if herm_gap > tol:
        raise InvalidStateError(f"state is not Hermitian (max deviation {herm_gap:.3e})")
    trace_gap = abs(complex(np.trace(arr)) - 1.0)
    if trace_gap > tol:
        raise InvalidStateError(f"state trace differs from 1 by {trace_gap:.3e}")
    return arr, herm_gap


def _finite(arr: np.ndarray, herm_gap: float) -> bool:
    """Whether every entry of ``arr``, whose Hermitian gap is ``herm_gap``, is finite.

    Entry (i, j) of ``a − aᴴ`` is not finite when ``a_ij`` is not (each of
    its parts takes one part of ``a_ij`` and one of ``a_ji``), and then
    neither is the gap; so a finite gap answers at once, and only a gap
    that is not, which finite entries give by overflow alone, needs the
    entries read again.
    """
    return math.isfinite(herm_gap) or bool(np.isfinite(arr).all())


def _check_positive(arr: np.ndarray, tol: float) -> None:
    """Raise unless the least eigenvalue of Hermitian ``arr`` is at least ``-tol``; see
    :func:`validate_density`."""
    # Cheaper than eigvalsh.  The factorization also fails at lambda_min =
    # -tol exactly, and by roundoff just above it, so the eigenvalues decide
    # every rejection.
    try:
        np.linalg.cholesky(arr + tol * np.eye(arr.shape[0]))
    except np.linalg.LinAlgError:
        eigmin = float(np.linalg.eigvalsh(arr)[0])
        if eigmin < -tol:
            raise InvalidStateError(f"state has negative eigenvalue {eigmin:.3e}") from None


#: Entries of ``a − aᴴ`` that :func:`_hermitian_gap` forms at a time.
_GAP_BLOCK = 8192


def _hermitian_gap(arr: np.ndarray) -> float:
    """``max|a − aᴴ|`` of a square complex matrix, 0 for an empty one; not
    finite when an entry is not (NaN wherever NumPy's maximum gives NaN).

    Entry (j, i) of ``a − aᴴ`` is minus the conjugate of entry (i, j), of the
    same modulus to the bit, so only the upper triangle is formed: a block
    of rows at a time, from column ``i`` on, in one small buffer.  Each
    entry and its modulus are computed as in the whole-matrix expression
    ``abs(a - a.conj().T)``, so the maximum is the same.  Where an entry is
    not finite, inf - inf is NaN with no warning: the entries' own check
    then speaks.
    """
    d = arr.shape[0]
    if d * d <= _GAP_BLOCK:
        # Small enough for one block: the whole-matrix expression is cheaper.
        with np.errstate(invalid="ignore"):
            return float(np.max(np.abs(arr - arr.conj().T))) if d else 0.0
    rows = max(1, _GAP_BLOCK // d)
    # One allocation: a complex block of differences, then their moduli.
    buffer = np.empty(3 * rows * d)
    diff, modulus = buffer[: 2 * rows * d].view(np.complex128), buffer[2 * rows * d :]
    gap = 0.0
    for lo in range(0, d, rows):
        shape = (min(d, lo + rows) - lo, d - lo)
        block = diff[: shape[0] * shape[1]].reshape(shape)
        np.conjugate(arr[lo:, lo : lo + shape[0]].T, out=block)
        with np.errstate(invalid="ignore"):
            np.subtract(arr[lo : lo + shape[0], lo:], block, out=block)
        peak = float(np.abs(block, out=modulus[: block.size].reshape(shape)).max())
        if math.isnan(peak):
            return peak
        gap = max(gap, peak)
    return gap


def random_pure_state(dim: int, rng=None) -> np.ndarray:
    """Density matrix of a Haar-random pure state in dimension ``dim``.

    A ``dim`` whose ``(dim, dim)`` result would exceed physical memory is
    refused with a ``ValueError`` before any draw.
    """
    dim = _integer(dim, "dim")
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    _refuse_oversize((dim, dim), np.complex128, f"dim={dim}")
    gen = as_generator(rng)
    vec = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def random_observable(
    dim: int, diag_weight: float, *, symmetric: bool = False, rng=None
) -> np.ndarray:
    """Random traceless Hermitian observable with unit Frobenius norm.

    The ensemble interpolates between purely diagonal and purely
    off-diagonal observables::

        O = w * D + sqrt(1 - w**2) * F

    where ``D`` is a traceless real diagonal matrix with ``||D||_2 = 1``
    (i.i.d. Gaussian entries, mean-projected) and ``F`` is a traceless
    purely off-diagonal Hermitian matrix with ``||F||_2 = 1`` (real
    symmetric when ``symmetric`` is set).  Because the two pieces are
    orthogonal, ``||O||_2 = 1`` for every ``w``.

    Parameters
    ----------
    dim : int
        Matrix dimension, at least 2; a ``ValueError`` refuses, before any
        draw, one whose result would exceed physical memory.
    diag_weight : float
        Interpolation weight ``w`` in [0, 1]; 1 gives a diagonal
        observable, 0 a purely off-diagonal one.
    symmetric : bool, optional
        Restrict the off-diagonal part to real symmetric matrices.
    rng : Generator, RngStream, int, or None, optional
        Randomness source.

    Returns
    -------
    (dim, dim) ndarray
        Real when ``symmetric`` is set, complex Hermitian otherwise.
    """
    dim = _integer(dim, "dim")
    if dim < 2:
        raise ValueError(f"observable ensemble needs dimension >= 2, got {dim}")
    if not 0.0 <= diag_weight <= 1.0:
        raise ValueError(f"diag_weight must lie in [0, 1], got {diag_weight}")
    _refuse_oversize((dim, dim), np.float64 if symmetric else np.complex128, f"dim={dim}")
    gen = as_generator(rng)
    diag = gen.standard_normal(dim)
    diag -= diag.mean()
    diag /= np.linalg.norm(diag)
    if symmetric:
        raw = gen.standard_normal((dim, dim))
        off = raw + raw.T
    else:
        raw = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        off = raw + raw.conj().T
    np.fill_diagonal(off, 0.0)
    off /= np.linalg.norm(off)
    out = diag_weight * np.diag(diag) + math.sqrt(1.0 - diag_weight**2) * off
    return np.real(out) if symmetric else out


@dataclass(frozen=True)
class ShadowRecord:
    """One stored protocol round: the measured row and the observed outcome.

    Attributes
    ----------
    row : (d,) ndarray
        Row ``V[w, :]`` of the ensemble element ``V`` applied before the
        computational-basis measurement, ``w`` the outcome: all that the
        estimator reads of ``V``.  Real for the real families and the
        degenerate quotients.
    outcome : int
        Measured basis index ``w`` in ``[0, d)``.
    """

    row: np.ndarray
    outcome: int


def sample_outcome(spec: SpaceSpec, rho: np.ndarray, rng=None) -> ShadowRecord:
    """Run one protocol round: draw ``V``, measure ``V rho V^†``, record the row read.

    Parameters
    ----------
    spec : SpaceSpec
        Measurement ensemble.
    rho : (d, d) array_like
        State to measure; validated to be a density matrix.
    rng : Generator, RngStream, int, or None, optional
        Randomness source for both the rotation draw and the outcome draw;
        it advances as in a streamed round.  ``V`` is never formed: the
        draw reveals only the directions the round reads.

    Raises
    ------
    InvalidStateError
        If ``rho`` fails validation or its dimension does not match ``spec``.
    """
    _, factor = _validated_state(spec, rho)
    _, outcomes, rows = _measure_batch(spec, factor, as_generator(rng), 1)
    return ShadowRecord(row=rows[0].copy(), outcome=int(outcomes[0]))


def _validated_state(spec: SpaceSpec, rho: np.ndarray):
    """Validate ``rho`` against ``spec``; return it with its low-rank factor.

    Raises what :func:`validate_density` raises, then, for a state of
    another dimension, the dimension error.  Positivity is settled by the
    factor where it can be.  LAPACK reads the lower triangle of ``rho``, so
    the matrix judged is H, that triangle made Hermitian.  With ``rho = F +
    R``, F the factor's part ``L diag(w) Lᴴ``, which is positive
    semidefinite, and R its residual, ``H = F + (R + Rᴴ)/2 + A`` where A
    holds half of ``rho_ij − conj(rho_ji)`` at ``i > j`` (and its conjugate
    at ``j, i``): so by Weyl's inequality no eigenvalue of H lies below
    ``-(‖R‖_F + ‖A‖_F)``, and ``‖A‖_F`` is at most half the Hermitian gap
    times ``sqrt(d(d − 1))``, 0 for a Hermitian ``rho``.  When that bound is
    at most ``DENSITY_TOL/2`` the state is accepted with no LAPACK call; the
    other half of the tolerance covers the factor's roundoff, O(d·ε) in
    all.  Otherwise :func:`validate_density`'s Cholesky-then-eigenvalue
    check decides, as it does for a state of another dimension, so the
    eigenvalues decide every rejection.
    """
    tol = DENSITY_TOL
    state, herm_gap = _checked_density(rho, tol)
    d = state.shape[0]
    if d != spec.dim:
        _check_positive(state, tol)
        raise InvalidStateError(
            f"state dimension {d} does not match ensemble dimension {spec.dim}"
        )
    weights, vectors, resid = _state_factor(state, floor=-tol)
    bound = 0.5 * herm_gap * math.sqrt(d * (d - 1))
    if resid is None or math.sqrt(np.vdot(resid, resid).real) + bound > 0.5 * tol:
        _check_positive(state, tol)
        if resid is None:
            weights, vectors, _ = _state_factor(state)
    return state, (weights, vectors)


def _state_factor(state: np.ndarray, floor: float = -math.inf):
    """Weights ``w`` and unit vectors ``L`` with ``state ≈ L diag(w) L^†``, and
    the residual ``state − L diag(w) L^†``.

    Pivoted Cholesky: each step takes the remaining column with the largest
    diagonal entry, so a rank-r state costs O(d² r) and a pure state gives
    r = 1.  It stops once every diagonal entry left is at most
    ``FACTOR_RTOL`` times the largest one of ``state``.  What it then drops
    is not bounded by the validation tolerance: a last pivot p beside an
    entry c leaves about −|c|²/p on the diagonal, −2.5e-9 (25 times
    ``DENSITY_TOL``) for the valid state diag(1 − 1e-12, 1e-12, 0) with c
    = 5e-11 at (1, 2), which the eigenvalue check accepts.  Each step
    only lowers the residual's diagonal, so once an entry is below
    ``floor`` no later step can bring it back: the factor then stops, and
    the residual is None.
    """
    resid = state
    diag = resid.diagonal().real.copy()
    stop = FACTOR_RTOL * float(diag.max())
    weights, vectors = [], []
    for _ in range(state.shape[0]):
        if diag.min() < floor:
            resid = None
            break
        j = int(np.argmax(diag))
        if diag[j] <= stop:
            break
        col = resid[:, j] / math.sqrt(diag[j])
        # The update is written over the outer product: state itself is
        # never written, and no copy of it is made.
        update = np.outer(col, col.conj())
        resid = np.subtract(resid, update, out=update)
        diag = resid.diagonal().real.copy()
        norm2 = float(np.vdot(col, col).real)
        weights.append(norm2)
        vectors.append(col / math.sqrt(norm2))
    return np.array(weights), (np.stack(vectors, axis=1) if vectors else None), resid


def _measure_batch(spec: SpaceSpec, factor, gen: np.random.Generator, count: int, workspace=None):
    """Run ``count`` protocol rounds on the state ``sum_k w_k u_k u_kᴴ``.

    Each round draws a rotation ``V`` and a uniform ``u``.  ``u`` picks
    the component ``k``, the first with cumulative weight ``W_k >= u``;
    then ``u' = u - W_{k-1}``, uniform on ``[0, w_k)``, picks the outcome
    from ``w_k |V u_k|²``.  So ``P(k, w | V) = w_k |<w|V u_k>|²``, whose
    sum over ``k`` is the Born law ``<w|V rho Vᴴ|w>``; for a pure state
    ``k = 0`` and ``u' = u``.  No rotation matrix is formed: the draw is
    applied to the chosen components and, for the outcome rows
    ``V[w, :]``, to the measured basis vectors, ``conj(Vᴴ e_w)``.

    The draw and every (d, count) array of the batch live in ``workspace``
    (a streamed call's, sized by :func:`_batch_bytes` for at least
    ``count`` rounds), or in a new one.  The rows are a view of it: they
    hold until the workspace is cleared for the next batch.

    Returns
    -------
    draw : EnsembleDraw
        The rotations, deferred: :meth:`EnsembleDraw.matrix` completes them.
    outcomes : (count,) int64 ndarray
    rows : (count, d) ndarray
        The outcome rows ``V[w, :]``; real for the real families and the
        degenerate quotients.
    """
    weights, vectors = factor
    d = spec.dim
    ws = _Workspace(_batch_bytes(spec, count)) if workspace is None else workspace
    draw = sample_point(spec, gen, count, dense=False)
    if isinstance(draw, EnsembleDraw):
        # Any other draw (sample_point replaced by a fixed rotation, say)
        # works in arrays of its own: the returned arrays are used.
        draw._use(ws)
    # V's dtype: a degenerate draw is the identity, whose rows are the real
    # basis vectors.
    dtype = np.float64 if spec.is_real or spec.is_degenerate else np.complex128
    uniforms = gen.random(count)
    # Registers are (d, count), batch axis last, as the draw's vectors are;
    # the kernels read their transposes.
    with ws:
        chosen = ws.take((d, count), vectors.dtype)
        if weights.size == 1:
            # k = 0 and u' = u - 0.0 = u: one component, one weight.
            scale = weights[0]
            chosen[...] = vectors
        else:
            cum = np.cumsum(weights)
            # The weights sum to tr(rho) only up to what the factor
            # dropped, which can exceed the validation tolerance (see
            # _state_factor); a uniform past the last cumulative weight
            # goes to the last component.
            k = np.minimum(np.searchsorted(cum, uniforms), weights.size - 1)
            uniforms -= np.concatenate(([0.0], cum[:-1]))[k]
            scale = weights[k, None]
            vectors.take(k, axis=1, out=chosen, mode="clip")
        rotated = draw.apply(chosen, ws.take((d, count), np.promote_types(chosen.dtype, dtype)))
        probs = _kernels.born_probs(rotated.T, out=ws.take((d, count), np.float64).T)
        _check_probabilities(probs)
        outcomes = _kernels.choose_outcomes(
            np.multiply(scale, probs, out=probs), uniforms, cum=ws.take((d, count), np.float64).T
        )
    rows = ws.take((d, count), dtype)
    with ws:
        basis = ws.take((d, count), np.float64)
        basis.fill(0.0)
        basis[outcomes, np.arange(count)] = 1.0
        rows = draw.apply_adjoint(basis, rows)
    if rows.dtype.kind == "c":
        np.conjugate(rows, out=rows)
    return draw, outcomes, rows.T


def _check_probabilities(probs: np.ndarray) -> None:
    """Assert each row of outcome probabilities sums to 1 within PROB_TOL."""
    gap = float(np.maximum.reduce(np.abs(np.add.reduce(probs, axis=1) - 1.0)))
    # Written so that a NaN gap fails.
    if not gap <= PROB_TOL:
        raise RuntimeError(
            f"outcome probabilities sum to 1 only within {gap:.3e}; "
            "the sampled rotation is not unitary to tolerance"
        )


@dataclass(frozen=True)
class EstimationReport:
    """Summary statistics of a batch of per-record estimates.

    Attributes
    ----------
    mean : float
        Empirical mean of the per-record estimates.
    variance : float
        Unbiased (ddof=1) sample variance of single-record estimates;
        ``nan`` for a single record.
    sem : float
        Standard error of the mean, ``sqrt(variance / n_samples)``.
    n_samples : int
        Number of records that entered the report.
    truth : float or None
        Reference value of the estimable target, when known.
    projected : bool
        True when the requested observable had a component outside the
        channel image; the estimate then targets the projected observable.
    """

    mean: float
    variance: float
    sem: float
    n_samples: int
    truth: float | None = None
    projected: bool = False


def _report_from_estimates(
    estimates: np.ndarray, truth: float | None, projected: bool
) -> EstimationReport:
    # The ufuncs of estimates.mean() and estimates.var(ddof=1), in their
    # order, without their Python wrappers: the same bits.
    n = int(estimates.size)
    mean = np.add.reduce(estimates) / n
    variance = math.nan
    if n > 1:
        dev = np.subtract(estimates, mean)
        variance = float(np.add.reduce(np.multiply(dev, dev, out=dev)) / (n - 1))
    return EstimationReport(
        mean=float(mean),
        variance=variance,
        sem=math.sqrt(variance / n),
        n_samples=n,
        truth=truth,
        projected=projected,
    )


def estimate_observable(
    records: Sequence[ShadowRecord],
    observable: np.ndarray,
    spec: SpaceSpec,
    truth: float | None = None,
) -> EstimationReport:
    """Estimate ``tr(rho O)`` from stored protocol rounds.

    The observable is split into its channel sectors once, which gives
    ``M⁺(O)`` and the projection flag; each record's row ``r = V[w, :]``
    then contributes ``<w| V M⁺(O) V† |w> = Re(r M⁺(O) r†)``, as in a
    streamed run.  When ``O`` has a component in the channel's null space
    the estimate targets the projection of ``O`` onto the image, and the
    report's ``projected`` flag is set.

    Parameters
    ----------
    records : sequence of ShadowRecord
        Nonempty batch of protocol rounds, all from ``spec``'s ensemble.
        Every record is checked before any arithmetic: its ``row`` must be
        a finite vector of shape ``(d,)`` and its ``outcome`` an integer in
        ``[0, d)``, else a ``ValueError`` names the record's index.
    observable : (d, d) array_like
        Hermitian observable.
    spec : SpaceSpec
        Measurement ensemble the records were drawn from.
    truth : float, optional
        Reference value to carry into the report.
    """
    batch = list(records)
    if not batch:
        raise ValueError("cannot estimate from an empty record list")
    rows = np.stack([_record_row(i, rec, spec.dim) for i, rec in enumerate(batch)])
    split = invert_channel(spec).split(_as_observable(observable, spec.dim))
    estimates = _kernels.row_quadratic(rows, split.inverse)
    return _report_from_estimates(estimates, truth, split.projected)


def _record_row(index: int, record: ShadowRecord, dim: int) -> np.ndarray:
    """The checked row of record ``index``; ``ValueError`` naming it otherwise."""
    row = np.asarray(record.row)
    # In this order, isfinite only sees numeric vectors.
    if not (row.shape == (dim,) and np.issubdtype(row.dtype, np.number) and np.isfinite(row).all()):
        raise ValueError(f"record {index}: row must be a finite vector of shape ({dim},)")
    w = record.outcome
    if isinstance(w, (bool, np.bool_)) or not isinstance(w, (int, np.integer)) or not 0 <= w < dim:
        raise ValueError(f"record {index}: outcome must be an integer in [0, {dim}), got {w!r}")
    return row


def _as_observable(observable: np.ndarray, dim: int) -> np.ndarray:
    arr = np.ascontiguousarray(observable, dtype=np.complex128)
    if arr.shape != (dim, dim):
        raise ValueError(f"observable shape {arr.shape} does not match dimension {dim}")
    herm_gap = _hermitian_gap(arr)
    if not _finite(arr, herm_gap):
        raise ValueError("observable has non-finite entries")
    if herm_gap > 1e-10:
        raise ValueError("observable must be Hermitian")
    return arr


def shadow_estimates(
    spec: SpaceSpec,
    rho: np.ndarray,
    observable: np.ndarray,
    n_shots: int,
    rng=None,
    batch_size: int | None = None,
) -> np.ndarray:
    """Per-shot estimates of ``tr(rho O)`` from a streamed protocol run.

    Equivalent to collecting ``n_shots`` records with
    :func:`sample_outcome` and evaluating them with
    :func:`estimate_observable` (with ``batch_size=1`` the two agree shot
    for shot on one generator), but drawn in batches.  No rotation matrix
    is formed, whatever the rank of ``rho``: each round measures one pure
    component of it (see :func:`_measure_batch`).

    Parameters
    ----------
    spec : SpaceSpec
        Measurement ensemble.
    rho : (d, d) array_like
        State to measure.
    observable : (d, d) array_like
        Hermitian observable.
    n_shots : int
        Number of protocol rounds; a ``ValueError`` refuses, before anything
        is allocated, a count whose output would exceed physical memory.
    rng : Generator, RngStream, int, or None, optional
        Randomness source.
    batch_size : int, optional
        Rounds drawn per batch; defaults to ``2_000_000 // d**2`` (at most
        ``n_shots``).  A batch holds O(d) numbers per round for every
        family: the directions its deferred draws revealed (a few
        length-``d`` vectors), a product register as large, the rotated
        component of ``rho`` and the outcome row.  The call allocates them
        once, as one workspace for its largest batch that every batch
        reuses: per round, 12 complex d-vectors (16·d bytes each) for U, O
        and SO, 15 for AIII and BDI, 18 for SP, 21 for AI, AII and DIII,
        23 for CII and 33 for CI (fewer at small d); 6 to 16.5 KiB per
        round at d = 32.  A ``ValueError`` naming ``batch_size`` refuses,
        before the state is checked, a batch whose workspace would exceed
        physical memory.

    Returns
    -------
    (n_shots,) float ndarray
        Single-record estimates, in draw order.
    """
    n_shots, batch_size, _, factor, _, split = _prepare(
        spec, rho, observable, n_shots, batch_size
    )
    return _streamed_estimates(spec, factor, split.inverse, n_shots, rng, batch_size)


def _prepare(spec: SpaceSpec, rho, observable, n_shots: int, batch_size):
    """Check the inputs of a streamed run once, the counts first.

    A count whose output, or a batch size whose workspace, would exceed
    physical memory is refused before the state is checked.

    Returns ``n_shots`` and ``batch_size`` as ints (the default batch filled
    in), the validated state, its low-rank factor, the checked observable
    ``O`` and its one sector split (:class:`~symshadows.channel.SectorSplit`:
    ``M⁺(O)``, the null-sector part of ``O`` and the projection flag).
    """
    n_shots = _integer(n_shots, "n_shots")
    if n_shots < 1:
        raise ValueError("n_shots must be at least 1")
    _refuse_oversize((n_shots,), np.float64, f"n_shots={n_shots}")
    if batch_size is None:
        batch_size = max(1, min(n_shots, 2_000_000 // (spec.dim * spec.dim)))
    batch_size = _integer(batch_size, "batch_size")
    if batch_size < 1:
        raise ValueError(f"batch_size must be a positive integer, got {batch_size}")
    rounds = min(batch_size, n_shots)
    _refuse_bytes(_batch_bytes(spec, rounds), f"batch_size={batch_size}",
                  f"the workspace of {rounds} rounds")
    state, factor = _validated_state(spec, rho)
    obs = _as_observable(observable, spec.dim)
    return n_shots, batch_size, state, factor, obs, invert_channel(spec).split(obs)


#: Complex d-vectors per round that :func:`_measure_batch` and the
#: estimator hold at once besides the draw's: the chosen component, its
#: image, and the probabilities and their cumulative sums, of a half each;
#: later the rows and the product of the quadratic form.
_MEASURE_VECTORS = 3


def _batch_bytes(spec: SpaceSpec, rounds: int) -> int:
    """Bytes of one workspace for batches of up to ``rounds`` rounds of ``spec``.

    ``(_MEASURE_VECTORS + c) · 16·d`` per round, with ``c`` the draw's
    frames, register and scratch in complex d-vectors.
    """
    return rounds * (_round_bytes(spec) + _MEASURE_VECTORS * 16 * spec.dim) + _SLACK


def _streamed_estimates(spec, factor, x, n_shots, rng, batch_size) -> np.ndarray:
    """Per-shot estimates from batches that all work in one workspace."""
    gen = as_generator(rng)
    out = np.empty(n_shots, dtype=np.float64)
    ws = _Workspace(_batch_bytes(spec, min(batch_size, n_shots)))
    done = 0
    while done < n_shots:
        count = min(batch_size, n_shots - done)
        ws.clear()
        _, _, rows = _measure_batch(spec, factor, gen, count, ws)
        product = ws.take((count, spec.dim), np.result_type(rows, x))
        out[done : done + count] = _kernels.row_quadratic(rows, x, product=product)
        done += count
    return out


def run_estimation(
    spec: SpaceSpec,
    rho: np.ndarray,
    observable: np.ndarray,
    n_shots: int,
    rng=None,
    batch_size: int | None = None,
    truth: float | None = None,
) -> EstimationReport:
    """Full pipeline: stream a protocol run and summarize it.

    When ``truth`` is not supplied it is computed as the trace pairing of
    ``rho`` with the projection of the observable onto the channel image —
    the quantity the estimator is actually unbiased for (equal to
    ``tr(rho O)`` whenever ``O`` lies in the image).  Outside its shots a
    call computes the O(d² r) low-rank factor of a rank-r state and does
    O(d²) more work: the state is checked and factored once, and the
    observable is checked and split into its channel sectors once.  The
    factor's residual R proves the state positive with no LAPACK call (no
    eigenvalue lies below ``-‖R‖_F``) unless the state sits near the
    positivity edge; there :func:`validate_density`'s Cholesky-then-eigenvalue
    check decides, and a rejected state raises what
    :func:`validate_density` raises.  The
    split gives ``M⁺(O)``, the ``projected`` flag and the truth
    ``tr(rho (O - N))``, N being the null-sector part of ``O``.  ``n_shots``
    must be at least 2, so that the report's variance and standard error
    exist.
    """
    if _integer(n_shots, "n_shots") < 2:
        raise ValueError("variance estimation needs n_shots >= 2")
    n_shots, batch_size, state, factor, obs, split = _prepare(
        spec, rho, observable, n_shots, batch_size
    )
    estimates = _streamed_estimates(spec, factor, split.inverse, n_shots, rng, batch_size)
    if truth is None:
        # In place: the null part is not read again.
        truth = float(np.vdot(state, np.subtract(obs, split.null, out=split.null)).real)
    return _report_from_estimates(estimates, truth, split.projected)


def median_of_means(per_record_estimates, n_batches: int) -> float:
    """Median of ``n_batches`` sequential batch means.

    The input is split into ``n_batches`` contiguous, nearly equal parts;
    ``n_batches=1`` reduces to the plain mean.  A standard robust
    aggregator: a single wild batch cannot move the median.
    """
    values = np.asarray(per_record_estimates, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot aggregate an empty estimate list")
    n_batches = _integer(n_batches, "n_batches")
    if not 1 <= n_batches <= values.size:
        raise ValueError(
            f"n_batches must lie in [1, {values.size}], got {n_batches}"
        )
    means = [float(chunk.mean()) for chunk in np.array_split(values, n_batches)]
    return float(np.median(means))


# --------------------------------------------------------------------------
# Variance sweep
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """Grid description for :func:`variance_sweep`.

    Attributes
    ----------
    dim : int
        Hilbert-space dimension shared by every row.
    families : tuple of str
        Ensemble families to sweep.
    signature_fractions : tuple of float
        Requested block-imbalance ratios ``c = s/d``; snapped per family to
        the nearest admissible signature, and ignored by families without
        block structure (which still emit one row per value so rows pair up
        across families).
    diag_weights : tuple of float
        Diagonal weights for :func:`random_observable`.
    n_instances : int
        Independent (state, observable) draws per grid cell.
    n_shots : int
        Protocol rounds per row.
    seed : int
        Root seed; every row derives its own independent stream.
    symmetric_observables : bool
        Restrict observables to real symmetric matrices.
    """

    dim: int
    families: tuple[str, ...] = ("AIII", "U", "BDI", "O")
    signature_fractions: tuple[float, ...] = (0.0,)
    diag_weights: tuple[float, ...] = (1.0,)
    n_instances: int = 10
    n_shots: int = 1000
    seed: int = 0
    symmetric_observables: bool = False


@dataclass(frozen=True)
class ResultRow:
    """One sweep cell: grid coordinates plus estimator statistics.

    ``p``, ``q``, ``s``, and ``c_actual`` are ``None`` for families without
    block structure.  ``empirical_variance`` is the single-shot estimator
    variance (ddof=1 over per-shot estimates), directly comparable to
    ``analytic_second_moment`` minus the squared target for traceless
    observables.
    """

    family: str
    d: int
    p: int | None
    q: int | None
    s: int | None
    c_requested: float
    c_actual: float | None
    diag_weight: float
    instance: int
    n_shots: int
    empirical_variance: float
    analytic_second_moment: float | None
    mean: float
    sem: float
    seed: int

    @property
    def was_snapped(self) -> bool:
        """True when the requested ratio was rounded to an admissible one."""
        return self.c_actual is not None and self.c_actual != self.c_requested


#: Exact column order of the sweep CSV schema: the fields of :class:`ResultRow`.
SWEEP_COLUMNS = tuple(field.name for field in fields(ResultRow))


def signature_for_fraction(
    family: str, dim: int, fraction: float
) -> tuple[int, int, int] | None:
    """Snap a requested imbalance ratio ``c = s/d`` to admissible blocks.

    Returns ``(p, q, s)`` with ``p - q = s`` for the block-structured
    families, choosing the admissible ``s`` nearest to ``fraction * dim``
    (ties resolve toward smaller ``|s|``, then toward ``p >= q``).  Returns
    ``None`` for families without block structure.  A non-finite
    ``fraction`` raises ``ValueError``.

    No admissible ``|s|/d`` exceeds 1, so ``fraction`` is clamped to
    [-1, 1] first: past 2⁵³/d, ``fraction * dim`` would be too coarse to
    tell the admissible ``s`` apart.
    """
    if not math.isfinite(fraction):
        raise ValueError(f"signature fraction must be finite, got {fraction}")
    total = _block_total(family, dim)
    if total is None:
        return None
    target = min(max(fraction, -1.0), 1.0) * dim
    best: int | None = None
    for s in range(-total, total + 1):
        if (s - total) % 2 != 0:
            continue
        if best is None or (abs(s - target), abs(s), -s) < (
            abs(best - target),
            abs(best),
            -best,
        ):
            best = s
    assert best is not None
    p = (total + best) // 2
    return p, total - p, best


def variance_sweep(config: SweepConfig) -> list[ResultRow]:
    """Tabulate estimator statistics over the full configuration grid.

    Every (family, fraction, weight, instance) cell produces one row.  The
    state depends only on the instance index and the observable only on
    (weight, instance), so rows with equal coordinates are paired across
    families and fractions — paired comparisons of estimator variance see
    identical targets.

    Returns rows in deterministic grid order
    (family-major, then fraction, weight, instance).
    """
    n_shots = _integer(config.n_shots, "n_shots")
    n_instances = _integer(config.n_instances, "n_instances")
    if n_shots < 2:
        raise ValueError("variance estimation needs n_shots >= 2")
    if n_instances < 1:
        raise ValueError("n_instances must be at least 1")
    # Build every grid cell's spec before any sampling, so an unknown family
    # or an inadmissible dimension fails at once.
    cells = []
    for fi, family in enumerate(config.families):
        for ci, fraction in enumerate(config.signature_fractions):
            blocks = signature_for_fraction(family, config.dim, fraction)
            if blocks is None:
                spec = make_space(family, config.dim)
                blocks, c_actual = (None, None, None), None
            else:
                spec = make_space(family, config.dim, p=blocks[0], q=blocks[1])
                c_actual = blocks[2] / config.dim
            cells.append((fi, ci, family, fraction, spec, blocks, c_actual))
    root = RngStream(config.seed)
    states = [
        random_pure_state(config.dim, root.child(10, inst))
        for inst in range(n_instances)
    ]
    observables = {
        (wi, inst): random_observable(
            config.dim,
            weight,
            symmetric=config.symmetric_observables,
            rng=root.child(11, wi, inst),
        )
        for wi, weight in enumerate(config.diag_weights)
        for inst in range(n_instances)
    }
    rows: list[ResultRow] = []
    for fi, ci, family, fraction, spec, (p, q, s), c_actual in cells:
        for wi, weight in enumerate(config.diag_weights):
            for inst in range(n_instances):
                estimates = shadow_estimates(
                    spec,
                    states[inst],
                    observables[wi, inst],
                    n_shots,
                    rng=root.child(12, fi, ci, wi, inst),
                )
                report = _report_from_estimates(estimates, None, False)
                analytic = analytic_second_moment(
                    states[inst], observables[wi, inst], spec
                )
                rows.append(
                    ResultRow(
                        family=family,
                        d=config.dim,
                        p=p,
                        q=q,
                        s=s,
                        c_requested=fraction,
                        c_actual=c_actual,
                        diag_weight=weight,
                        instance=inst,
                        n_shots=n_shots,
                        empirical_variance=report.variance,
                        analytic_second_moment=analytic,
                        mean=report.mean,
                        sem=report.sem,
                        seed=config.seed,
                    )
                )
    return rows
