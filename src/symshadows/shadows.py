"""End-to-end randomized-measurement protocol built on the symmetric ensembles.

One protocol round draws a rotation ``V`` from the configured ensemble,
measures ``V rho V^†`` in the computational basis, and stores the pair
``(V, outcome)``.  The Born law ``<w|V rho V^†|w>`` is linear in ``rho``,
so a round first picks one pure component ``u_k`` of
``rho = sum_k w_k u_k u_k^†`` with probability ``w_k`` and then measures
``V u_k``: the pair ``(V, outcome)`` has the same law, at every rank.  The
streamed estimator never forms ``V``: it applies the draw to the chosen
component for the Born probabilities and to the measured basis vector for
the outcome row.  The draw is deferred (:mod:`symshadows.haar`): it reveals
only the directions these two vectors read, so a shot draws a few fresh
Gaussian d-vectors and costs O(d) per revealed direction, for every family.
Linear functionals ``tr(rho O)`` are then estimated by applying the
pseudo-inverse of the measurement channel to the *observable* (the adjoint
trick: the channel is self-adjoint in the Hilbert-Schmidt inner product),
so each record contributes a single quadratic form
``<w| V M⁺(O) V† |w>``.

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
from .haar import _integer
from .rng import RngStream, as_generator
from .spaces import SpaceSpec, _block_total, make_space, sample_point
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
        C-contiguous complex copy of the validated input.

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
    arr = np.ascontiguousarray(rho, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidStateError(f"state must be a square matrix, got shape {arr.shape}")
    # NaN compares False, so every tolerance check below would pass on it.
    if not np.isfinite(arr).all():
        raise InvalidStateError("state has non-finite entries")
    herm_gap = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if herm_gap > tol:
        raise InvalidStateError(f"state is not Hermitian (max deviation {herm_gap:.3e})")
    trace_gap = abs(complex(np.trace(arr)) - 1.0)
    if trace_gap > tol:
        raise InvalidStateError(f"state trace differs from 1 by {trace_gap:.3e}")
    # Cheaper than eigvalsh; see Notes.  The factorization also fails at
    # lambda_min = -tol exactly, and by roundoff just above it, so the
    # eigenvalues decide every rejection.
    try:
        np.linalg.cholesky(arr + tol * np.eye(arr.shape[0]))
    except np.linalg.LinAlgError:
        eigmin = float(np.linalg.eigvalsh(arr)[0])
        if eigmin < -tol:
            raise InvalidStateError(f"state has negative eigenvalue {eigmin:.3e}") from None
    return arr


def random_pure_state(dim: int, rng=None) -> np.ndarray:
    """Density matrix of a Haar-random pure state in dimension ``dim``."""
    dim = _integer(dim, "dim")
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
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
        Matrix dimension, at least 2.
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
    """One stored protocol round: the drawn rotation and the observed outcome.

    Attributes
    ----------
    rotation : (d, d) ndarray
        Ensemble element ``V`` applied before the computational-basis
        measurement.
    outcome : int
        Measured basis index in ``[0, d)``.
    """

    rotation: np.ndarray
    outcome: int


def sample_outcome(spec: SpaceSpec, rho: np.ndarray, rng=None) -> ShadowRecord:
    """Run one protocol round: draw ``V``, measure ``V rho V^†``, record both.

    Parameters
    ----------
    spec : SpaceSpec
        Measurement ensemble.
    rho : (d, d) array_like
        State to measure; validated to be a density matrix.
    rng : Generator, RngStream, int, or None, optional
        Randomness source for both the rotation draw and the outcome draw.
        The recorded rotation completes the measured draw from a stream
        spawned off ``rng``, so ``rng`` advances as in a streamed round.

    Raises
    ------
    InvalidStateError
        If ``rho`` fails validation or its dimension does not match ``spec``.
    """
    _, factor = _validated_state(spec, rho)
    draw, outcomes, _ = _measure_batch(spec, factor, as_generator(rng), 1)
    rotation = np.ascontiguousarray(draw.matrix()[0], dtype=np.complex128)
    return ShadowRecord(rotation=rotation, outcome=int(outcomes[0]))


def _validated_state(spec: SpaceSpec, rho: np.ndarray):
    """Validate ``rho`` against ``spec``; return it with its low-rank factor."""
    state = validate_density(rho)
    if state.shape[0] != spec.dim:
        raise InvalidStateError(
            f"state dimension {state.shape[0]} does not match ensemble dimension {spec.dim}"
        )
    return state, _state_factor(state)


def _state_factor(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights ``w`` and unit vectors ``L`` with ``state = L diag(w) L^†``.

    Pivoted Cholesky: each step takes the remaining column with the largest
    diagonal entry, so a rank-r state costs O(d² r) and a pure state gives
    r = 1.  It stops once every diagonal entry left is at most
    ``FACTOR_RTOL`` times the largest one of ``state``; for a validated
    state what is dropped is below the validation tolerance.
    """
    resid = state.copy()
    diag = resid.diagonal().real.copy()
    stop = FACTOR_RTOL * float(diag.max())
    weights, vectors = [], []
    for _ in range(state.shape[0]):
        j = int(np.argmax(diag))
        if diag[j] <= stop:
            break
        col = resid[:, j] / math.sqrt(diag[j])
        resid -= np.outer(col, col.conj())
        diag = resid.diagonal().real.copy()
        norm2 = float(np.vdot(col, col).real)
        weights.append(norm2)
        vectors.append(col / math.sqrt(norm2))
    return np.array(weights), np.stack(vectors, axis=1)


def _measure_batch(spec: SpaceSpec, factor, gen: np.random.Generator, count: int):
    """Run ``count`` protocol rounds on the state ``sum_k w_k u_k u_kᴴ``.

    Each round draws a rotation ``V`` and a uniform ``u``.  ``u`` picks
    the component ``k``, the first with cumulative weight ``W_k >= u``;
    then ``u' = u - W_{k-1}``, uniform on ``[0, w_k)``, picks the outcome
    from ``w_k |V u_k|²``.  So ``P(k, w | V) = w_k |<w|V u_k>|²``, whose
    sum over ``k`` is the Born law ``<w|V rho Vᴴ|w>``; for a pure state
    ``k = 0`` and ``u' = u``.  No rotation matrix is formed: the draw is
    applied to the chosen components and, for the outcome rows
    ``V[w, :]``, to the measured basis vectors, ``conj(Vᴴ e_w)``.

    Returns
    -------
    draw : EnsembleDraw
        The rotations; :meth:`EnsembleDraw.matrix` completes them as matrices.
    outcomes : (count,) int64 ndarray
    rows : (count, d) complex ndarray
    """
    weights, vectors = factor
    draw = sample_point(spec, gen, count, dense=False)
    uniforms = gen.random(count)
    cum = np.cumsum(weights)
    # The weights sum to tr(rho) only within the validation tolerance; a
    # uniform past the last cumulative weight goes to the last component.
    k = np.minimum(np.searchsorted(cum, uniforms), weights.size - 1)
    uniforms -= np.concatenate(([0.0], cum[:-1]))[k]
    rotated = draw.apply(vectors[:, k])
    probs = _kernels.born_probs(rotated.T)
    _check_probabilities(probs)
    outcomes = _kernels.choose_outcomes(weights[k, None] * probs, uniforms)
    basis = np.zeros((spec.dim, count))
    basis[outcomes, np.arange(count)] = 1.0
    rows = draw.apply_adjoint(basis).conj().T
    return draw, outcomes, rows


def _check_probabilities(probs: np.ndarray) -> None:
    """Assert each row of outcome probabilities sums to 1 within PROB_TOL."""
    gap = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
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
    n = int(estimates.size)
    mean = float(estimates.mean())
    variance = float(estimates.var(ddof=1)) if n > 1 else math.nan
    return EstimationReport(
        mean=mean,
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
    ``M⁺(O)`` and the projection flag; each record then contributes
    ``<w| V M⁺(O) V† |w>``.  When ``O`` has a component in the channel's
    null space the estimate targets the projection of ``O`` onto the image,
    and the report's ``projected`` flag is set.

    Parameters
    ----------
    records : sequence of ShadowRecord
        Nonempty batch of protocol rounds, all from ``spec``'s ensemble.
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
    split = invert_channel(spec).split(_as_observable(observable, spec.dim))
    rows = np.ascontiguousarray(
        np.stack([np.asarray(rec.rotation)[rec.outcome] for rec in batch]),
        dtype=np.complex128,
    )
    estimates = _kernels.row_quadratic(rows, split.inverse)
    return _report_from_estimates(estimates, truth, split.projected)


def _as_observable(observable: np.ndarray, dim: int) -> np.ndarray:
    arr = np.ascontiguousarray(observable, dtype=np.complex128)
    if arr.shape != (dim, dim):
        raise ValueError(f"observable shape {arr.shape} does not match dimension {dim}")
    if not np.isfinite(arr).all():
        raise ValueError("observable has non-finite entries")
    if float(np.max(np.abs(arr - arr.conj().T))) > 1e-10:
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
        Number of protocol rounds.
    rng : Generator, RngStream, int, or None, optional
        Randomness source.
    batch_size : int, optional
        Rounds drawn per batch; defaults to ``2_000_000 // d**2`` (at most
        ``n_shots``).  A batch holds O(d) numbers per round for every
        family: the directions its deferred draws revealed (a few
        length-``d`` vectors), the rotated component of ``rho`` and the
        outcome row.

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

    Returns ``n_shots`` and ``batch_size`` as ints (the default batch filled
    in), the validated state, its low-rank factor, the checked observable
    ``O`` and its one sector split (:class:`~symshadows.channel.SectorSplit`:
    ``M⁺(O)``, the null-sector part of ``O`` and the projection flag).
    """
    n_shots = _integer(n_shots, "n_shots")
    if n_shots < 1:
        raise ValueError("n_shots must be at least 1")
    if batch_size is None:
        batch_size = max(1, min(n_shots, 2_000_000 // (spec.dim * spec.dim)))
    batch_size = _integer(batch_size, "batch_size")
    if batch_size < 1:
        raise ValueError(f"batch_size must be a positive integer, got {batch_size}")
    state, factor = _validated_state(spec, rho)
    obs = _as_observable(observable, spec.dim)
    return n_shots, batch_size, state, factor, obs, invert_channel(spec).split(obs)


def _streamed_estimates(spec, factor, x, n_shots, rng, batch_size) -> np.ndarray:
    gen = as_generator(rng)
    out = np.empty(n_shots, dtype=np.float64)
    done = 0
    while done < n_shots:
        count = min(batch_size, n_shots - done)
        _, _, rows = _measure_batch(spec, factor, gen, count)
        out[done : done + count] = _kernels.row_quadratic(rows, x)
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
    call does one Cholesky factorization, the O(d² r) low-rank factor of a
    rank-r state, and O(d²) more work: the state is validated (no
    eigendecomposition unless it sits at the positivity edge, see
    :func:`validate_density`) and factored once, and the observable is
    checked and split into its channel sectors once.  That split gives
    ``M⁺(O)``, the ``projected`` flag and the truth ``tr(rho (O - N))``,
    N being the null-sector part of ``O``.  ``n_shots`` must be at least 2,
    so that the report's variance and standard error exist.
    """
    if _integer(n_shots, "n_shots") < 2:
        raise ValueError("variance estimation needs n_shots >= 2")
    n_shots, batch_size, state, factor, obs, split = _prepare(
        spec, rho, observable, n_shots, batch_size
    )
    estimates = _streamed_estimates(spec, factor, split.inverse, n_shots, rng, batch_size)
    if truth is None:
        truth = float(np.vdot(state, obs - split.null).real)
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
