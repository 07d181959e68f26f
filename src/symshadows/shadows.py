"""End-to-end randomized-measurement protocol built on the symmetric ensembles.

One protocol round draws a rotation ``V`` from the configured ensemble,
measures ``V rho V^†`` in the computational basis, and stores the pair
``(V, outcome)``.  Linear functionals ``tr(rho O)`` are then estimated by
applying the pseudo-inverse of the measurement channel to the *observable*
(the adjoint trick: the channel is self-adjoint in the Hilbert-Schmidt inner
product), so each record contributes a single quadratic form
``<w| V M⁺(O) V† |w>``.

The module also provides the observable ensemble used in the variance study
(a diagonal/off-diagonal interpolation with unit Frobenius norm) and the
sweep driver that tabulates empirical single-shot variances against the
closed-form second moments from :mod:`symshadows.variance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from .channel import apply_channel, invert_channel
from .rng import RngStream, as_generator
from .spaces import SpaceSpec, make_space, sample_point
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
        If the matrix is not square, not Hermitian, not unit trace, or has
        an eigenvalue below ``-tol``.
    """
    arr = np.ascontiguousarray(rho, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidStateError(f"state must be a square matrix, got shape {arr.shape}")
    herm_gap = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if herm_gap > tol:
        raise InvalidStateError(f"state is not Hermitian (max deviation {herm_gap:.3e})")
    trace_gap = abs(complex(np.trace(arr)) - 1.0)
    if trace_gap > tol:
        raise InvalidStateError(f"state trace differs from 1 by {trace_gap:.3e}")
    eigmin = float(np.linalg.eigvalsh(arr)[0])
    if eigmin < -tol:
        raise InvalidStateError(f"state has negative eigenvalue {eigmin:.3e}")
    return arr


def random_pure_state(dim: int, rng=None) -> np.ndarray:
    """Density matrix of a Haar-random pure state in dimension ``dim``."""
    if dim < 1:
        raise ValueError("dimension must be positive")
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
    if dim < 2:
        raise ValueError("observable ensemble needs dimension >= 2")
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

    Raises
    ------
    InvalidStateError
        If ``rho`` fails validation or its dimension does not match ``spec``.
    """
    state = validate_density(rho)
    if state.shape[0] != spec.dim:
        raise InvalidStateError(
            f"state dimension {state.shape[0]} does not match ensemble dimension {spec.dim}"
        )
    gen = as_generator(rng)
    v = np.ascontiguousarray(sample_point(spec, gen, size=1), dtype=np.complex128)
    probs = _kernels.born_probs(v, state)
    _check_probabilities(probs)
    np.clip(probs, 0.0, None, out=probs)
    outcome = int(_kernels.choose_outcomes(probs, gen.random(1))[0])
    return ShadowRecord(rotation=v[0], outcome=outcome)


def _check_probabilities(probs: np.ndarray) -> None:
    """Assert each row of outcome probabilities sums to 1 within PROB_TOL."""
    gap = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if gap > PROB_TOL:
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
        Unbiased (ddof=1) sample variance of single-record estimates.
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
    variance = float(estimates.var(ddof=1)) if n > 1 else 0.0
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

    The channel pseudo-inverse is applied once to the observable; each
    record then contributes ``<w| V M⁺(O) V† |w>``.  When ``O`` has a
    component in the channel's null space the estimate targets the
    projection of ``O`` onto the image, and the report's ``projected``
    flag is set.

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
    obs = _as_observable(observable, spec.dim)
    inverse = invert_channel(spec)
    x = np.ascontiguousarray(inverse.apply(obs))
    rows = np.ascontiguousarray(
        np.stack([np.asarray(rec.rotation)[rec.outcome] for rec in batch]),
        dtype=np.complex128,
    )
    estimates = _kernels.row_quadratic(rows, x)
    return _report_from_estimates(estimates, truth, inverse.is_projected(obs))


def _as_observable(observable: np.ndarray, dim: int) -> np.ndarray:
    arr = np.ascontiguousarray(observable, dtype=np.complex128)
    if arr.shape != (dim, dim):
        raise ValueError(f"observable shape {arr.shape} does not match dimension {dim}")
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
    :func:`estimate_observable`, but drawn in batches so the rotations are
    never all held in memory.

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
        Rounds drawn per batch; defaults to a size targeting tens of
        megabytes of rotation storage.

    Returns
    -------
    (n_shots,) float ndarray
        Single-record estimates, in draw order.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be at least 1")
    state = validate_density(rho)
    if state.shape[0] != spec.dim:
        raise InvalidStateError(
            f"state dimension {state.shape[0]} does not match ensemble dimension {spec.dim}"
        )
    obs = _as_observable(observable, spec.dim)
    x = np.ascontiguousarray(invert_channel(spec).apply(obs))
    gen = as_generator(rng)
    if batch_size is None:
        batch_size = max(1, min(int(n_shots), 2_000_000 // (spec.dim * spec.dim)))
    out = np.empty(n_shots, dtype=np.float64)
    done = 0
    while done < n_shots:
        count = min(batch_size, n_shots - done)
        v = np.ascontiguousarray(sample_point(spec, gen, size=count), dtype=np.complex128)
        probs = _kernels.born_probs(v, state)
        _check_probabilities(probs)
        np.clip(probs, 0.0, None, out=probs)
        outcomes = _kernels.choose_outcomes(probs, gen.random(count))
        rows = np.ascontiguousarray(v[np.arange(count), outcomes, :])
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
    ``tr(rho O)`` whenever ``O`` lies in the image).
    """
    estimates = shadow_estimates(
        spec, rho, observable, n_shots, rng=rng, batch_size=batch_size
    )
    obs = _as_observable(observable, spec.dim)
    inverse = invert_channel(spec)
    projected = inverse.is_projected(obs)
    if truth is None:
        target = apply_channel(spec, inverse.apply(obs))
        truth = float(np.trace(validate_density(rho) @ target).real)
    return _report_from_estimates(estimates, truth, projected)


def median_of_means(per_record_estimates, n_batches: int) -> float:
    """Median of ``n_batches`` sequential batch means.

    The input is split into ``n_batches`` contiguous, nearly equal parts;
    ``n_batches=1`` reduces to the plain mean.  A standard robust
    aggregator: a single wild batch cannot move the median.
    """
    values = np.asarray(per_record_estimates, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot aggregate an empty estimate list")
    if not 1 <= n_batches <= values.size:
        raise ValueError(
            f"n_batches must lie in [1, {values.size}], got {n_batches}"
        )
    means = [float(chunk.mean()) for chunk in np.array_split(values, n_batches)]
    return float(np.median(means))


# --------------------------------------------------------------------------
# Variance sweep
# --------------------------------------------------------------------------

#: Exact column order of the sweep CSV schema.
SWEEP_COLUMNS = (
    "family",
    "d",
    "p",
    "q",
    "s",
    "c_requested",
    "c_actual",
    "diag_weight",
    "instance",
    "n_shots",
    "empirical_variance",
    "analytic_second_moment",
    "mean",
    "sem",
    "seed",
)

_SIGNATURE_FAMILIES = ("AIII", "BDI", "CII")


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
    batch_size : int or None
        Forwarded to :func:`shadow_estimates`.
    """

    dim: int
    families: tuple[str, ...] = ("AIII", "U", "BDI", "O")
    signature_fractions: tuple[float, ...] = (0.0,)
    diag_weights: tuple[float, ...] = (1.0,)
    n_instances: int = 10
    n_shots: int = 1000
    seed: int = 0
    symmetric_observables: bool = False
    batch_size: int | None = None


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


def signature_for_fraction(
    family: str, dim: int, fraction: float
) -> tuple[int, int, int] | None:
    """Snap a requested imbalance ratio ``c = s/d`` to admissible blocks.

    Returns ``(p, q, s)`` with ``p - q = s`` for the block-structured
    families, choosing the admissible ``s`` nearest to ``fraction * dim``
    (ties resolve toward smaller ``|s|``, then toward ``p >= q``).  Returns
    ``None`` for families without block structure.
    """
    if family not in _SIGNATURE_FAMILIES:
        return None
    total = dim // 2 if family == "CII" else dim
    target = fraction * dim
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
    if config.n_shots < 2:
        raise ValueError("variance estimation needs n_shots >= 2")
    if config.n_instances < 1:
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
        for inst in range(config.n_instances)
    ]
    observables = {
        (wi, inst): random_observable(
            config.dim,
            weight,
            symmetric=config.symmetric_observables,
            rng=root.child(11, wi, inst),
        )
        for wi, weight in enumerate(config.diag_weights)
        for inst in range(config.n_instances)
    }
    rows: list[ResultRow] = []
    for fi, ci, family, fraction, spec, (p, q, s), c_actual in cells:
        for wi, weight in enumerate(config.diag_weights):
            for inst in range(config.n_instances):
                estimates = shadow_estimates(
                    spec,
                    states[inst],
                    observables[wi, inst],
                    config.n_shots,
                    rng=root.child(12, fi, ci, wi, inst),
                    batch_size=config.batch_size,
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
                        n_shots=config.n_shots,
                        empirical_variance=report.variance,
                        analytic_second_moment=analytic,
                        mean=report.mean,
                        sem=report.sem,
                        seed=config.seed,
                    )
                )
    return rows
