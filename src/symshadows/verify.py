"""Named self-check suites behind the ``verify`` command.

Each suite runs a fixed grid of structural and statistical checks and
returns one :class:`Check` record per check — name, statistic, threshold,
and pass flag — so reports are machine readable.  Statistical checks report
their deviation in standard-error units with a threshold of
``tol_sems`` (default 5); structural checks report a residual against an
absolute tolerance.

The module owns no estimator: each check calls an implementation that
exists for its own sake — :func:`~symshadows.spaces.structural_witness`
for the algebraic relations, the closed forms of :mod:`symshadows.channel`,
and the estimators of :mod:`symshadows.momentlab`, which draw through one
checked, byte-bounded loop.  A suite checks the families that
:func:`~symshadows.spaces.make_space` accepts at its dimension and skips
the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import momentlab
from .momentlab import _sem_deviation
from .channel import (
    apply_channel,
    build_superoperator,
    channel_spectrum,
    channel_weights,
    choi_matrix,
)
from .haar import _integer
from .rng import RngStream
from .spaces import ALL_FAMILIES, GROUP_FAMILIES, make_space, sample_point, structural_witness
from .variance import second_moment_coefficients

__all__ = ["CHECK_COLUMNS", "Check", "SUITES", "all_passed", "run_suite"]

SUITES = ("haar", "witness", "channel", "moments", "equivariance", "all")

CHECK_COLUMNS = ("suite", "name", "statistic", "threshold", "passed")


@dataclass(frozen=True)
class Check:
    """One named verification outcome."""

    suite: str
    name: str
    statistic: float
    threshold: float
    passed: bool


def _check(suite: str, name: str, statistic: float, threshold: float) -> Check:
    return Check(suite, name, float(statistic), float(threshold), statistic <= threshold)


def all_passed(checks) -> bool:
    """True when every record in ``checks`` passed."""
    return all(c.passed for c in checks)


def _specs(families, dim, space=None):
    """Specs at ``dim`` of the ``families`` that :func:`make_space` accepts.

    With ``space`` given only that family is kept, and the error
    :func:`make_space` raises for it, if any, propagates.
    """
    specs = []
    for fam in families:
        if space not in (None, fam):
            continue
        try:
            specs.append(make_space(fam, dim))
        except ValueError:
            if fam == space:
                raise
    return specs


def _suite_haar(dim, samples, seed, tol_sems):
    dim = 4 if dim is None else dim
    samples = 200_000 if samples is None else samples
    checks = []
    root = RngStream(seed, (1,))
    for gi, spec in enumerate(_specs(GROUP_FAMILIES, dim)):
        label = spec.label()
        witness = structural_witness(spec, sample_point(spec, root.child(gi, 0), size=128))
        checks.append(_check("haar", f"structure/{label}", witness.residual, witness.tol))
        # entry moments of V_00 against the closed forms for each group
        targets = [(f"E|V00|^2/{label}", (0, 0), 2, 1.0 / dim)]
        if spec.family == "U":
            targets.append((f"E|V00|^4/{label}", (0, 0), 4, 2.0 / (dim * (dim + 1))))
        if spec.family == "O":
            targets.append((f"E V00^4/{label}", (0, 0), 4, 3.0 / (dim * (dim + 2))))
        for chk in momentlab.entry_moments(spec, targets, samples, root.child(gi, 1)):
            checks.append(_check("haar", chk.name, chk.deviation_sems, tol_sems))
    return checks


def _suite_witness(space, dim, seed):
    dim = 4 if dim is None else dim
    specs = _specs(ALL_FAMILIES, dim, space)
    checks = []
    root = RngStream(seed, (2,))
    for fi, spec in enumerate(specs):
        v = sample_point(spec, root.child(fi), size=64)
        result = structural_witness(spec, v)
        checks.append(
            _check("witness", f"structure/{spec.label()}", result.residual, result.tol)
        )
    # a degenerate quotient collapses to the identity matrix
    if any(spec.family == "AIII" for spec in specs):
        spec = make_space("AIII", dim, p=dim, q=0)
        v = sample_point(spec, root.child(99), size=8)
        resid = float(np.max(np.abs(v - np.eye(dim))))
        checks.append(_check("witness", f"degenerate-identity/{spec.label()}", resid, 0.0))
    return checks


def _eigenvalue_identity_residual(max_dim=32) -> float:
    """Exact cross-check of sector eigenvalues against channel weights."""
    worst = Fraction(0)
    for fam in ("AIII", "BDI"):
        for d in range(3, max_dim + 1):
            total = d
            for s in range(d % 2, d + 1, 2):
                p = (total + s) // 2
                spec = make_space(fam, d, p=p, q=total - p)
                coeff = second_moment_coefficients(fam, d, s)
                weights = channel_weights(spec)
                parent_gap = Fraction(1, d + 1) if fam == "AIII" else Fraction(2, d + 2)
                expected_off = (1 - weights.mixing_weight) * parent_gap
                worst = max(worst, abs(coeff.offdiag_eigenvalue - expected_off))
                worst = max(
                    worst,
                    abs(coeff.diag_eigenvalue - (expected_off + weights.mixing_weight)),
                )
    return float(worst)


def _suite_channel(space, dim, samples, seed, tol_sems):
    dim = 4 if dim is None else dim
    samples = 200_000 if samples is None else samples
    checks = [
        _check("channel", "eigenvalue-identities/AIII+BDI", _eigenvalue_identity_residual(), 0.0)
    ]
    for spec in _specs(ALL_FAMILIES, dim, space):
        s = build_superoperator(spec)
        numeric = np.sort(np.linalg.eigvalsh(s))[::-1]
        dense = channel_spectrum(spec).dense()
        checks.append(
            _check(
                "channel",
                f"spectrum/{spec.label()}",
                float(np.max(np.abs(numeric - dense))),
                1e-10,
            )
        )
        choi_min = float(np.linalg.eigvalsh(choi_matrix(spec))[0])
        checks.append(
            _check("channel", f"choi-psd/{spec.label()}", max(0.0, -choi_min), 1e-10)
        )
    # Monte-Carlo fit of the mixing weight for one quotient ensemble
    for spec in _specs([space or "AI"], dim, space):
        if spec.is_group:
            continue
        fit = momentlab.fit_channel_coefficients(spec, samples, RngStream(seed, (3, 0)))
        target = float(channel_weights(spec).mixing_weight)
        dev = float(_sem_deviation(fit.mixing_weight, target, fit.mixing_weight_sem))
        checks.append(_check("channel", f"fit-mixing-weight/{spec.label()}", dev, tol_sems))
    # Monte-Carlo single-matrix channel action against the closed form
    for spec in _specs(("CI", "BDI"), dim, space):
        gen = RngStream(seed, (3, 1)).generator()
        raw = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        a = (raw + raw.conj().T) / 2
        est = momentlab.mc_channel(spec, a, min(samples, 200_000), RngStream(seed, (3, 2)))
        exact = apply_channel(spec, a)
        dev = float(np.max(_sem_deviation(est.mean, exact, est.sem)))
        checks.append(_check("channel", f"mc-channel/{spec.label()}", dev, tol_sems))
    return checks


def _suite_moments(space, dim, samples, seed, tol_sems):
    samples = 1_000_000 if samples is None else samples
    checks = []
    worst = 0
    for k in range(1, 7):
        count = len(momentlab.pair_partitions(k))
        expected = 1
        for odd in range(1, 2 * k, 2):
            expected *= odd
        worst = max(worst, abs(count - expected))
    checks.append(_check("moments", "pair-partition-counts/k<=6", float(worst), 0.0))
    # The tensor runs first: it refuses a size it cannot hold before any
    # draw, so a large --dim fails before the identities sample.
    tensors = [
        (spec, momentlab.mc_moment_tensor(spec, min(samples, 200_000), RngStream(seed, (4, 1))))
        for spec in _specs([space or "AI"], 3 if dim is None else dim, space)
    ]
    for spec in _specs(["AI"], 2 if dim is None else dim, space):
        for chk in momentlab.moment_identities_ai(spec.dim, samples, RngStream(seed, (4, 0))):
            checks.append(
                _check("moments", f"{spec.label()}/{chk.name}", chk.deviation_sems, tol_sems)
            )
    for spec, tensor in tensors:
        d = spec.dim
        truth = build_superoperator(spec).reshape(d, d, d, d).transpose(2, 3, 0, 1)
        dev = float(np.max(_sem_deviation(tensor.mean, truth, tensor.sem)))
        checks.append(_check("moments", f"tensor-vs-channel/{spec.label()}", dev, tol_sems))
    return checks


def _suite_equivariance(space, dim, samples, seed, tol_sems):
    d = 4 if dim is None else dim
    samples = 100_000 if samples is None else samples
    checks = []
    for fi, spec in enumerate(_specs(ALL_FAMILIES, d, space)):
        resid = momentlab.h_equivariance_check(
            spec, n_trials=25, rng=RngStream(seed, (5, fi))
        )
        checks.append(_check("equivariance", f"exact/{spec.label()}", resid, 1e-12))
    mc_specs = []
    if space is None and dim is None:
        mc_specs = [make_space("AI", 3), make_space("AIII", 4)]
    elif space is None:
        mc_specs = _specs(("AI", "AIII"), dim)
    elif space not in GROUP_FAMILIES:
        mc_specs = [make_space(space, d)]
    for si, spec in enumerate(mc_specs):
        report = momentlab.k_equivariance_check(
            spec, samples, RngStream(seed, (5, 50 + si))
        )
        checks.append(
            _check("equivariance", f"mc/{spec.label()}", report.max_sems, tol_sems)
        )
    return checks


def run_suite(
    suite: str,
    *,
    space: str | None = None,
    dim: int | None = None,
    samples: int | None = None,
    seed: int = 0,
    tol_sems: float = 5.0,
) -> list[Check]:
    """Run one named suite (or ``all``) and return its check records.

    Parameters
    ----------
    suite : str
        One of :data:`SUITES`.
    space : str, optional
        Restrict family-parameterized checks to one family.
    dim : int, optional
        Override the default dimension of the checks that take one; at
        least 1.  Families that :func:`make_space` rejects at a suite's
        dimension are skipped, except a named ``space``.
    samples : int, optional
        Override the Monte-Carlo sample budget; at least 2.
    seed : int, optional
        Root seed; the report is deterministic given the seed.
    tol_sems : float, optional
        Threshold, in standard errors, for the statistical checks; finite
        and positive.
    """
    if not (math.isfinite(tol_sems) and tol_sems > 0):
        raise ValueError(f"tol_sems must be finite and positive, got {tol_sems}")
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if space is not None and space not in ALL_FAMILIES:
        raise ValueError(f"unknown family {space!r}")
    samples = None if samples is None else _integer(samples, "samples")
    if samples is not None and samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    dim = None if dim is None else _integer(dim, "dim")
    if dim is not None and dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if suite == "all":
        checks = []
        for name in SUITES[:-1]:
            checks.extend(
                run_suite(
                    name, space=space, dim=dim, samples=samples, seed=seed, tol_sems=tol_sems
                )
            )
        return checks
    if suite == "haar":
        return _suite_haar(dim, samples, seed, tol_sems)
    if suite == "witness":
        return _suite_witness(space, dim, seed)
    if suite == "channel":
        return _suite_channel(space, dim, samples, seed, tol_sems)
    if suite == "moments":
        return _suite_moments(space, dim, samples, seed, tol_sems)
    return _suite_equivariance(space, dim, samples, seed, tol_sems)
