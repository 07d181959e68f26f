"""End-to-end estimator pipeline, aggregation, and the variance sweep."""

import numpy as np
import pytest

from symshadows import shadows
from symshadows.rng import RngStream
from symshadows.shadows import (
    EstimationReport,
    InvalidStateError,
    ShadowRecord,
    SweepConfig,
    estimate_observable,
    median_of_means,
    random_observable,
    random_pure_state,
    run_estimation,
    sample_outcome,
    shadow_estimates,
    signature_for_fraction,
    validate_density,
    variance_sweep,
)
from symshadows.spaces import make_space


def _state(d, seed):
    return random_pure_state(d, RngStream(seed))


def _traceless_observable(d, seed):
    return random_observable(d, 0.5, rng=RngStream(seed))


# ----------------------------------------------------------- state handling


def test_validate_density_accepts_and_normalizes():
    rho = validate_density(np.eye(3) / 3)
    assert rho.dtype == np.complex128
    assert rho.flags["C_CONTIGUOUS"]


def test_validate_density_rejections():
    with pytest.raises(InvalidStateError):
        validate_density(np.ones((2, 3)))
    with pytest.raises(InvalidStateError):
        herm_broken = np.array([[0.5, 0.2], [0.3, 0.5]], dtype=complex)
        validate_density(herm_broken)
    with pytest.raises(InvalidStateError):
        validate_density(np.eye(2))  # trace 2
    with pytest.raises(InvalidStateError):
        validate_density(np.diag([1.5, -0.5]).astype(complex))
    assert issubclass(InvalidStateError, ValueError)


def test_random_pure_state_is_rank_one_projector():
    rho = _state(5, 60)
    assert np.trace(rho) == pytest.approx(1.0)
    np.testing.assert_allclose(rho @ rho, rho, atol=1e-14)
    np.testing.assert_array_equal(rho, _state(5, 60))
    with pytest.raises(ValueError):
        random_pure_state(0)


@pytest.mark.parametrize("weight", [0.0, 0.3, 1.0])
def test_random_observable_invariants(weight):
    obs = random_observable(6, weight, rng=RngStream(61))
    assert abs(np.trace(obs)) < 1e-13
    np.testing.assert_allclose(obs, obs.conj().T, atol=1e-14)
    assert np.linalg.norm(obs) == pytest.approx(1.0, abs=1e-13)
    diag_norm = np.linalg.norm(np.diag(obs))
    assert diag_norm == pytest.approx(weight, abs=1e-13)


def test_random_observable_symmetric_flag():
    obs = random_observable(4, 0.5, symmetric=True, rng=RngStream(62))
    assert not np.iscomplexobj(obs)
    np.testing.assert_allclose(obs, obs.T, atol=1e-14)


def test_random_observable_rejects_bad_arguments():
    with pytest.raises(ValueError):
        random_observable(1, 0.5)
    with pytest.raises(ValueError):
        random_observable(4, 1.5)
    with pytest.raises(ValueError):
        random_observable(4, -0.1)


# -------------------------------------------------------------- single shot


def test_sample_outcome_record_contents():
    spec = make_space("U", 3)
    rec = sample_outcome(spec, _state(3, 63), RngStream(64))
    assert isinstance(rec, ShadowRecord)
    assert rec.rotation.shape == (3, 3)
    assert 0 <= rec.outcome < 3
    again = sample_outcome(spec, _state(3, 63), RngStream(64))
    np.testing.assert_array_equal(rec.rotation, again.rotation)
    assert rec.outcome == again.outcome


def test_sample_outcome_degenerate_quotient_is_classical():
    # one-sided signature: the rotation is always the identity, so outcomes
    # follow the diagonal of rho directly
    spec = make_space("AIII", 2, 2, 0)
    rho = np.diag([0.25, 0.75]).astype(complex)
    stream = RngStream(65)
    hits = 0
    n = 400
    for i in range(n):
        rec = sample_outcome(spec, rho, stream.child(i))
        np.testing.assert_array_equal(rec.rotation, np.eye(2))
        hits += rec.outcome
    sem = np.sqrt(0.75 * 0.25 / n)
    assert abs(hits / n - 0.75) <= 5 * sem


def test_sample_outcome_rejects_bad_state():
    with pytest.raises(InvalidStateError):
        sample_outcome(make_space("U", 2), np.eye(2), RngStream(0))


def test_estimate_observable_matches_manual_contraction():
    spec = make_space("U", 3)
    rho = _state(3, 66)
    obs = _traceless_observable(3, 67)
    stream = RngStream(68)
    records = [sample_outcome(spec, rho, stream.child(i)) for i in range(8)]
    report = estimate_observable(records, obs, spec)
    from symshadows.channel import invert_channel

    x = invert_channel(spec).apply(obs)
    manual = np.array(
        [
            (rec.rotation[rec.outcome] @ x @ rec.rotation[rec.outcome].conj()).real
            for rec in records
        ]
    )
    assert report.mean == pytest.approx(manual.mean(), rel=1e-12)
    assert report.variance == pytest.approx(manual.var(ddof=1), rel=1e-12)
    assert report.sem == pytest.approx(
        np.sqrt(report.variance / report.n_samples), rel=1e-12
    )
    assert report.n_samples == 8
    assert not report.projected


def test_estimate_observable_error_paths():
    spec = make_space("U", 3)
    obs = _traceless_observable(3, 69)
    with pytest.raises(ValueError):
        estimate_observable([], obs, spec)
    rec = sample_outcome(spec, _state(3, 70), RngStream(71))
    with pytest.raises(ValueError):
        estimate_observable([rec], np.eye(4), spec)
    non_hermitian = np.triu(np.ones((3, 3)))
    with pytest.raises(ValueError):
        estimate_observable([rec], non_hermitian, spec)


def test_estimate_observable_flags_null_space_components():
    spec = make_space("BDI", 4, 2, 2)
    rho = _state(4, 72)
    anti = np.zeros((4, 4), dtype=complex)
    anti[0, 1], anti[1, 0] = 1j, -1j  # Hermitian, antisymmetric => null space
    stream = RngStream(73)
    records = [sample_outcome(spec, rho, stream.child(i)) for i in range(4)]
    report = estimate_observable(records, anti, spec)
    assert report.projected
    # the null component is annihilated: every per-record estimate is zero
    assert report.mean == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------------ streamed runs


def test_shadow_estimates_deterministic_and_batch_shaped():
    spec = make_space("AIII", 4, 2, 2)
    rho = _state(4, 74)
    obs = _traceless_observable(4, 75)
    a = shadow_estimates(spec, rho, obs, 300, RngStream(76), batch_size=128)
    b = shadow_estimates(spec, rho, obs, 300, RngStream(76), batch_size=128)
    assert a.shape == (300,)
    np.testing.assert_array_equal(a, b)


def test_identity_observable_estimates_are_constant():
    # M+(1) = 1 and each row of V is a unit vector, so every per-shot value
    # is 1 up to orthonormalization roundoff
    spec = make_space("CI", 4)
    values = shadow_estimates(
        spec, _state(4, 77), np.eye(4), 500, RngStream(78)
    )
    assert abs(values.mean() - 1.0) <= 1e-14
    assert values.var() <= 1e-28


def test_shadow_estimates_unbiased_quick():
    spec = make_space("U", 4)
    rho = _state(4, 79)
    obs = _traceless_observable(4, 80)
    values = shadow_estimates(spec, rho, obs, 20_000, RngStream(81))
    truth = float(np.trace(rho @ obs).real)
    sem = values.std(ddof=1) / np.sqrt(values.size)
    assert abs(values.mean() - truth) <= 5 * sem


def test_run_estimation_fills_truth_with_image_projection():
    spec = make_space("BDI", 4, 2, 2)
    rho = _state(4, 82)
    obs = _traceless_observable(4, 83)  # generic: has an antisymmetric part
    report = run_estimation(spec, rho, obs, 200, RngStream(84))
    assert isinstance(report, EstimationReport)
    assert report.projected
    sym = (obs + obs.T) / 2
    projected_truth = run_estimation(spec, rho, sym, 200, RngStream(84)).truth
    assert report.truth == pytest.approx(projected_truth, rel=1e-10)


def test_run_estimation_truth_equals_expectation_in_image():
    spec = make_space("U", 4)
    rho = _state(4, 85)
    obs = _traceless_observable(4, 86)
    report = run_estimation(spec, rho, obs, 50, RngStream(87))
    assert not report.projected
    assert report.truth == pytest.approx(float(np.trace(rho @ obs).real), rel=1e-10)


# -------------------------------------------------------------- aggregation


def test_median_of_means_reduces_to_mean_and_resists_outliers():
    values = np.arange(9, dtype=float)
    assert median_of_means(values, 1) == pytest.approx(values.mean())
    spiked = values.copy()
    spiked[0] = 1e9
    batch_means = [spiked[:3].mean(), spiked[3:6].mean(), spiked[6:].mean()]
    assert median_of_means(spiked, 3) == pytest.approx(np.median(batch_means))
    assert median_of_means(spiked, 3) < 100


def test_median_of_means_error_paths():
    with pytest.raises(ValueError):
        median_of_means([], 1)
    with pytest.raises(ValueError):
        median_of_means([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        median_of_means([1.0, 2.0], 3)


# -------------------------------------------------------------------- sweep


def test_signature_for_fraction_snapping():
    assert signature_for_fraction("U", 8, 0.5) is None
    assert signature_for_fraction("AI", 8, 0.5) is None
    assert signature_for_fraction("AIII", 8, 0.5) == (6, 2, 4)
    assert signature_for_fraction("AIII", 4, 0.24) == (2, 2, 0)
    # exact tie between s=0 and s=2 resolves toward smaller |s|
    assert signature_for_fraction("AIII", 4, 0.25) == (2, 2, 0)
    # odd dimension forces odd signatures; ties prefer p >= q
    assert signature_for_fraction("BDI", 5, 0.0) == (3, 2, 1)
    # quaternionic blocks split half the dimension
    assert signature_for_fraction("CII", 8, 0.0) == (2, 2, 0)
    assert signature_for_fraction("CII", 8, 1.0) == (4, 0, 4)


def test_variance_sweep_row_grid_and_fields():
    config = SweepConfig(
        dim=2,
        families=("AIII", "U"),
        signature_fractions=(0.0,),
        diag_weights=(1.0,),
        n_instances=2,
        n_shots=50,
        seed=3,
    )
    rows = variance_sweep(config)
    assert len(rows) == 4
    assert [r.family for r in rows] == ["AIII", "AIII", "U", "U"]
    for row in rows[:2]:
        assert (row.p, row.q, row.s) == (1, 1, 0)
        assert row.c_actual == 0.0
        assert row.analytic_second_moment is not None
        assert not row.was_snapped
    for row in rows[2:]:
        assert row.p is None and row.q is None and row.s is None
        assert row.c_actual is None
        assert row.analytic_second_moment is None
        assert not row.was_snapped
    assert all(r.seed == 3 and r.n_shots == 50 and r.d == 2 for r in rows)
    assert [r.instance for r in rows] == [0, 1, 0, 1]


def test_variance_sweep_snap_flag_and_determinism():
    config = SweepConfig(
        dim=2,
        families=("AIII",),
        signature_fractions=(0.3,),
        n_instances=1,
        n_shots=40,
        seed=4,
    )
    rows = variance_sweep(config)
    assert rows[0].was_snapped and rows[0].c_actual == 0.0
    assert variance_sweep(config) == rows


def test_variance_sweep_rejects_tiny_runs():
    with pytest.raises(ValueError):
        variance_sweep(SweepConfig(dim=2, n_shots=1))
    with pytest.raises(ValueError):
        variance_sweep(SweepConfig(dim=2, n_instances=0))


@pytest.mark.parametrize(
    "families, dim, match",
    [(("U", "NOPE"), 4, "NOPE"), (("U", "CII"), 5, "CII")],
    ids=["unknown-family", "CII-odd-dim"],
)
def test_variance_sweep_rejects_bad_grid_before_any_work(monkeypatch, families, dim, match):
    calls = []
    original = shadows.shadow_estimates

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(shadows, "shadow_estimates", counting)
    config = SweepConfig(dim=dim, families=families, n_instances=3, n_shots=200)
    with pytest.raises(ValueError, match=match):
        variance_sweep(config)
    assert calls == []
