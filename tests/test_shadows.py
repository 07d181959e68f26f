"""End-to-end estimator pipeline, aggregation, and the variance sweep."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symshadows import _kernels, channel, haar, shadows, spaces
from symshadows.channel import apply_channel, invert_channel
from symshadows.haar import HouseholderDraw
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
from symshadows.spaces import (
    ALL_FAMILIES,
    GROUP_FAMILIES,
    EnsembleDraw,
    make_space,
    sample_point,
    structural_witness,
)
from symshadows.variance import analytic_second_moment


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_density_rejects_non_finite_entries(bad):
    # NaN compares False, so the tolerance checks alone would let it through
    rho = np.diag([bad, 0.5]).astype(complex)
    with pytest.raises(InvalidStateError, match="non-finite"):
        validate_density(rho)


@pytest.mark.parametrize("d", [3, 100])
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
def test_non_finite_entries_are_found_without_warnings(d, bad):
    # A conjugate pair of non-finite entries, at a size with one block and
    # one with several: the Hermitian gap is not finite, which sends both
    # checks to the entries, and inf - inf warns nothing.
    rho = np.eye(d, dtype=complex) / d
    rho[0, d - 1] = bad
    rho[d - 1, 0] = np.conj(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidStateError, match="non-finite"):
            validate_density(rho)
        with pytest.raises(InvalidStateError, match="non-finite"):
            run_estimation(make_space("U", d), rho, np.eye(d), 2, RngStream(1))
        with pytest.raises(ValueError, match="observable has non-finite"):
            shadow_estimates(make_space("U", d), np.eye(d) / d, rho, 2, RngStream(1))


def _whole_gap(a):
    """The whole-matrix Hermitian gap that ``shadows._hermitian_gap`` forms in blocks."""
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(a - a.conj().T))) if len(a) else 0.0


# 90 is the last d whose upper triangle is one block of rows.
@pytest.mark.parametrize("d", [1, 2, 3, 8, 90, 91, 128])
@pytest.mark.parametrize(
    "bad", [None, np.nan, np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)]
)
def test_hermitian_gap_is_the_whole_matrix_gap(d, bad):
    gen = np.random.default_rng(d)
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    cases = [a, (a + a.conj().T) / 2]
    if bad is not None:
        for i, j in ((0, d - 1), (d - 1, d // 2)):
            b = a.copy()
            b[i, j] = bad
            # A conjugate pair; of infinities, it makes inf - inf in both entries.
            pair = b.copy()
            pair[j, i] = np.conj(bad)
            cases += [b, pair]
    for c in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gap = shadows._hermitian_gap(np.ascontiguousarray(c))
        np.testing.assert_equal(gap, _whole_gap(c))
    assert shadows._hermitian_gap(np.zeros((0, 0), dtype=complex)) == 0.0


@pytest.mark.parametrize("d", [2, 91])
def test_hermitian_gap_against_a_tolerance_keeps_the_gaps_side(d):
    # With tol the float view decides outside its √2 band and the exact gap
    # inside it: the result lies on the exact gap's side of tol, and is
    # finite exactly when the gap is.  Deviations of modulus near tol, at
    # phases that put them inside and outside the band.
    tol = 1e-10
    gen = np.random.default_rng(d)
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    hermitian = (a + a.conj().T) / 2
    for size in (0.0, 0.5, 0.7, 0.71, 0.72, 0.9, 1.0, 1.01, 1.4, 1.5):
        for phase in (1.0, 1j, np.exp(0.25j * np.pi), np.exp(0.3j)):
            m = hermitian.copy()
            m[0, d - 1] += size * tol * phase
            exact, decided = shadows._hermitian_gap(m), shadows._hermitian_gap(m, tol)
            assert (decided > tol) == (exact > tol), (size, phase)
    for bad in (np.nan, np.inf, complex(np.inf, np.nan)):
        m = hermitian.copy()
        m[d - 1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not np.isfinite(shadows._hermitian_gap(m, tol))


def _with_spectrum(eigenvalues, seed):
    """A generic (rotated) Hermitian matrix with the given spectrum."""
    u = haar.haar_unitary(len(eigenvalues), RngStream(seed))
    return u @ np.diag(eigenvalues) @ u.conj().T


def _count_calls(monkeypatch, owner, names, counts=None):
    """Count calls of ``owner.<name>`` for each name into ``counts``."""
    counts = {} if counts is None else counts
    for name in names:
        original = getattr(owner, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return counts


def test_validate_density_rejects_just_past_the_tolerance():
    tol = shadows.DENSITY_TOL
    rho = _with_spectrum([0.5 + 2 * tol, 0.3, 0.2, -2 * tol], 61)
    with pytest.raises(InvalidStateError, match=r"negative eigenvalue -2\.000e-10"):
        validate_density(rho)


def test_validate_density_accepts_half_the_tolerance_below_zero():
    tol = shadows.DENSITY_TOL
    validate_density(np.diag([1.0 + tol / 2, 0.0, -tol / 2]))
    validate_density(_with_spectrum([0.6 + tol / 2, 0.4, 0.0, -tol / 2], 62))


def test_validate_density_falls_back_to_the_eigenvalue_rule_at_the_edge(monkeypatch):
    # At lambda_min = -tol exactly, rho + tol·I is singular, so its Cholesky
    # factorization fails; the eigenvalues decide, and -tol is not below -tol.
    tol = shadows.DENSITY_TOL
    counts = _count_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh"))
    validate_density(np.diag([1.0 + tol, -tol]))
    assert counts == {"eigvalsh": 1}


def test_validate_density_accepts_states_without_eigendecomposition(monkeypatch):
    counts = _count_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh"))
    validate_density(_state(16, 63))
    validate_density(_wishart_state(16, 16, 64))
    assert counts == {}


def test_validate_density_honours_the_callers_tolerance():
    rho = np.diag([1.0 + 5e-4, -5e-4])
    validate_density(rho, tol=1e-3)
    with pytest.raises(InvalidStateError, match="negative eigenvalue"):
        validate_density(rho)


def _edge_state(d, eigmin):
    """A pure state on the first d - 1 coordinates, with ``eigmin`` on the last
    and the trace made up on the first."""
    gen = np.random.default_rng(d)
    psi = np.zeros(d, dtype=complex)
    psi[:-1] = gen.standard_normal(d - 1) + 1j * gen.standard_normal(d - 1)
    psi *= np.sqrt(1.0 - eigmin) / np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    rho[-1, -1] = eigmin
    return rho


@pytest.mark.parametrize("d", [4, 32])
def test_state_factor_certifies_positivity_without_lapack(monkeypatch, d):
    # The factored part is the pure state, the residual the -0.4·tol entry:
    # within half the tolerance, so no LAPACK call is made.
    tol = shadows.DENSITY_TOL
    rho = _edge_state(d, -0.4 * tol)
    assert np.linalg.eigvalsh(rho)[0] == pytest.approx(-0.4 * tol, rel=1e-3)
    counts = _count_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh", "cholesky"))
    _, (weights, _) = shadows._validated_state(make_space("U", d), rho)
    assert counts == {}
    assert weights.size == 1


@pytest.mark.parametrize("d", [4, 32])
def test_state_past_the_certificate_goes_to_the_eigenvalue_rule(monkeypatch, d):
    tol = shadows.DENSITY_TOL
    counts = _count_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh", "cholesky"))
    # -0.8·tol is past the certificate's half but within the tolerance.
    edge = _edge_state(d, -0.8 * tol)
    _, (weights, vectors) = shadows._validated_state(make_space("U", d), edge)
    assert counts == {"cholesky": 1}
    expected = shadows._state_factor(edge)
    np.testing.assert_array_equal(weights, expected[0])
    np.testing.assert_array_equal(vectors, expected[1])
    # -2·tol is rejected with validate_density's own message.
    rho = _edge_state(d, -2 * tol)
    with pytest.raises(InvalidStateError) as public:
        validate_density(rho)
    assert "negative eigenvalue" in str(public.value)
    with pytest.raises(InvalidStateError) as streamed:
        run_estimation(make_space("U", d), rho, _traceless_observable(d, 1), 2, RngStream(2))
    assert str(streamed.value) == str(public.value)


def test_state_factor_stops_once_a_diagonal_entry_is_below_the_floor():
    # The first diagonal entry is -1: no step can raise it, so no step is taken.
    rho = np.diag([-1.0, 1.0, 1.0]).astype(complex)
    weights, vectors, resid = shadows._state_factor(rho, floor=-shadows.DENSITY_TOL)
    assert weights.size == 0 and vectors is None and resid is None
    with pytest.raises(InvalidStateError, match=r"negative eigenvalue -1\.000e\+00"):
        shadows._validated_state(make_space("U", 3), rho)


def test_a_valid_state_whose_floored_factor_stops_is_factored_again(monkeypatch):
    # The pivot 1e-12 beside the entry 5e-11 leaves -2.5e-9 on the last
    # diagonal entry, past the floor, so the floored factor stops.  The
    # eigenvalues, -4.95e-11, 5.05e-11 and 1, are valid: one Cholesky
    # accepts the state, whose factor is then the unfloored one.  What that
    # factor drops is 25 times the tolerance, and its weights sum to
    # 1 + 2.5e-9.
    tol = shadows.DENSITY_TOL
    rho = np.diag([1.0 - 1e-12, 1e-12, 0.0]).astype(complex)
    rho[1, 2] = rho[2, 1] = 5e-11
    assert np.linalg.eigvalsh(rho)[0] == pytest.approx(-4.95e-11, rel=1e-3)
    assert shadows._state_factor(rho, floor=-tol)[2] is None
    counts = _count_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh", "cholesky"))
    _, (weights, vectors) = shadows._validated_state(make_space("U", 3), rho)
    assert counts == {"cholesky": 1}
    expected, expected_vectors, resid = shadows._state_factor(rho)
    np.testing.assert_array_equal(weights, expected)
    np.testing.assert_array_equal(vectors, expected_vectors)
    np.testing.assert_allclose(weights, [1.0, 2.501e-9], rtol=1e-9)
    assert resid[2, 2].real == pytest.approx(-25 * tol, rel=1e-6)


def test_skew_part_keeps_a_state_from_the_certificate(monkeypatch):
    # Hermitian to within the tolerance, but not exactly: the residual alone
    # would certify it; the skew bound sends it to the LAPACK check, which
    # reads the lower triangle and accepts it.
    tol = shadows.DENSITY_TOL
    rho = _state(8, 71).astype(complex)
    rho[5, 2] += 0.2 * tol
    resid = shadows._state_factor(rho)[2]
    assert np.sqrt(np.vdot(resid, resid).real) <= 0.5 * tol
    counts = _count_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh", "cholesky"))
    shadows._validated_state(make_space("U", 8), rho)
    assert counts == {"cholesky": 1}


def test_non_positive_state_of_another_dimension_raises_the_eigenvalue_error():
    # As validate_density then the dimension check: positivity speaks first.
    rho = np.array([[0.5, 0.9], [0.9, 0.5]])
    for call in (
        lambda: run_estimation(make_space("U", 3), rho, np.eye(3), 2, RngStream(1)),
        lambda: sample_outcome(make_space("U", 3), rho, RngStream(1)),
    ):
        with pytest.raises(InvalidStateError, match=r"negative eigenvalue -4\.000e-01"):
            call()
    with pytest.raises(InvalidStateError, match="state dimension 2 does not match"):
        sample_outcome(make_space("U", 3), np.eye(2) / 2, RngStream(1))


def _factor_before_the_certificate(state):
    """The pivoted Cholesky factor as it was computed before it also gave
    its residual: the reference for the bytes of the factor."""
    resid = state.copy()
    diag = resid.diagonal().real.copy()
    stop = shadows.FACTOR_RTOL * float(diag.max())
    weights, vectors = [], []
    for _ in range(state.shape[0]):
        j = int(np.argmax(diag))
        if diag[j] <= stop:
            break
        col = resid[:, j] / np.sqrt(diag[j])
        resid -= np.outer(col, col.conj())
        diag = resid.diagonal().real.copy()
        norm2 = float(np.vdot(col, col).real)
        weights.append(norm2)
        vectors.append(col / np.sqrt(norm2))
    return np.array(weights), np.stack(vectors, axis=1)


@pytest.mark.parametrize("rank", [1, 2, 16])
def test_state_factor_bytes_do_not_change_with_the_certificate(rank):
    rho = _state(16, 72) if rank == 1 else _wishart_state(16, rank, 73)
    _, (weights, vectors) = shadows._validated_state(make_space("U", 16), rho)
    expected = _factor_before_the_certificate(validate_density(rho))
    assert weights.size == rank
    assert weights.tobytes() == expected[0].tobytes()
    assert vectors.tobytes() == expected[1].tobytes()


def test_validate_density_rejects_indefinite_matrix_with_positive_diagonal():
    with pytest.raises(InvalidStateError, match=r"negative eigenvalue -4\.000e-01"):
        validate_density(np.array([[0.5, 0.9], [0.9, 0.5]]))


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
    assert rec.row.shape == (3,)
    assert 0 <= rec.outcome < 3
    again = sample_outcome(spec, _state(3, 63), RngStream(64))
    np.testing.assert_array_equal(rec.row, again.row)
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
        np.testing.assert_array_equal(rec.row, np.eye(2)[rec.outcome])
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
    manual = np.array([(rec.row @ x @ rec.row.conj()).real for rec in records])
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


_ROW = np.full(3, 1 / np.sqrt(3), dtype=complex)


@pytest.mark.parametrize(
    "bad, match",
    [
        (ShadowRecord(np.eye(3), 0), "row must be a finite vector of shape"),
        (ShadowRecord(np.ones(4) / 2, 0), "row must be a finite vector of shape"),
        (ShadowRecord(np.array(["a", "b", "c"]), 0), "row must be a finite vector of shape"),
        (ShadowRecord(np.array([np.nan, 0, 1]), 0), "row must be a finite vector of shape"),
        (ShadowRecord(np.array([np.inf, 0, 1]), 0), "row must be a finite vector of shape"),
        (ShadowRecord(_ROW, -1), "outcome must be an integer in"),
        (ShadowRecord(_ROW, 3), "outcome must be an integer in"),
        (ShadowRecord(_ROW, 5), "outcome must be an integer in"),
        (ShadowRecord(_ROW, 1.5), "outcome must be an integer in"),
        (ShadowRecord(_ROW, True), "outcome must be an integer in"),
    ],
    ids=["matrix", "long", "text", "nan", "inf", "negative", "equal-d", "past-d", "float", "bool"],
)
def test_estimate_observable_checks_every_record(monkeypatch, bad, match):
    # The bad record is named by its index, before any arithmetic.
    spec = make_space("U", 3)
    good = sample_outcome(spec, _state(3, 70), RngStream(71))
    monkeypatch.setattr(shadows, "invert_channel", None)
    with pytest.raises(ValueError, match=f"^record 1: {match}"):
        estimate_observable([good, bad, good], _traceless_observable(3, 69), spec)


def test_observables_with_non_finite_entries_are_rejected():
    spec = make_space("U", 3)
    obs = _traceless_observable(3, 69)
    obs[0, 0] = np.nan
    rec = sample_outcome(spec, _state(3, 70), RngStream(71))
    with pytest.raises(ValueError, match="non-finite"):
        estimate_observable([rec], obs, spec)
    with pytest.raises(ValueError, match="non-finite"):
        shadow_estimates(spec, _state(3, 70), obs, 10, RngStream(72))


def test_single_record_report_has_no_variance():
    spec = make_space("U", 3)
    rec = sample_outcome(spec, _state(3, 70), RngStream(71))
    report = estimate_observable([rec], _traceless_observable(3, 69), spec)
    assert report.n_samples == 1 and np.isfinite(report.mean)
    assert np.isnan(report.variance) and np.isnan(report.sem)


def test_probability_check_fails_on_a_nan_sum():
    shadows._check_probabilities(np.array([[0.25, 0.75]]))
    with pytest.raises(RuntimeError):
        shadows._check_probabilities(np.array([[0.25, np.nan]]))


@pytest.mark.parametrize("dtype", [float, complex])
def test_row_check_fails_on_a_row_off_the_unit_sphere_or_nan(dtype):
    # Rows are the columns of a (d, B) array, as a measured draw returns them.
    rows = np.array([[0.6, 1.0], [0.8, 0.0]], dtype=dtype)
    shadows._check_rows(rows)
    for bad in (0.8 + 2e-10, np.nan):
        rows[1, 0] = bad
        with pytest.raises(RuntimeError, match="squared norm"):
            shadows._check_rows(rows)


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


def test_run_estimation_needs_two_shots_before_any_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew before checking n_shots")

    monkeypatch.setattr(shadows, "sample_point", refuse)
    with pytest.raises(ValueError, match="n_shots >= 2"):
        run_estimation(make_space("U", 4), _state(4, 85), _traceless_observable(4, 86), 1)


# -------------------------------------------------------------- aggregation


def test_median_of_means_reduces_to_mean_and_resists_outliers():
    values = np.arange(9, dtype=float)
    assert median_of_means(values, 1) == pytest.approx(values.mean())
    spiked = values.copy()
    spiked[0] = 1e9
    batch_means = [spiked[:3].mean(), spiked[3:6].mean(), spiked[6:].mean()]
    assert median_of_means(spiked, 3) == pytest.approx(np.median(batch_means))
    assert median_of_means(spiked, 3) < 100


def test_median_of_means_rejects_non_integral_batch_counts():
    values = np.arange(9, dtype=float)
    for bad in (2.5, True, "2"):
        with pytest.raises(ValueError, match="^n_batches must be an integer, got"):
            median_of_means(values, bad)
    assert median_of_means(values, 3.0) == median_of_means(values, 3)


@pytest.mark.parametrize("run", [shadow_estimates, run_estimation])
def test_streamed_runs_reject_non_integral_shot_counts(monkeypatch, run):
    spec, rho, obs = make_space("U", 4), _state(4, 85), _traceless_observable(4, 86)
    np.testing.assert_array_equal(
        shadow_estimates(spec, rho, obs, 4.0, RngStream(88)),
        shadow_estimates(spec, rho, obs, 4, RngStream(88)),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("drew before checking n_shots")

    monkeypatch.setattr(shadows, "sample_point", refuse)
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match="^n_shots must be an integer, got"):
            run(spec, rho, obs, bad)


@pytest.mark.parametrize("run", [shadow_estimates, run_estimation])
def test_streamed_runs_past_physical_memory_are_refused_before_the_state(monkeypatch, run):
    # With 8000 bytes of memory 1000 shots fit and 1001 do not: the call
    # refuses before it checks rho, which is no density matrix, and before
    # any draw.  The 1000 shots run in batches of 4, whose workspace fits
    # too.
    monkeypatch.setattr(haar, "_physical_memory", lambda: 8000)

    def refuse(*args, **kwargs):
        raise AssertionError("drew before checking n_shots")

    spec, obs = make_space("U", 3), _traceless_observable(3, 89)
    with monkeypatch.context() as m:
        m.setattr(shadows, "sample_point", refuse)
        with pytest.raises(ValueError, match=r"^n_shots=1001: the \(1001,\) result needs 8008 bytes"):
            run(spec, np.zeros((3, 3)), obs, 1001)
    assert run(spec, _state(3, 85), obs, 1000, RngStream(90), batch_size=4) is not None


@pytest.mark.parametrize("run", [shadow_estimates, run_estimation])
def test_streamed_runs_refuse_a_workspace_past_physical_memory_before_the_state(
    monkeypatch, run
):
    # A U(32) round holds 15 complex 32-vectors, 7680 bytes: with 4 MiB of
    # memory 546 rounds fit and 10**4 do not, though the (10**4,) output
    # does.  The workspace is sized for min(batch_size, n_shots) rounds.
    monkeypatch.setattr(haar, "_physical_memory", lambda: 4 * 2**20)

    def refuse(*args, **kwargs):
        raise AssertionError("drew before checking batch_size")

    spec, obs = make_space("U", 32), _traceless_observable(32, 89)
    with monkeypatch.context() as m:
        m.setattr(shadows, "sample_point", refuse)
        with pytest.raises(
            ValueError, match=r"^batch_size=10000: the workspace of 10000 rounds needs \d+ bytes"
        ):
            run(spec, np.zeros((32, 32)), obs, 10**4, batch_size=10**4)
    assert len(shadow_estimates(spec, _state(32, 91), obs, 100, RngStream(92), 10**6)) == 100


def test_random_observable_refuses_a_dimension_past_physical_memory(monkeypatch):
    # 4 MiB hold a complex 512 x 512 matrix and a real 724 x 724 one.
    monkeypatch.setattr(haar, "_physical_memory", lambda: 4 * 2**20)
    gen = RngStream(93).generator()
    for dim, symmetric in ((513, False), (725, True)):
        with pytest.raises(ValueError, match=rf"^dim={dim}: the \({dim}, {dim}\) result needs"):
            random_observable(dim, 0.5, symmetric=symmetric, rng=gen)
    assert gen.random() == RngStream(93).generator().random()
    assert random_observable(512, 0.5, rng=gen).shape == (512, 512)
    assert random_observable(724, 0.5, symmetric=True, rng=gen).shape == (724, 724)


def test_random_pure_state_refuses_a_dimension_past_physical_memory(monkeypatch):
    # 4 MiB hold a complex 512 x 512 matrix.
    monkeypatch.setattr(haar, "_physical_memory", lambda: 4 * 2**20)
    gen = RngStream(93).generator()
    with pytest.raises(ValueError, match=r"^dim=513: the \(513, 513\) result needs"):
        random_pure_state(513, rng=gen)
    assert gen.random() == RngStream(93).generator().random()
    assert random_pure_state(512, rng=gen).shape == (512, 512)


@pytest.mark.parametrize(
    "make, smallest",
    [(random_pure_state, 1), (lambda dim, rng: random_observable(dim, 0.5, rng=rng), 2)],
    ids=["state", "observable"],
)
def test_state_and_observable_generators_check_their_dimension(make, smallest):
    np.testing.assert_array_equal(make(3.0, RngStream(89)), make(3, RngStream(89)))
    np.testing.assert_array_equal(make(np.int64(3), RngStream(89)), make(3, RngStream(89)))
    for bad in (2.5, True, "3", np.float64(3.5)):
        with pytest.raises(ValueError, match="^dim must be an integer, got"):
            make(bad, RngStream(89))
    with pytest.raises(ValueError, match=f"got {smallest - 1}$"):
        make(smallest - 1, RngStream(89))


@pytest.mark.parametrize(
    "bad, message",
    [(0, "^batch_size must be a positive integer, got 0"),
     (2.5, "^batch_size must be an integer, got 2.5"),
     (True, "^batch_size must be an integer, got True")],
    ids=["zero", "fraction", "bool"],
)
@pytest.mark.parametrize("run", [shadow_estimates, run_estimation])
def test_streamed_runs_check_batch_size_before_the_state(monkeypatch, run, bad, message):
    # rho is no density matrix, so the batch size is checked before the state.
    spec, obs = make_space("U", 3), _traceless_observable(3, 89)

    def refuse(*args, **kwargs):
        raise AssertionError("drew before checking batch_size")

    monkeypatch.setattr(shadows, "sample_point", refuse)
    with pytest.raises(ValueError, match=message):
        run(spec, np.zeros((3, 3)), obs, 4, 1, batch_size=bad)


@pytest.mark.parametrize("field", ["n_shots", "n_instances"])
def test_variance_sweep_rejects_non_integral_counts(field):
    for bad in (2.5, True, "3"):
        config = SweepConfig(dim=2, families=("U",), **{field: bad})
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
            variance_sweep(config)


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


@pytest.mark.parametrize("fraction", [1e3, 1e16, 1e308])
@pytest.mark.parametrize("family, dim, total", [("AIII", 4, 4), ("CII", 8, 4)])
def test_signature_for_fraction_clamps_large_fractions(family, dim, total, fraction):
    # fraction * dim past 2**53 cannot tell the admissible s apart; the
    # clamp to [-1, 1] snaps every large |c| to the extreme split.
    assert signature_for_fraction(family, dim, fraction) == (total, 0, total)
    assert signature_for_fraction(family, dim, -fraction) == (0, total, -total)


@pytest.mark.parametrize("family", ["AIII", "BDI", "CII"])
def test_make_space_accepts_every_snapped_signature(family):
    for dim in range(2, 10, 2 if family == "CII" else 1):
        for fraction in np.linspace(-1.25, 1.25, 41):
            p, q, s = signature_for_fraction(family, dim, fraction)
            spec = make_space(family, dim, p=p, q=q)
            assert (spec.p, spec.q, spec.signature) == (p, q, s)


@pytest.mark.parametrize("fraction", [np.nan, np.inf, -np.inf])
def test_signature_for_fraction_rejects_non_finite(fraction):
    with pytest.raises(ValueError, match="finite"):
        signature_for_fraction("AIII", 4, fraction)


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


# ------------------------------------------ matrix-free path vs the dense V

_EVEN_DIM = {"SP", "AII", "DIII", "CI", "CII"}


@st.composite
def _grid_specs(draw):
    family = draw(st.sampled_from(ALL_FAMILIES))
    if family in _EVEN_DIM:
        d = draw(st.sampled_from([2, 4, 6, 32]))
    else:
        dims = [2, 3, 5, 7, 32] + ([1] if family in GROUP_FAMILIES else [])
        d = draw(st.sampled_from(dims))
    if family in ("AIII", "BDI"):
        p = draw(st.integers(0, d))
        return make_space(family, d, p, d - p)
    if family == "CII":
        p = draw(st.integers(0, d // 2))
        return make_space(family, d, p, d // 2 - p)
    return make_space(family, d)


def _grid_state(d, rank, gen):
    if rank == "pure":
        vec = gen.standard_normal(d) + 1j * gen.standard_normal(d)
        vec /= np.linalg.norm(vec)
        return np.outer(vec, vec.conj())
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _grid_observable(d, field, gen):
    m = gen.standard_normal((d, d))
    if field == "complex":
        m = m + 1j * gen.standard_normal((d, d))
    obs = m + m.conj().T
    return obs / np.linalg.norm(obs)


@settings(max_examples=70, deadline=None, derandomize=True, database=None)
@given(
    spec=_grid_specs(),
    rank=st.sampled_from(["pure", "mixed"]),
    field=st.sampled_from(["real", "complex"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(spec=make_space("U", 1), rank="pure", field="real", seed=0)
@example(spec=make_space("O", 1), rank="mixed", field="real", seed=1)
@example(spec=make_space("SO", 1), rank="pure", field="complex", seed=2)
@example(spec=make_space("AIII", 32, 32, 0), rank="pure", field="complex", seed=3)
@example(spec=make_space("AIII", 32, 31, 1), rank="mixed", field="complex", seed=4)
@example(spec=make_space("BDI", 7, 0, 7), rank="mixed", field="real", seed=5)
@example(spec=make_space("BDI", 32, 1, 31), rank="pure", field="real", seed=6)
@example(spec=make_space("CII", 32, 16, 0), rank="pure", field="complex", seed=7)
@example(spec=make_space("CII", 32, 15, 1), rank="mixed", field="complex", seed=8)
@example(spec=make_space("DIII", 32), rank="mixed", field="complex", seed=9)
@example(spec=make_space("AI", 5), rank="mixed", field="complex", seed=10)
@example(spec=make_space("AII", 2), rank="pure", field="real", seed=11)
def test_matrix_free_shots_match_materialized_rotations(spec, rank, field, seed):
    # Each streamed shot against the dense arithmetic on the completion of
    # the draw it measured.  A quotient's outcomes are replayed from the
    # same uniforms; a group's shot is drawn from the law of its row, so its
    # row must be row w of the completion.
    d, count = spec.dim, 6
    gen = np.random.default_rng(seed)
    rho = validate_density(_grid_state(d, rank, gen))
    obs = _grid_observable(d, field, gen)
    x = invert_channel(spec).apply(obs)
    _, factor = shadows._validated_state(spec, rho)
    draw, outcomes, rows = shadows._measure_batch(
        spec, factor, np.random.default_rng(seed + 1), count
    )
    v = draw.matrix()
    replay = np.random.default_rng(seed + 1)
    sample_point(spec, replay, count, dense=False)
    uniforms = replay.random(count)
    if spec.is_group:
        np.testing.assert_allclose(rows, v[np.arange(count), outcomes], rtol=0, atol=1e-12)
        dense_outcomes = outcomes
    elif rank == "pure":
        vc = v.astype(complex)
        probs = np.einsum("nwa,ab,nwb->nw", vc, rho, vc.conj(), optimize=True).real
        probs = np.clip(probs, 0.0, None)
        dense_outcomes = _kernels.choose_outcomes(probs, uniforms)
    else:
        # two stages: the uniform picks component k of rho by its weight,
        # and its remainder picks the outcome from w_k |V u_k|^2
        weights, vectors = factor
        cum = np.cumsum(weights)
        k = np.minimum(np.searchsorted(cum, uniforms), weights.size - 1)
        rest = uniforms - np.concatenate(([0.0], cum[:-1]))[k]
        y = np.einsum("nij,jn->ni", v, vectors[:, k])
        dense_outcomes = _kernels.choose_outcomes(weights[k, None] * np.abs(y) ** 2, rest)
    dense = _kernels.row_quadratic(v[np.arange(count), dense_outcomes].astype(complex), x)
    np.testing.assert_array_equal(outcomes, dense_outcomes)
    estimates = _kernels.row_quadratic(rows, x)
    np.testing.assert_allclose(estimates, dense, rtol=0, atol=1e-12)
    witness = structural_witness(spec, v)
    assert witness.passed, f"{spec.label()}: residual {witness.residual}"


def _wishart_state(d, rank, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((d, rank)) + 1j * gen.standard_normal((d, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("rank", [1, 3, 6], ids=["pure", "rank3", "full"])
@pytest.mark.parametrize(
    "family", ["U", "O", "SO", "SP", "AI", "AII", "AIII", "BDI", "DIII", "CI", "CII"]
)
def test_estimates_form_no_rotation_matrix(monkeypatch, family, rank):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense rotation or Gaussian matrix was formed")

    monkeypatch.setattr(HouseholderDraw, "matrix", refuse)
    monkeypatch.setattr(EnsembleDraw, "matrix", refuse)
    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(haar, "ginibre", refuse)
    spec = make_space(family, 6)
    rho = _state(6, 90) if rank == 1 else _wishart_state(6, rank, 90)
    assert shadows._validated_state(spec, rho)[1][0].size == rank
    obs = random_observable(6, 0.5, rng=RngStream(91))
    values = shadow_estimates(spec, rho, obs, 64, RngStream(92))
    assert values.shape == (64,) and np.all(np.isfinite(values))
    gen = RngStream(93).generator()
    records = [sample_outcome(spec, rho, gen) for _ in range(4)]
    assert all(rec.row.shape == (6,) for rec in records)
    assert np.isfinite(estimate_observable(records, obs, spec).mean)


class _Repeated:
    """A draw that applies one fixed rotation ``v`` to every vector of a batch."""

    def __init__(self, v):
        self.v = v

    def apply(self, y, out=None):
        return self.v @ y

    def apply_adjoint(self, y, out=None):
        return self.v.conj().T @ y


@pytest.mark.parametrize(
    "spec", [make_space("AIII", 6, 4, 2), make_space("CII", 6, 2, 1)], ids=lambda s: s.label()
)
def test_mixed_state_outcomes_follow_born_law_for_a_fixed_rotation(monkeypatch, spec):
    # Each round measures one component of rho; summed over components the
    # outcome law given V must be diag(V rho V^†).  V is held fixed, so the
    # outcome counts are multinomial with exactly those probabilities.
    d, n_rounds, batch = spec.dim, 200_000, 20_000
    rho = _wishart_state(d, d, 31)
    _, factor = shadows._validated_state(spec, rho)
    assert factor[0].size == d
    fixed = sample_point(spec, RngStream(32), 1, dense=False)
    v = fixed.matrix()[0]
    expected = np.einsum("wa,ab,wb->w", v, rho, v.conj()).real
    monkeypatch.setattr(shadows, "sample_point", lambda s, g, count, dense: _Repeated(v))
    gen = RngStream(33).generator()
    counts = np.zeros(d)
    for _ in range(n_rounds // batch):
        _, outcomes, _ = shadows._measure_batch(spec, factor, gen, batch)
        counts += np.bincount(outcomes, minlength=d)
    chi2 = float((((counts - n_rounds * expected) ** 2) / (n_rounds * expected)).sum())
    # 5 degrees of freedom: P(chi2 > 25.7) = 1e-4
    assert chi2 < 25.7, (chi2, counts / n_rounds, expected)


@pytest.mark.parametrize("rank", [3, 8], ids=["rank3", "full"])
@pytest.mark.parametrize(
    "spec", [make_space("AIII", 8, 6, 2), make_space("BDI", 8, 5, 3)], ids=lambda s: s.label()
)
def test_mixed_state_estimates_keep_mean_and_second_moment(spec, rank):
    n = 100_000
    rho = _wishart_state(8, rank, 34 + rank)
    obs = random_observable(8, 0.5, rng=RngStream(35))
    values = shadow_estimates(spec, rho, obs, n, RngStream(36))
    # the estimator targets the part of O in the channel image
    truth = float(np.trace(rho @ apply_channel(spec, invert_channel(spec).apply(obs))).real)
    sem = values.std(ddof=1) / np.sqrt(n)
    assert abs(values.mean() - truth) <= 5 * sem
    analytic = analytic_second_moment(rho, obs, spec)
    assert np.mean(values**2) == pytest.approx(analytic, rel=0.05)


@pytest.mark.parametrize(
    "spec",
    [make_space("U", 5), make_space("O", 5), make_space("SO", 5), make_space("SP", 6),
     make_space("BDI", 6, 2, 4), make_space("CII", 8, 3, 1), make_space("AIII", 4, 4, 0),
     make_space("AIII", 6, 2, 4), make_space("BDI", 7, 5, 2)],
    ids=lambda s: s.label(),
)
@pytest.mark.parametrize("rank", ["pure", "mixed"])
def test_streamed_draws_go_through_the_module_level_samplers(monkeypatch, spec, rank):
    # A wrapper set on spaces.haar_* or shadows.sample_point, as the
    # benchmark's tracer (perfbench/tracing.py) sets them, must see every
    # draw of the estimator, counted as result.shape[0]: a traced run fails
    # unless a streamed call counts exactly n_shots on each.  A group's
    # measured shots keep that count.
    counts = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[name] = counts.get(name, 0) + (result.shape[0] if result.ndim == 3 else 1)
            return result

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("haar_unitary", "haar_orthogonal", "haar_symplectic"):
        counting(spaces, name)
    counting(shadows, "sample_point")
    d = spec.dim
    rho = _state(d, 88) if rank == "pure" else np.eye(d) / d
    obs = _traceless_observable(d, 89)
    sampler = {"U": "haar_unitary", "O": "haar_orthogonal", "SP": "haar_symplectic"}[spec.parent]
    expected = {"sample_point": 50} if spec.is_degenerate else {"sample_point": 50, sampler: 50}
    shadow_estimates(spec, rho, obs, 50, RngStream(87), batch_size=16)
    assert counts == expected
    counts.clear()
    run_estimation(spec, rho, obs, 50, RngStream(86))
    assert counts == expected


_RECORD_CASES = [
    (make_space(family, d), rank)
    for d in (2, 3, 8)
    for family in ALL_FAMILIES
    if d % 2 == 0 or family not in _EVEN_DIM
    for rank in ("pure", "full")
] + [(make_space("AIII", 5, 3, 2), "pure"), (make_space("CII", 8, 3, 1), "pure")]


@pytest.mark.parametrize(
    "spec, rank",
    _RECORD_CASES,
    ids=[s.label() + ("-full" if r == "full" else "") for s, r in _RECORD_CASES],
)
def test_record_path_matches_streamed_path(spec, rank):
    # A record's row is the streamed shot's row, so the estimates are equal.
    d, n = spec.dim, 12
    rho = _state(d, 93) if rank == "pure" else _wishart_state(d, d, 93)
    obs = random_observable(d, 0.4, rng=RngStream(94))
    gen = RngStream(95).generator()
    records = [sample_outcome(spec, rho, gen) for _ in range(n)]
    per_record = [estimate_observable([rec], obs, spec).mean for rec in records]
    streamed = shadow_estimates(spec, rho, obs, n, RngStream(95).generator(), batch_size=1)
    np.testing.assert_array_equal(streamed, per_record)


@pytest.mark.parametrize(
    "spec", [make_space("AIII", 4, 2, 2), make_space("CI", 4)], ids=lambda s: s.label()
)
def test_run_estimation_validates_once_without_eigendecomposition(monkeypatch, spec):
    # A valid state is accepted by its own factor's residual: no LAPACK call
    # at all, and the public validate_density is not called either.
    counts = _count_calls(
        monkeypatch,
        shadows,
        ("validate_density", "_as_observable", "invert_channel", "apply_channel"),
    )
    _count_calls(monkeypatch, channel.ChannelInverse, ("split",), counts)
    _count_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh", "cholesky"), counts)
    run_estimation(spec, _state(4, 96), _traceless_observable(4, 97), 40, RngStream(98))
    assert counts == {"_as_observable": 1, "invert_channel": 1, "split": 1}


_ORACLE_SPECS = [
    make_space(family, d, p, total - p) if total is not None else make_space(family, d)
    for d in (2, 4, 6, 8)
    for family in ALL_FAMILIES
    for total in [spaces._block_total(family, d)]
    for p in (range(total + 1) if total is not None else [None])
]


@pytest.mark.parametrize("spec", _ORACLE_SPECS, ids=lambda s: s.label())
def test_run_estimation_truth_and_flag_match_the_channel_oracle(spec):
    # The truth read off the one sector split, tr(rho (O - N)), against
    # M(M⁺(O)) formed by the channel itself, for a generic observable (with
    # a null-sector part where the channel has null sectors) and one in the
    # image.
    d = spec.dim
    gen = np.random.default_rng(99)
    rho = _wishart_state(d, d, 100)
    inverse = invert_channel(spec)
    generic = _grid_observable(d, "complex", gen)
    for obs in (generic, apply_channel(spec, generic)):
        report = run_estimation(spec, rho, obs, 2, RngStream(101))
        oracle = float(np.trace(rho @ apply_channel(spec, inverse.apply(obs))).real)
        assert abs(report.truth - oracle) <= 1e-13
        assert report.projected == inverse.is_projected(obs)
