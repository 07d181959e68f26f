"""Acceptance suite: the twelve numbered guarantees this package ships with.

Every test runs at the full sample budget its guarantee is stated at, with
fixed seeds so reruns are deterministic.  The conftest hook prints one
PASS/FAIL line per criterion after the run.
"""

import numpy as np
import pytest

from symshadows.channel import (
    apply_channel,
    build_superoperator,
    channel_spectrum,
    channel_weights,
    dephase,
)
from symshadows.haar import haar_unitary
from symshadows.momentlab import (
    fit_channel_coefficients,
    h_equivariance_check,
    k_equivariance_check,
    mc_twirl,
    moment_identities_ai,
    pair_partitions,
)
from symshadows.rng import RngStream
from symshadows.shadows import (
    SweepConfig,
    random_observable,
    random_pure_state,
    shadow_estimates,
    variance_sweep,
)
from symshadows.spaces import make_space, sample_point
from symshadows.variance import analytic_second_moment, second_moment_coefficients

ALL_D4_SPECS = [
    make_space("U", 4),
    make_space("O", 4),
    make_space("SO", 4),
    make_space("SP", 4),
    make_space("AI", 4),
    make_space("AII", 4),
    make_space("AIII", 4, 2, 2),
    make_space("BDI", 4, 2, 2),
    make_space("DIII", 4),
    make_space("CI", 4),
    make_space("CII", 4, 1, 1),
]
ALL_D4_IDS = [s.label() for s in ALL_D4_SPECS]


# --------------------------------------------------------------------------
# 1. entry fourth moments of the symmetric-unitary ensemble
# --------------------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 5])
def test_criterion_01_fourth_moments(d):
    checks = moment_identities_ai(d, 1_000_000, RngStream(100 + d))
    for check in checks:
        assert check.deviation_sems <= 5.0, (
            f"{check.name}: {check.estimate} vs {check.expected} "
            f"({check.deviation_sems:.2f} sems)"
        )


# --------------------------------------------------------------------------
# 2. first-order twirl closed form
# --------------------------------------------------------------------------


@pytest.mark.parametrize("trial", [0, 1, 2])
def test_criterion_02_first_order_twirl(trial):
    d = 3
    spec = make_space("AI", d)
    gen = RngStream(200, (trial,)).generator()
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    est = mc_twirl(spec, 1, a, 100_000, RngStream(201, (trial,)))
    expected = (np.trace(a) * np.eye(d) + a.T) / (d + 1)
    worst = float((np.abs(est.mean - expected) / est.sem).max())
    assert worst <= 5.0, f"worst entry off by {worst:.2f} sems"


# --------------------------------------------------------------------------
# 3. channel-weight fits for every quotient family
# --------------------------------------------------------------------------

FIT_CASES = [
    ("AI", 3, None, None, 300),
    ("AII", 4, None, None, 301),
    ("AIII", 4, 2, 2, 302),
    ("AIII", 4, 3, 1, 303),
    ("BDI", 4, 2, 2, 304),
    ("DIII", 4, None, None, 305),
    ("CI", 4, None, None, 306),
    ("CII", 4, 1, 1, 307),
]


@pytest.mark.parametrize(
    "family,dim,p,q,seed",
    FIT_CASES,
    ids=[f"{f}-{d}-{p}-{q}" for f, d, p, q, _ in FIT_CASES],
)
def test_criterion_03_channel_weight_fits(family, dim, p, q, seed):
    spec = make_space(family, dim, p, q)
    fit = fit_channel_coefficients(spec, 1_000_000, RngStream(seed))
    weights = channel_weights(spec)
    mix_off = abs(fit.mixing_weight - float(weights.mixing_weight))
    assert mix_off <= 5 * fit.mixing_weight_sem, (
        f"mixing weight {fit.mixing_weight} vs {float(weights.mixing_weight)}"
    )
    deph_off = abs(fit.dephasing_weight - float(weights.dephasing_weight))
    assert deph_off <= 5 * fit.dephasing_weight_sem, (
        f"dephasing weight {fit.dephasing_weight} vs "
        f"{float(weights.dephasing_weight)}"
    )
    if spec.parent == "SP":
        # the form-pairing basis tensor is structurally absent
        idx = fit.labels.index("form_aj_form_bi")
        coef, sem = fit.coefficients[idx], fit.standard_errors[idx]
        assert abs(coef) <= 5 * sem + 1e-12
    assert fit.residual_norm < 3 * fit.noise_floor


# --------------------------------------------------------------------------
# 4. sector eigenvalue identities and spectra
# --------------------------------------------------------------------------


def test_criterion_04_eigenvalue_identities_exact_up_to_d64():
    for family in ("AIII", "BDI"):
        for d in range(2, 65):
            for s in range(-d, d + 1, 2):
                spec = make_space(family, d, (d + s) // 2, (d - s) // 2)
                alpha = channel_weights(spec).mixing_weight
                coeff = second_moment_coefficients(family, d, s)
                if family == "AIII":
                    assert coeff.offdiag_eigenvalue == (1 - alpha) / (d + 1)
                else:
                    assert coeff.offdiag_eigenvalue == 2 * (1 - alpha) / (d + 2)
                assert coeff.diag_eigenvalue == coeff.offdiag_eigenvalue + alpha


@pytest.mark.parametrize("spec", ALL_D4_SPECS, ids=ALL_D4_IDS)
def test_criterion_04_spectrum_matches_superoperator(spec):
    dense = np.sort(np.linalg.eigvalsh(build_superoperator(spec)))[::-1]
    np.testing.assert_allclose(channel_spectrum(spec).dense(), dense, atol=1e-10)


# --------------------------------------------------------------------------
# 5. exact channel equivariance under basis symmetries
# --------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_D4_SPECS, ids=ALL_D4_IDS)
def test_criterion_05_signed_symmetry_equivariance(spec):
    worst = h_equivariance_check(spec, n_trials=100, rng=RngStream(500))
    assert worst <= 1e-12, f"worst residual {worst:.3e}"


def test_criterion_05_negative_control():
    spec = make_space("AIII", 4, 2, 2)
    generics = [haar_unitary(4, RngStream(501, (i,))) for i in range(5)]
    worst = h_equivariance_check(spec, rng=RngStream(502), conjugators=generics)
    assert worst > 1e-3, "generic unitaries must break equivariance"


# --------------------------------------------------------------------------
# 6. sampled-moment equivariance under the fixed subgroup
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family,dim,p,q,seed",
    [("AI", 3, None, None, 600), ("AIII", 4, 2, 2, 601)],
    ids=["AI-3", "AIII-4-2-2"],
)
def test_criterion_06_subgroup_equivariance(family, dim, p, q, seed):
    spec = make_space(family, dim, p, q)
    report = k_equivariance_check(spec, 100_000, RngStream(seed))
    assert report.max_sems <= 5.0, f"worst entry off by {report.max_sems:.2f} sems"


# --------------------------------------------------------------------------
# 7. estimator unbiasedness for every family
# --------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_D4_SPECS, ids=ALL_D4_IDS)
def test_criterion_07_unbiasedness(spec):
    # orthogonal-parent channels annihilate antisymmetric components, so
    # those families get real symmetric observables; every other channel at
    # these parameters has a trivial null space
    symmetric = spec.parent == "O"
    seed = 700 + ALL_D4_SPECS.index(spec)
    rho = random_pure_state(4, RngStream(seed, (0,)))
    obs = random_observable(4, 0.5, symmetric=symmetric, rng=RngStream(seed, (1,)))
    values = shadow_estimates(spec, rho, obs, 100_000, RngStream(seed, (2,)))
    truth = float(np.trace(rho @ obs).real)
    sem = float(values.std(ddof=1) / np.sqrt(values.size))
    assert abs(float(values.mean()) - truth) <= 5 * sem


# --------------------------------------------------------------------------
# 8. closed-form second moment against the empirical estimator
# --------------------------------------------------------------------------

SECOND_MOMENT_CELLS = [
    (family, s, weight)
    for family, signatures in (("AIII", (0, 4, 8)), ("BDI", (0, 2, 4)))
    for s in signatures
    for weight in (0.0, 0.5, 1.0)
]


@pytest.mark.parametrize(
    "family,s,weight",
    SECOND_MOMENT_CELLS,
    ids=[f"{f}-s{s}-w{w}" for f, s, w in SECOND_MOMENT_CELLS],
)
def test_criterion_08_second_moment_closed_form(family, s, weight):
    d = 8
    spec = make_space(family, d, (d + s) // 2, (d - s) // 2)
    seed = 800 + 100 * (family == "BDI") + 10 * s + int(2 * weight)
    rho = random_pure_state(d, RngStream(seed, (0,)))
    obs = random_observable(d, weight, rng=RngStream(seed, (1,)))
    predicted = analytic_second_moment(rho, obs, spec)
    values = shadow_estimates(spec, rho, obs, 100_000, RngStream(seed, (2,)))
    empirical = float((values**2).mean())
    if predicted < 1e-12:
        # fully dephasing ensemble measuring a purely off-diagonal
        # observable: both sides vanish identically
        assert empirical < 1e-12
    else:
        assert abs(empirical - predicted) <= 0.05 * predicted, (
            f"empirical {empirical:.5f} vs predicted {predicted:.5f}"
        )


# --------------------------------------------------------------------------
# 9. variance advantage of signature-tuned ensembles at d = 32
# --------------------------------------------------------------------------


def test_criterion_09_variance_advantage_d32():
    config = SweepConfig(
        dim=32,
        families=("AIII", "U", "BDI", "O"),
        signature_fractions=(0.875,),
        diag_weights=(1.0,),
        n_instances=20,
        n_shots=2000,
        seed=900,
    )
    rows = variance_sweep(config)
    variance = {(r.family, r.instance): r.empirical_variance for r in rows}
    aiii_wins = sum(
        variance[("AIII", i)] < variance[("U", i)] for i in range(20)
    )
    bdi_wins = sum(variance[("BDI", i)] < variance[("O", i)] for i in range(20))
    assert aiii_wins >= 16, f"AIII beat U on only {aiii_wins}/20 instances"
    assert bdi_wins >= 16, f"BDI beat O on only {bdi_wins}/20 instances"
    snapped = [r.c_actual for r in rows if r.family == "AIII"]
    assert all(c == 0.875 for c in snapped)


def test_criterion_09_group_variance_ratio():
    config = SweepConfig(
        dim=32,
        families=("U", "O"),
        signature_fractions=(0.0,),
        diag_weights=(0.5,),
        n_instances=20,
        n_shots=2000,
        seed=901,
        symmetric_observables=True,
    )
    rows = variance_sweep(config)
    variance = {(r.family, r.instance): r.empirical_variance for r in rows}
    ratios = [variance[("U", i)] / variance[("O", i)] for i in range(20)]
    median = float(np.median(ratios))
    assert 1.4 <= median <= 2.6, f"median U/O variance ratio {median:.3f}"


# --------------------------------------------------------------------------
# 10. pair-partition combinatorics
# --------------------------------------------------------------------------


def test_criterion_10_pair_partition_counts():
    double_factorials = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945, 6: 10395}
    for k, expected in double_factorials.items():
        parts = pair_partitions(k)
        assert len(parts) == expected
        assert len({p.pairs for p in parts}) == expected


# --------------------------------------------------------------------------
# 11. degenerate block collapse
# --------------------------------------------------------------------------


def test_criterion_11_degenerate_block_collapse():
    spec = make_space("AIII", 4, 4, 0)
    draws = sample_point(spec, RngStream(1100), size=64)
    assert np.array_equal(draws, np.broadcast_to(np.eye(4), draws.shape))
    gen = RngStream(1101).generator()
    m = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    m = m + m.conj().T
    # bitwise equality: the parent term carries weight exactly 0.0
    assert np.array_equal(apply_channel(spec, m), dephase(m))
    weights = channel_weights(spec)
    assert weights.mixing_weight == 1
    assert weights.dephasing_weight == 1


# --------------------------------------------------------------------------
# 12. d = 2 point clouds on the sphere
# --------------------------------------------------------------------------


def _bloch_cloud(spec, seed, n):
    v = sample_point(spec, RngStream(seed), size=n)
    a, b = v[:, 0, 0], v[:, 1, 0]
    cross = a.conj() * b
    return (
        2.0 * cross.real,
        2.0 * cross.imag,
        np.abs(a) ** 2 - np.abs(b) ** 2,
    )


def _uniformity_statistic(z):
    counts, _ = np.histogram(z, bins=20, range=(-1.0, 1.0))
    expected = z.size / 20
    return float(((counts - expected) ** 2 / expected).sum())


def test_criterion_12_bloch_point_clouds():
    n = 100_000
    # The 99% quantile of chi-squared with 19 degrees of freedom, the value
    # of scipy.stats.chi2.ppf(0.99, 19): 20 histogram bins less one.
    threshold = 36.19086912927004
    x, y, z = _bloch_cloud(make_space("U", 2), 1200, n)
    for name, coord in (("x", x), ("y", y), ("z", z)):
        sem = float(coord.std(ddof=1) / np.sqrt(n))
        assert abs(float(coord.mean())) <= 5 * sem, f"E[{name}] != 0"
    zsq = z**2
    sem = float(zsq.std(ddof=1) / np.sqrt(n))
    assert abs(float(zsq.mean()) - 1 / 3) <= 5 * sem
    # a uniform cloud must not reject uniformity of z at the 1% level...
    assert _uniformity_statistic(z) < threshold
    # ...while the balanced-quotient cloud must reject it decisively
    _, _, zq = _bloch_cloud(make_space("AIII", 2, 1, 1), 1201, n)
    assert _uniformity_statistic(zq) > threshold
