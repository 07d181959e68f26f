"""Combinatorics, Monte-Carlo twirls, and the moment-tensor fit."""

import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import symshadows
from symshadows import haar, momentlab
from symshadows.channel import apply_channel, build_superoperator, channel_weights
from symshadows.haar import haar_unitary, symplectic_form, symplectic_pairing
from symshadows.momentlab import (
    FitDegenerateError,
    MomentCheck,
    PairedTwirlReport,
    fit_channel_coefficients,
    h_equivariance_check,
    k_equivariance_check,
    mc_channel,
    mc_moment_tensor,
    mc_twirl,
    moment_identities_ai,
    pair_partitions,
)
from symshadows.rng import RngStream
from symshadows.spaces import make_space, sample_point

DOUBLE_FACTORIALS = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945, 6: 10395}


# ----------------------------------------------------------- combinatorics


@pytest.mark.parametrize("k,count", sorted(DOUBLE_FACTORIALS.items()))
def test_pair_partition_counts(k, count):
    parts = pair_partitions(k)
    assert len(parts) == count
    assert len({p.pairs for p in parts}) == count


def test_pair_partitions_k2_canonical_order():
    assert [p.pairs for p in pair_partitions(2)] == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ]


def test_pair_partitions_cover_all_points():
    for p in pair_partitions(3):
        flat = sorted(x for pair in p.pairs for x in pair)
        assert flat == list(range(1, 7))
        assert all(a < b for a, b in p.pairs)
        assert len(p) == 3


def test_pair_partitions_rejects_nonpositive():
    with pytest.raises(ValueError):
        pair_partitions(0)


# ------------------------------------------------------- Monte-Carlo twirls


def test_mc_twirl_matches_closed_form_first_order():
    # symmetric-unitary ensemble: E[V A V^dagger] = (tr(A) 1 + A^T) / (d+1)
    d = 3
    spec = make_space("AI", d)
    gen = RngStream(21).generator()
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    est = mc_twirl(spec, 1, a, 40_000, RngStream(22))
    expected = (np.trace(a) * np.eye(d) + a.T) / (d + 1)
    assert est.n_samples == 40_000
    sems = np.abs(est.mean - expected) / est.sem
    assert sems.max() <= 5.0


def test_mc_twirl_third_order_fixes_a_permutation_of_the_factors():
    # V^(x)3 commutes with the cyclic shift |a, b, c> -> |b, c, a> of
    # (C^d)^(x)3, so every draw's term, and the twirl, is the shift itself.
    d = 2
    shift = np.zeros((d**3, d**3))
    for a, b, c in itertools.product(range(d), repeat=3):
        shift[(b * d + c) * d + a, (a * d + b) * d + c] = 1.0
    est = mc_twirl(make_space("U", d), 3, shift, 8, RngStream(23))
    np.testing.assert_allclose(est.mean, shift, rtol=0, atol=1e-12)


def test_mc_twirl_rejects_unsupported_order():
    spec = make_space("U", 3)
    with pytest.raises(ValueError):
        mc_twirl(spec, 4, np.eye(3), 100, RngStream(0))


def test_mc_channel_matches_exact_channel():
    spec = make_space("CI", 4)
    gen = RngStream(23).generator()
    a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
    a = a + a.conj().T
    est = mc_channel(spec, a, 30_000, RngStream(24))
    expected = apply_channel(spec, a)
    sems = np.abs(est.mean - expected) / est.sem
    assert sems.max() <= 5.0


def test_mc_moment_tensor_matches_superoperator():
    spec = make_space("BDI", 3, 2, 1)
    d = spec.dim
    tensor = mc_moment_tensor(spec, 64_000, RngStream(25))
    assert tensor.mean.shape == (d, d, d, d)
    expected = build_superoperator(spec).reshape(d, d, d, d).transpose(2, 3, 0, 1)
    sem = np.maximum(tensor.sem, 1e-15)
    assert (np.abs(tensor.mean - expected) / sem).max() <= 5.0


# -------------------------------------------------------------- moment fit


def test_fit_recovers_exact_weights_unitary_parent():
    spec = make_space("AI", 3)
    fit = fit_channel_coefficients(spec, 60_000, RngStream(26))
    assert fit.labels == ("delta_ab_delta_ij", "delta_ai_delta_bj", "delta_abij")
    alpha = float(channel_weights(spec).mixing_weight)
    assert abs(fit.mixing_weight - alpha) <= 5 * fit.mixing_weight_sem
    assert fit.dephasing_weight == fit.mixing_weight
    assert fit.residual_norm < 3 * fit.noise_floor


def test_fit_recovers_exact_weights_symplectic_parent():
    spec = make_space("CI", 4)
    fit = fit_channel_coefficients(spec, 60_000, RngStream(27))
    w = channel_weights(spec)
    assert abs(fit.mixing_weight - float(w.mixing_weight)) <= 5 * fit.mixing_weight_sem
    assert (
        abs(fit.dephasing_weight - float(w.dephasing_weight))
        <= 5 * fit.dephasing_weight_sem
    )
    # the form-pairing tensor never appears for quotient ensembles: its
    # per-sample projection is identically zero
    form_idx = fit.labels.index("form_aj_form_bi")
    c, s = fit.coefficients[form_idx], fit.standard_errors[form_idx]
    assert abs(c) <= 5 * s + 1e-12
    assert fit.residual_norm < 3 * fit.noise_floor


def test_fit_orthogonal_parent_uses_swap_tensor():
    spec = make_space("DIII", 4)
    fit = fit_channel_coefficients(spec, 40_000, RngStream(28))
    assert "delta_aj_delta_bi" in fit.labels
    alpha = float(channel_weights(spec).mixing_weight)
    assert abs(fit.mixing_weight - alpha) <= 5 * fit.mixing_weight_sem
    assert fit.residual_norm < 3 * fit.noise_floor


def test_fit_degenerate_basis_raises():
    with pytest.raises(FitDegenerateError, match="d = 2"):
        fit_channel_coefficients(make_space("BDI", 2, 1, 1), 100, RngStream(0))


# ------------------------------------------------- identities, equivariance


def test_moment_deviation_in_standard_errors():
    assert MomentCheck("x", 1.0, 0.1, 1.25).deviation_sems == pytest.approx(2.5)
    assert MomentCheck("x", 1.0, 0.0, 1.0).deviation_sems == 0.0
    assert MomentCheck("x", 1.0, 0.0, 2.0).deviation_sems == float("inf")


def test_zero_sem_means_zero_within_roundoff_and_inf_beyond():
    # every draw gave the same value: only roundoff separates it from the target
    assert MomentCheck("x", 1.0, 0.0, 1.0 + 1e-13).deviation_sems == 0.0
    assert MomentCheck("x", 1.0, 0.0, 1.0 + 1e-9).deviation_sems == float("inf")
    assert PairedTwirlReport(5.6e-17, 0.0, 100).max_sems == 0.0
    assert PairedTwirlReport(1e-9, 0.0, 100).max_sems == float("inf")
    np.testing.assert_array_equal(
        momentlab._sem_deviation(np.ones(3), np.array([1.0, 2.0, 1.5]), np.array([0, 0, 0.25])),
        [0.0, np.inf, 2.0],
    )


def test_k_equivariance_of_a_single_point_ensemble_passes():
    # CII(d=2) is the point {1}: the paired twirls agree to roundoff, SEM 0
    for seed in range(3):
        report = k_equivariance_check(make_space("CII", 2), 100, RngStream(seed))
        assert report.sem_at_max == 0.0 and report.max_sems == 0.0


def test_fourth_moment_identities():
    checks = moment_identities_ai(2, 60_000, RngStream(29))
    assert [c.name for c in checks] == ["E|V_11|^4", "E|V_12|^4"]
    assert checks[0].expected == pytest.approx(8 / 15)
    assert checks[1].expected == pytest.approx(1 / 5)
    assert max(c.deviation_sems for c in checks) <= 5.0


def test_k_equivariance_holds_for_fixed_subgroup():
    report = k_equivariance_check(make_space("AI", 3), 20_000, RngStream(30))
    assert report.max_sems <= 5.0


def test_k_equivariance_negative_control():
    # a generic unitary is not in the fixed subgroup, so the paired twirls
    # must disagree by many standard errors
    spec = make_space("AIII", 4, 2, 2)
    generic = haar_unitary(4, RngStream(31))
    report = k_equivariance_check(
        spec, 20_000, RngStream(32), conjugator=generic
    )
    assert report.max_sems > 10.0


@pytest.mark.parametrize(
    "family,kwargs",
    [
        ("U", {}),
        ("O", {}),
        ("SO", {}),
        ("SP", {}),
        ("AI", {}),
        ("AII", {}),
        ("AIII", {"p": 2, "q": 2}),
        ("BDI", {"p": 2, "q": 2}),
        ("DIII", {}),
        ("CI", {}),
        ("CII", {"p": 1, "q": 1}),
    ],
)
def test_h_equivariance_exact(family, kwargs):
    spec = make_space(family, 4, **kwargs)
    assert h_equivariance_check(spec, n_trials=10, rng=RngStream(33)) < 1e-12


def test_h_equivariance_negative_control():
    spec = make_space("AIII", 4, 2, 2)
    generic = [haar_unitary(4, RngStream(34))]
    assert h_equivariance_check(spec, rng=RngStream(35), conjugators=generic) > 1e-3


@pytest.mark.parametrize(
    "kwargs", [{"n_trials": 0}, {"n_trials": -3}, {"conjugators": []}]
)
def test_h_equivariance_refuses_zero_trials_before_drawing(monkeypatch, kwargs):
    # A worst residual over no trials would be a passing 0.0.
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match="at least 1 trial"):
        h_equivariance_check(make_space("AI", 3), rng=RngStream(36), **kwargs)
    assert h_equivariance_check(
        make_space("AI", 3), rng=RngStream(36), conjugators=[np.eye(3)]
    ) < 1e-12


# ---------------------------------------- closed-form Gram and the residual


def _basis_entries(d):
    """Each delta tensor of the module docstring as a function of (a, b, i, j)."""
    form, partner = (symplectic_form(d), symplectic_pairing(d)[0]) if d % 2 == 0 else (0, 0)
    return {
        "delta_ab_delta_ij": lambda a, b, i, j: int(a == b and i == j),
        "delta_ai_delta_bj": lambda a, b, i, j: int(a == i and b == j),
        "delta_aj_delta_bi": lambda a, b, i, j: int(a == j and b == i),
        "form_aj_form_bi": lambda a, b, i, j: int(form[a, j] * form[b, i]),
        "delta_abij": lambda a, b, i, j: int(a == b == i == j),
        "delta_ab_pair_ij": lambda a, b, i, j: int(a == b and i == j == partner[a]),
        "delta_ai_pair_bj": lambda a, b, i, j: int(a == i and b == j == partner[a]),
    }


def _basis_by_loops(labels, d):
    entries = _basis_entries(d)
    return [
        [entries[label](*idx) for idx in itertools.product(range(d), repeat=4)]
        for label in labels
    ]


@pytest.mark.parametrize(
    "parent,d",
    [("U", 1), ("U", 2), ("U", 3), ("U", 5), ("O", 3), ("O", 4), ("O", 5),
     ("SP", 2), ("SP", 4), ("SP", 6)],
)
def test_closed_form_gram_equals_entrywise_basis_gram(parent, d):
    labels, gram = momentlab._basis_gram(parent, d)
    basis = _basis_by_loops(labels, d)
    expected = [[sum(x * y for x, y in zip(s, t)) for t in basis] for s in basis]
    assert np.array_equal(gram, np.array(expected, dtype=float))


class _DenseDraw:
    """A served stack of matrices as a ``dense=False`` draw: ``apply`` only."""

    def __init__(self, v):
        self.v = v
        self.size = len(v)

    def apply(self, y):
        return np.einsum("nij,jn->in", self.v, y)


def _fixed_draws(monkeypatch, draws):
    """Serve ``draws`` in order to every momentlab.sample_point call."""
    served = [0]

    def fixed(spec, rng=None, size=None, dense=True):
        start = served[0]
        served[0] += size
        batch = draws[start : start + size]
        return batch if dense else _DenseDraw(batch)

    monkeypatch.setattr(momentlab, "sample_point", fixed)
    return served


@pytest.mark.parametrize(
    "family,dim,p,q", [("AI", 3, None, None), ("DIII", 4, None, None), ("CII", 4, 1, 1)]
)
def test_fit_residual_is_the_distance_to_the_fitted_tensor(monkeypatch, family, dim, p, q):
    spec = make_space(family, dim, p, q)
    n = 600
    v = sample_point(spec, RngStream(40), size=n).astype(complex)
    _fixed_draws(monkeypatch, v)
    fit = fit_channel_coefficients(spec, n, RngStream(41))
    t_hat = np.einsum("nwa,nwb,nwi,nwj->abij", v, v.conj(), v.conj(), v) / n
    basis = np.array(_basis_by_loops(fit.labels, dim), dtype=float)
    fitted = (fit.coefficients @ basis).reshape(t_hat.shape)
    expected = float(np.linalg.norm(t_hat - fitted))
    assert fit.residual_norm == pytest.approx(expected, rel=1e-9)


# U, O and SP parents at d in {1, 2, 3, 5, 8}: the O-parent draws and the
# single point AIII(2, 2, 0) are real and take the real-arithmetic path.
_SQUARE_SPECS = [
    ("U", 1, None, None),
    ("U", 2, None, None),
    ("U", 3, None, None),
    ("U", 5, None, None),
    ("U", 8, None, None),
    ("O", 1, None, None),
    ("O", 3, None, None),
    ("O", 5, None, None),
    ("O", 8, None, None),
    ("SP", 2, None, None),
    ("SP", 8, None, None),
    ("AI", 5, None, None),
    ("AIII", 2, 2, 0),
    ("BDI", 5, 4, 1),
    ("CII", 6, 2, 1),
    ("CI", 8, None, None),
]


@pytest.mark.parametrize("family,dim,p,q", _SQUARE_SPECS)
def test_packed_pair_gram_has_the_norm_of_the_full_pair_gram(family, dim, p, q):
    v = sample_point(make_space(family, dim, p, q), RngStream(52), size=37).astype(complex)
    full = np.einsum("nwa,nwb,nwi,nwj->abij", v, v.conj(), v.conj(), v)
    packed = np.zeros((dim * (dim + 1) // 2,) * 2, dtype=complex)
    momentlab._add_packed_pair_gram(packed, v)
    assert np.allclose(packed, packed.conj().T, rtol=0, atol=1e-12 * np.abs(packed).max())
    assert np.linalg.norm(packed) == pytest.approx(np.linalg.norm(full), rel=1e-12)
    unpacked = momentlab._unpack_pair_gram(packed, dim)
    np.testing.assert_allclose(unpacked, full, rtol=0, atol=1e-12 * np.abs(full).max())


def _gram_reference(v):
    """sum_w g_w g_w^dagger as one complex gemm over the packed pair products."""
    d = v.shape[-1]
    rows = v.reshape(-1, d).astype(complex)
    a, j = np.triu_indices(d)
    g = (rows[:, a] * rows[:, j] * np.where(a == j, 1.0, np.sqrt(2.0))).T
    return g @ g.conj().T


# Real (BDI), complex (AI, CI) and single-point (AIII and BDI with an empty
# block) draws whose rows span several Gram blocks and end in a partial one.
@pytest.mark.parametrize(
    "family,dim,p,q,size",
    [("AI", 8, None, None, 700), ("CI", 6, None, None, 2000), ("BDI", 8, 4, 4, 1500),
     ("AIII", 8, 8, 0, 700), ("BDI", 8, 8, 0, 1500)],
)
def test_blocked_pair_gram_matches_one_complex_gemm(family, dim, p, q, size):
    v = sample_point(make_space(family, dim, p, q), RngStream(54), size=size)
    n_rows = size * dim
    per_row = (8 if v.dtype.kind == "f" else 16) * dim * (dim + 1) // 2
    block = momentlab._GRAM_BLOCK_BYTES // per_row
    assert n_rows > 2 * block and n_rows % block
    expected = _gram_reference(v)
    packed = np.zeros_like(expected)
    # Two calls accumulate, as the fit's batches do.
    momentlab._add_packed_pair_gram(packed, v[: size // 3])
    momentlab._add_packed_pair_gram(packed, v[size // 3 :])
    assert np.linalg.norm(packed - expected) <= 1e-12 * np.linalg.norm(expected)


def test_pair_gram_working_set_does_not_grow_with_the_batch():
    # The whole-batch gemm of a 2048-draw AI(8) batch held 22 MB of pair
    # products and their conjugate transpose; blocks keep it a few MB.
    v = sample_point(make_space("AI", 8), RngStream(55), size=2048)
    packed = np.zeros((36, 36), dtype=complex)
    tracemalloc.start()
    try:
        momentlab._add_packed_pair_gram(packed, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# Seeded fits, 3000 draws each: draws, coefficients, standard errors and
# weights are exact; residual_norm, a difference of two squared norms, is
# pinned to 1e-9 relative, as its summation order is not part of the contract.
_PINNED_FITS = {
    ("AI", 4, None, None, 61): (
        [0.18622749762047594, 0.18622749762047594, 0.06886251189761945],
        [0.0006317845767977936, 0.0006317845767977899, 0.0031589228839889296],
        (0.06886251189761945, 0.0031589228839889296),
        (0.06886251189761945, 0.0031589228839889296),
        0.025068068835706968,
    ),
    ("BDI", 5, 4, 1, 62): (
        [0.10461719731056714, 0.10461719731056712, 0.10461719731056714, 0.26767961882602903],
        [0.0005839065445190832, 0.0005839065445190832, 0.0005839065445190832,
         0.004087345811633477],
        (0.26767961882602903, 0.004087345811633477),
        (0.26767961882602903, 0.004087345811633477),
        0.03183019327158279,
    ),
    ("CII", 6, 2, 1, 63): (
        [0.127097751589425, 0.127097751589425, 3.532108889073216e-18, 0.11118136305671208,
         -0.0008656241826861667, -0.0008656241826861783],
        [0.00044733601297731085, 0.00044733601297731085, 3.281745896997518e-20,
         0.002625261365340425, 0.0011499815775442626, 0.0011499815775442626],
        (0.11031573887402502, 0.003131352090841176),
        (0.11118136305671208, 0.002625261365340425),
        0.0374586992262792,
    ),
    ("SP", 4, None, None, 64): (
        [0.19869438769236633, 0.19869438769236633, -1.428891727162096e-17,
         0.0034057263041770464, 0.003122335233990033, 0.003122335233990076],
        [0.00099203250127441, 0.00099203250127441, 1.7720973646489307e-19,
         0.003453722420874627, 0.0019720631971379492, 0.001972063197137949],
        (0.006528061538168317, 0.004960162506372049),
        (0.0034057263041770464, 0.003453722420874627),
        0.02592421513039611,
    ),
}


@pytest.mark.parametrize("case", sorted(_PINNED_FITS, key=str))
def test_seeded_fits_are_pinned(case):
    family, dim, p, q, seed = case
    coef, sems, mixing, dephasing, residual = _PINNED_FITS[case]
    fit = fit_channel_coefficients(make_space(family, dim, p, q), 3000, RngStream(seed))
    assert fit.coefficients.tolist() == coef
    assert fit.standard_errors.tolist() == sems
    assert (fit.mixing_weight, fit.mixing_weight_sem) == mixing
    assert (fit.dephasing_weight, fit.dephasing_weight_sem) == dephasing
    assert fit.residual_norm == pytest.approx(residual, rel=1e-9)


def test_study_path_loads_no_second_blas():
    # scipy ships its own OpenBLAS, whose thread pool would compete with
    # NumPy's, and takes about 0.3 s to import.  The package needs only
    # NumPy: the d = 8 fits and one at AI(24), dense draws up to d = 128,
    # K draws, the d = 16 sweep and the estimation path (streamed runs up to
    # d = 128, and a recorded round) must not import it.
    script = (
        "import sys\n"
        "from symshadows import momentlab, shadows, spaces\n"
        "for family in spaces.QUOTIENT_FAMILIES:\n"
        "    momentlab.fit_channel_coefficients(spaces.make_space(family, 8), 256, rng=0)\n"
        "momentlab.fit_channel_coefficients(spaces.make_space('AI', 24), 512, rng=0)\n"
        "for family in ('U', 'O', 'AI', 'BDI'):\n"
        "    for dim in (32, 128):\n"
        "        spaces.sample_point(spaces.make_space(family, dim), 1, size=2)\n"
        "spaces.sample_subgroup(spaces.make_space('AIII', 64), 1, size=2)\n"
        "shadows.variance_sweep(shadows.SweepConfig(\n"
        "    dim=16, signature_fractions=(0.25, 0.75), diag_weights=(0.2, 0.9),\n"
        "    n_instances=1, n_shots=64, seed=0))\n"
        "for args in (('U', 32), ('CII', 32, 8, 8), ('AIII', 128, 64, 64)):\n"
        "    spec = spaces.make_space(*args)\n"
        "    rho = shadows.random_pure_state(spec.dim, 1)\n"
        "    obs = shadows.random_observable(spec.dim, 0.5, rng=2)\n"
        "    shadows.run_estimation(spec, rho, obs, 64, rng=3)\n"
        "rec = shadows.sample_outcome(spec, rho, 4)\n"
        "shadows.estimate_observable([rec], obs, spec)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    package_root = str(Path(symshadows.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# ------------------------------------------------- the checked draw loop


_ESTIMATORS = {
    "mc_twirl": lambda spec, n, rng: mc_twirl(spec, 2, np.eye(spec.dim**2), n, rng),
    "mc_channel": lambda spec, n, rng: mc_channel(spec, np.eye(spec.dim), n, rng),
    "mc_moment_tensor": lambda spec, n, rng: mc_moment_tensor(spec, n, rng),
    "fit_channel_coefficients": lambda spec, n, rng: fit_channel_coefficients(spec, n, rng),
    "moment_identities_ai": lambda spec, n, rng: moment_identities_ai(spec.dim, n, rng),
    "k_equivariance_check": lambda spec, n, rng: k_equivariance_check(spec, n, rng),
}


@pytest.mark.parametrize("budget", [None, 16 * 3**4 * 5])
@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_every_estimator_draws_exactly_n_samples_through_sample_point(
    monkeypatch, name, budget
):
    # 96 draws split evenly into the 32 blocks of mc_moment_tensor; the small
    # budget forces several batches on every estimator.
    spec = make_space("AI", 3)
    if budget is not None:
        monkeypatch.setattr(momentlab, "_BATCH_BYTES", budget)
    sizes = []
    original = momentlab.sample_point

    def counting(spec, rng=None, size=None, dense=True):
        sizes.append(size)
        return original(spec, rng, size=size, dense=dense)

    monkeypatch.setattr(momentlab, "sample_point", counting)
    _ESTIMATORS[name](spec, 96, RngStream(42))
    assert sum(sizes) == 96
    if budget is not None:
        assert len(sizes) > 1


def test_batches_keep_their_caps_at_the_sizes_seeded_outputs_use(monkeypatch):
    # A d = 8 fit batch fills the byte budget exactly and must stay whole,
    # or seeded U/O-parent draws would change.
    sizes = []
    original = momentlab.sample_point

    def counting(spec, rng=None, size=None, dense=True):
        sizes.append(size)
        return original(spec, rng, size=size, dense=dense)

    monkeypatch.setattr(momentlab, "sample_point", counting)
    fit_channel_coefficients(make_space("AI", 8), 8193, RngStream(46))
    assert sizes == [8192, 1]


def test_standard_errors_are_the_per_draw_sample_sem(monkeypatch):
    spec = make_space("AIII", 4, 3, 1)
    n = 400
    v = sample_point(spec, RngStream(47), size=n).astype(complex)
    a = np.diag([1.0, -2.0, 0.5, 3.0]) + 0.25j * np.eye(4, k=1)

    def sample_sem(z):
        return np.std(z, axis=0, ddof=1) / np.sqrt(n)

    _fixed_draws(monkeypatch, v)
    est = mc_channel(spec, a, n, RngStream(48))
    z = np.array(
        [sum((vn @ a @ vn.conj().T)[w, w] * np.outer(vn[w].conj(), vn[w]) for w in range(4))
         for vn in v]
    )
    np.testing.assert_allclose(est.mean, z.mean(axis=0), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(est.sem, sample_sem(z), rtol=1e-9)

    _fixed_draws(monkeypatch, v)
    fit = fit_channel_coefficients(spec, n, RngStream(49))
    basis = np.array(_basis_by_loops(fit.labels, 4), dtype=float)
    per_draw = np.einsum("nwa,nwb,nwi,nwj->nabij", v, v.conj(), v.conj(), v).reshape(n, -1)
    c = (per_draw.real @ basis.T) @ np.linalg.inv(basis @ basis.T)
    np.testing.assert_allclose(fit.coefficients, c.mean(axis=0), rtol=1e-10)
    np.testing.assert_allclose(fit.standard_errors, sample_sem(c), rtol=1e-9)

    ai = make_space("AI", 4)
    w = sample_point(ai, RngStream(50), size=n)
    _fixed_draws(monkeypatch, w)
    checks = moment_identities_ai(4, n, RngStream(51))
    x = np.abs(w[:, 0, :2]) ** 4
    np.testing.assert_allclose([c.estimate for c in checks], x.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose([c.sem for c in checks], sample_sem(x), rtol=1e-9)


def test_moment_tensor_blocks_do_not_depend_on_the_batch_split(monkeypatch):
    spec = make_space("CI", 4)
    draws = sample_point(spec, RngStream(43), size=320).astype(complex)
    _fixed_draws(monkeypatch, draws)
    whole = mc_moment_tensor(spec, 320, RngStream(44))
    # 10 draws per block, in batches of 3
    monkeypatch.setattr(momentlab, "_BATCH_BYTES", 16 * 4**3 * 3)
    served = _fixed_draws(monkeypatch, draws)
    split = mc_moment_tensor(spec, 320, RngStream(44))
    assert served[0] == 320
    np.testing.assert_allclose(split.mean, whole.mean, atol=1e-13)
    np.testing.assert_allclose(split.sem, whole.sem, atol=1e-13)


def _refuse_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew before checking the request")

    monkeypatch.setattr(momentlab, "sample_point", refuse)
    monkeypatch.setattr(momentlab, "sample_subgroup", refuse)
    monkeypatch.setattr(momentlab, "sample_signed_symmetry", refuse)


@pytest.mark.parametrize("n", [1, 0, -3])
@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_estimators_refuse_fewer_than_two_samples_before_drawing(monkeypatch, name, n):
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match="at least 2 samples"):
        _ESTIMATORS[name](make_space("AI", 3), n, RngStream(45))


@pytest.mark.parametrize("n", [2.5, True, "3"])
@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_estimators_reject_non_integral_sample_counts_before_drawing(monkeypatch, name, n):
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match="^n_samples must be an integer, got"):
        _ESTIMATORS[name](make_space("AI", 3), n, RngStream(45))


@pytest.mark.parametrize("name", sorted(_ESTIMATORS))
def test_estimators_take_an_integral_float_sample_count(name):
    def fields(result):
        return [dataclasses.astuple(r) for r in (result if isinstance(result, list) else [result])]

    spec = make_space("AI", 3)
    np.testing.assert_equal(
        fields(_ESTIMATORS[name](spec, 64.0, RngStream(45))),
        fields(_ESTIMATORS[name](spec, 64, RngStream(45))),
    )


@pytest.mark.parametrize("n_trials", [2.5, True, "3"])
def test_h_equivariance_rejects_non_integral_trial_counts(monkeypatch, n_trials):
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match="^n_trials must be an integer, got"):
        h_equivariance_check(make_space("AI", 3), n_trials, RngStream(36))


def test_study_loop_keeps_real_draws_real():
    # Realness is the spec's is_real: the pair Gram then takes real arithmetic.
    for spec in (make_space("BDI", 4), make_space("DIII", 4), make_space("O", 3),
                 make_space("AI", 3), make_space("CI", 4)):
        batches = list(momentlab._batches(spec, RngStream(46).generator(), 5, 8, 16))
        expected = np.float64 if spec.is_real else np.complex128
        assert [b.dtype for b in batches] == [expected], spec.label()


def test_moment_identities_reject_a_single_sample():
    with pytest.raises(ValueError, match="at least 2 samples"):
        moment_identities_ai(2, 1)


def test_study_estimators_refuse_sizes_they_cannot_hold(monkeypatch):
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=r"SP\(d=128\).* need \d+ bytes .*limit is \d+ bytes"):
        fit_channel_coefficients(make_space("SP", 128), 10)
    with pytest.raises(ValueError, match=r"U\(d=64\).* need \d+ bytes .*limit is \d+ bytes"):
        mc_moment_tensor(make_space("U", 64), 64)


def test_twirl_refuses_a_draw_past_physical_memory_before_drawing(monkeypatch):
    # One order-3 draw at d = 9 is a complex 729 x 729 matrix, 8.5 MB; the
    # operand is a broadcast view, which holds nothing, as at d = 64, where
    # one draw would be a terabyte.
    monkeypatch.setattr(haar, "_physical_memory", lambda: 4 * 2**20)
    spec, gen = make_space("U", 9), RngStream(47).generator()
    with pytest.raises(ValueError, match=r"^k=3, d=9: one draw needs 8503056 bytes"):
        mc_twirl(spec, 3, np.broadcast_to(np.complex128(1.0), (9**3, 9**3)), 4, gen)
    assert gen.random() == RngStream(47).generator().random()
    assert mc_twirl(spec, 2, np.eye(81), 4, gen).mean.shape == (81, 81)


def test_moment_tensor_size_check_admits_d30_and_refuses_d31(monkeypatch):
    # Packed block means 32 * 16 P^2 plus mean and SEM 24 d^4 bytes: d = 30
    # fits under STATE_MAX_BYTES, d = 31 does not.
    _refuse_draws(monkeypatch)
    with pytest.raises(ValueError, match=r"U\(d=31\).* need \d+ bytes"):
        mc_moment_tensor(make_space("U", 31), 64)
    with pytest.raises(AssertionError, match="drew before checking"):
        mc_moment_tensor(make_space("U", 30), 64)


def test_moment_tensor_holds_packed_block_means():
    # The d^2 x d^2 block means of the full pair-product Gram alone would
    # take 32 * 16 d^4 bytes.
    d = 16
    tracemalloc.start()
    try:
        tensor = mc_moment_tensor(make_space("U", d), 64, RngStream(54))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tensor.mean.shape == (d, d, d, d) and tensor.n_samples == 64
    assert peak < 32 * 16 * d**4
