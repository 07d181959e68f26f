"""Distributional and structural checks of the parent-group samplers."""

import os
from functools import partial

import numpy as np
import pytest

from symshadows import haar, spaces
from symshadows.haar import (
    DeferredSubspace,
    DeferredUnitary,
    ginibre,
    haar_orthogonal,
    haar_symplectic,
    haar_unitary,
    symplectic_form,
    symplectic_pairing,
)
from symshadows.rng import RngStream
from symshadows.spaces import ALL_FAMILIES, make_space, sample_point, sample_subgroup

N_MOMENT = 200_000


def _sems(estimates, expected):
    mean = estimates.mean()
    sem = estimates.std(ddof=1) / np.sqrt(estimates.size)
    return abs(mean - expected) / sem


def test_ginibre_shapes_and_kinds():
    g = ginibre("complex", 3, RngStream(0))
    assert g.shape == (3, 3) and np.iscomplexobj(g)
    g = ginibre("real", 4, RngStream(0), size=7)
    assert g.shape == (7, 4, 4) and not np.iscomplexobj(g)
    q = ginibre("quaternion", 3, RngStream(0))
    assert q.shape == (6, 6)
    # quaternionic block structure [[A, -conj(B)], [B, conj(A)]]
    np.testing.assert_array_equal(q[3:, 3:], q[:3, :3].conj())
    np.testing.assert_array_equal(q[:3, 3:], -q[3:, :3].conj())
    with pytest.raises(ValueError):
        ginibre("octonion", 3, RngStream(0))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_unitary_is_unitary(d):
    v = haar_unitary(d, RngStream(1), size=64)
    eye = np.eye(d)
    assert np.max(np.abs(np.swapaxes(v.conj(), 1, 2) @ v - eye)) < 1e-12


def test_unitary_single_draw_shape():
    assert haar_unitary(3, RngStream(2)).shape == (3, 3)


def test_unitary_entry_moments():
    d = 3
    v = haar_unitary(d, RngStream(3), size=N_MOMENT)
    x = np.abs(v[:, 0, 0]) ** 2
    assert _sems(x, 1 / d) <= 5
    assert _sems(x**2, 2 / (d * (d + 1))) <= 5


def test_unitary_phase_invariance_of_eigenvalues():
    # the eigenvalue distribution must have zero mean (circular symmetry)
    v = haar_unitary(4, RngStream(4), size=20_000)
    eigs = np.linalg.eigvals(v)
    mean = eigs.mean()
    sem = np.sqrt(np.mean(np.abs(eigs - mean) ** 2) / eigs.size)
    assert abs(mean) <= 5 * sem


# Householder samplers go wrong at the far end of the reflector chain or in
# the gauge: a wrong last reflector or sign shows in the last diagonal
# entry, a wrong phase convention in det g, a misplaced SO fold in det = +1.


@pytest.mark.parametrize("d", [2, 3, 5])
def test_unitary_last_diagonal_entry_moments(d):
    v = haar_unitary(d, RngStream(10, (d,)), size=N_MOMENT)
    x = np.abs(v[:, -1, -1]) ** 2
    assert _sems(x, 1 / d) <= 5
    assert _sems(x**2, 2 / (d * (d + 1))) <= 5


@pytest.mark.parametrize("d", [2, 3, 5])
def test_orthogonal_last_diagonal_entry_moments(d):
    v = haar_orthogonal(d, RngStream(11, (d,)), size=N_MOMENT)
    x = v[:, -1, -1] ** 2
    assert _sems(x, 1 / d) <= 5
    assert _sems(x**2, 3 / (d * (d + 2))) <= 5


@pytest.mark.parametrize("d", [1, 2, 4])
def test_unitary_determinant_is_uniform_on_the_circle(d):
    dets = np.linalg.det(haar_unitary(d, RngStream(12, (d,)), size=20_000))
    assert np.max(np.abs(np.abs(dets) - 1.0)) <= 1e-12
    for power in (1, 2):
        z = dets**power
        sem = np.sqrt(np.mean(np.abs(z - z.mean()) ** 2) / z.size)
        assert abs(z.mean()) <= 5 * sem, power


@pytest.mark.parametrize(
    "family, d", [("SO", 1), ("SO", 2), ("SO", 3), ("SO", 5), ("DIII", 4), ("DIII", 6), ("DIII", 8)]
)
def test_special_orthogonal_parents_have_unit_determinant(family, d):
    # The deferred parent fixes its last direction by det g = +1.
    g = sample_point(make_space(family, d), RngStream(13), 256, dense=False).parent.matrix()
    assert not np.iscomplexobj(g)
    assert np.max(np.abs(np.linalg.det(g) - 1.0)) <= 1e-12


def test_orthogonal_group_parent_takes_both_determinants():
    dets = np.linalg.det(sample_point(make_space("O", 4), RngStream(14), 64, dense=False).parent.matrix())
    assert np.max(np.abs(np.abs(dets) - 1.0)) <= 1e-12
    assert dets.min() < 0 < dets.max()


def _reflectors(sampler, d, rng, size, m=None, special=False):
    """The Householder draw behind ``sampler``'s dense matrices, from the same stream."""
    gen = RngStream(*rng).generator() if isinstance(rng, tuple) else RngStream(rng).generator()
    if sampler is haar_symplectic:
        return haar._symplectic_reflectors(d, gen, size, d // 2 if m is None else m)
    real = sampler is not haar_unitary
    special = special or isinstance(sampler, partial)
    return haar._haar_reflectors(d, gen, size, d if m is None else m, real=real, special=special)


def _applies_its_completion(draw, d, size):
    """``apply``/``apply_adjoint`` before completion agree with ``matrix()`` after it."""
    gen = RngStream(16).generator()
    y = gen.standard_normal((d, size)) + 1j * gen.standard_normal((d, size))
    forward, backward = draw.apply(y), draw.apply_adjoint(y)
    g = draw.matrix()
    assert g.shape == draw.shape
    np.testing.assert_allclose(forward, np.einsum("nij,jn->in", g, y), atol=1e-13)
    np.testing.assert_allclose(backward, np.einsum("nji,jn->in", g.conj(), y), atol=1e-13)
    assert np.max(np.abs(np.swapaxes(g.conj(), 1, 2) @ g - np.eye(d))) < 1e-13
    return g


@pytest.mark.parametrize("sampler", [haar_unitary, haar_orthogonal])
@pytest.mark.parametrize("d", [1, 2, 5, 9, 24])
def test_reflector_draw_applies_its_matrix(sampler, d):
    draw = _reflectors(sampler, d, 15, 7)
    assert draw.reflectors.shape == (d * (d + 1) // 2 - 1, 7)
    assert draw.shape == (7, d, d) and draw.ndim == 3
    np.testing.assert_array_equal(draw.matrix(), sampler(d, RngStream(15), size=7))
    deferred = sampler(d, RngStream(15), size=7, dense=False)
    assert isinstance(deferred, DeferredUnitary) and deferred.shape == (7, d, d)
    g = _applies_its_completion(deferred, d, 7)
    assert g.dtype == (np.complex128 if sampler is haar_unitary else np.float64)


@pytest.mark.parametrize(
    "sampler, d",
    [(partial(ginibre, "complex"), 3), (haar_unitary, 3), (haar_orthogonal, 3),
     (haar_symplectic, 4)],
    ids=["ginibre", "unitary", "orthogonal", "symplectic"],
)
def test_samplers_reject_non_integral_sizes(sampler, d):
    for bad in (2.5, "2", True):
        with pytest.raises(ValueError, match="^size must be an integer, got"):
            sampler(d, RngStream(0), size=bad)
    np.testing.assert_array_equal(
        sampler(d, RngStream(0), size=np.int64(2)), sampler(d, RngStream(0), size=2.0)
    )


@pytest.mark.parametrize("kind", ["real", "complex", "quaternion"])
def test_ginibre_refuses_empty_stacks(kind):
    for bad in (0, -1):
        with pytest.raises(ValueError, match="^size must be a positive integer"):
            ginibre(kind, 3, RngStream(0), size=bad)


@pytest.mark.parametrize(
    "sampler, d, name",
    [(partial(ginibre, "complex"), 4, "n"), (haar_unitary, 4, "d"), (haar_orthogonal, 4, "d"),
     (haar_symplectic, 4, "d")],
    ids=["ginibre", "unitary", "orthogonal", "symplectic"],
)
def test_samplers_reject_non_integral_dimensions(sampler, d, name):
    for bad in (3.5, "3", True, np.float64(2.5)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            sampler(bad, RngStream(0), size=2)
    np.testing.assert_array_equal(
        sampler(float(d), RngStream(0), size=2), sampler(d, RngStream(0), size=2)
    )


#: The physical memory the refusal tests pretend to have: a refusal that
#: fails allocates a few MiB, not the machine.
_SMALL_MEMORY = 4 * 2**20


@pytest.mark.parametrize(
    "draw, request_",
    [(lambda gen: haar_unitary(600, gen), "d=600, size=1"),
     (lambda gen: haar_orthogonal(64, gen, size=200), "d=64, size=200"),
     (lambda gen: haar_symplectic(64, gen, size=100), "d=64, size=100"),
     (lambda gen: haar_unitary(64, gen, size=200, columns=40), "d=64, size=200"),
     (lambda gen: sample_point(make_space("U", 64), gen, 100), "d=64, size=100"),
     (lambda gen: sample_point(make_space("AIII", 64, 2, 62), gen, 100), "d=64, size=100"),
     (lambda gen: sample_point(make_space("AIII", 64, 64, 0), gen, 100), "d=64, size=100"),
     (lambda gen: sample_subgroup(make_space("AIII", 64, 32, 32), gen, 100), "d=64, size=100"),
     (lambda gen: sample_subgroup(make_space("AI", 64), gen, 200), "d=64, size=200")],
    ids=["U", "O", "SP", "U-columns", "point-U", "point-AIII", "point-degenerate",
         "subgroup-AIII", "subgroup-AI"],
)
def test_dense_draws_past_physical_memory_are_refused_before_drawing(monkeypatch, draw, request_):
    # A Grassmannian's parent keeps 2 columns, and a degenerate point draws
    # nothing: the d x d result is what is refused.
    monkeypatch.setattr(haar, "_physical_memory", lambda: _SMALL_MEMORY)
    gen = RngStream(30).generator()
    with pytest.raises(ValueError, match=f"^{request_}: the .* result needs .* physical memory"):
        draw(gen)
    assert gen.random() == RngStream(30).generator().random()
    assert haar_unitary(64, gen, size=10).shape == (10, 64, 64)
    assert haar_orthogonal(64, gen, size=128).nbytes == _SMALL_MEMORY


def test_nothing_is_refused_where_physical_memory_is_unknown(monkeypatch):
    if hasattr(os, "sysconf"):
        assert haar._physical_memory() > _SMALL_MEMORY

    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    for patch in (lambda: monkeypatch.setattr(os, "sysconf", unknown),
                  lambda: monkeypatch.setattr(os, "sysconf", lambda name: -1),
                  lambda: monkeypatch.delattr(os, "sysconf", raising=False)):
        patch()
        assert haar._physical_memory() is None
        haar._refuse_oversize((2**62,), np.complex128, "size")
        assert haar_unitary(8, RngStream(31), size=2).shape == (2, 8, 8)


def test_reflector_draw_rejects_bad_arguments():
    with pytest.raises(ValueError):
        haar_unitary(0, RngStream(0), dense=False)
    with pytest.raises(ValueError):
        haar_orthogonal(3, RngStream(0), size=0)


@pytest.mark.parametrize("special", [False, True])
def test_orthogonal_structure(special):
    d = 4
    v = haar_orthogonal(d, RngStream(5), special=special, size=64)
    assert not np.iscomplexobj(v)
    assert np.max(np.abs(np.swapaxes(v, 1, 2) @ v - np.eye(d))) < 1e-12
    dets = np.linalg.det(v)
    if special:
        assert np.max(np.abs(dets - 1.0)) < 1e-10
    else:
        assert np.max(np.abs(np.abs(dets) - 1.0)) < 1e-10
        assert dets.min() < 0 < dets.max()  # both components show up in 64 draws


def test_orthogonal_entry_moments():
    d = 4
    v = haar_orthogonal(d, RngStream(6), size=N_MOMENT)
    x = v[:, 0, 0] ** 2
    assert _sems(x, 1 / d) <= 5
    assert _sems(x**2, 3 / (d * (d + 2))) <= 5


def test_symplectic_form_properties():
    j = symplectic_form(6)
    assert np.array_equal(j.T, -j)
    assert np.array_equal(j @ j, -np.eye(6))
    with pytest.raises(ValueError):
        symplectic_form(5)


def test_symplectic_pairing_involution():
    jperm, jsign = symplectic_pairing(6)
    assert np.array_equal(jperm[jperm], np.arange(6))
    j = symplectic_form(6)
    for a in range(6):
        assert j[a, jperm[a]] == jsign[a]


# SP(d) is drawn as quaternionic reflectors with one Sp(1) gauge element
# per coordinate.  Sp(n) is transitive on the unit sphere of C^d, so every
# entry has U(d)'s moments; E tr g² = -1 and E|tr g|² = 1 tell Haar from a
# wrong gauge, which leaves the entry moments of the first column intact.


@pytest.mark.parametrize("d", [2, 4, 6, 10])
def test_symplectic_preserves_form(d):
    v = haar_symplectic(d, RngStream(7, (d,)), size=64)
    j = symplectic_form(d)
    assert np.max(np.abs(np.swapaxes(v, 1, 2) @ j @ v - j)) < 1e-12
    assert np.max(np.abs(np.swapaxes(v.conj(), 1, 2) @ v - np.eye(d))) < 1e-12
    assert np.max(np.abs(np.linalg.det(v) - 1.0)) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 6])
def test_symplectic_entry_moments(d):
    v = haar_symplectic(d, RngStream(8, (d,)), size=N_MOMENT)
    for i, k in ((0, 0), (d - 1, d - 1), (0, d - 1)):
        x = np.abs(v[:, i, k]) ** 2
        assert _sems(x, 1 / d) <= 5, (i, k)
        assert _sems(x**2, 2 / (d * (d + 1))) <= 5, (i, k)


@pytest.mark.parametrize("d", [4, 6])
def test_symplectic_trace_moments(d):
    v = haar_symplectic(d, RngStream(18, (d,)), size=N_MOMENT)
    tr_square = np.einsum("nij,nji->n", v, v)
    assert _sems(tr_square.real, -1.0) <= 5
    assert _sems(tr_square.imag, 0.0) <= 5
    assert _sems(np.abs(np.trace(v, axis1=1, axis2=2)) ** 2, 1.0) <= 5


@pytest.mark.parametrize("d", [2, 4, 10, 24])
def test_symplectic_draw_applies_its_matrix(d):
    n = d // 2
    draw = _reflectors(haar_symplectic, d, 15, 7)
    assert draw.reflectors.shape == (2 * (n * (n + 1) - 2), 7)
    assert draw.shape == (7, d, d) and draw.ndim == 3
    np.testing.assert_array_equal(draw.matrix(), haar_symplectic(d, RngStream(15), size=7))
    g = _applies_its_completion(haar_symplectic(d, RngStream(15), size=7, dense=False), d, 7)
    j = symplectic_form(d)
    assert np.max(np.abs(np.swapaxes(g, 1, 2) @ j @ g - j)) < 1e-13


@pytest.mark.parametrize("d, size, bad", [(3, None, 3), (0, None, 0), (-2, None, -2),
                                          (4, 0, 0), (4, -1, -1)])
def test_symplectic_rejects_bad_arguments(d, size, bad):
    with pytest.raises(ValueError, match=f"got {bad}$"):
        haar_symplectic(d, RngStream(0), size=size)


# ``columns=m`` draws only what the first m columns need.  A dropped or
# misplaced reflector or gauge entry shows in their orthonormality or in
# their entry moments; SP's m counts quaternionic coordinates, whose
# columns are i and d/2 + i.

_SPECIAL_ORTHOGONAL = partial(haar_orthogonal, special=True)
_TRUNCATED = [
    (sampler, d, m)
    for sampler in (haar_unitary, haar_orthogonal, _SPECIAL_ORTHOGONAL)
    for d, m in ((2, 1), (5, 1), (5, 2), (6, 3))
] + [(haar_symplectic, 2, 1), (haar_symplectic, 6, 1), (haar_symplectic, 8, 2)]


def _truncated_ids(case):
    names = {haar_unitary: "U", haar_orthogonal: "O", _SPECIAL_ORTHOGONAL: "SO",
             haar_symplectic: "SP"}
    return names.get(case, str(case))


def _drawn_columns(sampler, d, m):
    if sampler is haar_symplectic:
        return np.concatenate([np.arange(m), d // 2 + np.arange(m)])
    return np.arange(m)


@pytest.mark.parametrize("sampler, d, m", _TRUNCATED, ids=_truncated_ids)
def test_truncated_columns_are_orthonormal_with_haar_moments(sampler, d, m):
    cols = _drawn_columns(sampler, d, m)
    w = sampler(d, RngStream(20, (d, m)), size=64, columns=m)
    assert w.shape == (64, d, cols.size)
    gram = np.swapaxes(w.conj(), 1, 2) @ w
    assert np.max(np.abs(gram - np.eye(cols.size))) < 1e-12
    # A wrong gauge leaves |W| alone but shows in E W = 0.
    w = sampler(d, RngStream(21, (d, m)), size=N_MOMENT // 2, columns=m)
    real = not np.iscomplexobj(w)
    fourth = 3 / (d * (d + 2)) if real else 2 / (d * (d + 1))
    x = np.abs(w) ** 2
    for i in range(d):
        for j in range(cols.size):
            assert _sems(w[:, i, j].real, 0.0) <= 5, (i, j)
            assert real or _sems(w[:, i, j].imag, 0.0) <= 5, (i, j)
            assert _sems(x[:, i, j], 1 / d) <= 5, (i, j)
            assert _sems(x[:, i, j] ** 2, fourth) <= 5, (i, j)


@pytest.mark.parametrize("sampler, d, m", _TRUNCATED + [(haar_unitary, 30, 4),
                                                      (haar_orthogonal, 30, 15),
                                                      (haar_symplectic, 24, 5)],
                         ids=_truncated_ids)
def test_truncated_draw_forms_only_its_kept_columns(sampler, d, m):
    draw = _reflectors(sampler, d, 15, 7, m)
    if sampler is haar_symplectic:
        n = d // 2
        full = m == n
        # One pair (v, J conj(v)) per coordinate j < m, of 2(n - j) entries each.
        assert draw.reflectors.shape == (4 * (n * m - m * (m - 1) // 2) - 4 * full, 7)
        assert len(draw.offsets) == 2 * (m - full)
    else:
        assert draw.reflectors.shape == (d * m - m * (m - 1) // 2, 7)
        assert len(draw.offsets) == m
    cols = _drawn_columns(sampler, d, m)
    g = draw.matrix()
    assert np.max(np.abs(np.swapaxes(g.conj(), 1, 2) @ g - np.eye(d))) < 1e-12
    if np.isrealobj(g) and sampler is not haar_orthogonal:
        assert np.max(np.abs(np.linalg.det(g) - 1.0)) < 1e-12
    # The NumPy pass over the kept columns alone makes the same operations
    # on them as the pass over all d.
    panel = draw.matrix(m)
    np.testing.assert_array_equal(panel, g[:, :, cols])
    np.testing.assert_array_equal(sampler(d, RngStream(15), size=7, columns=m), draw.matrix(m))


@pytest.mark.parametrize("spec", [make_space("AIII", 32, 26), make_space("BDI", 32, 4),
                                  make_space("AIII", 8, 3), make_space("BDI", 7, 5),
                                  make_space("CII", 12, 2)], ids=lambda s: s.label())
def test_dense_grassmannian_draws_keep_the_full_formation(spec):
    # V = ±S(1 - 2 W Wᴴ) with W the m kept columns: the same V as from all
    # d columns of the truncated draw, bit for bit.
    m = min(spec.p, spec.q)
    sampler = {"U": haar_unitary, "O": partial(haar_orthogonal, special=True),
               "SP": haar_symplectic}[spec.parent]
    g = _reflectors(sampler, spec.dim, 40, 16, m).matrix()
    w = g[:, :, _drawn_columns(sampler, spec.dim, m)]
    expected = spaces._coset_matrix(spec, w)
    np.testing.assert_array_equal(sample_point(spec, RngStream(40), 16), expected)


@pytest.mark.parametrize("sampler, d", [(haar_unitary, 1), (haar_unitary, 5),
                                        (haar_orthogonal, 5), (_SPECIAL_ORTHOGONAL, 4),
                                        (haar_symplectic, 2), (haar_symplectic, 6)],
                         ids=_truncated_ids)
def test_all_columns_is_the_full_draw(sampler, d):
    full = d // 2 if sampler is haar_symplectic else d
    gen_a, gen_b = RngStream(24).generator(), RngStream(24).generator()
    a = sampler(d, gen_a, size=5)
    np.testing.assert_array_equal(sampler(d, gen_b, size=5, columns=full), a)
    assert gen_a.random() == gen_b.random()


def test_full_draws_keep_their_seeded_values():
    # Seeded draws without ``columns`` are pinned: U(d), O(d), SO(d) and
    # SP(d) outputs must not move when truncated draws change.
    np.testing.assert_allclose(
        haar_unitary(3, RngStream(0))[:, 0],
        [0.13463473537588977 - 0.14146084494579092j, 0.6857789107609232 + 0.11232939376849212j,
         -0.5736067564133523 + 0.38720407955702696j],
        rtol=0, atol=1e-12,
    )
    np.testing.assert_allclose(
        haar_orthogonal(3, RngStream(0), special=True)[:, 0],
        [0.1888171192369228, -0.19839032737660417, 0.9617636786063787],
        rtol=0, atol=1e-12,
    )
    np.testing.assert_allclose(
        haar_symplectic(4, RngStream(0))[:, 0],
        [0.0906015206955077 + 0.08024269816730734j, -0.4793055271269654 + 0.04484083036490888j,
         0.2993332053418829 + 0.16040326067070387j, 0.2593355215871624 - 0.7556609681764j],
        rtol=0, atol=1e-12,
    )


@pytest.mark.parametrize("sampler, d, bad", [(haar_unitary, 4, 0), (haar_unitary, 4, 5),
                                             (haar_orthogonal, 3, -1), (haar_orthogonal, 3, 4),
                                             (haar_orthogonal, 3, 1.5), (haar_symplectic, 6, 4),
                                             (haar_symplectic, 6, 0)],
                         ids=_truncated_ids)
def test_samplers_reject_bad_columns(sampler, d, bad):
    with pytest.raises(ValueError, match=f"got {bad}$"):
        sampler(d, RngStream(0), columns=bad)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_every_ensemble_defers_its_parent_draw(family):
    spec = make_space(family, 4)
    draw = sample_point(spec, RngStream(19), 3, dense=False)
    kind = DeferredUnitary if spec.p is None else DeferredSubspace
    assert isinstance(draw.parent, kind) and draw.parent.size == 3
    # Nothing is drawn until the draw is applied.
    assert draw.parent.revealed == 0


def test_samplers_are_deterministic():
    for draw in (haar_unitary, haar_symplectic):
        a = draw(4, RngStream(9), size=3)
        b = draw(4, RngStream(9), size=3)
        assert np.array_equal(a, b)
    a = haar_orthogonal(4, RngStream(9), size=3)
    b = haar_orthogonal(4, RngStream(9), size=3)
    assert np.array_equal(a, b)
