"""Space construction, sampling, involutions, and structural witnesses."""

import numpy as np
import pytest

from symshadows import haar
from symshadows.haar import (
    DeferredSubspace,
    haar_orthogonal,
    haar_symplectic,
    haar_unitary,
    symplectic_form,
)
from symshadows.rng import RngStream
from symshadows.spaces import (
    ALL_FAMILIES,
    GROUP_FAMILIES,
    QUOTIENT_FAMILIES,
    involution,
    make_space,
    sample_point,
    sample_signed_symmetry,
    sample_subgroup,
    signature_matrix,
    structural_witness,
)


def test_family_lists():
    assert set(GROUP_FAMILIES) == {"U", "O", "SO", "SP"}
    assert len(QUOTIENT_FAMILIES) == 7
    assert len(ALL_FAMILIES) == 11


#: The catalogue: parent, is_real, dtype of a sampled stack, whether an odd d
#: is refused, whether p/q are taken, and the smallest d make_space accepts.
_CATALOGUE = {
    "U": ("U", False, np.complex128, False, False, 1),
    "O": ("O", True, np.float64, False, False, 1),
    "SO": ("O", True, np.float64, False, False, 1),
    "SP": ("SP", False, np.complex128, True, False, 2),
    "AI": ("U", False, np.complex128, False, False, 2),
    "AII": ("U", False, np.complex128, True, False, 2),
    "AIII": ("U", False, np.complex128, False, True, 2),
    "BDI": ("O", True, np.float64, False, True, 2),
    "DIII": ("O", True, np.float64, True, False, 2),
    "CI": ("SP", False, np.complex128, True, False, 2),
    "CII": ("SP", False, np.complex128, True, True, 2),
}


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_family_catalogue(family):
    parent, real, dtype, even_only, blocks, min_dim = _CATALOGUE[family]
    spec = make_space(family, 4)
    assert (spec.parent, spec.is_real) == (parent, real)
    assert sample_point(spec, RngStream(1), size=2).dtype == dtype
    assert sample_point(spec, RngStream(1), size=2, dense=False).matrix().dtype == dtype
    if even_only:
        with pytest.raises(ValueError, match="needs an even dimension"):
            make_space(family, 3)
    else:
        assert make_space(family, 3).dim == 3
    if blocks:
        assert make_space(family, 4, p=1).p == 1
    else:
        with pytest.raises(ValueError, match="does not take block sizes"):
            make_space(family, 4, p=1)
    assert make_space(family, min_dim).dim == min_dim
    for d in range(min_dim):
        with pytest.raises(ValueError):
            make_space(family, d)


def test_make_space_defaults_balanced_blocks():
    spec = make_space("AIII", 6)
    assert (spec.p, spec.q) == (3, 3)
    spec = make_space("AIII", 5)
    assert (spec.p, spec.q) == (3, 2)
    spec = make_space("CII", 8)
    assert (spec.p, spec.q) == (2, 2)  # blocks count quaternionic coordinates


def test_make_space_block_validation():
    assert make_space("BDI", 4, p=3).q == 1
    assert make_space("BDI", 4, q=3).p == 1
    with pytest.raises(ValueError):
        make_space("AIII", 4, p=3, q=2)
    with pytest.raises(ValueError):
        make_space("AIII", 4, p=5)
    with pytest.raises(ValueError):
        make_space("XX", 4)
    with pytest.raises(ValueError):
        make_space("U", 0)


@pytest.mark.parametrize(
    "args, kwargs, name",
    [(("U", 3.9), {}, "dim"), (("AIII", 4), {"p": 2.5}, "p"), (("AIII", 4), {"q": 1.5}, "q"),
     (("BDI", 4), {"p": 2, "q": "2"}, "q"), (("O", True), {}, "dim")],
)
def test_make_space_rejects_non_integral_parameters(args, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
        make_space(*args, **kwargs)
    assert make_space("AIII", np.int64(4), p=2.0) == make_space("AIII", 4, p=2, q=2)


@pytest.mark.parametrize("sampler", [sample_point, sample_subgroup])
def test_sample_point_rejects_non_integral_sizes(sampler):
    spec = make_space("AIII", 4)
    for bad in (2.5, "2", np.float64(1.5)):
        with pytest.raises(ValueError, match="^size must be an integer, got"):
            sampler(spec, RngStream(0), size=bad)
    np.testing.assert_array_equal(
        sampler(spec, RngStream(0), size=np.int64(2)), sampler(spec, RngStream(0), size=2.0)
    )


@pytest.mark.parametrize("spec", [make_space(f, 2) for f in ALL_FAMILIES], ids=lambda s: s.label())
def test_sample_subgroup_refuses_empty_stacks(spec):
    # BDI(d=2) has two SO(1) blocks, which draw nothing, so no sampler refused.
    for bad in (0, -1):
        with pytest.raises(ValueError, match="^size must be a positive integer"):
            sample_subgroup(spec, RngStream(0), size=bad)


@pytest.mark.parametrize("family", ["AII", "DIII", "CI", "CII", "SP"])
def test_even_dimension_required(family):
    with pytest.raises(ValueError):
        make_space(family, 5)


def test_spec_properties():
    spec = make_space("CII", 8, p=3, q=1)
    assert spec.parent == "SP"
    assert spec.signature == 2
    assert not spec.is_group and not spec.is_degenerate
    assert make_space("AIII", 4, p=4, q=0).is_degenerate
    assert make_space("U", 4).is_group
    assert make_space("BDI", 4).is_real
    assert not make_space("AI", 4).is_real
    assert "AIII" in make_space("AIII", 4).label()


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_sampled_points_pass_witness(family):
    spec = make_space(family, 4)
    v = sample_point(spec, RngStream(10), size=32)
    result = structural_witness(spec, v)
    assert result.passed, f"{family}: residual {result.residual}"


@pytest.mark.parametrize("family", ["AI", "AIII", "BDI"])
def test_sampled_points_pass_witness_odd_dim(family):
    spec = make_space(family, 5)
    result = structural_witness(spec, sample_point(spec, RngStream(11), size=16))
    assert result.passed


_EVEN_DIM = {"SP", "AII", "DIII", "CI", "CII"}


@pytest.mark.parametrize(
    "family, d",
    [(f, d) for f in ALL_FAMILIES for d in (2, 5, 6) if d % 2 == 0 or f not in _EVEN_DIM],
)
def test_ensemble_draw_applies_its_matrix(family, d):
    spec = make_space(family, d)
    draw = sample_point(spec, RngStream(22), size=5, dense=False)
    gen = RngStream(23).generator()
    z = gen.standard_normal((d, 5)) + 1j * gen.standard_normal((d, 5))
    before = (draw.apply(z), draw.apply_adjoint(z))
    # The completion agrees with what the draw revealed before it.
    v = draw.matrix()
    assert draw.shape == v.shape == (5, d, d)
    np.testing.assert_allclose(before[0], np.einsum("nij,jn->in", v, z), atol=1e-13)
    np.testing.assert_allclose(before[1], np.einsum("nji,jn->in", v.conj(), z), atol=1e-13)
    assert structural_witness(spec, v).passed
    y = gen.standard_normal((d, 5)) + 1j * gen.standard_normal((d, 5))
    np.testing.assert_allclose(draw.apply(y), np.einsum("nij,jn->in", v, y), atol=1e-13)
    np.testing.assert_allclose(
        draw.apply_adjoint(y), np.einsum("nji,jn->in", v.conj(), y), atol=1e-13
    )


# AIII, BDI and CII are Grassmannians: V = S(1 - 2Q) with Q a Haar-random
# projector of rank q (2q for CII), so E V = (p - q)/(p + q) S.  V and -V
# give the same V rho Vᴴ, so a wrong global sign passes the witness and the
# channel tests; only the first moment sees it.
_GRASSMANNIANS = [make_space("AIII", 6, 4, 2), make_space("AIII", 6, 1, 5),
                  make_space("BDI", 7, 2, 5), make_space("BDI", 6, 5, 1),
                  make_space("CII", 8, 3, 1), make_space("CII", 10, 1, 4)]


def _max_z(v, expected):
    """Largest |mean - expected| / SEM over the entries of a (N, d, d) stack.

    The diagonal of an AIII or CII draw is real, so its imaginary part has
    SEM 0; the floor keeps its z finite, and large if its mean is not 0.
    """
    parts = [(v.real, expected)] + ([] if np.isrealobj(v) else [(v.imag, 0.0)])
    z = [
        np.abs(x.mean(axis=0) - e) / np.maximum(x.std(axis=0, ddof=1) / np.sqrt(len(x)), 1e-12)
        for x, e in parts
    ]
    return float(np.max(z))


@pytest.mark.parametrize("spec", _GRASSMANNIANS, ids=lambda s: s.label())
def test_grassmannian_first_moment(spec):
    n, d = 40_000, spec.dim
    expected = (spec.p - spec.q) / (spec.p + spec.q) * signature_matrix(spec)
    assert _max_z(sample_point(spec, RngStream(30), size=n), expected) <= 5
    draw = sample_point(spec, RngStream(31), size=n, dense=False)
    columns = np.empty((n, d, d), dtype=np.float64 if spec.is_real else np.complex128)
    for j in range(d):
        basis = np.zeros((d, n))
        basis[j] = 1.0
        columns[:, :, j] = draw.apply(basis).T
    assert _max_z(columns, expected) <= 5


@pytest.mark.parametrize(
    "spec",
    _GRASSMANNIANS + [make_space("AIII", 6, 2, 4), make_space("BDI", 7, 5, 2),
                      make_space("CII", 10, 3, 2)],
    ids=lambda s: s.label(),
)
def test_grassmannians_draw_a_rank_min_p_q_subspace(spec):
    m = min(spec.p, spec.q)
    c = 2 if spec.family == "CII" else 1
    draw = sample_point(spec, RngStream(32), size=3, dense=False)
    assert isinstance(draw.parent, DeferredSubspace)
    assert draw.parent.rank == m and draw.parent.shape == (3, spec.dim, c * m)
    # P on the basis vectors: a Hermitian projector of rank c·m.
    p = np.stack([draw.parent.project(np.tile(e[:, None], 3)).T for e in np.eye(spec.dim)], 2)
    assert np.max(np.abs(p @ p - p)) < 1e-13
    assert np.max(np.abs(p - np.swapaxes(p.conj(), 1, 2))) < 1e-13
    np.testing.assert_allclose(np.trace(p, axis1=1, axis2=2), c * m, rtol=0, atol=1e-13)
    # The dense path forms only the m (quaternionic) columns it keeps.
    sampler = {"U": haar_unitary, "O": haar_orthogonal, "SP": haar_symplectic}[spec.parent]
    assert sampler(spec.dim, RngStream(33), size=3, columns=m).shape == (3, spec.dim, c * m)


def test_witness_negative_control():
    # a generic unitary is almost surely not symmetric
    spec = make_space("AI", 4)
    v = haar_unitary(4, RngStream(12))
    result = structural_witness(spec, v)
    assert not result.passed
    assert result.residual > 1e-3


def test_sample_point_shapes_and_determinism():
    spec = make_space("AIII", 4)
    assert sample_point(spec, RngStream(13)).shape == (4, 4)
    batch = sample_point(spec, RngStream(13), size=5)
    assert batch.shape == (5, 4, 4)
    assert np.array_equal(batch, sample_point(spec, RngStream(13), size=5))


def test_degenerate_quotient_is_identity():
    spec = make_space("AIII", 4, p=4, q=0)
    v = sample_point(spec, RngStream(14), size=10)
    assert np.array_equal(v, np.broadcast_to(np.eye(4), (10, 4, 4)))


def _every_split(dims=(1, 2, 3, 4, 5, 6, 8)):
    """Every spec make_space accepts at ``dims``, over every block split.

    The splits include the empty blocks (p = 0 or q = 0) and the 1 x 1 ones.
    """
    specs = []
    for d in dims:
        for family in ALL_FAMILIES:
            try:
                spec = make_space(family, d)
            except ValueError:
                continue
            if spec.p is None:
                specs.append(spec)
                continue
            total = spec.p + spec.q
            specs.extend(make_space(family, d, p=p, q=total - p) for p in range(total + 1))
    return specs


_QUOTIENT_SPLITS = [spec for spec in _every_split() if not spec.is_group]


def test_involution_fixes_subgroup_elements():
    for spec in _QUOTIENT_SPLITS:
        k = sample_subgroup(spec, RngStream(15))
        assert np.max(np.abs(involution(spec, k) - k)) < 1e-12, spec.label()


def test_involution_is_an_involution():
    for family in QUOTIENT_FAMILIES:
        spec = make_space(family, 4)
        g = sample_point(make_space(spec.parent, 4), RngStream(16))
        assert np.max(np.abs(involution(spec, involution(spec, g)) - g)) < 1e-12, family


def test_quotient_point_is_involution_twisted():
    # V = sigma(g)^dagger g implies sigma(V) = V^dagger
    for family in QUOTIENT_FAMILIES:
        spec = make_space(family, 4)
        v = sample_point(spec, RngStream(17))
        assert np.max(np.abs(involution(spec, v) - v.conj().T)) < 1e-12, family


def test_subgroup_samples_stay_in_parent_group():
    for spec in _QUOTIENT_SPLITS:
        k = sample_subgroup(spec, RngStream(18), size=8)
        parent_spec = make_space(spec.parent, spec.dim)
        assert structural_witness(parent_spec, k).passed, spec.label()


def test_signed_symmetries_lie_in_k():
    # K = G for the groups; for a quotient, K lies in the parent and is
    # fixed by sigma; S(U(p) x U(q)) has det 1.
    for spec in _every_split():
        h = sample_signed_symmetry(spec, RngStream(22))
        label = spec.label()
        if spec.is_group:
            assert structural_witness(spec, h).passed, label
            continue
        assert structural_witness(make_space(spec.parent, spec.dim), h).passed, label
        assert np.array_equal(involution(spec, h), h), label
        if spec.family == "AIII":
            assert abs(np.linalg.det(h) - 1.0) < 1e-12, label


# Seeded draws from K, one spec per block kind: the diagonal of
# sample_subgroup (it meets every block) and the generator's next random(),
# then sample_signed_symmetry as the row of each column's entry, its sign,
# and the next random().
_PINNED_K = {
    ("AI", 3, None): (
        [-0.5126788406831209, -0.8344493644208791, 0.35272540839221694],
        0.0512109138501563,
        [2, 1, 0], [1, 1, -1], 0.32293517987314235,
    ),
    ("AII", 4, None): (
        [-0.2854589246212953 - 0.436316673606982j, -0.2150663356980747 + 0.2757577380585777j,
         -0.28545892462129546 + 0.43631667360698223j, -0.2150663356980747 - 0.2757577380585776j],
        0.2848570988390776,
        [1, 2, 3, 0], [1, -1, 1, 1], 0.37713555396147,
    ),
    ("AIII", 5, 3): (
        [-0.30306444107612035 + 0.10546149678827017j, 0.27291020723816367 + 0.4221321303689651j,
         -0.030969147874712086 + 0.2668319832461558j, -0.3713346867160918 + 0.24294198504672768j,
         0.3843632114289398 - 0.22175477301968996j],
        0.019319110428153263,
        [2, 1, 0, 4, 3], [-1, 1, -1, -1, -1], 0.6866138881663232,
    ),
    ("BDI", 5, 4): (
        [-0.3185828276437135, 0.7285051017502193, 0.3594159281677982, 0.13716973188868292, 1.0],
        0.5902780215959859,
        [2, 3, 1, 0, 4], [1, -1, -1, -1, 1], 0.97223203334854,
    ),
    ("DIII", 6, None): (
        [-0.2668776659371881, 0.37015537692592576, 0.037017945278814246] * 2,
        0.7050858407898396,
        [5, 1, 3, 2, 4, 0], [-1, -1, 1, 1, -1, -1], 0.32293517987314235,
    ),
    ("CII", 8, 3): (
        [0.06102663126047605 + 0.2222689542246249j, 0.1988359771411572 + 0.10868962071195591j,
         0.0709259505625168 - 0.06810689521182445j, -0.657706674677578 + 0.11346394970666562j,
         0.061026631260476055 - 0.2222689542246249j, 0.19883597714115725 - 0.10868962071195586j,
         0.07092595056251685 + 0.06810689521182439j, -0.657706674677578 - 0.11346394970666562j],
        0.7341494969994607,
        [6, 5, 0, 3, 2, 1, 4, 7], [-1, 1, -1, -1, 1, -1, -1, -1], 0.32293517987314235,
    ),
    ("SO", 1, None): ([1.0], 0.0676782623616331, [0], [1], 0.5722294954720839),
}


@pytest.mark.parametrize("key", list(_PINNED_K), ids=lambda key: key[0])
def test_seeded_k_draws_are_pinned(key):
    diag, after_k, rows, signs, after_h = _PINNED_K[key]
    family, d, p = key
    spec = make_space(family, d, p=p)
    gen = RngStream(31).generator()
    k = sample_subgroup(spec, gen)
    assert np.allclose(np.diag(k), diag, rtol=0, atol=1e-12)
    assert abs(gen.random() - after_k) < 1e-12
    gen = RngStream(32).generator()
    h = sample_signed_symmetry(spec, gen)
    expected = np.zeros((d, d))
    expected[rows, np.arange(d)] = signs
    assert np.array_equal(h, expected)
    assert abs(gen.random() - after_h) < 1e-12


def test_signed_symmetry_is_signed_permutation():
    for family in ALL_FAMILIES:
        spec = make_space(family, 4)
        h = np.asarray(sample_signed_symmetry(spec, RngStream(19)))
        support = np.abs(h) > 1e-14
        assert (support.sum(axis=0) == 1).all() and (support.sum(axis=1) == 1).all(), family
        values = h[support]
        assert np.allclose(np.abs(values), 1.0), family


def test_signed_symmetry_respects_family_structure():
    # symplectic-parent symmetries must preserve the symplectic form
    spec = make_space("CI", 4)
    j = symplectic_form(4)
    for trial in range(10):
        h = np.asarray(sample_signed_symmetry(spec, RngStream(20, (trial,))))
        assert np.max(np.abs(h.T @ j @ h - j)) < 1e-12
    # orthogonal-parent symmetries are real
    spec = make_space("BDI", 4)
    for trial in range(10):
        h = np.asarray(sample_signed_symmetry(spec, RngStream(21, (trial,))))
        assert np.max(np.abs(np.imag(h))) == 0.0


# Dense draws of the eight families that are not Grassmannians are formed as
# before, from the full Householder draw: V = g, gᵀg or σ(g)ᴴg.  Column 0 of
# the second of two seeded draws at d = 4, pinned to 1e-12 (BLAS builds may
# round the coset product differently).
_PINNED_DENSE = {
    "U": [(-0.14612187685575306-0.4747062415720812j), (0.03205794428059673+0.71436601418059j), (0.2610972484677723+0.19022910713618232j), (-0.015591904278003266+0.3706128350052319j)],
    "O": [0.1561153710405201, -0.46539632529007735, -0.5182044597735189, 0.7003559018115065],
    "SO": [0.1561153710405201, -0.46539632529007735, -0.5182044597735189, 0.7003559018115065],
    "SP": [(0.4850547842168237+0.24918739161323744j), (-0.02905406530752419-0.4995600879972565j), (0.19813948017179583-0.12010308742585257j), (-0.6155622311428546+0.1400793143797493j)],
    "AI": [(-0.8184116093523967+0.27231161891268724j), (0.13461154801524322+0.03809633312436919j), (-0.33863373715582523-0.0520313370363163j), (-0.1347143803820517-0.3177250197421686j)],
    "AII": [(0.3596246637307865+0.8149537446832739j), (-0.08993178915357199-0.4202625149654219j), (-2.7998763649301085e-17+0j), (-0.14527115702573334+0.026617250312710304j)],
    "DIII": [0.08173094441083216, -0.0441769035738516, -1.621122909020234e-17, -0.9956748735989777],
    "CI": [(0.3085967928296834+0.05071817856814168j), (-0.025810734665949825+0.1270429371647378j), (8.500508814319093e-18-0.8384212666009365j), (0.07925332959212694-0.419712131550146j)],
}


@pytest.mark.parametrize("family", sorted(_PINNED_DENSE))
@pytest.mark.parametrize("d", [4, 6, 24])
def test_dense_draws_of_the_other_families_are_unchanged(family, d):
    spec = make_space(family, d)
    v = sample_point(spec, RngStream(7), 2)
    if d == 4:
        np.testing.assert_allclose(v[1, :, 0], _PINNED_DENSE[family], rtol=0, atol=1e-12)
    # Bit for bit the full Householder draw of the parent, then the coset map.
    gen = RngStream(7).generator()
    if spec.parent == "SP":
        g = haar._symplectic_reflectors(d, gen, 2, d // 2).matrix()
    else:
        g = haar._haar_reflectors(
            d, gen, 2, d, real=spec.is_real, special=spec.is_real and family != "O"
        ).matrix()
    if family in GROUP_FAMILIES:
        expected = g
    elif family == "AI":
        expected = np.ascontiguousarray(np.swapaxes(g, -1, -2)) @ g
    else:
        expected = np.swapaxes(involution(spec, g).conj(), -1, -2) @ g
    np.testing.assert_array_equal(v, expected)
