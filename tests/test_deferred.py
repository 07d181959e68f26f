"""Deferred Haar draws: edge cases of revealing a draw one direction at a time.

Every check compares what a streamed draw revealed with the draw's own
completion (``matrix()``): it must be unitary, pass the family's structural
witness, and agree with every vector applied before it.
"""

import numpy as np
import pytest

from symshadows import shadows
from symshadows.channel import apply_channel, invert_channel
from symshadows.haar import (
    DeferredSubspace,
    DeferredUnitary,
    haar_orthogonal,
    haar_symplectic,
    haar_unitary,
)
from symshadows.rng import RngStream
from symshadows.shadows import random_observable, random_pure_state, shadow_estimates
from symshadows.spaces import ALL_FAMILIES, make_space, sample_point, structural_witness
from symshadows.variance import analytic_second_moment

_EVEN_ONLY = {"SP", "AII", "DIII", "CI", "CII"}


def _specs(dims):
    return [
        make_space(family, d)
        for d in dims
        for family in ALL_FAMILIES
        if d % 2 == 0 or family not in _EVEN_ONLY
    ]


def _label(spec):
    return spec.label()


def _complex(gen, shape):
    return gen.standard_normal(shape) + 1j * gen.standard_normal(shape)


def _check_completion(spec, draw, applied):
    """``draw.matrix()`` is a witness-passing V that agrees with ``applied``.

    ``applied`` holds ``(y, V y, Vᴴ y)`` triples computed before completion.
    """
    v = draw.matrix()
    witness = structural_witness(spec, v)
    assert witness.passed, f"{spec.label()}: residual {witness.residual}"
    for y, forward, backward in applied:
        np.testing.assert_allclose(forward, np.einsum("nij,jn->in", v, y), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            backward, np.einsum("nji,jn->in", v.conj(), y), rtol=0, atol=1e-12
        )
    return v


# ---------------------------------------------------------------- (a) basis
# With rho = |e0><e0| the measured row e_w equals u whenever w = 0, so a
# reveal's remainder is exactly zero for some draws of a batch.


@pytest.mark.parametrize("spec", _specs((2, 3, 8)), ids=_label)
def test_basis_state_shots_reveal_no_garbage_direction(spec):
    d, count = spec.dim, 64
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    _, factor = shadows._validated_state(spec, rho)
    draw, outcomes, rows = shadows._measure_batch(spec, factor, RngStream(1).generator(), count)
    assert np.any(outcomes == 0)
    basis = np.zeros((d, count))
    basis[0] = 1.0
    v = _check_completion(spec, draw, [])
    # The measured rows are rows of the completion, and so is V e0.
    np.testing.assert_allclose(rows, v[np.arange(count), outcomes], rtol=0, atol=1e-12)
    np.testing.assert_allclose(draw.apply(basis), v[:, :, 0].T, rtol=0, atol=1e-12)


@pytest.mark.parametrize("sampler", [haar_unitary, haar_orthogonal, haar_symplectic])
def test_roundoff_remainders_reveal_nothing(sampler):
    d, count = 6, 32
    gen = RngStream(2).generator()
    draw = sampler(d, gen, size=count, dense=False)
    y = _complex(RngStream(3).generator(), (d, count))
    first = draw.apply(y)
    revealed = draw.revealed
    state = gen.bit_generator.state
    # y, moved off the revealed span by roundoff only, and exactly zero
    nudged = y * (1.0 + 1e-15)
    np.testing.assert_allclose(draw.apply(nudged), first, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(draw.apply(np.zeros((d, count))), 0.0)
    assert draw.revealed == revealed and gen.bit_generator.state == state


def test_mixed_zero_and_nonzero_remainders_in_one_batch():
    # Half the batch queries a revealed direction again, half a new one: the
    # first half reveals fresh directions, the second half the new ones.
    d, count = 5, 40
    draw = haar_unitary(d, RngStream(4), count, dense=False)
    gen = RngStream(5).generator()
    y, z = _complex(gen, (d, count)), _complex(gen, (d, count))
    gy = draw.apply(y)
    mixed = np.where(np.arange(count) % 2 == 0, y, z)
    gm = draw.apply(mixed)
    assert draw.revealed == 2
    g = draw.matrix()
    np.testing.assert_allclose(gy, np.einsum("nij,jn->in", g, y), rtol=0, atol=1e-12)
    np.testing.assert_allclose(gm, np.einsum("nij,jn->in", g, mixed), rtol=0, atol=1e-12)
    assert np.max(np.abs(np.swapaxes(g.conj(), 1, 2) @ g - np.eye(d))) < 1e-13


# ----------------------------------------------------------- (b) real states


@pytest.mark.parametrize(
    "spec, reveals",
    [(make_space("O", 8), 1), (make_space("SO", 8), 1), (make_space("DIII", 8), 2),
     (make_space("BDI", 8, 5, 3), 2), (make_space("BDI", 7, 5, 2), 2)],
    ids=lambda x: x.label() if hasattr(x, "label") else str(x),
)
def test_real_vectors_on_real_parents_reveal_one_part(spec, reveals):
    d, count = spec.dim, 16
    draw = sample_point(spec, RngStream(6), count, dense=False)
    u = RngStream(7).generator().standard_normal((d, count)).astype(complex)
    applied = [(u, draw.apply(u), None)]
    # The imaginary part is empty: g u and (for DIII) gᴴ(M g u) are one
    # real reveal each; a Grassmannian's P u reveals u's direction and w.
    assert draw.parent.revealed == reveals
    applied[0] = (u, applied[0][1], draw.apply_adjoint(u))
    assert np.iscomplexobj(applied[0][1])
    _check_completion(spec, draw, applied)


@pytest.mark.parametrize(
    "spec", [make_space("O", 6), make_space("SO", 5), make_space("BDI", 7, 5, 2),
             make_space("DIII", 6)], ids=_label,
)
def test_real_states_on_real_parents_estimate_their_target(spec):
    d, n = spec.dim, 40_000
    vec = RngStream(8).generator().standard_normal(d)
    rho = np.outer(vec, vec) / (vec @ vec)
    obs = random_observable(d, 0.5, symmetric=True, rng=RngStream(9))
    values = shadow_estimates(spec, rho, obs, n, RngStream(10))
    truth = float(np.trace(rho @ apply_channel(spec, invert_channel(spec).apply(obs))).real)
    assert abs(values.mean() - truth) <= 5 * values.std(ddof=1) / np.sqrt(n)


# ------------------------------------------------- (c) repeated, mixed queries


@pytest.mark.parametrize("spec", _specs((2, 5, 8)), ids=_label)
def test_repeated_and_mixed_queries_are_consistent(spec):
    d, count = spec.dim, 24
    gen = RngStream(11).generator()
    draw = sample_point(spec, gen, count, dense=False)
    q = RngStream(12).generator()
    y, z = _complex(q, (d, count)), _complex(q, (d, count))
    vy = draw.apply(y)
    revealed = None if draw.parent is None else draw.parent.revealed
    state = gen.bit_generator.state
    np.testing.assert_allclose(draw.apply(y), vy, rtol=0, atol=1e-12)
    assert gen.bit_generator.state == state
    assert revealed is None or draw.parent.revealed == revealed
    vz = draw.apply(z)
    inner = lambda a, b: np.einsum("ib,ib->b", a.conj(), b)  # noqa: E731
    np.testing.assert_allclose(inner(vy, vz), inner(y, z), rtol=0, atol=1e-12)
    np.testing.assert_allclose(draw.apply_adjoint(vy), y, rtol=0, atol=1e-12)
    np.testing.assert_allclose(draw.apply(draw.apply_adjoint(z)), z, rtol=0, atol=1e-12)
    _check_completion(spec, draw, [(y, vy, draw.apply_adjoint(y)), (z, vz, draw.apply_adjoint(z))])


def test_completion_is_idempotent_and_a_full_frame_draws_nothing():
    # matrix() completes the draw from its own generator, which advances;
    # once the frame is full, further calls draw nothing and agree bit for bit.
    gen = RngStream(13).generator()
    draw = sample_point(make_space("AI", 6), gen, 4, dense=False)
    draw.apply(np.eye(6)[:, :4].astype(complex))
    state = gen.bit_generator.state
    v = draw.matrix()
    assert gen.bit_generator.state != state
    assert draw.parent.revealed == 6
    state = gen.bit_generator.state
    again = draw.matrix()
    assert gen.bit_generator.state == state and draw.parent.revealed == 6
    np.testing.assert_array_equal(draw.matrix(), again)
    np.testing.assert_allclose(again, v, rtol=0, atol=1e-13)


# ------------------------------------------------------ (d) frames that fill


@pytest.mark.parametrize(
    "family, d", [("U", 1), ("O", 1), ("SO", 1), ("SO", 2), ("SO", 3), ("SP", 2), ("DIII", 4)]
)
def test_frames_that_fill_up(family, d):
    spec = make_space(family, d)
    count = 32
    gen = RngStream(14, (d,)).generator()
    draw = sample_point(spec, gen, count, dense=False)
    q = RngStream(15).generator()
    applied = []
    for _ in range(d + 2):
        y = _complex(q, (d, count))
        applied.append((y, draw.apply(y), draw.apply_adjoint(y)))
    assert draw.parent.revealed == d
    state = gen.bit_generator.state
    y = _complex(q, (d, count))
    applied.append((y, draw.apply(y), draw.apply_adjoint(y)))
    assert gen.bit_generator.state == state
    v = _check_completion(spec, draw, applied)
    if spec.is_real and family != "O":
        g = draw.parent.matrix()
        np.testing.assert_allclose(np.linalg.det(g), 1.0, rtol=0, atol=1e-12)
    else:
        np.testing.assert_allclose(np.abs(np.linalg.det(v)), 1.0, rtol=0, atol=1e-12)


def test_special_orthogonal_completion_covers_both_orientations():
    # SO(3) from one revealed pair: the completion fixes the sign of its
    # last direction, so det = +1, and both orders of reveal give Haar's
    # law for V e0 (its mean is 0).
    n = 4000
    draw = haar_orthogonal(3, RngStream(16), True, n, dense=False)
    e = np.zeros((3, n))
    e[0] = 1.0
    first = draw.apply(e)
    g = draw.matrix()
    np.testing.assert_allclose(np.linalg.det(g), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(g[:, :, 0].T, first, rtol=0, atol=1e-13)
    last = g[:, :, 2]
    sem = last.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(last.mean(axis=0)) <= 5 * sem)


# ---------------------------------------------------------- (e) Grassmannians

_GRASSMANNIANS = [
    make_space("AIII", 8, 7, 1), make_space("AIII", 8, 4, 4), make_space("AIII", 5, 3, 2),
    make_space("BDI", 8, 1, 7), make_space("BDI", 8, 4, 4), make_space("BDI", 7, 5, 2),
    make_space("CII", 8, 3, 1), make_space("CII", 8, 2, 2),
]


@pytest.mark.parametrize("spec", _GRASSMANNIANS, ids=_label)
def test_grassmannian_second_moment_and_mean(spec):
    d, n = spec.dim, 60_000
    rho = random_pure_state(d, RngStream(17, (d,)))
    obs = random_observable(d, 0.5, symmetric=spec.is_real, rng=RngStream(18, (d,)))
    values = shadow_estimates(spec, rho, obs, n, RngStream(19))
    truth = float(np.trace(rho @ apply_channel(spec, invert_channel(spec).apply(obs))).real)
    assert abs(values.mean() - truth) <= 5 * values.std(ddof=1) / np.sqrt(n)
    predicted = analytic_second_moment(rho, obs, spec)
    if predicted is not None:
        square = values**2
        assert abs(square.mean() - predicted) <= 5 * square.std(ddof=1) / np.sqrt(n)


class _CheckedBeta(np.random.Generator):
    """A generator that refuses Beta variates with a parameter of 0."""

    def beta(self, a, b, size=None):
        assert a > 0 and b > 0, (a, b)
        self.calls = getattr(self, "calls", 0) + 1
        return super().beta(a, b, size)


@pytest.mark.parametrize(
    "sampler, d, m, betas",
    [(haar_unitary, 2, 1, 1), (haar_unitary, 2, 2, 0), (haar_unitary, 3, 2, 1),
     (haar_unitary, 4, 2, 2), (haar_unitary, 5, 1, 1), (haar_orthogonal, 3, 1, 1),
     (haar_orthogonal, 6, 3, 3), (haar_orthogonal, 4, 4, 0), (haar_symplectic, 4, 1, 1),
     (haar_symplectic, 6, 2, 1), (haar_symplectic, 4, 2, 0)],
)
def test_subspace_corner_cases_need_no_degenerate_beta(sampler, d, m, betas):
    # k = 0 left (P known everywhere) and k = n left (the rest is in P's
    # range) draw nothing more; a rank-2 subspace of C^3 reaches k = n = 1
    # after one reveal.
    count = 16
    gen = _CheckedBeta(np.random.PCG64(20))
    draw = sampler(d, gen, size=count, dense=False, columns=m)
    assert isinstance(draw, DeferredSubspace)
    q = RngStream(21).generator()
    c = 2 if sampler is haar_symplectic else 1
    applied = []
    for _ in range(d + 1):
        y = _complex(q, (d, count))
        applied.append((y, draw.project(y)))
    assert getattr(gen, "calls", 0) == betas
    assert draw.shape == (count, d, c * m)
    # P on the basis vectors: a Hermitian projector of rank c·m.
    p = np.stack([draw.project(np.tile(e[:, None], count)).T for e in np.eye(d)], 2)
    assert getattr(gen, "calls", 0) == betas
    assert np.max(np.abs(p @ p - p)) < 1e-13
    assert np.max(np.abs(p - np.swapaxes(p.conj(), 1, 2))) < 1e-13
    np.testing.assert_allclose(np.trace(p, axis1=1, axis2=2), c * m, rtol=0, atol=1e-13)
    for y, py in applied:
        np.testing.assert_allclose(py, np.einsum("nij,jn->in", p, y), rtol=0, atol=1e-12)


def test_subspace_projector_has_haar_moments():
    # E P = (m/d) 1, and E |<e0, P e0>|^2 = E t^2 for t ~ Beta(m, d - m).
    d, m, n = 5, 2, 40_000
    draw = haar_unitary(d, RngStream(22), n, dense=False, columns=m)
    e = np.zeros((d, n))
    e[0] = 1.0
    pe = draw.project(e)
    t = pe[0].real
    for value, expected in ((t, m / d), (t**2, m * (m + 1) / (d * (d + 1)))):
        assert abs(value.mean() - expected) <= 5 * value.std(ddof=1) / np.sqrt(n)
    off = pe[1:]
    assert np.all(np.abs(off.mean(axis=1)) <= 5 * np.abs(off).std(axis=1) / np.sqrt(n))


# ------------------------------------------------------------- law: E[o]


@pytest.mark.parametrize("rank", ["pure", "full"])
@pytest.mark.parametrize("spec", _specs((2, 3, 8)), ids=_label)
def test_streamed_estimates_are_unbiased(spec, rank):
    d, n = spec.dim, 20_000
    gen = RngStream(23, (d,)).generator()
    if rank == "pure":
        rho = random_pure_state(d, gen)
    else:
        a = _complex(gen, (d, d))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
    obs = random_observable(d, 0.5, rng=RngStream(24, (d,))) if d > 1 else np.eye(1)
    values = shadow_estimates(spec, rho, obs, n, RngStream(25, (d,)))
    truth = float(np.trace(rho @ apply_channel(spec, invert_channel(spec).apply(obs))).real)
    sem = values.std(ddof=1) / np.sqrt(n)
    assert abs(values.mean() - truth) <= 5 * sem + 1e-12


def test_deferred_draw_types():
    assert isinstance(haar_unitary(3, RngStream(0), dense=False), DeferredUnitary)
    assert isinstance(haar_symplectic(4, RngStream(0), 2, dense=False, columns=1), DeferredSubspace)
    draw = haar_orthogonal(4, RngStream(0), True, 3, dense=False)
    assert draw.shape == (3, 4, 4) and draw.ndim == 3 and draw.revealed == 0


@pytest.mark.parametrize(
    "sampler, d, moments",
    [(haar_unitary, 3, {"|tr|^2": 1.0, "tr^2": 0.0}),
     (haar_orthogonal, 3, {"tr": 0.0, "tr^2": 1.0}),
     (lambda d, g, size, dense: haar_orthogonal(d, g, True, size, dense=dense), 2,
      {"tr": 0.0, "tr^2": 2.0}),
     (lambda d, g, size, dense: haar_orthogonal(d, g, True, size, dense=dense), 3,
      {"tr": 0.0, "tr^2": 1.0}),
     (haar_symplectic, 4, {"|tr|^2": 1.0, "tr g^2": -1.0})],
    ids=["U3", "O3", "SO2", "SO3", "SP4"],
)
def test_completed_draws_have_haar_trace_moments(sampler, d, moments):
    # Half revealed by a state and a measured row, half completed: the
    # trace moments of Haar measure tell a wrong completion law, or a wrong
    # SO orientation rule, from the right one.
    n = 20_000
    draw = sampler(d, RngStream(26, (d,)).generator(), size=n, dense=False)
    q = RngStream(27).generator()
    draw.apply(_complex(q, (d, n)))
    e = np.zeros((d, n))
    e[0] = 1.0
    draw.apply_adjoint(e)
    g = draw.matrix()
    tr = np.trace(g, axis1=1, axis2=2)
    values = {"tr": tr.real, "tr^2": (tr**2).real, "|tr|^2": np.abs(tr) ** 2,
              "tr g^2": np.einsum("nij,nji->n", g, g).real}
    for name, expected in moments.items():
        x = values[name]
        assert abs(x.mean() - expected) <= 5 * x.std(ddof=1) / np.sqrt(n), name


def test_completion_from_a_generator_that_cannot_spawn():
    # A legacy RandomState's bit generator has no SeedSequence to spawn a
    # completion stream from; the draw still completes.
    gen = np.random.Generator(np.random.RandomState(1)._bit_generator)
    draw = sample_point(make_space("CI", 4), gen, 3, dense=False)
    y = _complex(RngStream(28).generator(), (4, 3))
    _check_completion(make_space("CI", 4), draw, [(y, draw.apply(y), draw.apply_adjoint(y))])


# ------------------------------------------------------------- out= arrays
# Every deferred operation takes an optional out, as a streamed call's
# workspace arrays are given: the result is written there and returned, and
# it is the array a call without out would have made, bit for bit.

_OUT_DRAWS = {
    "U": lambda g: sample_point(make_space("U", 6), g, 4, dense=False),
    "sigma-DIII": lambda g: sample_point(make_space("DIII", 6), g, 4, dense=False),
    "sigma-AII": lambda g: sample_point(make_space("AII", 6), g, 4, dense=False),
    "grassmannian-BDI": lambda g: sample_point(make_space("BDI", 6, 4, 2), g, 4, dense=False),
    "degenerate-AIII": lambda g: sample_point(make_space("AIII", 6, 6, 0), g, 4, dense=False),
    "unitary-real": lambda g: haar_orthogonal(6, g, size=4, dense=False),
    "unitary-complex": lambda g: haar_unitary(6, g, size=4, dense=False),
    "subspace-real": lambda g: haar_orthogonal(6, g, size=4, dense=False, columns=2),
    "subspace-complex": lambda g: haar_unitary(6, g, size=4, dense=False, columns=2),
    "subspace-quaternion": lambda g: haar_symplectic(6, g, size=4, dense=False, columns=1),
}


@pytest.mark.parametrize("y_field", ["real", "complex"])
@pytest.mark.parametrize("make", _OUT_DRAWS.values(), ids=_OUT_DRAWS.keys())
def test_out_is_returned_and_holds_what_a_new_array_would(make, y_field):
    given, fresh = make(RngStream(29)), make(RngStream(29))
    methods = ["project"] if isinstance(given, DeferredSubspace) else ["apply", "apply_adjoint"]
    q = RngStream(30).generator()
    for _ in range(2):
        y = q.standard_normal((6, 4)) if y_field == "real" else _complex(q, (6, 4))
        for name in methods:
            expected = getattr(fresh, name)(y)
            out = np.full_like(expected, np.nan)
            assert getattr(given, name)(y, out=out) is out
            assert out.dtype == expected.dtype and out.tobytes() == expected.tobytes(), name
