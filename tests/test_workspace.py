"""The workspace a streamed call works in: it stays inside it, keeps nothing
from one batch or call to the next, and leaves the allocator nothing to
fault in again.
"""

import platform

import numpy as np
import pytest

from symshadows import haar
from symshadows.rng import RngStream
from symshadows.shadows import random_observable, random_pure_state, shadow_estimates
from symshadows.spaces import ALL_FAMILIES, make_space

try:
    import resource
except ImportError:  # not on every platform
    resource = None

_EVEN_ONLY = {"SP", "AII", "DIII", "CI", "CII"}


def _wishart_state(d, rank, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((d, rank)) + 1j * gen.standard_normal((d, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _specs():
    for d in (2, 3, 8, 32):
        for family in ALL_FAMILIES:
            if d % 2 and family in _EVEN_ONLY:
                continue
            yield make_space(family, d)
            if family in ("AIII", "BDI", "CII") and d >= 8:
                yield make_space(family, d, p=1)


def _state(d, rank):
    if rank == "pure":
        return random_pure_state(d, RngStream(60))
    if rank == "full":
        return _wishart_state(d, d, 60)
    # A basis state: some measured rows lie in what a shot already revealed,
    # and those draws reveal a fresh direction instead.
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


@pytest.mark.parametrize("rank", ["pure", "full", "basis"])
@pytest.mark.parametrize("spec", list(_specs()), ids=lambda s: s.label())
def test_streamed_calls_stay_inside_their_workspace(monkeypatch, spec, rank):
    # The workspace is sized from the family; an array that does not fit is
    # made apart from it, which is right but defeats the single block.
    spilled = []
    take = haar._Workspace.take

    def checked(self, shape, dtype):
        out = take(self, shape, dtype)
        if out.size and not np.shares_memory(out, self._buffer):
            spilled.append((shape, np.dtype(dtype).name))
        return out

    monkeypatch.setattr(haar._Workspace, "take", checked)
    obs = random_observable(spec.dim, 0.5, rng=RngStream(61))
    shadow_estimates(spec, _state(spec.dim, rank), obs, 100, RngStream(62), batch_size=32)
    assert spilled == []


# Values of the commit before the workspace, whose batches each allocated
# their own arrays: 45 shots in batches of 16, 16 and 13.  Floats are
# compared within 1e-12 relative, so that other BLAS builds pass too.
_PINNED = [
    ("U", None, None, 1.3754046504727448, -0.130330848670198, -4.666113463018517),
    ("AI", None, None, -1.1894582679392482, -0.33355103753722143, 7.452780479745835),
    ("AIII", 5, 3, -0.6532457251876528, -1.1285821780143241, -2.173815340317141),
    ("CII", 2, 2, -0.11413046900214427, 0.7985957927446918, 12.12020517209519),
]


def _pinned_call(family, p, q):
    spec = make_space(family, 8, p=p, q=q)
    rho = random_pure_state(8, RngStream(61))
    obs = random_observable(8, 0.5, rng=RngStream(62))
    return shadow_estimates(spec, rho, obs, 45, RngStream(63), batch_size=16)


@pytest.mark.parametrize("family, p, q, first, last, total", _PINNED, ids=[c[0] for c in _PINNED])
def test_short_last_batch_matches_pinned_values(family, p, q, first, last, total):
    estimates = _pinned_call(family, p, q)
    np.testing.assert_allclose(
        [estimates[0], estimates[-1], estimates.sum()], [first, last, total], rtol=1e-12, atol=0
    )


def test_calls_keep_nothing_from_other_calls():
    before = {c[0]: _pinned_call(*c[:3]) for c in _PINNED}
    # Other families and sizes in between, pure and mixed, one batch and several.
    for spec, n, batch in [
        (make_space("CI", 32), 300, None),
        (make_space("BDI", 40, p=10), 70, 32),
        (make_space("U", 3), 10, 3),
        (make_space("AIII", 128, p=64), 64, None),
    ]:
        rho = _wishart_state(spec.dim, 2, 64)
        obs = random_observable(spec.dim, 0.3, rng=RngStream(65))
        shadow_estimates(spec, rho, obs, n, RngStream(66), batch_size=batch)
    for c in _PINNED:
        np.testing.assert_array_equal(_pinned_call(*c[:3]), before[c[0]])


@pytest.mark.skipif(resource is None, reason="needs the resource module for getrusage")
@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the expectation rests on glibc's dynamic mmap threshold",
)
@pytest.mark.parametrize(
    "spec",
    [make_space("U", 32), make_space("AI", 32), make_space("AIII", 16, p=14)],
    ids=lambda s: s.label(),
)
def test_streamed_calls_do_not_fault_their_memory_in_again(spec):
    # glibc serves a block above its mmap threshold by mmap and, when that
    # block is freed, raises the threshold to its size: the next call takes
    # the block from the heap, growing it once.  From then on each call
    # reuses the same heap pages, which glibc keeps while the free space at
    # the top stays under twice the threshold.  So the count is taken after
    # two warm-up calls.
    shots = 4096
    rho = random_pure_state(spec.dim, RngStream(67))
    obs = random_observable(spec.dim, 0.5, rng=RngStream(68))
    for seed in (69, 70):
        shadow_estimates(spec, rho, obs, shots, RngStream(seed))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    shadow_estimates(spec, rho, obs, shots, RngStream(71))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 0.05 * shots, f"{faults} minor faults in {shots} shots"
