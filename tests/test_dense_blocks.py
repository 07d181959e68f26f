"""Dense draws, coset maps and fits in cache-sized blocks of draws: the same
bits as the whole-batch formation, and a working set of one stack plus a
few blocks, which glibc keeps from one fit to the next.
"""

import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import symshadows
from symshadows import haar, momentlab, spaces
from symshadows.rng import RngStream
from symshadows.spaces import QUOTIENT_FAMILIES, make_space, sample_point

try:
    import resource
except ImportError:  # not on every platform
    resource = None


def _whole_batch_matrix(draw, columns=None):
    """``HouseholderDraw.matrix`` as it was before blocks: every reflector
    applied to the whole batch at once, batch axis last, then one copy of
    the transposed stack."""
    d, c = draw.dim, draw._blocks
    kept = d // c if columns is None else columns
    out = np.zeros((d, c * kept, draw.size), dtype=draw.signs.dtype)
    view = out.reshape(c, d // c, c, kept, draw.size)
    diag = np.arange(kept)
    for a in range(c):
        view[a, diag, a, diag] = draw.signs[a * (d // c) + diag]
        if draw.swap is not None:
            view[a, diag, 1 - a, diag] = draw.swap[a * (d // c) + diag]
    for k in range(len(draw.offsets) - 1, -1, -1):
        lo, m = draw.offsets[k], d // c - k // c
        v = draw.reflectors[lo : lo + c * m].reshape(c, m, -1)
        sub = view[:, k // c :, :, k // c :]
        coef = np.einsum("aib,aicjb->cjb", v.conj(), sub) * draw.tau[k]
        sub -= v[:, :, None, None, :] * coef[None, None]
    return np.ascontiguousarray(out.transpose(2, 0, 1))


def _whole_batch_coset(spec, g):
    """``spaces._coset_matrix`` as it was before blocks: AI's gᵀ g from a
    contiguous gᵀ, σ's product through ``involution``, the Grassmannian
    ±S(1 − 2 W Wᴴ), each on the whole stack."""
    if spec.p is not None:
        v = g @ np.swapaxes(g.conj(), -1, -2)
        v *= -2.0
        v += np.eye(spec.dim)
        v *= spaces._grassmannian_sign(spec)[:, None]
        return v
    if spaces._FAMILIES[spec.family].m == "1":
        return np.ascontiguousarray(np.swapaxes(g, -1, -2)) @ g
    return np.swapaxes(spaces.involution(spec, g).conj(), -1, -2) @ g


def _batch_sizes(draw_bytes):
    """One draw, and batches about one and a few blocks of draws long."""
    block = max(1, haar._DENSE_BLOCK_BYTES // draw_bytes)
    return sorted({1, max(1, block - 1), block, block + 1, 3 * block + 1})


def _draw(group, d, gen, size, m):
    if group == "SP":
        return haar._symplectic_reflectors(d, gen, size, m)
    return haar._haar_reflectors(
        d, gen, size, m, real=group != "U", special=group == "SO"
    )


@pytest.mark.parametrize("columns", [None, 1, "half"])
@pytest.mark.parametrize("d", [8, 24])
@pytest.mark.parametrize("group", ["U", "O", "SO", "SP"])
def test_blocked_formation_is_the_whole_batch_formation(group, d, columns):
    full = d // 2 if group == "SP" else d
    m = full // 2 if columns == "half" else columns
    c = 2 if group == "SP" else 1
    itemsize = 16 if group in ("U", "SP") else 8
    for size in _batch_sizes(d * c * (full if m is None else m) * itemsize):
        draw = _draw(group, d, RngStream(80, (d, size)).generator(), size, full if m is None else m)
        got = draw.matrix(m)
        assert got.tobytes() == _whole_batch_matrix(draw, m).tobytes(), size


def _quotients():
    for d in (8, 23, 24):
        for family in QUOTIENT_FAMILIES:
            if d % 2 and family in ("AII", "DIII", "CI", "CII"):
                continue
            yield make_space(family, d)
            if family in ("AIII", "BDI", "CII"):
                yield make_space(family, d, p=1)


@pytest.mark.parametrize("spec", list(_quotients()), ids=lambda s: s.label())
def test_blocked_coset_map_is_the_whole_batch_map(spec):
    itemsize = 8 if spec.is_real else 16
    for size in _batch_sizes(spec.dim * spec.dim * itemsize):
        g = spaces._parent_draw(spec, RngStream(81, (size,)).generator(), size, True)
        expected = _whole_batch_coset(spec, g.copy())
        assert spaces._coset_matrix(spec, g).tobytes() == expected.tobytes(), size


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_draw_holds_one_stack():
    # Before blocks the formation held its batch-last stack and the
    # transposed copy, and AI's map g, the contiguous gᵀ and V: 25.2 MB.
    d, size = 8, 8192
    sample_point(make_space("AI", d), RngStream(82), 2)
    peak = _peak(lambda: sample_point(make_space("AI", d), RngStream(82), size))
    result = size * d * d * 16
    # The parent draw's reflectors: d(d+1)/2 complex Gaussians, d - 1
    # scales and d gauge phases per draw.
    reflectors = size * (d * (d + 1) // 2 * 16 + (d - 1) * 8 + d * 16)
    # A block of the formation and its reflector temporaries.
    assert peak <= result + reflectors + 8 * haar._DENSE_BLOCK_BYTES, peak


def test_fit_working_set_is_a_few_blocks_past_its_stack():
    # Before blocks an AII(8) fit of 2048 draws peaked at 8.5 MB.
    spec, n = make_space("AII", 8), 2048
    momentlab.fit_channel_coefficients(spec, 64, RngStream(83))
    stack = n * spec.dim**2 * 16
    peak = _peak(lambda: momentlab.fit_channel_coefficients(spec, n, RngStream(84)))
    assert peak <= 2.5 * stack, peak


# Run in a fresh interpreter: what glibc keeps depends on the largest block
# the process has freed, which earlier tests would set.
_FIT_FAULTS = """
import resource
from symshadows import momentlab
from symshadows.rng import RngStream
from symshadows.spaces import make_space

spec = make_space("AII", 8)
for seed in (85, 86):
    momentlab.fit_channel_coefficients(spec, 2048, RngStream(seed))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
momentlab.fit_channel_coefficients(spec, 2048, RngStream(87))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(resource is None, reason="needs the resource module for getrusage")
@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the expectation rests on glibc's dynamic mmap threshold",
)
def test_fits_do_not_fault_their_memory_in_again():
    # glibc raises its mmap threshold to the largest block it has freed, the
    # fit's draw stack, and trims the heap once more than twice that is free
    # at its top.  A fit whose working set stays within it reuses the same
    # pages from one fit to the next, so the count is taken after two
    # warm-up fits.  Before blocks an AII(8) fit of 2048 draws took about
    # 3000 minor faults here.
    src = Path(symshadows.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _FIT_FAULTS], env=env, capture_output=True, text=True, check=True
    )
    faults = int(done.stdout)
    assert faults < 0.05 * 2048, f"{faults} minor faults in a fit of 2048 draws"
