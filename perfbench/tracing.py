"""Span recorder for the traced benchmark run.

The recorder replaces layer entry points of symshadows with wrappers while
it is installed.  Each wrapper records a span (name, start, end, parent)
around the call; spans stay in memory and are reduced once, at the end of
the run.  A span's *self time* is its duration minus the part of it that
its child spans cover, so the self times of every span under one root add
up to that root's duration.

The wrappers are set on the module (or class) attribute that the calling
code looks up at call time.  ``spaces`` imports the Haar samplers and
``shadows``/``momentlab`` import ``sample_point`` and ``apply_channel`` by
name, so those are patched in the importing namespace, not where they are
defined.
Nothing under ``src/`` changes: uninstalling restores every original.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np

from symshadows import channel, haar, momentlab, shadows, spaces
from symshadows.backend import get_kernels

#: Span names whose self time is reported as ``<name>_s``.
LAYER_SPANS = (
    "haar.ginibre",
    "haar.orth",
    "haar.symplectic",
    "spaces.coset",
    "kernels.born",
    "kernels.choose",
    "kernels.quad",
    "kernels.proj",
    "channel.inverse_build",
    "channel.apply",
    "shadows.validate",
    "shadows.self",
    "variance.analytic",
    "momentlab.fit_self",
)
#: Span that holds the recorder's own bookkeeping (counts, health stats).
HOOK_SPAN = "trace.hooks"


def _batch_count(result) -> int:
    return int(result.shape[0]) if result.ndim == 3 else 1


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.prob_gap_max = 0.0
        self.clipped_mass = 0.0
        self.born_rows = 0

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recorded as span ``name``; ``after(result)`` runs in a hook span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                hook = self.open(HOOK_SPAN)
                try:
                    after(result)
                finally:
                    self.close(hook)
            return result

        return traced

    def self_times(self, root: int) -> dict[str, float]:
        """Self time by span name over the tree under top-level span ``root``."""
        end = root + 1
        while end < len(self.spans) and self.spans[end][3] != -1:
            end += 1
        children: dict[int, list[tuple[float, float]]] = {}
        for i in range(root + 1, end):
            _, start, stop, parent = self.spans[i]
            children.setdefault(parent, []).append((start, stop))
        out: dict[str, float] = {}
        for i in range(root, end):
            name, start, stop, _ = self.spans[i]
            covered = _coverage(children.get(i, []), start, stop)
            out[name] = out.get(name, 0.0) + (stop - start) - covered
        return out

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Put a wrapper on every listed layer entry point."""
        kern = get_kernels()
        inverse = channel.ChannelInverse
        count = self._counter
        targets = [
            (haar, "ginibre", "haar.ginibre", None),
            (spaces, "haar_unitary", "haar.orth", count("haar.matrices")),
            (spaces, "haar_orthogonal", "haar.orth", count("haar.matrices")),
            (spaces, "haar_symplectic", "haar.symplectic", count("haar.matrices")),
            (shadows, "sample_point", "spaces.coset", count("spaces.draws")),
            (momentlab, "sample_point", "spaces.coset", count("spaces.draws")),
            (kern, "born_probs", "kernels.born", self._born_health),
            (kern, "choose_outcomes", "kernels.choose", None),
            (kern, "row_quadratic", "kernels.quad", None),
            (kern, "proj_unitary", "kernels.proj", None),
            (kern, "proj_orthogonal", "kernels.proj", None),
            (kern, "proj_symplectic", "kernels.proj", None),
            (inverse, "__init__", "channel.inverse_build", self._built),
            (inverse, "apply", "channel.apply", None),
            (inverse, "is_projected", "channel.apply", self._projected),
            (shadows, "apply_channel", "channel.apply", None),
            (shadows, "validate_density", "shadows.validate", None),
            (shadows, "shadow_estimates", "shadows.self", None),
            (shadows, "run_estimation", "shadows.self", None),
            (shadows, "variance_sweep", "shadows.self", None),
            (shadows, "analytic_second_moment", "variance.analytic", None),
            (momentlab, "fit_channel_coefficients", "momentlab.fit_self", None),
        ]
        for owner, attr, name, after in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, after))

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- hooks --------------------------------------------------------------

    def _counter(self, key: str):
        def after(result):
            self.counts[key] += _batch_count(result)

        return after

    def _built(self, _result) -> None:
        self.counts["channel.inverse_builds"] += 1

    def _projected(self, result) -> None:
        self.counts["channel.projection_checks"] += 1
        self.counts["channel.projected"] += int(bool(result))

    def _born_health(self, probs) -> None:
        gap = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
        self.prob_gap_max = max(self.prob_gap_max, gap)
        self.clipped_mass += float(-np.minimum(probs, 0.0).sum())
        self.born_rows += probs.shape[0]


def _coverage(intervals: list[tuple[float, float]], start: float, stop: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, stop]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, stop)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
