"""Workload definitions of the symshadows benchmark.

A workload is a fixed call list into the public functions of symshadows,
built from a seed.  One *round* is one pass over that list; rounds run
closed-loop, one call after another, in a single process.  Every call is
checked for correctness as it returns, and the benchmark's own
statistical checks are counted with the calls in ``attempted``/``failed``.

Inputs (states, observables, ``SpaceSpec`` lists and the random streams of
every call) depend only on the seed, the workload's size and the round
index, so the same seed replays the same rounds.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass

import numpy as np

from symshadows import channel, momentlab, shadows, spaces, variance
from symshadows.rng import RngStream

#: Standard errors a mean may sit from its exact target before a check fails.
K_SEM = 7.0
#: Gaussian standard errors of a sample variance tolerated before a check
#: fails; wider than ``K_SEM`` because single-shot estimates are not
#: Gaussian and their sample variance has excess kurtosis.
K_VAR = 8.0
#: Standard error ``time_to_sem_s`` projects every estimation cell to.
TARGET_SEM = 0.01
#: Shots per ``run_estimation`` call at d = 32 and 40, and at d = 128.  At
#: these sizes the call's fixed cost (density validation, truth, projection
#: check) is at most about 5% of the call, and a shot costs, within the
#: run-to-run noise, what it costs in a 1024-shot call at d = 32 and in one
#: default ``shadow_estimates`` batch (122 shots) at d = 128.  Default-batch
#: calls everywhere would make rounds so long that a 25 s run holds too few
#: of them for ``round_s_tail``.
SHOTS_D32 = 256
SHOTS_D128 = 64
#: Samples per ``fit_channel_coefficients`` call: a quarter of its default
#: batch, where a draw costs about 12% more than in a full batch.  That
#: per-call share is what sweep_fit is there to show; a full batch would
#: nearly double its round time.
FIT_SAMPLES = 2048


@dataclass
class Cell:
    """One estimation cell: an ensemble with its state and observable."""

    spec: spaces.SpaceSpec
    rho: np.ndarray
    observable: np.ndarray
    n_shots: int
    # Closed-form E[o^2] of one shot (AIII and BDI only).
    second_moment: float | None = None

    def single_shot_variance(self, truth: float, empirical: float) -> float:
        """Exact single-shot variance where a closed form exists, else ``empirical``."""
        if self.second_moment is None:
            return empirical
        return self.second_moment - truth * truth


@dataclass
class RoundOutcome:
    """What one round did, as the benchmark saw it from outside the program."""

    calls: int
    failed: int
    # Projected seconds to reach TARGET_SEM on every estimation cell.
    time_to_sem_s: float


def _make_cell(spec, root: RngStream, index: int, n_shots: int, diag_weight: float) -> Cell:
    rho = shadows.random_pure_state(spec.dim, root.child(0, index))
    obs = shadows.random_observable(
        spec.dim, diag_weight, symmetric=spec.is_real, rng=root.child(1, index)
    )
    return Cell(spec, rho, obs, n_shots)


class EstimationWorkload:
    """``run_estimation`` over a fixed list of (family, d) cells."""

    name = ""
    why = ""

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        root = RngStream(seed).child(0)
        specs = self.cell_specs(tiny)
        self.cells = [
            _make_cell(spec, root, i, n_shots, diag_weight=0.25 + 0.5 * (i % 2))
            for i, (spec, n_shots) in enumerate(specs)
        ]
        self.draws_per_round = sum(c.n_shots for c in self.cells)
        self.distinct_specs = len({c.spec for c in self.cells})
        # Per cell over every round: shots, sum of estimates and within-call
        # sum of squared deviations, for the pooled check at the end of the run.
        self._pool = [[0, 0.0, 0.0] for _ in self.cells]
        self._truth: list[float | None] = [None] * len(self.cells)

    @staticmethod
    def cell_specs(tiny: bool) -> list[tuple[spaces.SpaceSpec, int]]:
        raise NotImplementedError

    def setup(self) -> None:
        """Build every channel inverse cold and fix the closed-form second moments."""
        for cell in self.cells:
            channel.invert_channel(cell.spec)
            cell.second_moment = variance.analytic_second_moment(
                cell.rho, cell.observable, cell.spec
            )

    def _call(self, cell: Cell, rng: RngStream):
        return shadows.run_estimation(cell.spec, cell.rho, cell.observable, cell.n_shots, rng=rng)

    def first_call_is_deterministic(self) -> bool:
        """Re-run the first call with the same stream: reports must be identical."""
        stream = RngStream(self.seed).child(1, 0, 0)
        return self._call(self.cells[0], stream) == self._call(self.cells[0], stream)

    def run_round(self, r: int) -> RoundOutcome:
        failed = 0
        tts = 0.0
        for i, cell in enumerate(self.cells):
            t0 = time.perf_counter()
            try:
                report = self._call(cell, RngStream(self.seed).child(1, r, i))
            except Exception as exc:  # noqa: BLE001 - a failed call is counted, the run goes on
                _report_exception(cell.spec.label(), exc)
                failed += 1
                continue
            dt = time.perf_counter() - t0
            var = cell.single_shot_variance(report.truth, report.variance)
            sem = math.sqrt(var / report.n_samples)
            if not abs(report.mean - report.truth) <= K_SEM * sem:
                print(f"estimate on {cell.spec.label()} is off its truth", flush=True)
                failed += 1
            pool = self._pool[i]
            pool[0] += report.n_samples
            pool[1] += report.mean * report.n_samples
            pool[2] += report.variance * (report.n_samples - 1)
            self._truth[i] = report.truth
            tts += dt / cell.n_shots * var / TARGET_SEM**2
        return RoundOutcome(len(self.cells), failed, tts)

    def final_checks(self) -> tuple[int, int]:
        """Pooled check per cell: the mean over all rounds sits near the truth."""
        failed = 0
        for (n, total, ss), truth, cell in zip(self._pool, self._truth, self.cells):
            if n < 2 or truth is None:
                continue
            var = cell.single_shot_variance(truth, ss / (n - 1))
            if not abs(total / n - truth) <= K_SEM * math.sqrt(var / n):
                print(f"pooled check failed for {cell.spec.label()}", flush=True)
                failed += 1
        return len(self.cells), failed


def _report_exception(where: str, exc: Exception) -> None:
    print(f"call on {where} raised:", flush=True)
    traceback.print_exception(exc)


def _space(family: str, d: int, p: int | None = None) -> spaces.SpaceSpec:
    return spaces.make_space(family, d, p=p)


class EstimateUO(EstimationWorkload):
    name = "estimate_uo"
    why = (
        "U/O-parent estimation: the parent Haar draw (Ginibre + QR) and the coset map"
        " take ~90% of a shot, the channel inverse is closed form"
    )

    @staticmethod
    def cell_specs(tiny):
        if tiny:
            return [(_space("U", 4), 16), (_space("AIII", 4, 3), 16), (_space("BDI", 6, 2), 16)]
        d32 = [
            _space("U", 32),
            _space("O", 32),
            _space("AI", 32),
            _space("AIII", 32, 16),
            _space("AIII", 32, 26),
            _space("BDI", 32, 16),
            _space("BDI", 32, 28),
            _space("DIII", 32),
        ]
        return [(s, SHOTS_D32) for s in d32] + [
            (_space("AIII", 128, 64), SHOTS_D128),
            (_space("BDI", 128, 80), SHOTS_D128),
        ]


class EstimateSP(EstimationWorkload):
    name = "estimate_sp"
    why = (
        "SP-parent estimation: every cold invert_channel eigendecomposes the dense"
        " d^2 x d^2 superoperator, and haar_symplectic's Gram-Schmidt loop dominates a shot"
    )

    @staticmethod
    def cell_specs(tiny):
        if tiny:
            return [(_space("SP", 4), 16), (_space("CI", 4), 16), (_space("CII", 6, 2), 16)]
        # CII at d = 32 has p + q = 16 quaternionic coordinates; p = 15 is the
        # largest |s| whose ensemble is not the single point {1}.
        return [
            (_space("SP", 32), SHOTS_D32),
            (_space("CI", 32), SHOTS_D32),
            (_space("CII", 32, 8), SHOTS_D32),
            (_space("CII", 32, 12), SHOTS_D32),
            (_space("CII", 32, 15), SHOTS_D32),
            (_space("CII", 40, 10), SHOTS_D32),
        ]


class SweepFit:
    """The paper's study loop at small d: a variance sweep and seven weight fits."""

    name = "sweep_fit"
    why = (
        "study loop at small d: many short shadow_estimates calls plus whole-matrix"
        " moment fits, so added per-call cost or re-materialization shows"
    )

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.sweep_dim = 4 if tiny else 16
        self.fit_dim = 4 if tiny else 8
        self.fit_samples = 64 if tiny else FIT_SAMPLES
        # Sweep rows use SweepConfig's default shot count.
        self.sweep_shots = 32 if tiny else shadows.SweepConfig(dim=self.sweep_dim).n_shots
        self.fractions = (0.25, 0.75)
        self.weights = (0.2, 0.9)
        self.families = ("AIII", "U", "BDI", "O")
        self.fit_specs = [_space(f, self.fit_dim) for f in spaces.QUOTIENT_FAMILIES]
        self.sweep_specs = []
        for family in self.families:
            for fraction in self.fractions:
                blocks = shadows.signature_for_fraction(family, self.sweep_dim, fraction)
                p = None if blocks is None else blocks[0]
                self.sweep_specs.append(_space(family, self.sweep_dim, p))
        n_rows = len(self.families) * len(self.fractions) * len(self.weights)
        self.draws_per_round = n_rows * self.sweep_shots + len(self.fit_specs) * self.fit_samples
        self.distinct_specs = len(set(self.sweep_specs))

    def setup(self) -> None:
        for spec in self.sweep_specs:
            channel.invert_channel(spec)

    def _config(self, r: int) -> shadows.SweepConfig:
        return shadows.SweepConfig(
            dim=self.sweep_dim,
            families=self.families,
            signature_fractions=self.fractions,
            diag_weights=self.weights,
            n_instances=1,
            n_shots=self.sweep_shots,
            seed=self.seed * 1_000_003 + r,
        )

    def first_call_is_deterministic(self) -> bool:
        return shadows.variance_sweep(self._config(0)) == shadows.variance_sweep(self._config(0))

    def run_round(self, r: int) -> RoundOutcome:
        failed = 0
        calls = 1 + len(self.fit_specs)
        tts = 0.0
        t0 = time.perf_counter()
        try:
            rows = shadows.variance_sweep(self._config(r))
        except Exception as exc:  # noqa: BLE001 - a failed call is counted, the run goes on
            _report_exception("variance_sweep", exc)
            rows = []
            failed += 1
        dt = time.perf_counter() - t0
        shot_s = dt / max(1, sum(row.n_shots for row in rows))
        for row in rows:
            var = row.empirical_variance
            if row.analytic_second_moment is not None:
                exact = row.analytic_second_moment - row.mean**2
                tol = K_VAR * exact * math.sqrt(2.0 / (row.n_shots - 1))
                calls += 1
                if not abs(row.empirical_variance - exact) <= tol:
                    print(
                        f"sweep row {row.family} p={row.p} weight={row.diag_weight}:"
                        f" variance {row.empirical_variance:.6g}, exact {exact:.6g}",
                        flush=True,
                    )
                    failed += 1
                var = exact
            tts += shot_s * var / TARGET_SEM**2
        for i, spec in enumerate(self.fit_specs):
            try:
                fit = momentlab.fit_channel_coefficients(
                    spec, self.fit_samples, rng=RngStream(self.seed).child(2, r, i)
                )
            except Exception as exc:  # noqa: BLE001 - a failed call is counted, the run goes on
                _report_exception(spec.label(), exc)
                failed += 1
                continue
            weights = channel.channel_weights(spec)
            if not (
                abs(fit.mixing_weight - float(weights.mixing_weight))
                <= K_SEM * fit.mixing_weight_sem
                and abs(fit.dephasing_weight - float(weights.dephasing_weight))
                <= K_SEM * fit.dephasing_weight_sem
            ):
                print(
                    f"fit on {spec.label()}: weights ({fit.mixing_weight:.6g},"
                    f" {fit.dephasing_weight:.6g}), exact ({float(weights.mixing_weight):.6g},"
                    f" {float(weights.dephasing_weight):.6g})",
                    flush=True,
                )
                failed += 1
        return RoundOutcome(calls, failed, tts)

    def final_checks(self) -> tuple[int, int]:
        return 0, 0


WORKLOADS = {w.name: w for w in (EstimateUO, EstimateSP, SweepFit)}
