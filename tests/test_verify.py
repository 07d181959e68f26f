"""The built-in verification suites must pass on their own package."""

import re

import pytest

from symshadows import momentlab
from symshadows.rng import RngStream
from symshadows.spaces import make_space
from symshadows.verify import CHECK_COLUMNS, SUITES, Check, all_passed, run_suite


def test_suite_names_and_columns_frozen():
    assert SUITES == ("haar", "witness", "channel", "moments", "equivariance", "all")
    assert CHECK_COLUMNS == ("suite", "name", "statistic", "threshold", "passed")


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("everything")
    with pytest.raises(ValueError):
        run_suite("haar", space="E8")


@pytest.mark.parametrize("field", ["dim", "samples"])
def test_run_suite_rejects_non_integral_counts(field):
    # dim=2.5 ran no check at all, and an empty list reads as a pass.
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got"):
            run_suite("witness", **{field: bad})
    assert run_suite("witness", dim=4.0) == run_suite("witness", dim=4)


@pytest.mark.parametrize(
    "suite, space, dim, message",
    [
        ("haar", None, 0, "dim must be at least 1"),
        ("witness", "SP", 3, "SP needs an even dimension"),
        ("moments", "SP", None, "SP needs an even dimension"),
        ("channel", "AI", 1, "AI needs dimension >= 2"),
    ],
)
def test_a_named_space_or_dimension_that_cannot_be_built_is_refused(suite, space, dim, message):
    with pytest.raises(ValueError, match=message):
        run_suite(suite, space=space, dim=dim, samples=100)


@pytest.mark.parametrize("dim", [None, 1, 3])
def test_all_suites_pass_at_reduced_budget(dim):
    checks = run_suite("all", dim=dim, samples=4000, seed=0)
    assert all_passed(checks), [c for c in checks if not c.passed]
    # 'all' is exactly the concatenation of the named suites
    assert len(checks) == sum(
        len(run_suite(name, dim=dim, samples=4000, seed=0)) for name in SUITES[:-1]
    )
    suites_seen = {c.suite for c in checks}
    assert suites_seen == set(SUITES[:-1])
    families = {m.group(1) for c in checks for m in re.finditer(r"\b([A-Z]+)\(d=", c.name)}
    if dim is not None:
        # the even-dimension families are skipped at an odd d
        assert families.isdisjoint({"SP", "AII", "DIII", "CI", "CII"})
    if dim == 3:
        assert {"U", "O", "SO", "AI", "AIII", "BDI"} <= families


@pytest.mark.parametrize(
    "dim, labels",
    [
        (None, ["mc/AI(d=3)", "mc/AIII(d=4,p=2,q=2)"]),
        (5, ["mc/AI(d=5)", "mc/AIII(d=5,p=3,q=2)"]),
        (1, []),
    ],
)
def test_equivariance_sampled_rows_follow_dim(dim, labels):
    checks = run_suite("equivariance", dim=dim, samples=2000)
    assert [c.name for c in checks if c.name.startswith("mc/")] == labels


def test_haar_moments_draw_through_the_checked_loop(monkeypatch):
    monkeypatch.setattr(momentlab, "_IDENTITY_BATCH_DRAWS", 1000)
    sizes = []
    original = momentlab.sample_point

    def counting(spec, rng=None, size=None, dense=True):
        sizes.append(size)
        return original(spec, rng, size=size, dense=dense)

    monkeypatch.setattr(momentlab, "sample_point", counting)
    checks = run_suite("haar", samples=5000)
    assert all_passed(checks), [c for c in checks if not c.passed]
    # 5000 draws for each of U, O, SO and SP
    assert sum(sizes) == 20_000
    assert max(sizes) <= 1000
    assert sum(c.name.startswith("structure/") for c in checks) == 4


def test_check_records_are_well_formed():
    checks = run_suite("witness", dim=4, seed=1)
    assert checks
    for c in checks:
        assert isinstance(c, Check)
        assert c.suite == "witness"
        assert isinstance(c.name, str) and c.name
        assert c.passed == (c.statistic <= c.threshold)


def test_space_filter_restricts_parameterized_checks():
    everything = run_suite("witness", dim=4, seed=2)
    only_ci = run_suite("witness", dim=4, seed=2, space="CI")
    assert 0 < len(only_ci) < len(everything)
    assert all("CI" in c.name for c in only_ci)


def test_run_suite_deterministic():
    a = run_suite("moments", samples=3000, seed=7)
    b = run_suite("moments", samples=3000, seed=7)
    assert a == b


def test_all_passed_detects_failure():
    good = Check("s", "x", 0.1, 1.0, True)
    bad = Check("s", "y", 2.0, 1.0, False)
    assert all_passed([good])
    assert not all_passed([good, bad])


def test_constant_samples_pass_only_at_the_expected_value():
    # O(1) is {+1, -1}: every draw has |V00|^2 = 1, so the SEM is 0
    targets = [("at-1", (0, 0), 2, 1.0), ("at-half", (0, 0), 2, 0.5)]
    at_one, at_half = momentlab.entry_moments(make_space("O", 1), targets, 10, RngStream(3))
    assert at_one.sem == 0.0 and at_one.deviation_sems == 0.0
    assert at_half.deviation_sems == float("inf")


def test_a_fit_with_zero_sem_passes_at_its_target():
    # AII(d=2) is U(2)/SU(2): every draw gives the exact mixing weight
    checks = run_suite("channel", space="AII", dim=2, samples=2000)
    assert all_passed(checks), [c for c in checks if not c.passed]
