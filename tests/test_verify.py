"""The built-in verification suites must pass on their own package."""

import numpy as np
import pytest

from symshadows import verify
from symshadows.verify import CHECK_COLUMNS, SUITES, Check, all_passed, run_suite


def test_suite_names_and_columns_frozen():
    assert SUITES == ("haar", "witness", "channel", "moments", "equivariance", "all")
    assert CHECK_COLUMNS == ("suite", "name", "statistic", "threshold", "passed")


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite("everything")
    with pytest.raises(ValueError):
        run_suite("haar", space="E8")


def test_all_suites_pass_at_reduced_budget():
    checks = run_suite("all", samples=4000, seed=0)
    assert all_passed(checks), [c for c in checks if not c.passed]
    # 'all' is exactly the concatenation of the named suites
    assert len(checks) == sum(
        len(run_suite(name, samples=4000, seed=0)) for name in SUITES[:-1]
    )
    suites_seen = {c.suite for c in checks}
    assert suites_seen == set(SUITES[:-1])


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
    assert verify._moment_check("s", "x", np.full(10, 0.25), 0.25, 5.0).passed
    failed = verify._moment_check("s", "x", np.full(10, 0.5), 0.25, 5.0)
    assert not failed.passed and failed.statistic == float("inf")


def test_a_fit_with_zero_sem_passes_at_its_target():
    # AII(d=2) is U(2)/SU(2): every draw gives the exact mixing weight
    checks = run_suite("channel", space="AII", dim=2, samples=2000)
    assert all_passed(checks), [c for c in checks if not c.passed]
