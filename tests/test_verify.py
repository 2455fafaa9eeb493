"""Tests of the verification-suite plumbing (the individual checks are
exercised through run_suite by the CLI tests and the acceptance suite)."""

import pytest

from qrtan.cli import main
from qrtan.verify import SUITES, run_suite


def test_suite_names():
    assert set(SUITES) == {"core", "plane", "analysis", "itinerary", "all"}
    assert set(SUITES["all"]) == set(SUITES["core"]) | set(SUITES["plane"]) \
        | set(SUITES["analysis"]) | set(SUITES["itinerary"])


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite(1.0, suite="nope")


def test_applicability_filtering():
    names = {r.name for r in run_suite(2.0, "analysis", fast=True)}
    # above sqrt(2) no petal region exists and the cusp bound is off-regime
    assert "petal-absorbed" not in names
    assert "parabolic-axis-bound" not in names
    assert "axis-fixed-point" in names

    names = {r.name for r in run_suite(1.0, "analysis", fast=True)}
    assert "parabolic-axis-bound" in names
    assert "axis-fixed-point" not in names
    assert "petal-membership" in names


def test_results_carry_details():
    for r in run_suite(0.9, "core", fast=True):
        assert r.name and isinstance(r.passed, bool) and r.detail


@pytest.mark.parametrize("lam", ["0.9", "1", "2"])
def test_seed_9706_passes(lam, capsys):
    # this seed draws (1.5794, -1.5653), which folds to within 0.01 of a
    # tile centre where the two eigenvalues nearly coincide; a
    # finite-difference Jacobian had a negative discriminant there
    code = main(["verify", "--suite", "all", "--fast", "--seed", "9706", "--lambda", lam])
    out = capsys.readouterr().out
    assert code == 0
    assert not [line for line in out.splitlines() if line.startswith("FAIL")]
