"""Tests of the verification-suite plumbing (the individual checks are
exercised through run_suite by the CLI tests and the acceptance suite)."""

import numpy as np
import pytest

from qrtan.cli import main
from qrtan import verify
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


def test_petal_absorbed_reports_samples_found(monkeypatch):
    monkeypatch.setattr(verify, "_PETAL_DRAWS", 20_000)
    few = verify.check_petal_absorbed(1.39, np.random.default_rng(0), n=60)
    assert few.passed
    found = int(few.detail.split("; ")[1].split()[0])
    assert 0 < found < 60
    assert few.detail == (f"0/{found} petal orbits strayed (sectors with contraction "
                          f"factor <= 0.99); {found} of 60 found in 20000 draws")
    # lam/sqrt(2) > 0.99: no ray is slow enough to sample
    none = verify.check_petal_absorbed(1.4142, np.random.default_rng(0), n=60)
    assert none.passed and none.detail == "vacuous at this lam"
