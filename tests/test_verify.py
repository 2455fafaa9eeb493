"""Tests of the verification-suite plumbing (the individual checks are
exercised through run_suite by the CLI tests and the acceptance suite)."""

import hashlib

import numpy as np
import pytest

from qrtan.cli import main
from qrtan import plane, verify
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


def _float_norm_cycle(lam):
    """_low_norm_cycle as it ranked poles by np.linalg.norm of their
    locations, kept as the reference for the integer ranking."""
    r = plane.required_tail_radius(lam)
    cands = []
    for m in range(-6, 7):
        for n in range(-6, 7):
            norm = float(np.linalg.norm(plane.pole_location((m, n))))
            if norm > r:
                cands.append(((m, n), norm))
    cands.sort(key=lambda t: t[1])
    return [c[0] for c in cands[:8]]


def _float_norm_offset(lam):
    r = plane.required_tail_radius(lam)
    j = 0
    while float(np.linalg.norm(plane.pole_location((0, j)))) <= r:
        j += 1
    return j


def test_pole_rankings_match_float_norms():
    for lam in np.linspace(0.1, 5.0, 202)[1:-1].tolist():
        assert verify._low_norm_cycle(lam) == _float_norm_cycle(lam)
        assert verify._first_far_offset(lam) == _float_norm_offset(lam)


# SHA-256 of `verify --suite all --fast --seed 0` stdout per lambda; the
# text carries every check's measured value, so a change that moves one
# digit of any check shows here
VERIFY_SHA256 = {
    "0.9": "f51d4e101c94daaf97d4be2ce85e0b6e1b6eb7762a7b454a7fe364ab05b1f9a6",
    "1": "321b3e162ff310ecc4a341838e5e245789b225dde5d709aa6909b7f5bae98d85",
    "2": "a4aa689551a44cd6c38c5ff08cc8bde252c661cd399234f9e1c5a199e46f9db8",
}


@pytest.mark.parametrize("lam", sorted(VERIFY_SHA256))
def test_fast_suite_keeps_its_bytes(lam, capsys):
    code = main(["verify", "--suite", "all", "--fast", "--seed", "0", "--lambda", lam])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[lam]


@pytest.mark.parametrize("lam", ["2.5", "3", "7", "30"])
def test_suite_runs_to_the_end_at_large_lam(lam, capsys):
    # the itinerary checks build tails and cycles whose poles clear the
    # radius, so every check reports PASS or FAIL: no usage error, no raise
    code = main(["verify", "--suite", "all", "--fast", "--seed", "0", "--lambda", lam])
    out, err = capsys.readouterr()
    assert code in (0, 1) and err == ""
    assert out.splitlines()[-1].endswith(f"checks passed (lambda={float(lam)}, suite=all)")
