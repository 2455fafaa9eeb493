"""Shared fixtures."""

import pytest

from qrtan import analysis


@pytest.fixture
def fate_rule(monkeypatch):
    """Set fate-rule constants of ``analysis`` for one test, by name
    (``fate_rule(ESCAPE_NORM=5.0, ESCAPE_RUN=2)``): ``classify_orbit``
    and ``classify_plane_block`` read them when called."""
    def set_rule(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(analysis, name, value)
    return set_rule
