"""Fixtures shared by the test modules."""

import pytest

from mzeta import rings


@pytest.fixture
def layouts_made(monkeypatch):
    """The names of every layout made while the test runs, in order.

    rings interns layouts in a weak table, so its live entries miss a layout
    made and dropped at once; this list counts constructions instead."""
    made = []
    init = rings._Layout.__init__

    def counting(self, names):
        made.append(names)
        init(self, names)

    monkeypatch.setattr(rings._Layout, "__init__", counting)
    return made
