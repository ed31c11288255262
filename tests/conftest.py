"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def record(monkeypatch):
    """record(owner, name) -> calls: from here on, each call of owner.name
    appends its positional arguments to calls (a method's include self),
    then runs the original.  Work gates count calls with it."""

    def install(owner, name):
        calls = []
        inner = getattr(owner, name)

        def recorded(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)
        return calls

    return install
