from __future__ import annotations

import os
import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(function) wraps every equicart module binding of the
    function with a counter and returns the list the wrapped calls append
    their arguments to.  A function that no equicart module binds fails the
    test, so that a count of zero cannot pass because an import moved."""

    def install(original):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        wrapped = 0
        for name, module in list(sys.modules.items()):
            if name == "equicart" or name.startswith("equicart."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
                        wrapped += 1
        if not wrapped:
            pytest.fail(f"count_calls: no equicart module binds {original!r}")
        return calls

    return install
