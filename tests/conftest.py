"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings

# One profile for CI-ish determinism: no deadline (the DP metrics are
# slow on pathological draws), a moderate example budget.  The
# "thorough" profile is the soak-test setting:
#   pytest tests/ -p no:cacheprovider --hypothesis-profile=thorough
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def fresh_native():
    """Re-probe the compiled kernel provider (and re-arm its warn-once
    fallback warnings) after env monkeypatching, restore after."""
    from repro import native

    native.reset()
    yield
    native.reset()


@pytest.fixture
def rng() -> random.Random:
    """A fresh deterministic RNG per test."""
    return random.Random(0xF5F)


@pytest.fixture
def rng_factory():
    """Factory for seeded RNGs when a test needs several streams."""

    def make(seed: int) -> random.Random:
        return random.Random(seed)

    return make
