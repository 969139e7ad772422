"""Shared fixture: the seeded random generator of the suite."""

from __future__ import annotations

import random

import pytest


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
