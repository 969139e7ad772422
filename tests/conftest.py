"""Shared fixtures: the seeded random generator of the suite, and a call
counter for module functions."""

from __future__ import annotations

import random

import pytest


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)


class CallCounter(dict):
    """Call counts by function name; ``watch`` starts counting one.
    ``args[name]`` holds the positional arguments of each call, in order."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch):
        super().__init__()
        self._monkeypatch = monkeypatch
        self.args: dict[str, list[tuple]] = {}

    def watch(self, name: str, *modules) -> None:
        """Count the calls of ``name`` made through each of ``modules``."""
        self.setdefault(name, 0)
        self.args.setdefault(name, [])
        for mod in modules:
            self._monkeypatch.setattr(mod, name, self._counted(name, getattr(mod, name)))

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self[name] += 1
            self.args[name].append(args)
            return fn(*args, **kwargs)

        return wrapper


@pytest.fixture
def calls(monkeypatch) -> CallCounter:
    return CallCounter(monkeypatch)
