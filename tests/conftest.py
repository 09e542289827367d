"""Shared fixtures: the mixed-family graph suite and statistical helpers."""
from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from pushrank import graph as pg

# Absolute guard added to every CLT band: runs that consume no randomness
# have zero sample deviation, and two float pipelines computing the same
# quantity agree only to accumulation dust, not bit-exactly.
FP_DUST = 1e-10

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a failure
# seen in CI reproduces locally; it changes no example budget
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def clt_band(sample_std: float, runs: int, widths: float = 4.0) -> float:
    return widths * sample_std / np.sqrt(runs) + FP_DUST


def suite_graphs() -> list[tuple[str, pg.Graph]]:
    """20 mixed-family graphs, n <= 200, deterministic."""
    return [
        ("k2", pg.complete(2)),
        ("path10", pg.path(10)),
        ("path200", pg.path(200)),
        ("ring16", pg.ring(16)),
        ("ring101", pg.ring(101)),
        ("star9", pg.star(9)),
        ("star33", pg.star(33)),
        ("star100", pg.star(100)),
        ("complete8", pg.complete(8)),
        ("complete16", pg.complete(16)),
        ("complete32", pg.complete(32)),
        ("er50", pg.erdos_renyi(50, 0.10, 101)),
        ("er100", pg.erdos_renyi(100, 0.06, 102)),
        ("er120", pg.erdos_renyi(120, 0.05, 104)),
        ("er200", pg.erdos_renyi(200, 0.02, 103)),
        ("pl60", pg.power_law(60, 2.2, 105)),
        ("pl80", pg.power_law(80, 3.0, 109)),
        ("pl100", pg.power_law(100, 2.5, 106)),
        ("pl150", pg.power_law(150, 2.5, 107)),
        ("pl200", pg.power_law(200, 2.8, 108)),
    ]


def small_suite_graphs() -> list[tuple[str, pg.Graph]]:
    """The four named small graphs used by the statistical contracts."""
    return [
        ("k2", pg.complete(2)),
        ("p3", pg.path(3)),
        ("star9", pg.star(9)),
        ("complete8", pg.complete(8)),
    ]


@pytest.fixture(scope="session")
def suite():
    return suite_graphs()


@pytest.fixture(scope="session")
def small_suite():
    return small_suite_graphs()
