"""Tests for the A/B regression verdict in ``benchmarks/ab.py``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "t", "better": "lower", "bound": 0.25},
        {"name": "rate", "better": "higher", "bound": 0.25},
    ],
}
QUIET = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
NOISY = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]


def _runs(t, rate=None, correct=True, failed=0):
    rate = QUIET if rate is None else rate
    return [
        {"correct": correct, "attempted": 100, "failed": failed,
         "metrics": {"t": {"value": a}, "rate": {"value": b}}}
        for a, b in zip(t, rate)
    ]


def _judge(base, change):
    lines, ok = ab.verdict(SPEC, {"w": base}, {"w": change})
    return {line.split()[1]: line.split()[-1] for line in lines[1:]
            if len(line.split()) == 6}, ok, lines


def test_clear_regression_fails_and_names_the_metric():
    words, ok, lines = _judge(_runs(QUIET), _runs([v * 1.6 for v in QUIET]))
    assert not ok
    assert words == {"t": "REGRESSION", "rate": "ok"}
    assert lines[1].split()[:2] == ["w", "t"]


def test_move_within_the_bound_passes():
    words, ok, _ = _judge(_runs(QUIET), _runs([v * 1.2 for v in QUIET]))
    assert ok and words == {"t": "ok", "rate": "ok"}


def test_noisy_parent_is_unresolved_not_unchanged():
    words, ok, _ = _judge(_runs(NOISY), _runs([v * 1.3 for v in NOISY]))
    assert ok and words["t"] == "unresolved"
    # Every change run better than every parent run resolves it.
    words, ok, _ = _judge(_runs(NOISY), _runs([v * 0.2 for v in NOISY]))
    assert ok and words["t"] == "ok"
    # Every change run worse than every parent run is a regression.
    words, ok, _ = _judge(_runs(NOISY), _runs([v + 2.0 for v in NOISY]))
    assert not ok and words["t"] == "REGRESSION"


@pytest.mark.parametrize("factor, expect_ok", [(0.6, False), (1.6, True)])
def test_higher_is_better_flips_the_direction(factor, expect_ok):
    change = _runs(QUIET, rate=[v * factor for v in QUIET])
    words, ok, _ = _judge(_runs(QUIET), change)
    assert ok is expect_ok
    assert words["rate"] == ("ok" if expect_ok else "REGRESSION")


@pytest.mark.parametrize("bad", [
    _runs(QUIET, correct=False), _runs(QUIET)[:-1] + [None],
])
def test_incorrect_or_missing_run_fails(bad):
    assert not _judge(bad, _runs(QUIET))[1]
    assert not _judge(_runs(QUIET), bad)[1]


def test_larger_failed_share_fails():
    assert not _judge(_runs(QUIET), _runs(QUIET, failed=1))[1]
    assert _judge(_runs(QUIET, failed=1), _runs(QUIET))[1]
