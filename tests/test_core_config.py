"""Tests for configuration validation."""

import pytest

from repro.core.config import LBConfig, SolverConfig


def test_solver_defaults_valid():
    cfg = SolverConfig()
    assert cfg.tolerance > 0
    assert cfg.exclusive_sends


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tolerance": 0.0},
        {"persistence": 0},
        {"max_iterations": 0},
        {"max_time": -1.0},
        {"detection": "gossip"},
        {"min_sweep_duration": -1.0},
    ],
)
def test_solver_config_rejects(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


def test_lb_defaults_match_paper():
    cfg = LBConfig()
    assert cfg.period == 20  # Algorithm 4's OkToTryLB reset
    assert cfg.estimator == "residual"  # Section 5.2's choice


@pytest.mark.parametrize(
    "kwargs",
    [
        {"period": 0},
        {"threshold_ratio": 1.0},
        {"threshold_ratio": 0.5},
        {"min_components": 1},
        {"accuracy": 0.0},
        {"accuracy": 1.5},
        {"estimator": "magic"},
        {"retry_delay": 0},
    ],
)
def test_lb_config_rejects(kwargs):
    with pytest.raises(ValueError):
        LBConfig(**kwargs)
