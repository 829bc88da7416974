"""Tests for the declarative fault models and schedule serialisation."""

import math

import pytest

from repro.faults.models import (
    FAULT_TYPES,
    FaultSchedule,
    HostCrash,
    HostSlowdown,
    LatencySpike,
    LinkPartition,
    MessageDuplication,
    MessageLoss,
    MessageReordering,
    PayloadCorruption,
    ResilienceConfig,
    StateCorruption,
)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_resilience_config_validation():
    ResilienceConfig()  # defaults are valid
    with pytest.raises(ValueError):
        ResilienceConfig(base_timeout=0.0)
    with pytest.raises(ValueError):
        ResilienceConfig(backoff=0.5)
    with pytest.raises(ValueError):
        ResilienceConfig(jitter=1.5)
    with pytest.raises(ValueError):
        ResilienceConfig(max_attempts=0)
    with pytest.raises(ValueError):
        ResilienceConfig(checkpoint_every=0)


def test_message_fault_rate_bounds():
    with pytest.raises(ValueError):
        MessageLoss(1.5)
    with pytest.raises(ValueError):
        MessageLoss(-0.1)
    with pytest.raises(ValueError):
        MessageReordering(0.5, max_extra_delay=0.0)
    with pytest.raises(ValueError):
        MessageLoss(0.5, t0=3.0, t1=1.0)  # inverted window


def test_partition_group_validation():
    with pytest.raises(ValueError):
        LinkPartition(0.0, 1.0, ranks_a=(), ranks_b=(1,))
    with pytest.raises(ValueError):
        LinkPartition(0.0, 1.0, ranks_a=(0, 1), ranks_b=(1, 2))  # overlap


def test_crash_downtime_validation():
    HostCrash(rank=0, at=1.0)  # no restart is valid
    HostCrash(rank=0, at=1.0, downtime=2.0)
    HostCrash(rank=0, at=1.0, downtime=(1.0, 2.0))
    with pytest.raises(ValueError):
        HostCrash(rank=0, at=1.0, downtime=0.0)
    with pytest.raises(ValueError):
        HostCrash(rank=0, at=1.0, downtime=(2.0, 1.0))


def test_slowdown_and_spike_validation():
    with pytest.raises(ValueError):
        HostSlowdown(rank=0, t0=0.0, t1=0.0, factor=0.5)  # empty window
    with pytest.raises(ValueError):
        HostSlowdown(rank=0, t0=0.0, t1=math.inf, factor=0.5)
    with pytest.raises(ValueError):
        HostSlowdown(rank=0, t0=0.0, t1=1.0, factor=1.5)
    with pytest.raises(ValueError):
        LatencySpike(t0=0.0, t1=1.0, factor=1.0)  # must amplify


# ----------------------------------------------------------------------
# Matching semantics
# ----------------------------------------------------------------------
def test_loss_matches_window_and_kinds():
    fault = MessageLoss(0.5, t0=2.0, t1=4.0, kinds=("halo_from_left",))
    assert fault.matches("halo_from_left", 3.0)
    assert not fault.matches("halo_from_left", 1.0)  # before window
    assert not fault.matches("halo_from_left", 5.0)  # after window
    assert not fault.matches("lb_offer_from_left", 3.0)  # other kind
    unrestricted = MessageLoss(0.5)
    assert unrestricted.matches("anything", 0.0)
    assert unrestricted.matches("anything", 1e9)  # open-ended window


def test_partition_severs_symmetrically():
    fault = LinkPartition(1.0, 2.0, ranks_a=(0, 1), ranks_b=(2, 3))
    assert fault.severs(0, 2, 1.5)
    assert fault.severs(2, 0, 1.5)  # both directions
    assert not fault.severs(0, 1, 1.5)  # same side
    assert not fault.severs(0, 2, 0.5)  # outside window


# ----------------------------------------------------------------------
# Schedule (de)serialisation
# ----------------------------------------------------------------------
def _full_schedule() -> FaultSchedule:
    return FaultSchedule(
        faults=(
            MessageLoss(0.1, kinds=("halo_from_left", "halo_from_right")),
            MessageDuplication(0.05),
            MessageReordering(0.2, max_extra_delay=0.5, t0=1.0, t1=9.0),
            LinkPartition(2.0, 3.0, ranks_a=(0,), ranks_b=(1, 2)),
            HostCrash(rank=1, at=4.0, downtime=(1.0, 2.0)),
            HostSlowdown(rank=2, t0=1.0, t1=5.0, factor=0.25, ramp_steps=3),
            LatencySpike(t0=2.0, t1=4.0, factor=8.0, sites=("a", "b")),
            PayloadCorruption(0.1, kinds=("halo_from_left",), mode="perturb"),
            StateCorruption(rank=0, at=3.0, target="checkpoint"),
        ),
        seed=7,
        resilience=ResilienceConfig(base_timeout=0.5, max_attempts=3),
    )


def test_schedule_roundtrips_through_dict():
    schedule = _full_schedule()
    data = schedule.to_dict()
    # The dict form is JSON-clean: only lists, no tuples.
    import json

    restored = FaultSchedule.from_dict(json.loads(json.dumps(data)))
    assert restored == schedule


def test_schedule_covers_every_registered_type():
    present = {type(f) for f in _full_schedule().faults}
    assert present == set(FAULT_TYPES.values())


def test_schedule_rejects_unknown_type_and_field():
    with pytest.raises(TypeError):
        FaultSchedule(faults=(object(),))
    with pytest.raises(ValueError, match="unknown fault type"):
        FaultSchedule.from_dict({"faults": [{"type": "cosmic_ray"}]})
    with pytest.raises(ValueError, match="unknown field"):
        FaultSchedule.from_dict(
            {"faults": [{"type": "message_loss", "rate": 0.1, "colour": 3}]}
        )


def test_empty_schedule_roundtrip():
    schedule = FaultSchedule()
    assert FaultSchedule.from_dict(schedule.to_dict()) == schedule
    assert FaultSchedule.from_dict({}) == schedule


# ----------------------------------------------------------------------
# Cross-fault schedule validation (strict mode)
# ----------------------------------------------------------------------
def test_schedule_rejects_overlapping_crashes_for_one_host():
    with pytest.raises(ValueError, match="rank 1 crash intervals overlap"):
        FaultSchedule(
            faults=(
                HostCrash(rank=1, at=2.0, downtime=5.0),
                HostCrash(rank=1, at=4.0, downtime=1.0),
            )
        )
    # A no-restart crash spans to infinity: any later crash overlaps.
    with pytest.raises(ValueError, match="rank 0 crash intervals overlap"):
        FaultSchedule(
            faults=(
                HostCrash(rank=0, at=1.0, downtime=None),
                HostCrash(rank=0, at=100.0, downtime=1.0),
            )
        )
    # Random downtime uses the conservative upper bound.
    with pytest.raises(ValueError, match="overlap"):
        FaultSchedule(
            faults=(
                HostCrash(rank=2, at=1.0, downtime=(0.5, 4.0)),
                HostCrash(rank=2, at=3.0, downtime=1.0),
            )
        )


def test_schedule_accepts_disjoint_crashes_and_other_hosts():
    FaultSchedule(
        faults=(
            HostCrash(rank=1, at=2.0, downtime=1.0),
            HostCrash(rank=1, at=4.0, downtime=1.0),
            HostCrash(rank=0, at=2.5, downtime=10.0),  # other rank: free
        )
    )


def test_schedule_rejects_partition_hidden_inside_crash_window():
    # Rank 3 is alone in one group and down for the partition's whole
    # duration: the cut can never be observed.
    with pytest.raises(ValueError, match="unobservable"):
        FaultSchedule(
            faults=(
                HostCrash(rank=3, at=1.0, downtime=10.0),
                LinkPartition(t0=2.0, t1=5.0, ranks_a=(0, 1, 2), ranks_b=(3,)),
            )
        )


def test_schedule_accepts_observable_partitions():
    # Partition extends past the restart: observable.
    FaultSchedule(
        faults=(
            HostCrash(rank=3, at=1.0, downtime=2.0),
            LinkPartition(t0=2.0, t1=5.0, ranks_a=(0, 1, 2), ranks_b=(3,)),
        )
    )
    # Crashed rank is in a multi-rank group: its partner still feels
    # the cut, so full containment is fine.
    FaultSchedule(
        faults=(
            HostCrash(rank=3, at=1.0, downtime=10.0),
            LinkPartition(t0=2.0, t1=5.0, ranks_a=(0, 1), ranks_b=(2, 3)),
        )
    )
