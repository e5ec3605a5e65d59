"""Crash-matrix exploration with the scheduler in the write path.

The multi-tenant generalization of ``tests/lld/test_crashsim.py``: two
tenant sessions drive one LLD through an :class:`~repro.sched.LDServer`
(deferrable flush intents pooling in the cross-tenant group commit,
interleaved ARUs, an aborted ARU), a :class:`RecordingDisk` journals
every sector write, and every enumerated crash image must recover to
*some* acknowledged global snapshot — queueing and group commit must not
open any new crash window. The two tenants' oracle drivers share one
mirror, so one tenant's group commit acknowledges the other's writes.
"""

import pytest

from repro.bench import make_scheduler
from repro.crashsim import (
    CrashStateEnumerator,
    LLDCrashChecker,
    OracleDriver,
    RecordingDisk,
    run_multitenant_matrix_workload,
)
from repro.disk import SimulatedDisk, fast_test_disk
from repro.lld import LLD
from repro.sched import LDServer
from repro.sim import VirtualClock

from tests.lld.conftest import small_config


def recorded_server(scheduler_name="qos", *, group_commit=1):
    config = small_config(torn_write_protection=True)
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    recording = RecordingDisk(disk)
    lld = LLD(recording, config)
    lld.initialize()
    server = LDServer(
        lld, make_scheduler(scheduler_name), group_commit=group_commit
    )
    return server, lld, recording


def explore(scheduler_name: str, group_commit: int, **workload_kw):
    server, lld, recording = recorded_server(
        scheduler_name, group_commit=group_commit
    )
    a = OracleDriver(server.open_session("a"), recording)
    b = a.client(server.open_session("b"))
    run_multitenant_matrix_workload(a, b, **workload_kw)
    enum = CrashStateEnumerator(recording)
    checker = LLDCrashChecker(lld.config, a.oracle)
    return enum.explore(checker), server, a.oracle, recording


@pytest.fixture
def ack_positions(monkeypatch):
    """Journal position at every acknowledgement snapshot, in order."""
    positions = []
    snapshot = OracleDriver._snapshot

    def recording_snapshot(driver, label):
        positions.append(driver.recording.position)
        snapshot(driver, label)

    monkeypatch.setattr(OracleDriver, "_snapshot", recording_snapshot)
    return positions


class TestSchedulerCrashMatrix:
    def test_qos_with_group_commit_has_no_violations(self):
        report, server, _oracle, _recording = explore("qos", group_commit=2)
        assert report.states_total > 100
        assert report.states_by_kind.get("prefix", 0) > 0
        assert report.states_by_kind.get("torn", 0) > 0
        assert report.states_by_kind.get("reorder", 0) > 0
        assert report.violations == []
        # The group commit actually deferred intents (the workload's
        # pooled rounds), so the zero-violation run exercised it.
        assert server.stats.flushes_deferred > 0
        assert server.stats.group_commits > 0

    def test_fifo_baseline_has_no_violations(self):
        report, _server, _oracle, _recording = explore(
            "fifo", group_commit=1, n_small=3, generations=2, n_fill=4
        )
        assert report.states_total > 50
        assert report.violations == []

    def test_acks_land_on_barrier_positions(self, ack_positions):
        _report, _server, oracle, recording = explore("qos", group_commit=2)
        boundary_positions = {b.position for b in recording.barriers}
        assert len(oracle.points) > 10
        assert len(ack_positions) == len(oracle.points)
        assert all(p in boundary_positions for p in ack_positions)
