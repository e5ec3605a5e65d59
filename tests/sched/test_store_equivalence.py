"""LDStore group commit now routes through the scheduler.

``LDStore(flush_batch=N)`` wraps a bare LD in a solo
:class:`~repro.sched.LDServer` and maps each sync onto a deferrable flush
intent. These tests pin the equivalence: the scheduler-routed path
produces byte-identical LLD/disk figures to a reference store that counts
syncs itself, at every batch size, on the exact workload group commit
exists for (many small fsyncs).
"""

import pytest

from repro.disk import SimulatedDisk, fast_test_disk
from repro.fs.minix import LDStore, MinixFS
from repro.lld import LLD
from repro.sched import LDServer, QoSElevatorScheduler, TenantSession
from repro.sim import VirtualClock

from tests.lld.conftest import small_config


def fresh_lld(capacity_mb: int = 8) -> LLD:
    disk = SimulatedDisk(fast_test_disk(capacity_mb=capacity_mb), VirtualClock())
    lld = LLD(disk, small_config(checkpoint_slots=2))
    lld.initialize()
    return lld


class CountingStore(LDStore):
    """Reference arm: group commit counted in the store.

    Deferred syncs only move dirty buffers into the LD; every
    ``batch``-th sync issues the physical flush through ``barrier()``.
    """

    def __init__(self, ld, batch: int, **store_kw) -> None:
        super().__init__(ld, **store_kw)
        self.batch = batch
        self.pending = 0

    def sync(self) -> None:
        self.stats.syncs += 1
        self.cache.flush(ordered=False)
        self.pending += 1
        if self.pending < self.batch:
            self.stats.syncs_deferred += 1
        else:
            self.pending = 0
            self.barrier()


def build_fs(backend, flush_batch: int = 1, store_cls=LDStore, **store_kw) -> MinixFS:
    store = store_cls(
        backend, cache_bytes=256 * 1024, flush_batch=flush_batch, **store_kw
    )
    fs = MinixFS(store, readahead=False)
    fs.mkfs(ninodes=256)
    return fs


def fsync_workload(fs, n_files: int = 12) -> None:
    for i in range(n_files):
        fd = fs.open(f"/f{i}", create=True)
        fs.write(fd, f"file-{i}:".encode() * 300)
        fs.close(fd)
        fs.sync()
    fs.store.barrier()


def lld_figures(lld):
    payload = lld.stats.as_dict()
    payload.pop("tenants")  # attribution is additive, not behaviour
    return payload, lld.disk.stats.as_dict()


def arm_counting(flush_batch):
    lld = fresh_lld()
    fs = build_fs(lld, store_cls=CountingStore, batch=flush_batch)
    fsync_workload(fs)
    return fs, lld


def arm_autowrap(flush_batch):
    """The default path: the store wraps the LD in a solo LDServer."""
    lld = fresh_lld()
    fs = build_fs(lld, flush_batch)
    fsync_workload(fs)
    return fs, lld


def arm_explicit_server(flush_batch):
    """A store riding a session of an explicitly built server."""
    lld = fresh_lld()
    server = LDServer(
        lld, QoSElevatorScheduler(), group_commit=flush_batch
    )
    fs = build_fs(server.open_session("fs"), flush_batch=1)
    fsync_workload(fs)
    return fs, lld


@pytest.mark.parametrize("flush_batch", [1, 4, 16])
def test_scheduler_group_commit_matches_legacy_figures(flush_batch):
    fs_old, lld_old = arm_counting(flush_batch)
    fs_new, lld_new = arm_autowrap(flush_batch)
    fs_srv, lld_srv = arm_explicit_server(flush_batch)
    assert lld_figures(lld_new) == lld_figures(lld_old)
    assert lld_figures(lld_srv) == lld_figures(lld_old)
    # The store-visible sync accounting agrees too.
    for fs in (fs_new, fs_srv):
        assert fs.store.stats.syncs == fs_old.store.stats.syncs
        assert fs.store.stats.syncs_deferred == fs_old.store.stats.syncs_deferred


def test_autowrap_exposes_its_session_and_server():
    lld = fresh_lld()
    fs = build_fs(lld, flush_batch=4)
    session = fs.store.session
    assert isinstance(session, TenantSession)
    assert session.server.group_commit == 4
    assert session.server.ld is lld


def test_flush_batch_on_a_session_backed_store_is_rejected():
    lld = fresh_lld()
    server = LDServer(lld, group_commit=4)
    session = server.open_session("fs")
    with pytest.raises(ValueError, match="group_commit"):
        LDStore(session, flush_batch=2)


def test_deferred_syncs_commit_on_the_batch_boundary():
    lld = fresh_lld()
    fs = build_fs(lld, flush_batch=3)
    server = fs.store.session.server
    flushes_before = lld.stats.flushes
    for i in range(3):
        fd = fs.open(f"/d{i}", create=True)
        fs.write(fd, b"x" * 1024)
        fs.close(fd)
        fs.sync()
    # Exactly one physical flush for three logical syncs.
    assert lld.stats.flushes == flushes_before + 1
    assert server.stats.group_commits == 1
    assert server.stats.intents_committed == 3
    assert fs.store.stats.syncs_deferred == 2
