"""The crash explorer's state sets, pinned image by image.

Each arm of the crash matrix — single disk, mirror survivor, RAID-5 with
a failed member, and two tenants through the scheduler — runs a small
fixture, and every crash image handed to the checker is hashed: the
state's kind plus the sector contents of every member recovery can see
(all-zero sectors skipped, so the digest depends on the image, not on how
a plan spells it). The constants were computed with the three-plumbing
explorer this package replaced; any change to a single crash image, to
the order states are explored in, or to their kinds fails here.
"""

import hashlib
from collections import Counter

import pytest

from repro.crashsim import (
    CrashStateEnumerator,
    LLDCrashChecker,
    OracleDriver,
    ParityRecording,
    RecordingDisk,
    explore_degraded_mirror,
    explore_degraded_parity,
    run_matrix_workload,
    run_multitenant_matrix_workload,
)
from repro.disk import SimulatedDisk, fast_test_disk
from repro.lld import LLD, LLDConfig
from repro.sched import LDServer, QoSElevatorScheduler
from repro.sim import VirtualClock
from repro.volume import Volume

CONFIG = dict(
    segment_size=64 * 1024,
    summary_capacity=4096,
    block_size=4096,
    checkpoint_slots=1,
    min_free_segments=2,
    torn_write_protection=True,
)

ZERO_SECTOR = bytes(512)


def image_digest(image) -> bytes:
    """SHA-256 of the non-zero sectors of every member recovery can read."""
    if isinstance(image, Volume):
        members = [d for d, ok in zip(image.disks, image.alive) if ok]
    else:
        members = [image]
    h = hashlib.sha256()
    for disk in members:
        h.update(b"|member|")
        for lba in sorted(disk._sectors):
            data = disk._sectors[lba]
            if data != ZERO_SECTOR:
                h.update(lba.to_bytes(8, "little"))
                h.update(data)
    return h.digest()


@pytest.fixture
def state_digest(monkeypatch):
    """Hash (kind, image) of every state the checker sees, in order."""
    digest = hashlib.sha256()
    original = LLDCrashChecker.__call__

    def hashing_call(checker, image, state):
        digest.update(state.kind.encode())
        digest.update(image_digest(image))
        return original(checker, image, state)

    monkeypatch.setattr(LLDCrashChecker, "__call__", hashing_call)
    return digest


def members(n: int, mb: int) -> list[SimulatedDisk]:
    return [
        SimulatedDisk(fast_test_disk(capacity_mb=mb), VirtualClock()) for _ in range(n)
    ]


def single_disk():
    recording = RecordingDisk(members(1, 4)[0])
    lld = LLD(recording, LLDConfig(**CONFIG))
    lld.initialize()
    driver = OracleDriver(lld, recording)
    run_matrix_workload(driver, n_small=4, n_overwrites=2, generations=2, n_fill=6)
    checker = LLDCrashChecker(lld.config, driver.oracle)
    return CrashStateEnumerator(recording).explore(checker)


def mirror_survivor():
    volume = Volume(members(2, 4), VirtualClock(), layout="mirror")
    recording = RecordingDisk(volume)
    lld = LLD(volume, LLDConfig(**CONFIG))
    lld.initialize()
    driver = OracleDriver(lld, recording)
    run_matrix_workload(driver, n_small=4, n_overwrites=2, generations=2, n_fill=4)
    return explore_degraded_mirror(
        recording, lld.config, driver.oracle, survivor=1, reorder_samples_per_epoch=6
    )


def raid5_failed_member(resync=True):
    volume = Volume(members(4, 1), VirtualClock(), layout="raid5", chunk_sectors=128)
    recording = ParityRecording(volume)
    lld = LLD(volume, LLDConfig(**CONFIG))
    lld.initialize()
    driver = OracleDriver(lld, recording)
    run_matrix_workload(driver, n_small=8, n_overwrites=3, generations=2, n_fill=8)
    return explore_degraded_parity(
        recording,
        lld.config,
        driver.oracle,
        fail=1,
        resync=resync,
        reorder_samples_per_epoch=6,
    )


def two_tenant_scheduler():
    recording = RecordingDisk(members(1, 4)[0])
    lld = LLD(recording, LLDConfig(**CONFIG))
    lld.initialize()
    server = LDServer(lld, QoSElevatorScheduler(), group_commit=2)
    a = OracleDriver(server.open_session("a"), recording)
    b = a.client(server.open_session("b"))
    run_multitenant_matrix_workload(
        a, b, n_small=3, n_overwrites=1, generations=2, n_fill=4
    )
    checker = LLDCrashChecker(lld.config, a.oracle)
    return CrashStateEnumerator(recording, reorder_samples_per_epoch=8).explore(checker)


ARMS = {
    "single_disk": (
        single_disk,
        {"prefix": 46, "torn": 96, "reorder": 8},
        "46a00793b6f97251f816809151b9fc54ea26ad78b73a13a5dabb8757e65575c2",
    ),
    "mirror_survivor": (
        mirror_survivor,
        {"prefix": 41, "torn": 80, "reorder": 7},
        "5be67dd7038b383190f09d4124a2b491754ffbf59059bc6438417773af753b2b",
    ),
    "raid5_failed_member": (
        raid5_failed_member,
        {"cut": 18, "torn": 92, "subset": 200},
        "2a86a54f4a6168acef8623ec9d357c1c5479a880bff6903c6d0ec8a164071d4f",
    ),
    "two_tenant_scheduler": (
        two_tenant_scheduler,
        {"prefix": 43, "torn": 81, "reorder": 10},
        "78bdbab50ebf31e7161520c912baccf7c20e0834ff3cdfddaf612468ca569bd6",
    ),
}


@pytest.mark.parametrize("arm", sorted(ARMS))
def test_arm_state_set_is_unchanged(arm, state_digest):
    run, by_kind, sha256 = ARMS[arm]
    report = run()
    assert report.states_by_kind == by_kind
    assert report.states_total == sum(by_kind.values())
    assert state_digest.hexdigest() == sha256
    assert report.violations == []


def test_raid5_without_resync_shows_the_write_hole():
    """Skipping md's resync lets an inconsistent row reconstruct garbage."""
    report = raid5_failed_member(resync=False)
    assert Counter(v.invariant for v in report.violations) == {"acked-durability": 26}
    assert Counter(v.kind for v in report.violations) == {"subset": 16, "torn": 10}
