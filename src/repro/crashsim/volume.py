"""Degraded-volume crash exploration: lose a member after the crash.

A multi-spindle volume fails in ways a single disk cannot: a member can
drop out entirely. These arms record a volume with the one journal
(:class:`~repro.crashsim.recording.RecordingDisk` wraps each member in
place), enumerate its crash states with the one enumerator, and recover
each image with one member gone:

* :func:`explore_degraded_mirror` — a mirror fans every write out to its
  members in a fixed order and forwards every barrier, so the member
  journals are *isomorphic* and every per-write crash state applies one
  plan to all of them. Each image is mounted with every member but the
  ``survivor`` failed — the "one disk missing" scenario — and LLD must
  recover with no acknowledged write lost.

* :func:`explore_degraded_parity` — RAID-4/5 member journals are *not*
  isomorphic, so the states are epoch-aligned cuts of the barrier
  vectors plus torn/partial writes within the crash epoch. Recovery
  mirrors what a real array (Linux md) does after an unclean shutdown:
  **resync parity** while all members are present
  (:meth:`~repro.volume.Volume.resync_parity`), *then* lose a member and
  recover LLD degraded — reconstruction serves the lost member's chunks,
  and the durability oracle must still hold. Without the resync the same
  exploration demonstrates the RAID-5 write hole. A member that failed
  *before* the crash — the true write hole — is out of scope here, as it
  is for md without a journal device.

The *stale* member case (a member that stopped receiving writes early but
is still spinning) is the same set of images: a stale member is exactly a
crash state of its journal. A real array must detect staleness before
trusting such a member (generation stamps, dirty-region logs); this
reproduction models the detection as already done — the stale/absent
member is marked failed and recovery proceeds from the survivor.
"""

from __future__ import annotations

from repro.crashsim.explorer import CrashState, CrashStateEnumerator, ExplorationReport
from repro.crashsim.oracle import DurabilityOracle, LLDCrashChecker
from repro.crashsim.recording import RecordingDisk
from repro.lld.config import LLDConfig

#: The journal of a RAID-4/5 volume is the one journal class.
ParityRecording = RecordingDisk

#: A parity crash image is materialized like any other: a fresh volume.
materialize_parity_crash_state = RecordingDisk.materialize


def enumerate_parity_crash_states(
    recording: RecordingDisk,
    *,
    subset_samples_per_epoch: int = 10,
    max_states: int = 100_000,
    seed: int = 0,
) -> list[CrashState]:
    """The epoch-cut crash states of a recorded parity-volume run."""
    return CrashStateEnumerator(
        recording,
        reorder_samples_per_epoch=subset_samples_per_epoch,
        max_states=max_states,
        seed=seed,
    ).enumerate()


def explore_degraded_mirror(
    recording: RecordingDisk,
    config: LLDConfig,
    oracle: DurabilityOracle,
    *,
    survivor: int = 0,
    **enumerator_kwargs,
) -> ExplorationReport:
    """Explore every crash state of a mirror, recovered from one survivor.

    The journals being isomorphic, each state's image is the same on
    every member, so zero violations here proves the mirrored volume
    loses no acknowledged data when any one disk (or all but one) drops.
    """
    checker = LLDCrashChecker(config, oracle)

    def check(volume, state):
        for i in range(len(volume.disks)):
            if i != survivor:
                volume.fail_member(i)
        return checker(volume, state)

    return CrashStateEnumerator(recording, **enumerator_kwargs).explore(check)


def explore_degraded_parity(
    recording: RecordingDisk,
    config: LLDConfig,
    oracle: DurabilityOracle,
    *,
    fail: int = 0,
    resync: bool = True,
    **enumerator_kwargs,
) -> ExplorationReport:
    """Explore every epoch-cut crash state, recovered with a member failed.

    The md-style unclean-shutdown sequence per state: materialize the
    globally-aligned crash image, **resync parity** with all members
    present, *then* drop member ``fail`` and recover LLD through the
    degraded volume — every chunk of the failed member is served by XOR
    reconstruction, and the four-invariant durability check must still
    pass. ``resync=False`` skips the resync step and exhibits the RAID-5
    write hole: inconsistent rows reconstruct garbage for data the oracle
    already acknowledged.
    """
    checker = LLDCrashChecker(config, oracle)

    def check(volume, state):
        if resync:
            volume.resync_parity()
        volume.fail_member(fail)
        return checker(volume, state)

    return CrashStateEnumerator(recording, **enumerator_kwargs).explore(check)
