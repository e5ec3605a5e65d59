"""Cross-implementation crash conformance over the LD interface.

The same append-only workload runs against all three Logical Disk
implementations — log-structured LLD, update-in-place ULD, and the
Loge-style controller — on a recording disk. Every enumerated crash
image (journal prefixes and torn multi-sector writes) must then satisfy
the implementation-independent contract of ``Flush``:

* bringing up a fresh instance on the image never raises, and
* every block acknowledged before the crash point reads back exactly;
  the recovered view equals some acknowledgement snapshot at or after
  the last one the image covers.

The workload is append-only (no overwrites) because the contract over
overwrites legitimately differs: ULD overwrites in place, so a torn
overwrite may mix old and new acknowledged contents — a trade-off the
paper accepts for update-in-place, not a conformance bug. Lists are
excluded for the same reason: Loge's list state is volatile by design.
"""

import pytest

from repro.crashsim import CrashStateEnumerator, RecordingDisk
from repro.disk import SimulatedDisk, fast_test_disk
from repro.ld.errors import LDError
from repro.ld.hints import LIST_HEAD
from repro.lld import LLD, LLDConfig
from repro.loge import LogeDisk
from repro.sim import VirtualClock
from repro.uld import ULD


def lld_factory(disk):
    ld = LLD(
        disk,
        LLDConfig(
            segment_size=64 * 1024,
            summary_capacity=4096,
            block_size=4096,
            checkpoint_slots=1,
            min_free_segments=2,
            torn_write_protection=True,
        ),
    )
    ld.initialize()
    return ld


def uld_factory(disk):
    ld = ULD(disk)
    ld.initialize()
    return ld


def loge_factory(disk):
    ld = LogeDisk(disk)
    ld.initialize()
    return ld


FACTORIES = {
    "lld": lld_factory,
    "uld": uld_factory,
    "loge": loge_factory,
}


def run_append_only_workload(ld, recording, n_blocks=10):
    """Create and write blocks once each, acknowledging every operation.

    Returns the acknowledgement snapshots: ``(journal epoch,
    {bid: content})`` pairs, newest last.
    """
    snapshots = []

    def ack():
        ld.flush()
        recording.barrier("ack")
        snapshots.append((recording.epoch, dict(expected)))

    expected = {}
    lid = ld.new_list()
    ack()
    pred = LIST_HEAD
    for i in range(n_blocks):
        bid = ld.new_block(lid, pred)
        content = (f"conform-{i:03d}:".encode() * 400)[: 900 + (i % 4) * 777]
        ld.write(bid, content)
        expected[bid] = content
        ack()
        pred = bid
    return snapshots


def recovered_blocks(ld, universe):
    view = {}
    for bid in universe:
        try:
            data = ld.read(bid)
        except LDError:
            continue
        if data:
            view[bid] = data
    return view


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_crash_conformance(name):
    factory = FACTORIES[name]
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    recording = RecordingDisk(disk)
    ld = factory(recording)
    snapshots = run_append_only_workload(ld, recording)
    assert recording.position >= 10, "workload must generate disk writes"
    universe = sorted(snapshots[-1][1])

    states = CrashStateEnumerator(recording).enumerate()
    assert len(states) > 20
    failures = []
    for state in states:
        image = recording.materialize(state)
        try:
            recovered = factory(image)
        except Exception as exc:  # noqa: BLE001 - any escape is the bug
            failures.append(f"{state.kind} {state.detail}: recovery raised {exc!r}")
            continue
        view = recovered_blocks(recovered, universe)
        latest = -1
        for j, (epoch, _blocks) in enumerate(snapshots):
            if epoch <= state.covered_epochs:
                latest = j
        candidates = snapshots[max(latest, 0) :]
        if not any(view == blocks for _epoch, blocks in candidates):
            if latest < 0 and not view:
                continue  # pre-first-ack crash recovering to nothing
            failures.append(
                f"{state.kind} {state.detail}: recovered {len(view)} blocks "
                f"match no snapshot >= {latest}"
            )
    assert not failures, "\n".join(failures[:10])


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_acknowledged_blocks_survive_full_image(name):
    """Sanity anchor: the no-crash (full journal) image keeps everything."""
    factory = FACTORIES[name]
    disk = SimulatedDisk(fast_test_disk(capacity_mb=4), VirtualClock())
    recording = RecordingDisk(disk)
    ld = factory(recording)
    snapshots = run_append_only_workload(ld, recording)
    final = snapshots[-1][1]
    # Prefixes come first: state i is the cut after i writes.
    full = CrashStateEnumerator(recording).enumerate()[recording.position]
    recovered = factory(recording.materialize(full))
    assert recovered_blocks(recovered, sorted(final)) == final
