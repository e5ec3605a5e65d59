"""The write journal: every member's sector writes plus the barriers.

A :class:`RecordingDisk` journals what an LD's writes did to the medium,
one journal per *member*: a bare :class:`~repro.disk.disk.SimulatedDisk`
is a one-member journal, and a :class:`~repro.volume.Volume` has each
member wrapped in place, so the volume's own dispatch path records every
member write unchanged. Every request passes through untouched, so an LD
running over a recording behaves (and costs) exactly as it would without
one.

Barriers partition the journal into *epochs*. An epoch closes when a
barrier reaches any member after some member was written; the barrier is
recorded with the **vector** of per-member journal positions at that
point. A volume forwards one barrier to each member in turn, and the
writes it dispatched all land before the first of them, so the first
closes the epoch and the rest find it empty — the same rule that keeps a
one-member journal from recording empty epochs. The number of closed
epochs is the crash explorer's clock: acknowledgements are stamped with
it, and every crash state says how many epochs it applies in full.

The crash model matches what commodity disks guarantee:

* A single-sector write is atomic (powersafe overwrite).
* A multi-sector write may *tear*: a crash can leave any sector-aligned
  prefix of it on the medium.
* Writes between two barriers may be reordered or dropped by the crash;
  writes separated by a barrier may not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.disk.disk import SimulatedDisk
from repro.sim.clock import VirtualClock
from repro.volume import Volume


@dataclass(frozen=True)
class WriteEvent:
    """One journalled sector write.

    ``seq`` is the write's index in its member's journal (0-based, dense),
    the coordinate crash plans use; ``epoch`` is the global epoch it was
    issued in.
    """

    seq: int
    epoch: int
    lba: int
    data: bytes

    @property
    def nsectors(self) -> int:
        return len(self.data) // 512

    def __repr__(self) -> str:  # keep journals readable in test output
        return (
            f"WriteEvent(seq={self.seq}, epoch={self.epoch}, "
            f"lba={self.lba}, sectors={self.nsectors})"
        )


@dataclass(frozen=True)
class BarrierEvent:
    """A barrier, recorded with the epoch it closed.

    ``positions`` holds each member's journal length at the barrier;
    ``label`` names the choke point that issued it (``"flush"``,
    ``"summary-guard"``, ``"segment-image"``, ...).
    """

    positions: tuple[int, ...]
    epoch: int
    label: str

    @property
    def position(self) -> int:
        """Writes journalled before the barrier, over all members."""
        return sum(self.positions)


class _MemberTap:
    """Pass-through member disk that reports writes and barriers."""

    def __init__(self, journal: "RecordingDisk", index: int, inner) -> None:
        self.journal = journal
        self.index = index
        self.inner = inner

    def write(self, lba: int, data: bytes) -> None:
        self.journal._record(self.index, lba, data)

    def barrier(self, label: str = "barrier") -> None:
        self.inner.barrier(label)
        self.journal._close_epoch(label)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class RecordingDisk:
    """Write journal over the members of a disk or a volume.

    Over a bare disk the recording *is* the disk the LD runs on: a
    pass-through wrapper (``inner`` is the disk) whose :meth:`write` and
    :meth:`barrier` journal. Over a volume the LD keeps running on the
    volume; its members are wrapped in place. Each member's sector store
    is snapshotted at construction, so crash images are materialized as
    base snapshot + journalled writes.
    """

    def __init__(self, target) -> None:
        if isinstance(target, Volume):
            if target.degraded:
                raise ValueError("cannot start recording on a degraded volume")
            self.volume: Volume | None = target
            self.inner = None
            self.members = list(target.disks)
            for i, disk in enumerate(self.members):
                target.disks[i] = _MemberTap(self, i, disk)
        else:
            self.volume = None
            self.inner = target
            self.members = [target]
        #: One write journal per member.
        self.journals: list[list[WriteEvent]] = [[] for _ in self.members]
        self.barriers: list[BarrierEvent] = []
        self._pending = 0  # writes since the last barrier, over all members
        self._bases = [dict(disk._sectors) for disk in self.members]

    # ------------------------------------------------------------------
    # Journalled operations
    # ------------------------------------------------------------------

    def _record(self, index: int, lba: int, data: bytes) -> None:
        data = bytes(data)
        self.members[index].write(lba, data)  # validates and charges time first
        journal = self.journals[index]
        journal.append(WriteEvent(len(journal), len(self.barriers), lba, data))
        self._pending += 1

    def _close_epoch(self, label: str) -> None:
        if not self._pending:
            return  # no writes since the last barrier: epochs never go empty
        self.barriers.append(
            BarrierEvent(self.positions, len(self.barriers), label)
        )
        self._pending = 0

    def write(self, lba: int, data: bytes) -> None:
        self._record(0, lba, data)

    def barrier(self, label: str = "barrier") -> None:
        self.inner.barrier(label)
        self._close_epoch(label)

    # ------------------------------------------------------------------
    # Journal queries
    # ------------------------------------------------------------------

    @property
    def events(self) -> list[WriteEvent]:
        """The journal of a one-member recording."""
        (journal,) = self.journals
        return journal

    @property
    def positions(self) -> tuple[int, ...]:
        """Each member's journal length."""
        return tuple(len(journal) for journal in self.journals)

    @property
    def position(self) -> int:
        """Writes journalled so far, over all members."""
        return sum(self.positions)

    @property
    def epoch(self) -> int:
        """Epochs closed so far: the durability oracle's clock."""
        return len(self.barriers)

    @property
    def epoch_count(self) -> int:
        """Closed epochs plus the open one (when it has writes)."""
        return len(self.barriers) + (1 if self._pending else 0)

    # ------------------------------------------------------------------
    # Crash images
    # ------------------------------------------------------------------

    def materialize(self, state) -> SimulatedDisk | Volume:
        """Build a crash state's image on fresh disks (fresh clocks, zero stats).

        Each member gets its base snapshot plus the sector prefixes its
        plan names. A one-member recording yields a disk; a volume's
        yields a volume of the same layout over the member images.
        """
        disks = []
        for disk, base, journal, plan in zip(
            self.members, self._bases, self.journals, state.plans
        ):
            image = SimulatedDisk(disk.geometry, VirtualClock())
            for lba, data in base.items():
                image.install(lba, data)
            sector = image.geometry.sector_size
            for seq, applied in plan:
                event = journal[seq]
                image.install(event.lba, event.data[: applied * sector])
            disks.append(image)
        if self.volume is None:
            return disks[0]
        return Volume(
            disks,
            VirtualClock(),
            layout=self.volume.layout,
            chunk_sectors=self.volume.chunk_sectors,
        )

    # ------------------------------------------------------------------
    # Transparent delegation (one-member recordings)
    # ------------------------------------------------------------------

    def __getattr__(self, name: str):
        # geometry, clock, stats, read, peek, install, corrupt,
        # sectors_populated, ... — everything else is the inner disk's.
        inner = self.__dict__.get("inner")
        if inner is None:
            raise AttributeError(name)
        return getattr(inner, name)

    def __repr__(self) -> str:
        return (
            f"RecordingDisk({len(self.members)} member(s), "
            f"{self.position} writes, {len(self.barriers)} barriers)"
        )
