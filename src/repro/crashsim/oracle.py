"""Durability oracle, workload driver, and LLD invariant checker.

The oracle answers one question for every crash image: *what was the LD
allowed to lose?* It is built by running the workload through an
:class:`OracleDriver` that mirrors every operation into an expected view
(blocks and lists), snapshots that view at every acknowledgement point
(a ``Flush`` followed by a barrier), and stamps each snapshot with the
journal's epoch clock — the number of barrier epochs closed so far. The
clock is the same for every layout: a bare disk, a mirror and a parity
volume all close one epoch per barrier.

A crash image that fully applies at least a snapshot's epochs contains
every sector that snapshot depended on, so the image must honour it.
The invariants checked on each image:

1. **Recovery never raises.** Any byte pattern a crash can produce must
   recover (possibly to an older state), never crash the recoverer.
2. **ARUs are all-or-nothing.** Generation-stamped blocks written inside
   one atomic recovery unit must recover uniformly.
3. **Acknowledged durability.** Everything acknowledged before the crash
   point reads back with its acknowledged contents.
4. **Prefix consistency.** The recovered client-visible state equals
   *some* acknowledgement snapshot at or after the last covered one —
   never a state the execution did not pass through, never future data
   grafted onto old state.

Invariants 3 and 4 are one check: the recovered view must equal a
snapshot ``p_j`` with ``j >= latest_covered``. This is exact, not merely
monotone, because LLD's summary-update protocol makes every realizable
record prefix coincide with an acknowledgement boundary.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.ld.errors import LDError
from repro.ld.hints import LIST_HEAD
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD

from repro.crashsim.explorer import CheckOutcome, CrashState, Violation
from repro.crashsim.recording import RecordingDisk


@dataclass(frozen=True)
class OraclePoint:
    """One acknowledgement snapshot of the expected client-visible state.

    ``epoch`` is the journal's epoch clock when the acknowledgement
    completed: a crash image that fully applies the first ``epoch``
    epochs contains everything this snapshot needs.
    """

    epoch: int
    label: str
    blocks: dict[int, bytes]  # bid -> acked content (non-empty only)
    lists: dict[int, tuple[int, ...]]  # lid -> block chain


@dataclass
class DurabilityOracle:
    """The acknowledgement history plus ARU bookkeeping."""

    points: list[OraclePoint] = field(default_factory=list)
    #: Per committed generation: the blocks an ARU stamped, for the
    #: all-or-nothing check (see :func:`aru_generation`).
    aru_blocks: tuple[int, ...] = ()

    def latest_covered_index(self, covered_epochs: int) -> int:
        """Index of the newest snapshot the crash image must honour.

        Returns -1 when the crash predates every acknowledgement (the
        image owes the client nothing — any recovered state that matches
        a snapshot, including the initial empty one, is acceptable).
        """
        latest = -1
        for i, point in enumerate(self.points):
            if point.epoch <= covered_epochs:
                latest = i
            else:
                break
        return latest


class OracleDriver:
    """Runs one client's workload on an LD, mirroring the expected state.

    The mirror re-implements only the *client-visible contract* — block
    contents and list membership — not the log mechanics, so a bug in
    LLD's write or recovery path cannot also hide in the oracle.

    ``ld`` is an LD or one tenant's session of an LD server. Several
    clients of one LD share one mirror and one oracle (see
    :meth:`client`): behind a server a single physical ``Flush`` can
    acknowledge every tenant's writes, so every acknowledgement snapshots
    the global view. Operations inside a client's open ARU are staged and
    applied to the mirror when that client's ``end_aru`` commits them:
    snapshots taken mid-ARU correctly exclude them, exactly as recovery
    must.
    """

    def __init__(self, ld, recording: RecordingDisk) -> None:
        self.ld = ld
        self.recording = recording
        self.oracle = DurabilityOracle()
        self.blocks: dict[int, bytes] = {}
        self.lists: dict[int, list[int]] = {}
        self._staged: list[tuple] | None = None  # ops inside the open ARU

    def client(self, ld) -> "OracleDriver":
        """A driver for another client of the same LD.

        It shares this driver's mirror, oracle and recording, and stages
        its own ARUs.
        """
        other = copy.copy(self)
        other.ld = ld
        other._staged = None
        return other

    # -- mirrored client operations ------------------------------------

    def new_list(self, **kwargs) -> int:
        lid = self.ld.new_list(**kwargs)
        self.lists[lid] = []
        return lid

    def delete_list(self, lid: int) -> None:
        self.ld.delete_list(lid)
        for bid in self.lists.pop(lid):
            self.blocks.pop(bid, None)

    def new_block(self, lid: int, pred_bid: int) -> int:
        bid = self.ld.new_block(lid, pred_bid)
        self._apply_or_stage(("new_block", lid, pred_bid, bid))
        return bid

    def write(self, bid: int, data: bytes) -> None:
        self.ld.write(bid, bytes(data))
        self._apply_or_stage(("write", bid, bytes(data)))

    def delete_block(self, bid: int, lid: int) -> None:
        self.ld.delete_block(bid, lid)
        self._apply_or_stage(("delete_block", bid, lid))

    def begin_aru(self) -> int:
        aru = self.ld.begin_aru()
        self._staged = []
        return aru

    def end_aru(self) -> None:
        self.ld.end_aru()
        for op in self._staged:
            self._apply(op)
        self._staged = None

    def abort_aru(self) -> None:
        """The ARU never commits: every recovery must discard its writes.

        Models a client that gave up (or crashed) before ``end_aru``: the
        records are logged and may even become durable, but without a
        COMMIT the expected view is never touched.
        """
        self.ld.abort_aru()
        self._staged = None

    def _apply_or_stage(self, op: tuple) -> None:
        if self._staged is not None:
            self._staged.append(op)
        else:
            self._apply(op)

    def _apply(self, op: tuple) -> None:
        match op[0]:
            case "new_block":
                _, lid, pred_bid, bid = op
                chain = self.lists[lid]
                if pred_bid == LIST_HEAD:
                    chain.insert(0, bid)
                else:
                    chain.insert(chain.index(pred_bid) + 1, bid)
            case "write":
                _, bid, data = op
                self.blocks[bid] = data
            case "delete_block":
                _, bid, lid = op
                self.lists[lid].remove(bid)
                self.blocks.pop(bid, None)

    # -- acknowledgement -----------------------------------------------

    def ack(self, label: str = "ack") -> None:
        """Forced flush, then snapshot what every client may now rely on."""
        self.ld.flush()
        self._snapshot(label)

    def request_flush(self, label: str) -> bool:
        """Deferrable flush intent: only a physical group commit is an ack."""
        committed = self.ld.request_flush()
        if committed:
            self._snapshot(label)
        return committed

    def _snapshot(self, label: str) -> None:
        self.oracle.points.append(
            OraclePoint(
                epoch=self.recording.epoch,
                label=label,
                blocks={b: d for b, d in self.blocks.items() if d},
                lists={lid: tuple(chain) for lid, chain in self.lists.items()},
            )
        )

    def room_low(self, data_len: int = 8192, record_bytes: int = 256) -> bool:
        """Is the open segment near capacity for the next operation?

        The driver acks before running out of room so a segment seal never
        happens mid-operation: a seal writes the summary with a half-done
        operation's records, creating an on-disk state no acknowledgement
        snapshot describes. (Client code doesn't need this discipline —
        it simply cannot *rely* on unacknowledged data — but the oracle's
        exact-match check does.)
        """
        open_segment = self.ld._open
        return open_segment is None or not open_segment.fits(data_len, record_bytes)


# ----------------------------------------------------------------------
# Recovered-state observation
# ----------------------------------------------------------------------


def client_view(
    ld: LLD, bids: list[int], lids: list[int]
) -> tuple[dict[int, bytes], dict[int, tuple[int, ...]]]:
    """The client-visible state of a recovered LD over a known universe.

    Blocks that do not exist or hold no content are simply absent, which
    matches how :class:`OraclePoint` stores its view.
    """
    blocks: dict[int, bytes] = {}
    for bid in bids:
        try:
            data = ld.read(bid)
        except LDError:
            continue
        if data:
            blocks[bid] = data
    lists: dict[int, tuple[int, ...]] = {}
    for lid in lids:
        try:
            lists[lid] = tuple(ld.list_blocks(lid))
        except LDError:
            continue
    return blocks, lists


def aru_generation(blocks: dict[int, bytes], aru_bids: tuple[int, ...]) -> set[bytes]:
    """Distinct generation stamps among the ARU-written blocks.

    The matrix workload writes ``b"gen-N..."`` content to every block in
    ``aru_bids`` inside a single ARU, so a recovered image must show at
    most one distinct stamp (or none, before the first generation).
    """
    stamps: set[bytes] = set()
    for bid in aru_bids:
        data = blocks.get(bid)
        if data:
            stamps.add(data[:16])
    return stamps


# ----------------------------------------------------------------------
# The standard crash-matrix workload
# ----------------------------------------------------------------------


def _content(tag: str, index: int, length: int) -> bytes:
    """Deterministic, self-describing block content of ``length`` bytes."""
    stem = f"{tag}-{index:04d}:".encode()
    reps = length // len(stem) + 1
    return (stem * reps)[:length]


def _stamped(gen: int, index: int, length: int = 1600) -> bytes:
    """ARU content: a 16-byte generation stamp, then per-block filler.

    The stamp is identical for every block written in one generation, so
    :func:`aru_generation` can check uniformity with a fixed-width slice.
    """
    stamp = f"gen-{gen:02d}".encode().ljust(16, b".")
    return stamp + _content("arub", index, length - 16)


def run_matrix_workload(
    driver: OracleDriver,
    *,
    n_small: int = 10,
    n_overwrites: int = 4,
    generations: int = 3,
    n_fill: int = 12,
    fill_size: int = 4096,
) -> dict:
    """Drive the phases the crash matrix explores, acking as it goes.

    Phases: list/block creation with per-op acks (growing summaries and
    multi-sector data tails), overwrites, a delete, generation-stamped
    ARUs (with a flush during an open ARU, and one aborted ARU), then
    enough bulk data to seal at least one segment. Every phase ends at an
    acknowledgement, and the driver acks early whenever the open segment
    runs low on room, so seals only ever happen inside a flush.
    """
    maybe = driver.room_low
    lid = driver.new_list()
    driver.ack("create-list")

    # Phase A: growth. Varied sizes so data tails cross sector boundaries.
    bids: list[int] = []
    pred = -1  # LIST_HEAD
    for i in range(n_small):
        if maybe():
            driver.ack("room")
        bid = driver.new_block(lid, pred)
        driver.write(bid, _content("grow", i, 700 + (i % 5) * 613))
        driver.ack(f"grow-{i}")
        bids.append(bid)
        pred = bid

    # Phase B: overwrites of acknowledged blocks.
    for i in range(min(n_overwrites, len(bids))):
        if maybe():
            driver.ack("room")
        driver.write(bids[i], _content("over", i, 1200 + i * 307))
        driver.ack(f"over-{i}")

    # Phase C: delete one acknowledged block.
    victim = bids.pop(len(bids) // 2)
    if maybe():
        driver.ack("room")
    driver.delete_block(victim, lid)
    driver.ack("delete")

    # Phase D: generation-stamped ARUs over a fixed block set.
    aru_bids: list[int] = []
    for i in range(3):
        if maybe():
            driver.ack("room")
        bid = driver.new_block(lid, bids[-1] if bids else -1)
        bids.append(bid)
        aru_bids.append(bid)
    driver.ack("aru-setup")
    driver.oracle.aru_blocks = tuple(aru_bids)
    for gen in range(1, generations + 1):
        if maybe(3 * 2048, 512):
            driver.ack("room")
        driver.begin_aru()
        for j, bid in enumerate(aru_bids):
            driver.write(bid, _stamped(gen, j))
        if gen == 2:
            # A flush during an open ARU: durable but uncommitted records.
            driver.ack(f"mid-aru-{gen}")
        driver.end_aru()
        driver.ack(f"gen-{gen}")

    # Phase E: an aborted ARU — its writes must vanish at every recovery.
    if maybe(3 * 2048, 512):
        driver.ack("room")
    driver.begin_aru()
    for j, bid in enumerate(aru_bids):
        driver.write(bid, _stamped(99, j))
    driver.abort_aru()
    driver.ack("post-abort")

    # Phase F: bulk fill to push the open segment over the seal threshold.
    for i in range(n_fill):
        if maybe(fill_size + 512, 256):
            driver.ack("room")
        bid = driver.new_block(lid, bids[-1])
        bids.append(bid)
        driver.write(bid, _content("fill", i, fill_size))
        driver.ack(f"fill-{i}")

    return {"lid": lid, "bids": bids, "aru_bids": tuple(aru_bids)}


def run_multitenant_matrix_workload(
    a: OracleDriver,
    b: OracleDriver,
    *,
    n_small: int = 4,
    n_overwrites: int = 2,
    generations: int = 2,
    n_fill: int = 6,
    fill_size: int = 4096,
) -> dict:
    """The matrix phases, driven by two tenants through one scheduler.

    ``a`` and ``b`` drive two sessions of one LD server and share one
    mirror (``b = a.client(session_b)``). Every phase ends at an
    acknowledgement and the drivers ack early whenever the open segment
    runs low, exactly like the single-tenant matrix workload — plus the
    multi-tenant-only shapes: pooled deferrable intents committed by the
    *other* tenant, and a mid-ARU flush forced by a tenant that is not
    the one holding the ARU open. Closes the server at the end.
    """
    maybe = a.room_low
    lid_a = a.new_list()
    lid_b = b.new_list()
    a.ack("create-lists")

    bids: dict[OracleDriver, list[int]] = {a: [], b: []}
    pred = {a: LIST_HEAD, b: LIST_HEAD}

    # Phase A: interleaved growth. Even rounds pool two deferrable
    # intents (the second commits the group when group_commit <= 2);
    # odd rounds force an ack.
    for i in range(n_small):
        for driver, lid in ((a, lid_a), (b, lid_b)):
            if maybe():
                driver.ack("room")
            bid = driver.new_block(lid, pred[driver])
            driver.write(bid, _content(driver.ld.name, i, 600 + (i % 4) * 450))
            bids[driver].append(bid)
            pred[driver] = bid
        if i % 2 == 0:
            a.request_flush(f"defer-{i}")
            if not b.request_flush(f"pooled-{i}"):
                b.ack(f"pooled-{i}")  # group larger than 2: force
        else:
            a.ack(f"grow-{i}")

    # Phase B: overwrites of acknowledged blocks.
    for i in range(min(n_overwrites, len(bids[a]))):
        if maybe():
            a.ack("room")
        a.write(bids[a][i], _content("aover", i, 1100))
        a.ack(f"over-{i}")

    # Phase C: delete one acknowledged block.
    victim = bids[b].pop(0)
    if maybe():
        b.ack("room")
    b.delete_block(victim, lid_b)
    b.ack("delete")

    # Phase D: generation-stamped ARUs for tenant a — interleaved with a
    # plain write and a *mid-ARU ack* from tenant b (a's records become
    # durable but uncommitted) — plus one concurrent committed ARU by b.
    aru_bids = []
    for _ in range(3):
        if maybe():
            a.ack("room")
        bid = a.new_block(lid_a, pred[a])
        pred[a] = bid
        bids[a].append(bid)
        aru_bids.append(bid)
    a.ack("aru-setup")
    a.oracle.aru_blocks = tuple(aru_bids)
    for gen in range(1, generations + 1):
        if maybe(3 * 2048, 512):
            a.ack("room")
        a.begin_aru()
        for j, bid in enumerate(aru_bids):
            a.write(bid, _stamped(gen, j, 1200))
        if gen == 1:
            b.write(bids[b][0], _content("bmid", gen, 700))
            b.ack(f"mid-aru-{gen}")
        a.end_aru()
        a.ack(f"gen-{gen}")
    if maybe(3 * 2048, 512):
        b.ack("room")
    b.begin_aru()
    for j, bid in enumerate(bids[b][:2]):
        b.write(bid, _stamped(77, j, 1200))
    b.end_aru()
    b.ack("b-aru")

    # Phase E: an aborted ARU — its writes must vanish at every recovery.
    if maybe(3 * 2048, 512):
        a.ack("room")
    a.begin_aru()
    for j, bid in enumerate(aru_bids):
        a.write(bid, _stamped(99, j, 1200))
    a.abort_aru()
    a.ack("post-abort")

    # Phase F: bulk fill from both tenants to seal segments.
    for i in range(n_fill):
        driver, lid = ((a, lid_a), (b, lid_b))[i % 2]
        if maybe(fill_size + 512, 256):
            driver.ack("room")
        bid = driver.new_block(lid, pred[driver])
        pred[driver] = bid
        bids[driver].append(bid)
        driver.write(bid, _content("fill", i, fill_size))
        driver.ack(f"fill-{i}")

    a.ld.server.close()
    return {
        "lids": (lid_a, lid_b),
        "bids": {driver.ld.name: bids[driver] for driver in (a, b)},
        "aru_bids": tuple(aru_bids),
    }


class LLDCrashChecker:
    """Recovers an LLD from a crash image and checks the four invariants."""

    def __init__(self, config: LLDConfig, oracle: DurabilityOracle) -> None:
        self.config = config
        self.oracle = oracle
        # The observation universe: everything any snapshot ever named.
        self.all_bids = sorted(
            {bid for p in oracle.points for bid in p.blocks}
        )
        self.all_lids = sorted(
            {lid for p in oracle.points for lid in p.lists}
        )

    def __call__(self, disk, state: CrashState) -> CheckOutcome:
        outcome = CheckOutcome()

        def violate(invariant: str, message: str) -> None:
            outcome.violations.append(
                Violation(
                    state_id=state.state_id,
                    kind=state.kind,
                    invariant=invariant,
                    message=message,
                    detail=state.detail,
                )
            )

        # Invariant 1: recovery never raises.
        ld = LLD(disk, self.config)
        try:
            ld.initialize()
        except Exception as exc:  # noqa: BLE001 - any escape is the bug
            violate("recovery-never-raises", f"{type(exc).__name__}: {exc}")
            return outcome
        if ld.recovery_report is not None:
            outcome.recovery_seconds = ld.recovery_report.simulated_seconds

        # Observe the recovered client-visible state.
        try:
            blocks, lists = client_view(ld, self.all_bids, self.all_lids)
        except Exception as exc:  # noqa: BLE001
            violate("recovery-never-raises", f"reading recovered state: {exc}")
            return outcome

        # Invariant 2: ARU all-or-nothing (generation uniformity).
        stamps = aru_generation(blocks, self.oracle.aru_blocks)
        if len(stamps) > 1:
            violate(
                "aru-all-or-nothing",
                f"mixed ARU generations recovered: {sorted(stamps)}",
            )

        # Invariants 3+4: the recovered view equals some acknowledgement
        # snapshot at or after the latest covered one.
        latest = self.oracle.latest_covered_index(state.covered_epochs)
        matched = None
        for j in range(max(latest, 0), len(self.oracle.points)):
            point = self.oracle.points[j]
            if blocks == point.blocks and lists == point.lists:
                matched = j
                break
        if matched is None and latest < 0 and not blocks and not lists:
            matched = -1  # pre-first-ack crash recovering to the empty state
        if matched is None:
            if latest >= 0:
                expected = self.oracle.points[latest]
                missing = {
                    bid
                    for bid, data in expected.blocks.items()
                    if blocks.get(bid) != data
                }
                if missing:
                    violate(
                        "acked-durability",
                        f"acknowledged block(s) lost or changed: "
                        f"{sorted(missing)[:8]} (ack '{expected.label}' "
                        f"at epoch {expected.epoch})",
                    )
            if not outcome.violations:
                violate(
                    "prefix-consistency",
                    f"recovered state matches no acknowledgement snapshot "
                    f">= {latest} ({len(blocks)} blocks, {len(lists)} lists)",
                )
        return outcome
