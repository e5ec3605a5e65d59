"""Crash-state enumeration and exploration.

Given a :class:`~repro.crashsim.recording.RecordingDisk` journal, the
enumerator generates the distinct crash images the recorded execution
could have left on the medium. A crash state holds one *plan* per member:
the ``(write seq, sectors applied)`` pairs that member's image replays on
top of its base snapshot.

Which states are legal depends on whether the member journals are copies
of one another, so the enumerator has two policies over the one journal:

**Per-write states** — a bare disk, or a mirror (every member sees the
same writes in the same epochs, and a state applies one plan to all):

* **Prefixes** — the crash hit between write ``i-1`` and write ``i``;
  every journal prefix is a legal image (within an epoch, the in-order
  prefix models "no reordering happened").
* **Torn writes** — the crash hit *during* a multi-sector write; any
  sector-aligned proper prefix of that write may have reached the medium
  on top of the journal prefix before it.
* **Reorderings** — writes inside one epoch carry no ordering guarantee,
  so any subset of an epoch (each write fully applied, in program order)
  on top of the preceding epochs is a legal image. Program-order subsets
  model both reordering and dropped writes for non-overlapping requests;
  epochs whose writes overlap are rare (the summary-guard protocol
  separates overlapping updates with a barrier precisely so they land in
  different epochs).

**Epoch cuts** — parity and striped volumes, whose members see different
bytes: a row's data and parity land on different members, so mixing
per-member crash points freely would manufacture images no single power
failure produces. Each member instead holds its journal prefix at one
recorded barrier vector (a *cut*), plus writes drawn from the single
in-flight epoch:

* **cut** — the crash hit between epochs (including the empty vector
  and, when writes trail the last barrier, the full journals).
* **torn** — on top of a cut, exactly one in-flight multi-sector write
  of the next epoch left its first sector or all but its last.
* **subset** — on top of a cut, each member applied a program-order
  subset of its next-epoch writes: deterministic drop-one states for
  every write, plus seeded random per-member subset combinations. These
  are the write-hole states — a row's data landing without its parity
  or vice versa.

Both policies share one deduplication (by the plans, so e.g. the torn
state that applies *all* sectors of a write is never counted twice with
the prefix that includes it) and one state cap.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.crashsim.recording import RecordingDisk

#: A crash plan: for each applied write, ``(journal seq, sectors applied)``
#: in journal order. The image it denotes is base + these writes replayed.
Plan = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CrashState:
    """One enumerated crash state: a plan per member.

    ``covered_epochs`` is the conservative durability horizon: every
    write of the first ``covered_epochs`` epochs is fully applied in this
    image. The oracle uses it to find the latest acknowledgement this
    image must honour.
    """

    state_id: int
    kind: str  # "prefix" | "torn" | "reorder" | "cut" | "subset"
    covered_epochs: int
    plans: tuple[Plan, ...]
    detail: str = ""


@dataclass
class Violation:
    """One invariant broken by one crash state."""

    state_id: int
    kind: str
    invariant: str
    message: str
    detail: str = ""

    def __str__(self) -> str:
        return (
            f"[state {self.state_id} {self.kind}{' ' + self.detail if self.detail else ''}] "
            f"{self.invariant}: {self.message}"
        )


@dataclass
class CheckOutcome:
    """What one recovery check produced."""

    violations: list[Violation] = field(default_factory=list)
    recovery_seconds: float = 0.0


@dataclass
class ExplorationReport:
    """Aggregate result of exploring every enumerated crash state."""

    states_total: int = 0
    states_by_kind: dict[str, int] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)
    recovery_seconds: list[float] = field(default_factory=list)

    @property
    def recovery_seconds_mean(self) -> float:
        if not self.recovery_seconds:
            return 0.0
        return sum(self.recovery_seconds) / len(self.recovery_seconds)

    @property
    def recovery_seconds_max(self) -> float:
        return max(self.recovery_seconds, default=0.0)

    def __str__(self) -> str:
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.states_by_kind.items()))
        return (
            f"explored {self.states_total} crash states ({kinds}), "
            f"{len(self.violations)} violation(s), "
            f"recovery mean {self.recovery_seconds_mean * 1000:.1f} ms / "
            f"max {self.recovery_seconds_max * 1000:.1f} ms"
        )


def torn_splits(nsectors: int, limit: int) -> list[int]:
    """Which sector counts to tear a write of ``nsectors`` at (at most ``limit``)."""
    candidates = list(range(1, nsectors))
    if len(candidates) <= limit:
        return candidates
    # Always keep the boundary tears (1 sector applied, one-short of
    # complete) and spread the rest evenly across the middle.
    keep = {candidates[0], candidates[-1]}
    step = (len(candidates) - 1) / (limit - 1)
    for i in range(1, limit - 1):
        keep.add(candidates[round(i * step)])
    return sorted(keep)


class CrashStateEnumerator:
    """Enumerates the crash states of a recording and explores them.

    ``reorder_samples_per_epoch`` bounds the seeded subset samples per
    epoch: the per-write policy samples that many subsets of an epoch
    wider than ``max_reorder_epoch_writes`` (exhausting narrower ones),
    and the epoch-cut policy draws that many random subsets on top of its
    drop-one states. Torn writes split at up to
    ``max_torn_splits_per_write`` points per write (epoch cuts keep only
    the two boundary splits).
    """

    def __init__(
        self,
        recording: "RecordingDisk",
        *,
        max_torn_splits_per_write: int = 8,
        max_reorder_epoch_writes: int = 6,
        reorder_samples_per_epoch: int = 16,
        max_states: int = 100_000,
        seed: int = 0,
    ) -> None:
        self.recording = recording
        self.max_torn_splits_per_write = max_torn_splits_per_write
        self.max_reorder_epoch_writes = max_reorder_epoch_writes
        self.reorder_samples_per_epoch = reorder_samples_per_epoch
        self.max_states = max_states
        self.seed = seed

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def enumerate(self) -> list[CrashState]:
        """All distinct crash states in generation order, capped at max_states."""
        volume = self.recording.volume
        if volume is None or volume.layout == "mirror":
            candidates = self._per_write_states()
        else:
            candidates = self._epoch_cut_states()
        seen: set[tuple[Plan, ...]] = set()
        states: list[CrashState] = []
        for kind, covered, plans, detail in candidates:
            if len(states) >= self.max_states:
                break
            if plans in seen:
                continue
            seen.add(plans)
            states.append(CrashState(len(states), kind, covered, plans, detail))
        return states

    def _per_write_states(self):
        """Prefix, torn and reorder candidates of isomorphic member journals."""
        recording = self.recording
        journals = recording.journals
        shape = [(e.epoch, e.lba, e.nsectors) for e in journals[0]]
        for k, journal in enumerate(journals[1:], start=1):
            if [(e.epoch, e.lba, e.nsectors) for e in journal] != shape:
                raise AssertionError(
                    f"mirror member {k} journal diverged from member 0 "
                    f"({len(journal)} vs {len(shape)} writes)"
                )
        events = journals[0]
        ends = [b.positions[0] for b in recording.barriers]
        copies = len(journals)

        def candidate(kind: str, covered_seq: int, plan: list, detail: str):
            plans = (tuple(plan),) * copies
            return kind, bisect_right(ends, covered_seq), plans, detail

        # 1. Every journal prefix, including the empty disk and the full run.
        full = [(event.seq, event.nsectors) for event in events]
        for i in range(len(events) + 1):
            yield candidate("prefix", i, full[:i], f"cut@{i}")

        # 2. Torn multi-sector writes: prefix before the write, plus a
        # proper sector prefix of the write itself.
        for event in events:
            if event.nsectors < 2:
                continue
            for k in torn_splits(event.nsectors, self.max_torn_splits_per_write):
                yield candidate(
                    "torn",
                    event.seq,
                    full[: event.seq] + [(event.seq, k)],
                    f"w{event.seq}+{k}/{event.nsectors}",
                )

        # 3. Intra-epoch reorderings: all epochs fully applied before this
        # one, plus a strict subset of this epoch in program order.
        rng = random.Random(self.seed)
        for start, end in zip([0] + ends, ends + [len(events)]):
            width = end - start
            if width < 2:
                continue  # subsets of a 1-write epoch are all prefixes
            members = list(range(start, end))
            if width <= self.max_reorder_epoch_writes:
                subsets = self._all_proper_subsets(members)
            else:
                subsets = self._sampled_subsets(members, rng)
            for subset in subsets:
                yield candidate(
                    "reorder",
                    start,
                    full[:start] + [full[seq] for seq in subset],
                    f"epoch@{start}:{{{','.join(map(str, subset))}}}",
                )

    def _epoch_cut_states(self):
        """Cut, torn and subset candidates at the recorded barrier vectors."""
        recording = self.recording
        n = len(recording.journals)
        full = [[(e.seq, e.nsectors) for e in j] for j in recording.journals]
        cuts = [(0,) * n] + [b.positions for b in recording.barriers]
        if cuts[-1] != recording.positions:
            cuts.append(recording.positions)
        closed = len(recording.barriers)

        def prefix(vector) -> tuple[Plan, ...]:
            return tuple(tuple(full[m][: vector[m]]) for m in range(n))

        def with_member(plans, m: int, plan) -> tuple[Plan, ...]:
            return plans[:m] + (tuple(plan),) + plans[m + 1 :]

        rng = random.Random(self.seed)
        for k, (vector, nxt) in enumerate(zip(cuts, cuts[1:] + [None])):
            base = prefix(vector)
            covered = min(k, closed)
            yield "cut", covered, base, f"epoch@{k}"
            if nxt is None:
                break
            epoch_writes = [range(vector[m], nxt[m]) for m in range(n)]

            # Torn: one in-flight multi-sector write tears, everything else
            # of the epoch is absent (the most conservative torn picture).
            for m in range(n):
                for seq in epoch_writes[m]:
                    nsectors = full[m][seq][1]
                    for applied in torn_splits(nsectors, 2):
                        yield (
                            "torn",
                            covered,
                            with_member(base, m, base[m] + ((seq, applied),)),
                            f"epoch@{k}:m{m}w{seq}+{applied}/{nsectors}",
                        )

            # Subsets: drop exactly one write of the epoch (the classic
            # lost-write / write-hole shape), then seeded random per-member
            # subset combinations.
            ahead = prefix(nxt)
            for m in range(n):
                for seq in epoch_writes[m]:
                    kept = [full[m][s] for s in epoch_writes[m] if s != seq]
                    yield (
                        "subset",
                        covered,
                        with_member(ahead, m, base[m] + tuple(kept)),
                        f"epoch@{k}:m{m}-w{seq}",
                    )
            for _ in range(self.reorder_samples_per_epoch):
                chosen = [
                    [s for s in epoch_writes[m] if rng.random() < 0.5] for m in range(n)
                ]
                yield (
                    "subset",
                    covered,
                    tuple(
                        base[m] + tuple(full[m][s] for s in chosen[m]) for m in range(n)
                    ),
                    f"epoch@{k}:rand{[len(c) for c in chosen]}",
                )

    def _all_proper_subsets(self, members: list[int]):
        """Every subset except the empty set and the full set.

        Those two are the prefix states at the epoch's start and end; the
        dedup set would drop them anyway, skipping just avoids the churn.
        """
        for size in range(1, len(members)):
            yield from combinations(members, size)

    def _sampled_subsets(self, members: list[int], rng: random.Random):
        """Seeded sample of proper subsets for epochs too wide to exhaust."""
        emitted: set[tuple[int, ...]] = set()
        # Deterministic structured samples first: drop exactly one write
        # (the states most likely to expose a missing-barrier bug).
        for i in range(len(members)):
            subset = tuple(members[:i] + members[i + 1 :])
            emitted.add(subset)
        budget = max(self.reorder_samples_per_epoch, len(emitted))
        attempts = 0
        while len(emitted) < budget and attempts < budget * 8:
            attempts += 1
            subset = tuple(m for m in members if rng.random() < 0.5)
            if 0 < len(subset) < len(members):
                emitted.add(subset)
        yield from sorted(emitted)

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------

    def explore(
        self, check: Callable[[object, CrashState], CheckOutcome]
    ) -> ExplorationReport:
        """Materialize every state, run ``check`` on it, aggregate results."""
        report = ExplorationReport()
        for state in self.enumerate():
            outcome = check(self.recording.materialize(state), state)
            report.states_total += 1
            report.states_by_kind[state.kind] = (
                report.states_by_kind.get(state.kind, 0) + 1
            )
            report.violations.extend(outcome.violations)
            report.recovery_seconds.append(outcome.recovery_seconds)
        return report
