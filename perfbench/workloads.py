"""The four workloads: seeded inputs, set-up, one measured round each.

Every workload is a closed loop with one client (raid5_tenants: eight
tenants with four ops each in flight). A round is a fixed amount of work
on a freshly built stack, so the simulated figures and the layer counts
of a round depend only on the seed; ``run.py`` repeats rounds until the
measured time is used up and requires every round to reproduce them.

Each ``run`` returns ``(sim, counts)``:

* ``sim`` — the model's own figures for the round (``sim_ops_per_s``,
  ``sim_op_p99_ms``, ``write_amp`` and workload extras);
* ``counts`` — deltas of the program's own counters over the measured
  phase, named like the per-layer metrics.
"""

from __future__ import annotations

import random
from dataclasses import replace
from types import SimpleNamespace

from repro.bench import BuildSpec, build_minix_lld
from repro.crashsim import LLDCrashChecker, OracleDriver, ParityRecording
from repro.crashsim import run_matrix_workload
import repro.crashsim.volume as crash_volume
from repro.disk import SimulatedDisk, hp_c3010
from repro.ld.hints import LIST_HEAD
from repro.lld import LLD, LLDConfig
from repro.sched import LDServer, QoSElevatorScheduler
from repro.sim import VirtualClock
from repro.volume import Volume

KB = 1024

READ, WRITE, OTHER = "read", "write", "other"

#: Count names every workload reports (0 where a layer does no work).
COUNT_NAMES = (
    "fs.cache.hit_ratio",
    "sched.queue_wait_sim_s",
    "sched.intents_per_commit",
    "lld.blocks_written",
    "lld.segments_sealed",
    "lld.cleaner.blocks_cleaned",
    "lld.recovery.summary_reads",
    "compress.bytes_in",
    "compress.ratio",
    "volume.full_stripe_writes",
    "volume.rmw_writes",
    "volume.reconstructed_reads",
    "volume.rebuild_rows",
    "disk.requests",
    "disk.sectors_read",
    "disk.sectors_written",
    "disk.busy_sim_s",
    "crashsim.states",
)
COUNT_UNITS = {
    name: "s" if name.endswith("_s") else "ratio" if "ratio" in name or "_per_" in name
    else "count"
    for name in COUNT_NAMES
}

_WORDS = (
    b"logical", b"disk", b"segment", b"summary", b"block", b"list", b"the",
    b"file", b"system", b"cleaner", b"recovery", b"atomic", b"unit", b"map",
    b"minix", b"write", b"read", b"of", b"and", b"a", b"to", b"in", b"log",
)


def percentile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def text_like(rng: random.Random, size: int) -> bytes:
    """Seeded, LZRW-compressible bytes: words with random bytes mixed in."""
    out = bytearray()
    while len(out) < size:
        if rng.random() < 0.15:
            out += rng.randbytes(rng.randint(4, 24))
        else:
            out += rng.choice(_WORDS) + b" "
    return bytes(out[:size])


def disk_totals(disks) -> dict:
    """Sums of the program's own DiskStats over ``disks``."""
    totals = {"disk.requests": 0, "disk.sectors_read": 0, "disk.sectors_written": 0}
    busy = 0.0
    for disk in disks:
        stats = disk.stats
        totals["disk.requests"] += stats.requests
        totals["disk.sectors_read"] += stats.sectors_read
        totals["disk.sectors_written"] += stats.sectors_written
        busy += stats.busy_time
    totals["disk.busy_sim_s"] = busy
    return totals


def lld_totals(lld) -> dict:
    stats = lld.stats
    return {
        "lld.blocks_written": stats.blocks_written,
        "lld.segments_sealed": stats.segments_sealed,
        "lld.cleaner.blocks_cleaned": stats.blocks_cleaned,
    }


def volume_totals(volume) -> dict:
    vs = volume.volume_stats
    return {
        "volume.full_stripe_writes": vs.full_stripe_writes,
        "volume.rmw_writes": vs.rmw_writes,
        "volume.reconstructed_reads": vs.reconstructed_reads,
        "volume.rebuild_rows": vs.rebuild_rows_done,
    }


def empty_counts() -> dict:
    return dict.fromkeys(COUNT_NAMES, 0)


def add_deltas(counts: dict, before: dict | None, after: dict) -> None:
    """Add ``after - before`` (``before`` None: from zero) into ``counts``."""
    for name, value in after.items():
        counts[name] += value - (before[name] if before else 0)


def hit_ratio(cache, hits0: int, misses0: int) -> float:
    hits = cache.hits - hits0
    lookups = hits + cache.misses - misses0
    return hits / lookups if lookups else 0.0


class SmallFile:
    """Paper Table 4 at scale 0.1: create, read, delete ~1000 1 KB files.

    MINIX LLD on one HP C3010, 614 KB buffer cache against about 1 MB of
    files, so reads reach LLD. One directory; each create, read or delete
    of one file is one op. The phases end with a sync (create, delete)
    and a cache drop, as in the paper; those count in the measured time
    but are not ops.
    """

    name = "smallfile"
    mechanism = ("fs.minix", "fs.minix.store")
    bypassed = ("sched", "compress", "crashsim", "lld.recovery")
    FILE_SIZE = 1 * KB

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.spec = BuildSpec.from_scale(0.1)
        # The seed adds 0-15 files, so the simulated figures differ by seed.
        count = self.spec.small_file_count(10000) + rng.randrange(16)
        self.paths = [f"/small/f{i:04d}{rng.getrandbits(24):06x}" for i in range(count)]
        self.contents = [rng.randbytes(self.FILE_SIZE) for _ in range(count)]

    def setup(self):
        fs, lld = build_minix_lld(self.spec)
        fs.mkdir("/small")
        fs.sync()
        return SimpleNamespace(fs=fs, lld=lld)

    def run(self, st, rec):
        fs, lld = st.fs, st.lld
        clock, cache = lld.disk.clock, fs.store.cache
        disk0, lld0 = disk_totals([lld.disk]), lld_totals(lld)
        hits0, misses0 = cache.hits, cache.misses
        size = self.FILE_SIZE
        sim_lat = []
        phase_s = []
        rec.phase_start()
        for phase in (WRITE, READ, OTHER):
            t_phase = clock.now
            for path, data in zip(self.paths, self.contents):
                t0, s0 = rec.begin(), clock.now
                if phase == WRITE:
                    fd = fs.open(path, create=True)
                    fs.write(fd, data)
                    fs.close(fd)
                elif phase == READ:
                    fd = fs.open(path)
                    got = fs.read(fd, size)
                    fs.close(fd)
                else:
                    fs.unlink(path)
                rec.end(phase, t0)
                sim_lat.append(clock.now - s0)
                if phase == READ and got != data:
                    rec.fail(f"{path}: read {len(got)} bytes that differ from the file")
            if phase != READ:
                fs.sync()
            phase_s.append(clock.now - t_phase)
            fs.drop_caches()
        rec.phase_end()
        n = len(self.paths)
        disk1 = disk_totals([lld.disk])
        counts = empty_counts()
        add_deltas(counts, disk0, disk1)
        add_deltas(counts, lld0, lld_totals(lld))
        counts["fs.cache.hit_ratio"] = hit_ratio(cache, hits0, misses0)
        sim = {
            "sim_ops_per_s": 3 * n / sum(phase_s),
            "sim_op_p99_ms": percentile(sim_lat, 0.99) * 1e3,
            "write_amp": (disk1["disk.sectors_written"] - disk0["disk.sectors_written"])
            * 512 / (n * size),
            "create_per_s": n / phase_s[0],
            "read_per_s": n / phase_s[1],
            "delete_per_s": n / phase_s[2],
        }
        return sim, counts


class LargeFileLZRW:
    """Paper Table 5 phases on one 512 KB file, MINIX LLD with compression.

    Sequential write, sequential read, random rewrite (new contents),
    random read and sequential re-read — the paper's five phases — in
    8 KB chunks with a cache drop between phases. Every list is created
    with the compress hint, so writes run LZRW compress and reads that
    reach LLD run decompress. Each chunk is one op.

    The buffer cache keeps the paper's 6 MB : 80 MB cache-to-file ratio
    (40 KB here), so nearly every write evicts dirty blocks into LLD —
    compressing them inside the op — and reads miss the cache.
    """

    name = "largefile_lzrw"
    mechanism = ("compress", "fs.minix")
    bypassed = ("sched", "crashsim", "lld.recovery")
    FILE_KB = 512
    CACHE_KB = 40
    CHUNK = 8 * KB

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.spec = replace(BuildSpec.from_scale(0.1), cache_bytes=self.CACHE_KB * KB)
        n = self.FILE_KB * KB // self.CHUNK
        self.first = [text_like(rng, self.CHUNK) for _ in range(n)]
        self.second = [text_like(rng, self.CHUNK) for _ in range(n)]
        self.rewrite_order = rng.sample(range(n), n)
        self.read_order = rng.sample(range(n), n)

    def setup(self):
        fs, lld = build_minix_lld(self.spec, compression=True)
        fd = fs.open("/large", create=True)
        fs.sync()
        return SimpleNamespace(fs=fs, lld=lld, fd=fd)

    def run(self, st, rec):
        fs, lld, fd = st.fs, st.lld, st.fd
        clock, cache, model = lld.disk.clock, fs.store.cache, lld.compression
        disk0, lld0 = disk_totals([lld.disk]), lld_totals(lld)
        hits0, misses0 = cache.hits, cache.misses
        in0, out0 = model.bytes_in, model.bytes_out
        chunk = self.CHUNK
        n = len(self.first)
        current = [b""] * n
        sim_lat = []
        rec.phase_start()
        t_start = clock.now
        phases = (
            (WRITE, range(n), self.first),
            (READ, range(n), None),
            (WRITE, self.rewrite_order, self.second),
            (READ, self.read_order, None),
            (READ, range(n), None),
        )
        for kind, order, source in phases:
            sequential = isinstance(order, range)
            if sequential:
                fs.seek(fd, 0)
            for i in order:
                t0, s0 = rec.begin(), clock.now
                if not sequential:
                    fs.seek(fd, i * chunk)
                if kind == WRITE:
                    fs.write(fd, source[i])
                else:
                    got = fs.read(fd, chunk)
                rec.end(kind, t0)
                sim_lat.append(clock.now - s0)
                if kind == WRITE:
                    current[i] = source[i]
                elif got != current[i]:
                    rec.fail(f"chunk {i}: decompressed read differs from what was written")
            if kind == WRITE:
                fs.sync()
            fs.drop_caches()
        rec.phase_end()
        elapsed = clock.now - t_start
        disk1 = disk_totals([lld.disk])
        counts = empty_counts()
        add_deltas(counts, disk0, disk1)
        add_deltas(counts, lld0, lld_totals(lld))
        counts["fs.cache.hit_ratio"] = hit_ratio(cache, hits0, misses0)
        bytes_in = model.bytes_in - in0
        counts["compress.bytes_in"] = bytes_in
        counts["compress.ratio"] = (model.bytes_out - out0) / bytes_in if bytes_in else 0.0
        if not bytes_in:
            rec.fail("no block was compressed")
        sim = {
            "sim_ops_per_s": len(phases) * n / elapsed,
            "sim_op_p99_ms": percentile(sim_lat, 0.99) * 1e3,
            "write_amp": (disk1["disk.sectors_written"] - disk0["disk.sectors_written"])
            * 512 / (2 * n * chunk),
        }
        return sim, counts


class Raid5Tenants:
    """Eight tenants on the QoS scheduler over LLD on a 4-member RAID-5.

    Even tenants are read-heavy (70% reads, a deferrable flush every 8th
    op), odd tenants write-heavy (30% reads, a flush every 4th op); each
    keeps 4 ops in flight. Live data fills half the volume and writes
    overwrite it at random, so the LLD cleaner relocates live blocks. A
    quarter of the way in one member fails; half way a replacement is
    installed and rebuilt by the rate-limited scanner under the traffic.
    Host latency runs from submit to the scheduler round that completed
    the op.
    """

    name = "raid5_tenants"
    mechanism = ("sched", "lld.cleaner", "volume")
    bypassed = ("fs.minix", "fs.minix.store", "compress", "crashsim", "lld.recovery")
    TENANTS = 8
    WINDOW = 4
    OPS_PER_TENANT = 800
    BLOCKS_PER_TENANT = 96
    IO = 4 * KB
    MEMBER_MB = 2
    SEGMENT = 64 * KB
    REBUILD_RATE = 0.5
    CHUNK_SECTORS = 32

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.fail_index = rng.randrange(4)
        self.initial = [
            [rng.randbytes(self.IO) for _ in range(self.BLOCKS_PER_TENANT)]
            for _ in range(self.TENANTS)
        ]
        self.scripts = []
        for t in range(self.TENANTS):
            read_pct, flush_every = (70, 8) if t % 2 == 0 else (30, 4)
            # Exact read/write counts, so every seed does the same work.
            io_ops = self.OPS_PER_TENANT - self.OPS_PER_TENANT // flush_every
            reads = io_ops * read_pct // 100
            kinds = iter(rng.sample(["read"] * reads + ["write"] * (io_ops - reads), io_ops))
            script = []
            for k in range(self.OPS_PER_TENANT):
                slot = rng.randrange(self.BLOCKS_PER_TENANT)
                if (k + 1) % flush_every == 0:
                    script.append(("flush", 0, None))
                elif next(kinds) == "read":
                    script.append(("read", slot, None))
                else:
                    script.append(("write", slot, rng.randbytes(self.IO)))
            self.scripts.append(script)

    def setup(self):
        members = [
            SimulatedDisk(hp_c3010(capacity_mb=self.MEMBER_MB), VirtualClock())
            for _ in range(4)
        ]
        volume = Volume(
            members, VirtualClock(), layout="raid5", chunk_sectors=self.CHUNK_SECTORS
        )
        volume.rebuild_rate = self.REBUILD_RATE
        lld = LLD(
            volume,
            LLDConfig(segment_size=self.SEGMENT, block_size=4 * KB, checkpoint_slots=2),
        )
        lld.initialize()
        server = LDServer(lld, QoSElevatorScheduler(), group_commit=self.TENANTS)
        sessions, bids = [], []
        for t in range(self.TENANTS):
            sess = server.open_session(f"t{t}")
            lid = sess.new_list()
            pred, mine = LIST_HEAD, []
            for data in self.initial[t]:
                bid = sess.new_block(lid, pred)
                sess.write(bid, data)
                mine.append(bid)
                pred = bid
            sessions.append(sess)
            bids.append(mine)
        sessions[0].flush()
        return SimpleNamespace(
            server=server, lld=lld, volume=volume, sessions=sessions, bids=bids,
            disks=list(members),
        )

    def run(self, st, rec):
        server, lld, volume = st.server, st.lld, st.volume
        sched = server.stats
        disk0, lld0, vol0 = disk_totals(st.disks), lld_totals(lld), volume_totals(volume)
        commits0, intents0 = sched.group_commits, sched.intents_committed
        total_ops = self.TENANTS * self.OPS_PER_TENANT
        fail_at, replace_at = total_ops // 4, total_ops // 2
        expected = [dict(zip(st.bids[t], self.initial[t])) for t in range(self.TENANTS)]
        cursors = [0] * self.TENANTS
        inflight: list[list] = [[] for _ in range(self.TENANTS)]
        submitted = 0
        client_bytes = 0
        sim_lat, waits = [], 0.0
        rec.phase_start()
        t_start = server.now()
        active = True
        while active:
            for t in range(self.TENANTS):
                script, sess, mine = self.scripts[t], st.sessions[t], st.bids[t]
                while len(inflight[t]) < self.WINDOW and cursors[t] < len(script):
                    kind, slot, data = script[cursors[t]]
                    cursors[t] += 1
                    t0 = rec.begin()
                    bid = mine[slot]
                    if kind == "read":
                        op = sess.submit_read(bid)
                        want = expected[t][bid]
                    elif kind == "write":
                        op = sess.submit_write(bid, data)
                        expected[t][bid] = want = data
                        client_bytes += len(data)
                    else:
                        op = sess.submit_flush(force=False)
                        want = None
                    inflight[t].append((op, t0, kind, want))
                    submitted += 1
                    if submitted == fail_at:
                        volume.fail_member(self.fail_index)
                    elif submitted == replace_at:
                        replacement = SimulatedDisk(
                            hp_c3010(capacity_mb=self.MEMBER_MB), VirtualClock()
                        )
                        volume.replace_member(self.fail_index, replacement)
                        st.disks.append(replacement)
            server.step()
            active = False
            for t in range(self.TENANTS):
                still = []
                for entry in inflight[t]:
                    op, t0, kind, want = entry
                    if not op.done:
                        still.append(entry)
                        continue
                    rec.end(READ if kind == "read" else WRITE if kind == "write" else OTHER, t0)
                    latency = op.completed_at - op.submitted_at
                    sim_lat.append(latency)
                    waits += latency
                    if op.error is not None:
                        rec.fail(f"t{t} {kind}: {type(op.error).__name__}: {op.error}")
                    elif kind == "read" and op.result != want:
                        rec.fail(f"t{t} read of block {op.bid} returned wrong bytes")
                inflight[t] = still
                if still or cursors[t] < len(self.scripts[t]):
                    active = True
        server.close()
        rec.phase_end()
        elapsed = server.now() - t_start
        if volume.volume_stats.rebuilds_completed != 1 or volume.degraded:
            rec.fail("the replacement member was not rebuilt under the traffic")
        disk1 = disk_totals(st.disks)
        counts = empty_counts()
        add_deltas(counts, disk0, disk1)
        add_deltas(counts, lld0, lld_totals(lld))
        add_deltas(counts, vol0, volume_totals(volume))
        commits = sched.group_commits - commits0
        counts["sched.queue_wait_sim_s"] = waits
        counts["sched.intents_per_commit"] = (
            (sched.intents_committed - intents0) / commits if commits else 0.0
        )
        if counts["lld.cleaner.blocks_cleaned"] <= 0:
            rec.fail("the LLD cleaner relocated no live block")
        sim = {
            "sim_ops_per_s": total_ops / elapsed,
            "sim_op_p99_ms": percentile(sim_lat, 0.99) * 1e3,
            "write_amp": (disk1["disk.sectors_written"] - disk0["disk.sectors_written"])
            * 512 / client_bytes,
        }
        return sim, counts


class CrashParity:
    """Crash states of an LLD oracle run on a 4-member RAID-5.

    Set-up records the crash-matrix oracle workload (lists, overwrites,
    a delete, committed/mid-flushed/aborted ARUs, a bulk fill) on 1 MB
    members. The measured phase enumerates the epoch-aligned crash
    states (seeded subset samples), then each op is one state:
    materialize it and resync parity (the ``write`` class), fail one
    member (rotating over the four from a seeded start) and recover LLD
    degraded, then check the durability oracle
    (the ``read`` class). Any oracle violation fails the run.
    """

    name = "crash_parity"
    mechanism = ("crashsim", "lld.recovery", "volume")
    bypassed = ("fs.minix", "fs.minix.store", "sched", "compress")
    MEMBER_MB = 1
    CHUNK_SECTORS = 128
    CONFIG = dict(
        segment_size=64 * KB,
        summary_capacity=4096,
        block_size=4096,
        checkpoint_slots=1,
        min_free_segments=2,
        torn_write_protection=True,
    )
    WORKLOAD = dict(n_small=8, n_overwrites=3, generations=2, n_fill=8)

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.first_failed = rng.randrange(4)
        self.enum_seed = rng.getrandbits(32)

    def setup(self):
        members = [
            SimulatedDisk(hp_c3010(capacity_mb=self.MEMBER_MB), VirtualClock())
            for _ in range(4)
        ]
        volume = Volume(
            members, VirtualClock(), layout="raid5", chunk_sectors=self.CHUNK_SECTORS
        )
        recording = ParityRecording(volume)
        lld = LLD(volume, LLDConfig(**self.CONFIG))
        lld.initialize()
        driver = OracleDriver(lld, recording)
        run_matrix_workload(driver, **self.WORKLOAD)
        disks = disk_totals(members)
        return SimpleNamespace(
            recording=recording,
            checker=LLDCrashChecker(lld.config, driver.oracle),
            write_amp=disks["disk.sectors_written"] * 512 / lld.stats.logical_bytes_written,
        )

    def run(self, st, rec):
        recording, checker = st.recording, st.checker
        counts = empty_counts()
        sim_lat = []
        rec.phase_start()
        states = crash_volume.enumerate_parity_crash_states(
            recording, subset_samples_per_epoch=6, seed=self.enum_seed
        )
        for i, state in enumerate(states):
            t0 = rec.begin()
            volume = crash_volume.materialize_parity_crash_state(recording, state)
            volume.resync_parity()
            t1 = rec.split(WRITE, t0)
            volume.fail_member((self.first_failed + i) % 4)
            outcome = checker(volume, state)
            rec.split(READ, t1)
            rec.end(None, t0)
            sim_lat.append(outcome.recovery_seconds)
            for violation in outcome.violations:
                rec.fail(f"state {state.state_id} ({state.kind}): {violation.invariant}")
            add_deltas(counts, None, disk_totals(volume.disks))
            add_deltas(counts, None, volume_totals(volume))
        rec.phase_end()
        counts["crashsim.states"] = len(states)
        sim = {
            "sim_ops_per_s": len(states) / sum(sim_lat),
            "sim_op_p99_ms": percentile(sim_lat, 0.99) * 1e3,
            "write_amp": st.write_amp,
        }
        return sim, counts


WORKLOADS = {w.name: w for w in (SmallFile, LargeFileLZRW, Raid5Tenants, CrashParity)}
