"""Per-layer host self time, recorded from outside the program.

:class:`LayerTracer` replaces the public entry points of each layer —
class methods and module-level functions — with thin wrappers that stamp
``perf_counter_ns`` at entry and exit. Nothing inside ``src/`` knows it
is being traced, so the untraced run executes exactly the program's own
code. Spans carry the id of the benchmark op that caused them and stay
in flat ``array`` columns (about 33 bytes a span) until the run ends;
self time is computed once, at the end, as each span's duration minus
the durations of its direct children.

Wrappers also feed *observers*: callbacks that read the program's own
counters off objects the benchmark never holds (the LLD a crash checker
builds internally, say) at the same boundary the span is taken.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter_ns

#: The layers of the stack, top to bottom, plus the crash explorer.
LAYERS = (
    "fs.minix",
    "fs.minix.store",
    "sched",
    "lld",
    "lld.cleaner",
    "lld.recovery",
    "compress",
    "volume",
    "disk",
    "crashsim",
)


def layer_entry_points():
    """``(layer, owner, attribute names)`` for every wrapped entry point.

    ``owner`` is a class (wrapping covers every instance, including ones
    the program builds internally) or a module (wrapping replaces the
    name callers look up at call time).
    """
    import repro.compress.model as compress_model
    import repro.crashsim.volume as crash_volume
    import repro.lld.lld as lld_module
    from repro.crashsim import LLDCrashChecker
    from repro.disk import SimulatedDisk
    from repro.fs.minix.fs import MinixFS
    from repro.fs.minix.ld_store import LDStore
    from repro.lld import LLD
    from repro.lld.cleaner import Cleaner
    from repro.sched import LDServer
    from repro.sched.session import TenantSession
    from repro.volume import Volume

    return (
        ("fs.minix", MinixFS, ("open", "read", "write", "unlink", "sync")),
        ("fs.minix.store", LDStore, ("read_zone", "write_zone", "sync")),
        ("sched", LDServer, ("step",)),
        (
            "sched",
            TenantSession,
            (
                "submit_read",
                "submit_read_blocks",
                "submit_write",
                "submit_flush",
                "submit_call",
            ),
        ),
        (
            "lld",
            LLD,
            ("read", "read_blocks", "write", "flush", "new_block", "initialize"),
        ),
        ("lld.cleaner", Cleaner, ("ensure_free", "clean_segments")),
        # LLD imports these by name, so the wrapper goes where LLD looks.
        ("lld.recovery", lld_module, ("run_recovery",)),
        ("compress", lld_module, ("raw_compress", "raw_decompress")),
        # With model_compression_cost on (the default), LLD compresses
        # through CompressionModel, which imported the codec by name too.
        ("compress", compress_model, ("compress", "decompress")),
        (
            "volume",
            Volume,
            ("read", "read_batch", "write", "barrier", "rebuild_step", "resync_parity"),
        ),
        ("disk", SimulatedDisk, ("read", "read_batch", "write", "install", "peek")),
        (
            "crashsim",
            crash_volume,
            ("enumerate_parity_crash_states", "materialize_parity_crash_state"),
        ),
        ("crashsim", LLDCrashChecker, ("__call__",)),
    )


class LayerTracer:
    """Span recorder over wrapped layer entry points.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original. Spans are only recorded while ``active`` is
    true, so set-up between measured phases runs unrecorded (through a
    wrapper that costs one attribute test).
    """

    def __init__(self) -> None:
        self.active = False
        #: Id of the benchmark op in progress; spans are stamped with it.
        self.op_id = -1
        self.layer = array("b")
        self.op = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._observers: dict[tuple[str, str], list] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def observe(self, layer: str, name: str, callback) -> None:
        """Call ``callback(args, result)`` after every recorded
        ``layer``/``name`` call (registered before entering)."""
        self._observers.setdefault((layer, name), []).append(callback)

    def __enter__(self) -> "LayerTracer":
        for layer, owner, names in layer_entry_points():
            for name in names:
                self._wrap(layer, owner, name)
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap(self, layer: str, owner, name: str) -> None:
        original = vars(owner)[name]
        layer_id = LAYERS.index(layer)
        observers = tuple(self._observers.get((layer, name), ()))
        tracer = self
        stack = self._stack
        col_layer, col_op, col_parent = self.layer, self.op, self.parent
        col_start, col_end = self.start, self.end

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = len(col_start)
            col_layer.append(layer_id)
            col_op.append(tracer.op_id)
            col_parent.append(stack[-1] if stack else -1)
            col_end.append(0)
            stack.append(index)
            col_start.append(perf_counter_ns())
            try:
                result = original(*args, **kwargs)
            finally:
                col_end[index] = perf_counter_ns()
                stack.pop()
            for callback in observers:
                callback(args, result)
            return result

        self._restore.append((owner, name, original))
        setattr(owner, name, traced)

    # -- analysis ----------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.start)

    def layer_totals(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per layer: ``calls`` and ``self_s`` over spans ``first`` onwards.

        A span's self time is its duration minus the durations of its
        direct children; spans nest properly because the benchmark is
        single-threaded.
        """
        n = len(self.start)
        start, end, parent, layer = self.start, self.end, self.parent, self.layer
        child_ns = [0] * n
        for i in range(first, n):
            p = parent[i]
            if p >= 0:
                child_ns[p] += end[i] - start[i]
        calls = [0] * len(LAYERS)
        self_ns = [0] * len(LAYERS)
        for i in range(first, n):
            lid = layer[i]
            calls[lid] += 1
            self_ns[lid] += end[i] - start[i] - child_ns[i]
        return {
            name: {"calls": calls[k], "self_s": self_ns[k] / 1e9}
            for k, name in enumerate(LAYERS)
        }
