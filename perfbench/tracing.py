"""Layer timing for the traced benchmark run.

The benchmark measures its end-to-end metrics with nothing patched.
The traced run instead wraps public entry points of each layer of
``repro`` (the join planner, the PASS-JOIN and FBF indexes, the vectorized
engine, the shared-memory publisher, the execution backends, the stream
source/spill/checkpoint) from the outside, so the program itself is
unchanged.  Each wrapped call is a span; a span's *self* time is its
duration minus the time of spans nested inside it, so a lazy candidate
generator drained inside a backend's ``run`` is charged to candidate
generation, not to verification.

Generator functions are timed per ``next()`` call: the work between two
yields belongs to the generator, the work the consumer does with each
block belongs to the consumer.  Spans are kept per thread (the stream's
prefetch thread reads the source concurrently with the main thread).
"""

from __future__ import annotations

import inspect
import threading
import time
from collections import defaultdict


class LayerTracer:
    """Accumulate per-layer self time over wrapped callables.

    ``patch`` installs a wrapper; wrappers time only while ``enabled``
    is true, so one process can alternate traced and untraced operations
    to measure the tracing overhead.  ``opaque`` layers charge every
    nested wrapped call to themselves (the planner's cost model builds
    sample indexes; that is planning work, not index work).
    """

    def __init__(self) -> None:
        self.enabled = False
        self.self_ns: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str, opaque: bool):
        stack = self._stack()
        if not self.enabled or (stack and stack[-1][1]):
            return None
        frame = [0, opaque]  # nested ns, opaque flag
        stack.append(frame)
        return time.perf_counter_ns(), frame

    def _exit(self, layer: str, token) -> None:
        if token is None:
            return
        t0, frame = token
        dt = time.perf_counter_ns() - t0
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += dt
        with self._lock:
            self.self_ns[layer] += dt - frame[0]

    def _timed_iter(self, it, layer: str, opaque: bool):
        try:
            while True:
                token = self._enter(layer, opaque)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(layer, token)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    # -- patching -------------------------------------------------------------

    def patch(self, owner, attr: str, layer: str, *, opaque: bool = False):
        """Wrap ``owner.attr`` (a class or module attribute) as ``layer``."""
        original = vars(owner)[attr]
        tracer = self
        if inspect.isgeneratorfunction(original):

            def wrapper(*args, **kwargs):
                return tracer._timed_iter(
                    original(*args, **kwargs), layer, opaque
                )

        else:

            def wrapper(*args, **kwargs):
                token = tracer._enter(layer, opaque)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._exit(layer, token)

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every patched attribute back (last patched first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def total_ns(self) -> int:
        with self._lock:
            return sum(self.self_ns.values())


def install_layers(tracer: LayerTracer) -> None:
    """Wrap the public entry points of every layer the workloads reach.

    Layer names are the per-layer metric prefixes (``plan``,
    ``chunked``, ``passjoin``, ``index``, ``verify``, ``shm``,
    ``source``, ``spill``, ``checkpoint``).
    """
    from repro.core import index, passjoin, plan
    from repro.parallel import chunked, shm
    from repro.stream import checkpoint, source, spill

    tracer.patch(plan.JoinPlanner, "plan", "plan", opaque=True)
    tracer.patch(plan.JoinPlanner, "generator_costs", "plan", opaque=True)
    tracer.patch(chunked.VectorEngine, "__init__", "chunked.prepare")
    tracer.patch(passjoin.PassJoinIndex, "__init__", "passjoin.build")
    tracer.patch(passjoin.PassJoinIndex, "candidate_blocks", "passjoin.candidates")
    tracer.patch(index.FBFIndex, "__init__", "index.build")
    # Buckets are packed lazily on first probe after an add; the private
    # packer is the one place that work happens.
    tracer.patch(index.FBFIndex, "_pack", "index.build")
    tracer.patch(index.FBFIndex, "candidate_blocks", "index.candidates")
    tracer.patch(index.FBFIndex, "search", "index.search")
    for backend in (
        plan.ScalarBackend,
        plan.VectorizedBackend,
        plan.NativeBackend,
        plan.HybridBackend,
    ):
        tracer.patch(backend, "run", "verify")
    tracer.patch(chunked.VectorEngine, "run_candidates", "verify")
    tracer.patch(chunked.VectorEngine, "run", "verify")
    tracer.patch(shm.SharedDatasets, "__init__", "shm.publish")
    tracer.patch(shm.SharedSide, "__init__", "shm.publish")
    tracer.patch(source.TextChunkSource, "chunks", "source.read")
    for attr in ("write", "flush", "close"):
        tracer.patch(spill.SpillWriter, attr, "spill.write")
    tracer.patch(checkpoint.Checkpoint, "save", "checkpoint.save")
