"""Stream sharding and map-reduce accumulation — the parallel ingest path.

The sample axis of every statistic TCCA accumulates is purely additive,
and the streaming accumulators (:mod:`repro.streaming.covariance`,
:class:`repro.core.engine.MomentState`) all expose an **exact**
``merge()``. That makes moment accumulation an embarrassingly parallel
map-reduce: split the chunk sequence of a
:class:`~repro.streaming.views.ViewStream` into shards
(:func:`shard_stream`), accumulate each shard independently on a worker,
and reduce with ``merge()`` (:func:`accumulate_parallel`). Because the
merge is exact in exact arithmetic, the reduced state matches the
single-pass state to floating-point round-off *regardless of shard count
or order* — parallelism never changes what is computed, only when.

Shards are contiguous blocks of whole chunks, so the union of the
shards' chunk sequences is exactly the parent's chunk sequence.
:class:`~repro.streaming.views.ArrayViewStream` shards slice the
underlying arrays directly — under a process executor each worker is
shipped only its own slice. Other stream types are wrapped in a
:class:`StreamShard`, which produces only its own chunks when the
parent supports random chunk access (``chunk_at``, e.g.
:class:`~repro.streaming.views.GeneratorViewStream`) and otherwise
replays the parent pass and keeps its block (such shards re-generate
the chunks *before* their block; cost, not correctness).
"""

from __future__ import annotations

import pickle
from functools import partial

from repro.exceptions import ValidationError
from repro.parallel.executors import ExecutionPolicy, SerialExecutor
from repro.streaming.views import (
    ArrayViewStream,
    ViewStream,
    _chunk_bounds,
    as_view_stream,
    iter_validated_chunks,
)
from repro.utils.validation import check_positive_int

__all__ = [
    "StreamShard",
    "accumulate_parallel",
    "parallel_chunk_size",
    "shard_stream",
]


def parallel_chunk_size(
    n_samples: int,
    n_workers: int,
    *,
    chunks_per_worker: int = 4,
    min_chunk: int = 64,
) -> int:
    """A chunk size giving each worker a few chunks of meaningful width.

    Small enough that ``n_workers`` contiguous shards all get work (with
    ``chunks_per_worker`` chunks each for load balance), large enough
    (``min_chunk``) that per-chunk BLAS calls stay efficient.
    """
    n_samples = check_positive_int(n_samples, "n_samples")
    n_workers = check_positive_int(n_workers, "n_workers")
    target = -(-n_samples // (n_workers * max(1, int(chunks_per_worker))))
    return max(min(min_chunk, n_samples), target)


class StreamShard(ViewStream):
    """One contiguous block of whole chunks of a parent stream.

    Yields the parent's chunk indices in ``[chunk_lo, chunk_hi)``. When
    the parent supports random chunk access (a ``chunk_at(index, start,
    stop)`` method, e.g. :class:`~repro.streaming.views.
    GeneratorViewStream`) and the block's sample bounds are known, only
    the shard's own chunks are ever produced; otherwise the parent pass
    is replayed and chunks before the block are skipped (stopping as
    soon as the block is done). The shard advertises the exact sample
    count of its block, so :func:`~repro.streaming.views.
    iter_validated_chunks` validates it like any stream; an empty block
    (``chunk_lo >= chunk_hi``) is a legal shard that yields nothing.
    """

    def __init__(self, parent: ViewStream, chunk_lo: int, chunk_hi: int,
                 n_samples: int, bounds=None):
        self._dims = tuple(parent.dims)
        # An empty block needs no parent — and must not hold one: a
        # process worker would otherwise deserialize the whole parent
        # dataset just to yield nothing.
        self._parent = parent if chunk_lo < chunk_hi else None
        self._chunk_lo = int(chunk_lo)
        self._chunk_hi = int(chunk_hi)
        self._n_samples = int(n_samples)
        #: per-chunk (start, stop) sample bounds of the block, parallel
        #: to range(chunk_lo, chunk_hi); enables the chunk_at fast path.
        self._bounds = None if bounds is None else list(bounds)

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def n_samples(self) -> int:
        return self._n_samples

    def chunks(self):
        if self._parent is None:
            return
        chunk_at = getattr(self._parent, "chunk_at", None)
        if chunk_at is not None and self._bounds is not None:
            for index, (start, stop) in zip(
                range(self._chunk_lo, self._chunk_hi), self._bounds
            ):
                yield chunk_at(index, start, stop)
            return
        for index, chunk in enumerate(self._parent.chunks()):
            if index >= self._chunk_hi:
                break
            if index >= self._chunk_lo:
                yield chunk


def shard_stream(stream, n_shards: int) -> list[ViewStream]:
    """Split a stream into ``n_shards`` contiguous whole-chunk blocks.

    The shards partition the parent's chunk sequence: concatenating their
    passes in shard order replays the parent pass exactly. Chunks are
    dealt out as evenly as possible; when the stream has fewer chunks
    than shards the trailing shards are empty (zero samples) — harmless
    to accumulate and merge.

    The stream must expose its chunk geometry (a ``chunk_size``
    attribute, as both library stream types do) so shard sample counts
    are known without a data pass.
    """
    stream = as_view_stream(stream)
    n_shards = check_positive_int(n_shards, "n_shards")
    if n_shards == 1:
        return [stream]
    chunk_size = getattr(stream, "chunk_size", None)
    if chunk_size is None:
        raise ValidationError(
            f"cannot shard a {type(stream).__name__} without a "
            "chunk_size attribute: shard sample counts need the chunk "
            "geometry up front"
        )
    bounds = list(_chunk_bounds(stream.n_samples, int(chunk_size)))
    base, extra = divmod(len(bounds), n_shards)
    shards: list[ViewStream] = []
    chunk_lo = 0
    array_views = (
        stream._views if isinstance(stream, ArrayViewStream) else None
    )
    for index in range(n_shards):
        chunk_hi = chunk_lo + base + (1 if index < extra else 0)
        if chunk_lo >= chunk_hi:
            shards.append(StreamShard(stream, chunk_lo, chunk_hi, 0))
            continue
        start, stop = bounds[chunk_lo][0], bounds[chunk_hi - 1][1]
        if array_views is not None:
            # Slice the arrays directly: a process worker is then shipped
            # only its shard's samples, not the whole dataset.
            shards.append(
                ArrayViewStream(
                    [view[:, start:stop] for view in array_views],
                    chunk_size=int(chunk_size),
                )
            )
        else:
            shards.append(
                StreamShard(
                    stream,
                    chunk_lo,
                    chunk_hi,
                    stop - start,
                    bounds=bounds[chunk_lo:chunk_hi],
                )
            )
        chunk_lo = chunk_hi
    return shards


def _accumulate_shard(factory, shard):
    """Worker body: fresh accumulator, fold the shard's chunks in."""
    state = factory()
    for chunks in iter_validated_chunks(shard):
        state.update(chunks)
    return state


def accumulate_parallel(
    stream,
    factory,
    policy: ExecutionPolicy | None = None,
    *,
    n_shards: int | None = None,
):
    """Map-reduce accumulation: per-shard states reduced with ``merge()``.

    Parameters
    ----------
    stream:
        The chunked source (anything
        :func:`~repro.streaming.views.as_view_stream` accepts).
    factory:
        Zero-argument callable returning a fresh accumulator — anything
        with ``update(chunks)`` and ``merge(other)``
        (:class:`~repro.streaming.covariance.StreamingCovarianceTensor`,
        :class:`~repro.core.engine.MomentState`, …). Must be picklable
        for a process policy (``functools.partial`` of the class is).
    policy:
        The :class:`~repro.parallel.executors.ExecutionPolicy` to map
        shards across (default serial).
    n_shards:
        Shard count; defaults to the policy's worker count. The result
        is independent of this choice up to floating-point round-off.

    Returns the reduce of all shard states, merged **in shard order** —
    deterministic for a given shard count whichever executor ran the map.
    """
    stream = as_view_stream(stream)
    if policy is None:
        policy = SerialExecutor()
    if n_shards is None:
        n_shards = policy.n_workers
    if n_shards <= 1:
        return _accumulate_shard(factory, stream)
    try:
        shards = shard_stream(stream, n_shards)
    except ValidationError:
        # Streams without an up-front chunk geometry cannot be sharded;
        # accumulate sequentially — parallelism is an optimization, not
        # part of the result contract.
        return _accumulate_shard(factory, stream)
    worker = partial(_accumulate_shard, factory)
    try:
        states = policy.map(worker, shards)
    except (pickle.PicklingError, AttributeError, TypeError):
        fallback = policy.for_shared_memory()
        if fallback is policy:
            raise
        # The shards (or factory) cannot cross a process
        # boundary — e.g. a GeneratorViewStream whose chunk factory is
        # a closure, as the library's stream_*_like datasets build
        # them. Threads share memory and never pickle; same result.
        states = fallback.map(worker, shards)
    merged = states[0]
    for state in states[1:]:
        merged = merged.merge(state)
    return merged
