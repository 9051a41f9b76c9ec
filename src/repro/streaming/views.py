"""Chunked multi-view data streams — the out-of-core data protocol.

A :class:`ViewStream` yields aligned minibatches
``(X_1[:, s:t], …, X_m[:, s:t])`` so that estimators can consume a
multi-view dataset without it ever being fully resident. Streams are
*re-iterable*: :meth:`ViewStream.chunks` can be called repeatedly and
yields the same chunk sequence each time, which lets multi-pass algorithms
(e.g. the stream-backed implicit solver of
:func:`repro.core.tcca.whitened_covariance_operator_streaming`, which
re-reads the stream on every sweep) run on data that only exists chunk by
chunk.

Two concrete sources cover the common cases:

* :class:`ArrayViewStream` — slices already-materialized view matrices
  (adapts any :class:`~repro.datasets.synthetic.MultiviewDataset`);
* :class:`GeneratorViewStream` — calls a chunk factory on demand, so each
  minibatch is *generated* when requested and released afterwards; the
  ``stream_*_like`` dataset factories build on it.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_positive_int, check_views

__all__ = [
    "ArrayViewStream",
    "GeneratorViewStream",
    "ViewStream",
    "as_view_stream",
    "iter_validated_chunks",
]

DEFAULT_CHUNK_SIZE = 256


def _check_chunk_size(chunk_size) -> int:
    # check_positive_int rejects non-integers (floats, bools, strings)
    # with a clear message, so a bad chunk_size fails at the API
    # boundary instead of deep in a slicing loop.
    return check_positive_int(chunk_size, "chunk_size")


class ViewStream:
    """Base class of chunked multi-view sources.

    Subclasses implement :meth:`chunks` and expose ``dims`` (per-view
    feature dimensions), ``n_views``, and ``n_samples``. Iterating the
    stream object itself is equivalent to iterating :meth:`chunks`.
    Subclasses whose yielded *data* is independent of the chunk geometry
    may set ``rechunkable = True`` to let :func:`as_view_stream` honor a
    ``chunk_size`` request with a re-chunked copy.
    """

    #: whether the same samples are yielded regardless of chunk size
    rechunkable = False

    @property
    def dims(self) -> tuple[int, ...]:
        """Per-view feature dimensions ``(d_1, …, d_m)``."""
        raise NotImplementedError

    @property
    def n_samples(self) -> int:
        """Total number of samples the stream yields per pass."""
        raise NotImplementedError

    @property
    def n_views(self) -> int:
        """Number of views."""
        return len(self.dims)

    def chunks(self):
        """Yield aligned tuples of ``(d_p, n_chunk)`` arrays."""
        raise NotImplementedError

    def __iter__(self):
        return self.chunks()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n_views={self.n_views}, "
            f"dims={tuple(self.dims)}, n_samples={self.n_samples})"
        )


def _chunk_bounds(n_samples: int, chunk_size: int):
    for start in range(0, n_samples, chunk_size):
        yield start, min(start + chunk_size, n_samples)


class ArrayViewStream(ViewStream):
    """Stream over already-materialized view matrices.

    Parameters
    ----------
    views:
        Sequence of ``(d_p, N)`` arrays sharing the sample axis.
    chunk_size:
        Samples per minibatch (the last chunk may be smaller).

    Notes
    -----
    The data stays resident (it already was); the point of this adapter is
    to exercise streaming consumers — equivalence tests, benchmarks, and
    the ``--stream`` complexity path — against in-memory datasets.
    """

    rechunkable = True

    def __init__(
        self,
        views,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        *,
        require_finite: bool = True,
    ):
        self._views = check_views(
            views, min_views=2, require_finite=require_finite
        )
        self.chunk_size = _check_chunk_size(chunk_size)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(view.shape[0] for view in self._views)

    @property
    def n_samples(self) -> int:
        return int(self._views[0].shape[1])

    def chunks(self):
        for start, stop in _chunk_bounds(self.n_samples, self.chunk_size):
            yield tuple(view[:, start:stop] for view in self._views)


class GeneratorViewStream(ViewStream):
    """Stream whose chunks are produced on demand by a factory callable.

    Parameters
    ----------
    chunk_factory:
        ``chunk_factory(chunk_index, start, stop)`` returning the tuple of
        per-view arrays for samples ``[start, stop)``. It must be
        deterministic in its arguments so the stream is re-iterable —
        dataset factories achieve this by seeding a fresh generator per
        chunk from a :class:`numpy.random.SeedSequence`.
    n_samples:
        Total samples per pass.
    dims:
        Per-view feature dimensions (validated against every chunk).
    chunk_size:
        Samples per minibatch.
    name:
        Optional label for diagnostics.
    """

    def __init__(
        self,
        chunk_factory,
        n_samples: int,
        dims,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        name: str = "generated",
    ):
        if not callable(chunk_factory):
            raise ValidationError("chunk_factory must be callable")
        self._factory = chunk_factory
        self._n_samples = int(n_samples)
        if self._n_samples < 1:
            raise ValidationError(
                f"n_samples must be >= 1, got {n_samples}"
            )
        self._dims = tuple(int(d) for d in dims)
        if len(self._dims) < 2:
            raise ValidationError(
                f"need at least 2 views, got dims={self._dims}"
            )
        self.chunk_size = _check_chunk_size(chunk_size)
        self.name = name

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def n_samples(self) -> int:
        return self._n_samples

    def chunk_at(self, index: int, start: int, stop: int):
        """Produce (and validate) the single chunk for ``[start, stop)``.

        Chunks are generated independently per index, so random access
        is as cheap as sequential — which lets a
        :class:`~repro.parallel.sharding.StreamShard` produce only its
        own block instead of replaying the whole pass.
        """
        chunk = tuple(
            np.asarray(block, dtype=np.float64)
            for block in self._factory(index, start, stop)
        )
        if len(chunk) != len(self._dims):
            raise ValidationError(
                f"chunk factory returned {len(chunk)} views, "
                f"expected {len(self._dims)}"
            )
        for block, dim in zip(chunk, self._dims):
            if block.shape != (dim, stop - start):
                raise ValidationError(
                    f"chunk {index} has view shapes "
                    f"{[b.shape for b in chunk]}, expected dims "
                    f"{self._dims} with {stop - start} samples"
                )
        return chunk

    def chunks(self):
        for index, (start, stop) in enumerate(
            _chunk_bounds(self._n_samples, self.chunk_size)
        ):
            yield self.chunk_at(index, start, stop)


def iter_validated_chunks(stream: ViewStream):
    """Yield each chunk tuple of ``stream`` as a list, validated.

    Enforces the stream protocol every multi-pass consumer needs: each
    chunk tuple has one entry per advertised view, the per-view chunks
    share a sample count, and — checked when the generator is exhausted —
    the pass yielded exactly the advertised ``n_samples`` (the contract a
    non-re-iterable source breaks on its second pass).
    """
    n_views = stream.n_views
    total = 0
    for chunks in stream.chunks():
        chunks = list(chunks)
        if len(chunks) != n_views:
            raise ValidationError(
                f"stream yielded {len(chunks)} view chunks, advertised "
                f"{n_views} views"
            )
        widths = {np.shape(chunk)[-1] for chunk in chunks}
        if len(widths) != 1:
            raise ValidationError(
                f"view chunks must share the sample count; got {sorted(widths)}"
            )
        total += widths.pop()
        yield chunks
    if total != stream.n_samples:
        raise ValidationError(
            f"stream yielded {total} samples on this pass but advertised "
            f"{stream.n_samples}; streams must be re-iterable"
        )


def as_view_stream(
    source,
    chunk_size: int | None = None,
    *,
    require_finite: bool = True,
) -> ViewStream:
    """Coerce ``source`` into a :class:`ViewStream`.

    Accepts an existing stream, a
    :class:`~repro.datasets.synthetic.MultiviewDataset`, or a sequence of
    ``(d_p, N)`` view matrices. A requested ``chunk_size`` never mutates
    the caller's stream: ``rechunkable`` streams are shallow-copied with
    the new size, and streams whose data identity depends on the chunk
    geometry (e.g. :class:`GeneratorViewStream`, which seeds each chunk
    by its index and bounds) raise instead of silently yielding a
    different dataset. ``require_finite=False`` defers NaN/Inf handling
    to a downstream accumulator's ``nan_policy`` screening (only applies
    when ``source`` is a plain batch that gets wrapped here).
    """
    if isinstance(source, ViewStream):
        if chunk_size is None:
            return source
        chunk_size = _check_chunk_size(chunk_size)
        if getattr(source, "chunk_size", None) == chunk_size:
            return source
        if not source.rechunkable:
            raise ValidationError(
                f"cannot re-chunk a {type(source).__name__}: its samples "
                "are generated per chunk, so a different chunk size would "
                "yield different data; construct the stream with the "
                "desired chunk size instead"
            )
        rechunked = copy.copy(source)
        rechunked.chunk_size = chunk_size
        return rechunked
    views = getattr(source, "views", source)
    if chunk_size is None:
        chunk_size = DEFAULT_CHUNK_SIZE
    return ArrayViewStream(
        views, chunk_size=chunk_size, require_finite=require_finite
    )
