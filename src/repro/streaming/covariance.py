"""One-pass accumulators for means, covariances, and covariance tensors.

The batch path materializes every view ``X_p ∈ R^{d_p × N}`` before forming
the order-``m`` covariance tensor ``C_{12…m}`` — the object whose ``∏ d_p``
size the paper's complexity study (Figs. 7-10) revolves around. Its *sample*
axis, however, is purely additive: every statistic TCCA needs is a sum over
samples. The accumulators here exploit that to consume ``(d_p, n_chunk)``
minibatches and maintain

* exact running means ``μ_p``,
* per-view covariances ``C_pp``,
* the covariance tensor ``C_{12…m}``,

in memory independent of ``N`` — only ``∏ d_p`` plus the chunk itself.

Numerical stability — shifted sufficient statistics
---------------------------------------------------
Raw moments ``Σ x ∘ … ∘ x`` lose precision catastrophically when the mean
is large relative to the spread (the classic one-pass-variance failure).
Each accumulator therefore records a *shift* ``b_p`` (by default the column
mean of the first chunk, i.e. already within ``O(σ/√n_chunk)`` of the true
mean) and accumulates moments of ``y = x − b``. Centered statistics are
recovered exactly at finalization through the multilinear expansion

``(1/N) Σ_n ⊗_p (y_pn − δ_p)
  = Σ_{T ⊆ [m]} (−1)^{m−|T|} M̄_T ⊗ (⊗_{p∉T} δ_p)``

where ``δ_p = mean(y_p) = μ_p − b_p`` is *small* and
``M̄_T = (1/N) Σ_n ⊗_{p∈T} y_pn`` are the shifted subset moments — so the
correction terms are tiny relative to the leading moment and no
catastrophic cancellation occurs.

A single Khatri-Rao chunk routine (:func:`accumulate_outer_sum`) performs
every outer-product accumulation — the batch
:func:`repro.linalg.covariance.covariance_tensor` delegates to it through
:class:`StreamingCovarianceTensor`, so there is exactly one implementation
of the hot loop.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import ensure_2d

__all__ = [
    "StreamingCovariance",
    "StreamingCovarianceTensor",
    "accumulate_outer_sum",
    "check_nan_policy",
    "screen_chunks",
]

#: Khatri-Rao buffer budget, denominated in float64 elements: ~2^23
#: (≈64 MB) regardless of chunk size. :func:`accumulate_outer_sum`
#: converts it to bytes, so narrower dtypes fit proportionally more rows
#: in the same memory footprint.
DEFAULT_BUFFER_FLOATS = 2**23

_NAN_POLICIES = ("raise", "skip")


def check_nan_policy(nan_policy: str) -> str:
    """Validate a ``nan_policy`` value (``"raise"`` or ``"skip"``)."""
    if nan_policy not in _NAN_POLICIES:
        raise ValidationError(
            f"unknown nan_policy {nan_policy!r}; expected one of "
            f"{_NAN_POLICIES}"
        )
    return nan_policy


def screen_chunks(
    chunks, *, nan_policy: str = "raise", chunk_index: int | None = None
):
    """Validate or drop non-finite samples across aligned view chunks.

    Moment accumulation silently poisoned by a single NaN is the worst
    failure mode of a long streaming fit — every statistic downstream
    turns NaN with no pointer back to the offending input. This is the
    one screening routine every ingest path shares:

    * ``nan_policy="raise"`` (default) — a typed
      :class:`~repro.exceptions.ValidationError` naming the offending
      view and chunk index.
    * ``nan_policy="skip"`` — samples (columns) carrying a NaN/Inf in
      *any* view are dropped from *every* view, keeping the views
      aligned; returns how many were dropped.

    Returns ``(clean_chunks, n_skipped)``.
    """
    check_nan_policy(nan_policy)
    mask = None
    offending = None
    for index, chunk in enumerate(chunks):
        finite = np.isfinite(chunk).all(axis=0)
        if offending is None and not finite.all():
            offending = index
        mask = finite if mask is None else (mask & finite)
    if offending is None:
        return list(chunks), 0
    where = "" if chunk_index is None else f" in chunk {chunk_index}"
    if nan_policy == "raise":
        raise ValidationError(
            f"views[{offending}] contains NaN or infinite values"
            f"{where}; clean the data or pass nan_policy='skip' to drop "
            "the affected samples"
        )
    n_skipped = int(np.count_nonzero(~mask))
    return [chunk[:, mask] for chunk in chunks], n_skipped


def accumulate_outer_sum(
    unfold0: np.ndarray,
    chunks,
    *,
    buffer_floats: int = DEFAULT_BUFFER_FLOATS,
) -> np.ndarray:
    """Add ``Σ_n x_1n ∘ x_2n ∘ … ∘ x_kn`` to a mode-0 unfolding in place.

    ``unfold0`` has shape ``(d_1, ∏_{p>1} d_p)`` with columns enumerating
    the trailing modes in the forward-cyclic order of
    :mod:`repro.tensor.dense` (``i_2`` varying fastest). The sum of outer
    products over the chunk's samples is ``X_1 @ K^T`` with ``K`` the
    sample-wise Khatri-Rao product of the remaining chunks (reverse order);
    ``K`` is built in sample slices so its buffer stays near
    ``buffer_floats`` *float64-equivalent* elements while all heavy
    lifting runs through BLAS. The budget is a byte budget: float32
    chunks pack twice the samples per slice into the same memory, so the
    mixed-precision path halves neither throughput nor footprint by
    accident. For float64 chunks the slicing is bit-for-bit identical to
    the element-count formula.

    This is the library's *only* Khatri-Rao accumulation — both the batch
    covariance tensor and the streaming accumulators route through it.
    """
    chunks = list(chunks)
    if len(chunks) < 2:
        raise ValidationError(
            f"need at least 2 factors for an outer-product sum, "
            f"got {len(chunks)}"
        )
    n_samples = chunks[0].shape[1]
    trailing = unfold0.shape[1]
    itemsize = max(chunk.dtype.itemsize for chunk in chunks[1:])
    budget_bytes = int(buffer_floats) * np.dtype(np.float64).itemsize
    step = max(1, budget_bytes // max(trailing * itemsize, 1))
    for start in range(0, n_samples, step):
        stop = min(start + step, n_samples)
        # Rows of `joined` enumerate (i_k, …, i_2) with i_2 varying fastest,
        # matching the forward-cyclic mode-0 unfolding columns.
        joined = chunks[-1][:, start:stop]
        for factor in chunks[-2:0:-1]:
            block = factor[:, start:stop]
            joined = np.einsum(
                "in,jn->ijn", joined, block
            ).reshape(-1, stop - start)
        unfold0 += chunks[0][:, start:stop] @ joined.T
    return unfold0


def _as_shift(shift, dim: int) -> np.ndarray:
    """Coerce a user-supplied shift into a ``(dim,)`` float vector."""
    shift = np.asarray(shift, dtype=np.float64)
    if shift.ndim == 0:
        shift = np.full(dim, float(shift))
    shift = shift.reshape(-1)
    if shift.shape[0] != dim:
        raise ValidationError(
            f"shift must have length {dim}, got {shift.shape[0]}"
        )
    if not np.all(np.isfinite(shift)):
        raise ValidationError("shift contains NaN or infinite entries")
    return shift


def _apply_shift(chunk: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``chunk − shift`` without copying when the shift is exactly zero."""
    if not np.any(shift):
        return chunk
    return chunk - shift[:, None]


class StreamingCovariance:
    """Running mean and covariance of one view from ``(d, n_chunk)`` chunks.

    Parameters
    ----------
    dim:
        Feature dimension; inferred from the first chunk when omitted.
    shift:
        Stabilizing shift ``b`` (scalar or ``(d,)`` vector). Default
        ``None`` uses the column mean of the first chunk. Pass ``0`` to
        accumulate raw moments (exactly reproducing the batch
        ``X @ X.T / N`` arithmetic on pre-centered data).
    second_moment:
        ``False`` skips the ``O(d² n)`` outer-product accumulation,
        tracking only the mean statistics; :meth:`covariance` then
        raises. Used by consumers that only need exact means (e.g. the
        covariance-tensor accumulator in raw mode).
    nan_policy:
        ``"raise"`` (default) rejects chunks carrying NaN/Inf with a
        typed :class:`~repro.exceptions.ValidationError` naming the
        chunk index; ``"skip"`` drops the affected samples and counts
        them in :attr:`n_skipped`.
    dtype:
        Accumulation dtype of the moment buffers (``None`` → float64,
        the default under every built-in precision policy — moment sums
        are where cancellation lives). Chunks are cast on ingest, so a
        float64 accumulator fed float32 chunks still sums in float64.
        Shards can only :meth:`merge` when their dtypes match.

    Notes
    -----
    State is ``O(d²)`` — independent of the number of samples consumed.
    Accumulators over disjoint sample shards combine exactly with
    :meth:`merge`, so per-view statistics parallelize map-reduce style.
    """

    def __init__(
        self,
        dim: int | None = None,
        *,
        shift=None,
        second_moment: bool = True,
        nan_policy: str = "raise",
        dtype=None,
    ):
        self._dtype = np.dtype(np.float64 if dtype is None else dtype)
        self._dim = None if dim is None else int(dim)
        self._requested_shift = shift
        self._shift: np.ndarray | None = None
        self._n = 0
        self._sum: np.ndarray | None = None
        self._outer: np.ndarray | None = None
        self._second_moment = bool(second_moment)
        self.nan_policy = check_nan_policy(nan_policy)
        self._n_skipped = 0
        self._chunk_index = 0
        if self._dim is not None and shift is not None:
            self._allocate(self._dim)

    def _allocate(self, dim: int) -> None:
        self._dim = dim
        self._sum = np.zeros(dim, dtype=self._dtype)
        if self._second_moment:
            self._outer = np.zeros((dim, dim), dtype=self._dtype)
        if self._requested_shift is not None:
            self._shift = _as_shift(self._requested_shift, dim).astype(
                self._dtype, copy=False
            )

    def update(self, chunk) -> "StreamingCovariance":
        """Consume one ``(d, n_chunk)`` minibatch of samples (columns)."""
        chunk = ensure_2d(
            chunk, name="chunk", require_finite=False, dtype=self._dtype
        )
        (chunk,), skipped = screen_chunks(
            [chunk],
            nan_policy=self.nan_policy,
            chunk_index=self._chunk_index,
        )
        self._chunk_index += 1
        self._n_skipped += skipped
        if chunk.shape[1] == 0:
            # Every sample was skipped: nothing to ingest (and a shift
            # must never be taken from an empty chunk's mean).
            return self
        self._ingest(chunk)
        return self

    def _ingest(self, chunk: np.ndarray) -> np.ndarray:
        """Accumulate a validated chunk; return the shifted samples.

        Shared with :class:`StreamingCovarianceTensor`, which reuses the
        shifted chunk for its Khatri-Rao accumulation instead of
        subtracting the shift a second time.
        """
        if self._dim is None:
            self._allocate(chunk.shape[0])
        elif self._sum is None:
            self._allocate(self._dim)
        if chunk.shape[0] != self._dim:
            raise ValidationError(
                f"chunk has dimension {chunk.shape[0]}, accumulator expects "
                f"{self._dim}"
            )
        if self._shift is None:
            self._shift = chunk.mean(axis=1)
        shifted = _apply_shift(chunk, self._shift)
        self._sum += shifted.sum(axis=1)
        if self._second_moment:
            self._outer += shifted @ shifted.T
        self._n += chunk.shape[1]
        return shifted

    def state_dict(self) -> dict:
        """Serializable snapshot of the accumulator state.

        Returns a flat dict of plain scalars and ``numpy`` arrays —
        everything :meth:`from_state_dict` needs to resume accumulation
        exactly where this instance stopped (same shift, same moments).
        """
        requested = self._requested_shift
        if requested is not None and self._shift is None:
            # Not yet allocated: keep the pending shift so a resumed
            # accumulator applies it to its first chunk as this one would.
            requested = np.asarray(requested, dtype=np.float64)
        else:
            requested = None
        return {
            "n": int(self._n),
            "dim": self._dim,
            "second_moment": self._second_moment,
            "nan_policy": self.nan_policy,
            "dtype": self._dtype.name,
            "n_skipped": int(self._n_skipped),
            "chunk_index": int(self._chunk_index),
            "requested_shift": requested,
            "shift": None if self._shift is None else self._shift.copy(),
            "sum": None if self._sum is None else self._sum.copy(),
            "outer": None if self._outer is None else self._outer.copy(),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "StreamingCovariance":
        """Rebuild an accumulator from :meth:`state_dict` output."""
        # .get defaults keep states written before nan_policy existed
        # loadable (they never skipped anything).
        accumulator = cls(
            dim=state["dim"],
            shift=state.get("requested_shift"),
            second_moment=bool(state["second_moment"]),
            nan_policy=state.get("nan_policy", "raise"),
            dtype=state.get("dtype"),
        )
        accumulator._n_skipped = int(state.get("n_skipped", 0))
        accumulator._chunk_index = int(state.get("chunk_index", 0))
        for attr, key in (
            ("_shift", "shift"), ("_sum", "sum"), ("_outer", "outer")
        ):
            value = state.get(key)
            if value is not None:
                setattr(
                    accumulator,
                    attr,
                    np.array(value, dtype=accumulator._dtype),
                )
        accumulator._n = int(state["n"])
        return accumulator

    def merge(self, other: "StreamingCovariance") -> "StreamingCovariance":
        """Fold another accumulator's samples into this one, exactly.

        The other accumulator may use a different shift: its statistics are
        re-expressed around this accumulator's shift in closed form before
        adding, so ``a.merge(b)`` equals one accumulator fed both shards.
        """
        if not isinstance(other, StreamingCovariance):
            raise ValidationError(
                f"can only merge StreamingCovariance, got "
                f"{type(other).__name__}"
            )
        if other._dtype != self._dtype:
            raise ValidationError(
                f"cannot merge a {other._dtype.name} accumulator into a "
                f"{self._dtype.name} one; shards must be accumulated "
                "under the same dtype (re-run the divergent shard with a "
                "matching precision policy)"
            )
        self._n_skipped += other._n_skipped
        if other._n == 0:
            return self
        if self._dim is not None and other._dim != self._dim:
            raise ValidationError(
                f"cannot merge dimension {other._dim} into {self._dim}"
            )
        if self._second_moment != other._second_moment:
            raise ValidationError(
                "cannot merge accumulators with different second_moment "
                "settings"
            )
        if self._n == 0:
            self._dim = other._dim
            self._shift = other._shift.copy()
            self._sum = other._sum.copy()
            self._outer = (
                None if other._outer is None else other._outer.copy()
            )
            self._n = other._n
            return self
        # Re-shift: y' = x - b_self = y_other + d with d = b_other - b_self.
        d = other._shift - self._shift
        self._sum += other._sum + other._n * d
        if self._second_moment:
            self._outer += (
                other._outer
                + np.outer(other._sum, d)
                + np.outer(d, other._sum)
                + other._n * np.outer(d, d)
            )
        self._n += other._n
        return self

    @property
    def dim(self) -> int | None:
        """Feature dimension (``None`` until the first chunk)."""
        return self._dim

    @property
    def dtype(self) -> np.dtype:
        """Accumulation dtype of the moment buffers."""
        return self._dtype

    @property
    def n_samples(self) -> int:
        """Number of samples consumed so far."""
        return self._n

    @property
    def n_skipped(self) -> int:
        """Samples dropped by ``nan_policy="skip"`` so far."""
        return self._n_skipped

    def _require_samples(self) -> None:
        if self._n == 0:
            raise ValidationError(
                "accumulator is empty; feed at least one chunk first"
            )

    @property
    def mean(self) -> np.ndarray:
        """Exact running mean ``μ = b + mean(y)`` of shape ``(d,)``."""
        self._require_samples()
        return self._shift + self._sum / self._n

    def covariance(self, *, center: bool = True) -> np.ndarray:
        """``(1/N) Σ (x−μ)(x−μ)^T`` (or the raw ``(1/N) Σ x x^T``).

        With ``center=False`` the *uncentered* second moment is returned —
        what the batch :func:`repro.linalg.covariance.view_covariance`
        computes under ``assume_centered=True``.
        """
        self._require_samples()
        if not self._second_moment:
            raise ValidationError(
                "this accumulator was created with second_moment=False and "
                "tracks only means"
            )
        moment = self._outer / self._n
        delta = self._sum / self._n
        if center:
            return moment - np.outer(delta, delta)
        mean = self._shift + delta
        return (
            moment
            + np.outer(delta, self._shift)
            + np.outer(self._shift, mean)
        )


class StreamingCovarianceTensor:
    """Running covariance tensor ``C_{12…m}`` of ``m`` views from minibatches.

    Consumes tuples of per-view chunks ``(X_1[:, s:t], …, X_m[:, s:t])`` and
    maintains exact running means, per-view covariances ``C_pp``, and the
    order-``m`` covariance tensor, in memory independent of ``N``.

    Parameters
    ----------
    dims:
        Per-view feature dimensions; inferred from the first update when
        omitted.
    center:
        ``True`` (default) — finalize the *centered* tensor
        ``(1/N) Σ (x_1−μ_1) ∘ … ∘ (x_m−μ_m)`` via shifted subset moments.
        ``False`` — accumulate the raw moment only (appropriate when the
        stream is pre-centered, e.g. whitened views); skips the
        ``2^m − m − 1`` subset statistics. Centered accumulators shift
        each view by its first chunk's mean (see
        :class:`StreamingCovariance`); raw ones accumulate unshifted.
    track_view_covariances:
        ``True`` (default) also maintains the per-view second moments so
        :meth:`view_covariance` works — what a full streaming fit needs.
        Batch delegates that only want the tensor pass ``False`` to skip
        the ``O(Σ d_p² · N)`` side accumulation.
    buffer_floats:
        Khatri-Rao buffer budget passed to :func:`accumulate_outer_sum`.
    nan_policy:
        ``"raise"`` (default) rejects minibatches carrying NaN/Inf with
        a typed :class:`~repro.exceptions.ValidationError` naming the
        view and chunk index; ``"skip"`` drops the affected samples
        from *every* view (keeping them aligned) and counts them in
        :attr:`n_skipped`.
    dtype:
        Accumulation dtype of every moment buffer — the subset tensors
        and the per-view statistics alike (``None`` → float64, the
        default under every built-in precision policy including
        ``"mixed"``). Chunks are cast on ingest. Shards can only
        :meth:`merge` when their accumulation dtypes match; the dtype is
        recorded in :meth:`state_dict` so persisted shards carry it.

    Notes
    -----
    With ``center=True`` the state holds one shifted moment tensor per
    subset ``T`` of views with ``|T| ≥ 2`` — dominated by the full
    ``∏ d_p`` tensor itself, with the pairwise matrices a lower-order cost.
    The mean correction is *exact* (not an approximation): in exact
    arithmetic the finalized tensor equals the batch tensor of the centered
    data for any chunking.
    """

    def __init__(
        self,
        dims=None,
        *,
        center: bool = True,
        track_view_covariances: bool = True,
        buffer_floats: int = DEFAULT_BUFFER_FLOATS,
        nan_policy: str = "raise",
        dtype=None,
    ):
        self._dtype = np.dtype(np.float64 if dtype is None else dtype)
        self._dims = None if dims is None else tuple(int(d) for d in dims)
        if self._dims is not None and len(self._dims) < 2:
            raise ValidationError(
                f"need at least 2 views, got dims={self._dims}"
            )
        self.center = bool(center)
        self._track_view_covariances = bool(track_view_covariances)
        self.buffer_floats = int(buffer_floats)
        self.nan_policy = check_nan_policy(nan_policy)
        self._n_skipped = 0
        self._chunk_index = 0
        self._n = 0
        self._views: list[StreamingCovariance] | None = None
        self._moments: dict[tuple[int, ...], np.ndarray] | None = None
        if self._dims is not None:
            self._allocate(self._dims)

    def _subsets(self, m: int):
        """Subsets of view indices needing a shifted moment tensor."""
        if not self.center:
            return [tuple(range(m))]
        subsets = []
        for size in range(2, m + 1):
            subsets.extend(combinations(range(m), size))
        return subsets

    def _allocate(self, dims: tuple[int, ...]) -> None:
        self._dims = dims
        m = len(dims)
        # Raw mode accumulates the moment of the data exactly as given
        # (it is assumed pre-centered), so no stabilizing shift.
        shift = None if self.center else 0.0
        self._views = [
            StreamingCovariance(
                dim,
                shift=shift,
                second_moment=self._track_view_covariances,
                dtype=self._dtype,
            )
            for dim in dims
        ]
        self._moments = {
            subset: np.zeros(
                (
                    dims[subset[0]],
                    int(
                        np.prod(
                            [dims[p] for p in subset[1:]], dtype=np.int64
                        )
                    ),
                ),
                dtype=self._dtype,
            )
            for subset in self._subsets(m)
        }

    def update(self, chunks) -> "StreamingCovarianceTensor":
        """Consume one minibatch: a sequence of ``(d_p, n_chunk)`` arrays."""
        chunks = [
            ensure_2d(
                chunk,
                name=f"chunks[{index}]",
                require_finite=False,
                dtype=self._dtype,
            )
            for index, chunk in enumerate(chunks)
        ]
        if len(chunks) < 2:
            raise ValidationError(
                f"need at least 2 view chunks per update, got {len(chunks)}"
            )
        if self._dims is None:
            self._allocate(tuple(chunk.shape[0] for chunk in chunks))
        if len(chunks) != len(self._dims):
            raise ValidationError(
                f"expected {len(self._dims)} view chunks, got {len(chunks)}"
            )
        sample_counts = {chunk.shape[1] for chunk in chunks}
        if len(sample_counts) != 1:
            raise ValidationError(
                "view chunks must share the sample count; got "
                f"{sorted(sample_counts)}"
            )
        for chunk, dim in zip(chunks, self._dims):
            if chunk.shape[0] != dim:
                raise ValidationError(
                    f"chunk dimensions {[c.shape[0] for c in chunks]} do not "
                    f"match accumulator dims {list(self._dims)}"
                )
        chunks, skipped = screen_chunks(
            chunks,
            nan_policy=self.nan_policy,
            chunk_index=self._chunk_index,
        )
        self._chunk_index += 1
        self._n_skipped += skipped
        if chunks[0].shape[1] == 0:
            # Every sample was skipped: nothing to ingest (and no
            # shift may be taken from an empty chunk's mean).
            return self
        shifted = [
            accumulator._ingest(chunk)
            for accumulator, chunk in zip(self._views, chunks)
        ]
        for subset, moment in self._moments.items():
            accumulate_outer_sum(
                moment,
                [shifted[p] for p in subset],
                buffer_floats=self.buffer_floats,
            )
        self._n += chunks[0].shape[1]
        return self

    def merge(
        self, other: "StreamingCovarianceTensor"
    ) -> "StreamingCovarianceTensor":
        """Fold another accumulator's samples into this one, exactly.

        The map-reduce primitive for shard-parallel moment computation:
        accumulators fed disjoint sample shards combine into the statistics
        of the union, so ``a.merge(b).tensor()`` equals one accumulator fed
        both shards' chunks. Centered accumulators may use different
        stabilizing shifts — the other's shifted subset moments are
        re-expressed around this accumulator's shifts through the same
        multilinear expansion :meth:`tensor` uses, so the merge is exact in
        exact arithmetic. Raw accumulators (``center=False``) carry no
        subset statistics to correct with and therefore must share shifts:
        they are built unshifted, but a state restored by
        :meth:`from_state_dict` carries whatever shift it was saved with.
        """
        if not isinstance(other, StreamingCovarianceTensor):
            raise ValidationError(
                f"can only merge StreamingCovarianceTensor, got "
                f"{type(other).__name__}"
            )
        if other._dtype != self._dtype:
            raise ValidationError(
                f"cannot merge a {other._dtype.name} accumulator into a "
                f"{self._dtype.name} one; shards must be accumulated "
                "under the same dtype (re-run the divergent shard with a "
                "matching precision policy)"
            )
        if self.center != other.center:
            raise ValidationError(
                "cannot merge accumulators with different center settings"
            )
        if self._track_view_covariances != other._track_view_covariances:
            raise ValidationError(
                "cannot merge accumulators with different "
                "track_view_covariances settings"
            )
        self._n_skipped += other._n_skipped
        if other._n == 0:
            return self
        if self._dims is not None and other._dims != self._dims:
            raise ValidationError(
                f"cannot merge dims {other._dims} into {self._dims}"
            )
        if self._n == 0:
            # Adopt the other shard's state wholesale (shift included).
            self._dims = other._dims
            self._views = [
                StreamingCovariance.from_state_dict(view.state_dict())
                for view in other._views
            ]
            self._moments = {
                subset: moment.copy()
                for subset, moment in other._moments.items()
            }
            self._n = other._n
            return self
        # d_p = b_other − b_self: the other's shifted samples relate to
        # ours by y_self = y_other + d.
        deltas = [
            theirs._shift - mine._shift
            for mine, theirs in zip(self._views, other._views)
        ]
        shifted_apart = [bool(np.any(delta)) for delta in deltas]
        if any(shifted_apart) and not self.center:
            raise ValidationError(
                "raw-mode (center=False) accumulators track no subset "
                "statistics and can only be merged when their shifts "
                "match"
            )
        if any(shifted_apart):
            from repro.tensor.dense import unfold

            for subset in self._moments:
                self._moments[subset] += unfold(
                    self._reshifted_subset_sum(subset, other, deltas), 0
                )
        else:
            for subset in self._moments:
                self._moments[subset] += other._moments[subset]
        for mine, theirs in zip(self._views, other._views):
            mine.merge(theirs)
        self._n += other._n
        return self

    def _reshifted_subset_sum(self, subset, other, deltas) -> np.ndarray:
        """``Σ_n ⊗_{p∈subset} (y'_pn + δ_p)`` from ``other``'s moments.

        Expands the other shard's shifted subset sums around this
        accumulator's shifts: every inner subset ``S ⊆ subset`` contributes
        its moment sum ``Σ_n ⊗_{p∈S} y'_pn`` (``|S|=1`` → the per-view
        sums, ``|S|=0`` → the count) completed with ``δ_p`` factors on the
        remaining axes — the merge-time twin of :meth:`tensor`'s mean
        correction. Returned folded, in ``subset``'s axis order.
        """
        from repro.tensor.dense import fold

        total = np.zeros([self._dims[p] for p in subset], dtype=self._dtype)
        for size in range(0, len(subset) + 1):
            for inner in combinations(subset, size):
                missing = [p for p in subset if p not in inner]
                if any(not np.any(deltas[p]) for p in missing):
                    continue  # a zero δ_p factor kills the whole term
                if size >= 2:
                    core = fold(
                        other._moments[inner],
                        0,
                        [self._dims[p] for p in inner],
                    )
                elif size == 1:
                    core = other._views[inner[0]]._sum
                else:
                    core = np.array(float(other._n))
                term = core
                for p in missing:
                    term = np.multiply.outer(term, deltas[p])
                order = list(inner) + missing
                total += np.transpose(term, np.argsort(order))
        return total

    def state_dict(self) -> dict:
        """Serializable snapshot: configuration, per-view states, moments.

        Subset moment keys are rendered ``"p-q-…"`` so the whole structure
        is a nest of plain scalars, strings, and arrays — directly
        writable to an ``.npz``-style archive by flattening callers.
        """
        return {
            "dims": None if self._dims is None else list(self._dims),
            "center": self.center,
            "track_view_covariances": self._track_view_covariances,
            "buffer_floats": int(self.buffer_floats),
            "nan_policy": self.nan_policy,
            "dtype": self._dtype.name,
            "n_skipped": int(self._n_skipped),
            "chunk_index": int(self._chunk_index),
            "n": int(self._n),
            "views": (
                None
                if self._views is None
                else [view.state_dict() for view in self._views]
            ),
            "moments": (
                None
                if self._moments is None
                else {
                    "-".join(str(p) for p in subset): moment.copy()
                    for subset, moment in self._moments.items()
                }
            ),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "StreamingCovarianceTensor":
        """Rebuild an accumulator from :meth:`state_dict` output."""
        # dims=None: constructing allocated would zero-fill every subset
        # moment (incl. the full ∏ d_p tensor) only to rebind them to the
        # archived arrays below — a pointless transient 2x peak.
        accumulator = cls(
            dims=None,
            center=bool(state["center"]),
            track_view_covariances=bool(state["track_view_covariances"]),
            buffer_floats=int(state["buffer_floats"]),
            nan_policy=state.get("nan_policy", "raise"),
            dtype=state.get("dtype"),
        )
        accumulator._n_skipped = int(state.get("n_skipped", 0))
        accumulator._chunk_index = int(state.get("chunk_index", 0))
        if state["dims"] is not None:
            accumulator._dims = tuple(int(d) for d in state["dims"])
        if state["views"] is not None:
            accumulator._views = [
                StreamingCovariance.from_state_dict(view)
                for view in state["views"]
            ]
        if state["moments"] is not None:
            accumulator._moments = {
                tuple(int(p) for p in key.split("-")): np.array(
                    moment, dtype=accumulator._dtype
                )
                for key, moment in state["moments"].items()
            }
        accumulator._n = int(state["n"])
        return accumulator

    @property
    def view_statistics(self) -> list[StreamingCovariance]:
        """The per-view accumulators (means and, if tracked, ``C_pp``)."""
        self._require_samples()
        return list(self._views)

    @property
    def dims(self) -> tuple[int, ...] | None:
        """Per-view feature dimensions (``None`` until the first update)."""
        return self._dims

    @property
    def dtype(self) -> np.dtype:
        """Accumulation dtype of the moment buffers."""
        return self._dtype

    @property
    def n_views(self) -> int | None:
        """Number of views (``None`` until dimensions are known)."""
        return None if self._dims is None else len(self._dims)

    @property
    def n_samples(self) -> int:
        """Number of samples consumed so far."""
        return self._n

    @property
    def n_skipped(self) -> int:
        """Samples dropped by ``nan_policy="skip"`` so far."""
        return self._n_skipped

    def _require_samples(self) -> None:
        if self._n == 0:
            raise ValidationError(
                "accumulator is empty; feed at least one minibatch first"
            )

    @property
    def means(self) -> list[np.ndarray]:
        """Exact running mean of each view, shapes ``(d_p,)``."""
        self._require_samples()
        return [accumulator.mean for accumulator in self._views]

    def view_covariance(self, index: int, *, center: bool = True) -> np.ndarray:
        """Per-view covariance ``C_pp`` (centered unless ``center=False``)."""
        self._require_samples()
        return self._views[index].covariance(center=center)

    def view_covariances(self, *, center: bool = True) -> list[np.ndarray]:
        """All per-view covariances ``[C_11, …, C_mm]``."""
        self._require_samples()
        return [
            accumulator.covariance(center=center)
            for accumulator in self._views
        ]

    def tensor(self) -> np.ndarray:
        """Finalize the covariance tensor ``C_{12…m}`` of shape ``∏ d_p``.

        Centered accumulators apply the exact multilinear mean correction;
        raw accumulators (``center=False``) return the scaled moment.
        """
        self._require_samples()
        from repro.tensor.dense import fold

        m = len(self._dims)
        full = tuple(range(m))
        if not self.center:
            return fold(self._moments[full] / self._n, 0, self._dims)

        def spread(array, axes):
            # Broadcastable view of a tensor over the ascending ``axes``.
            shape = [1] * m
            for p in axes:
                shape[p] = self._dims[p]
            return np.reshape(array, shape)

        deltas = [
            accumulator._sum / self._n for accumulator in self._views
        ]
        nonzero = [bool(np.any(delta)) for delta in deltas]
        total = np.ascontiguousarray(
            fold(self._moments[full] / self._n, 0, self._dims)
        )
        buffer = np.empty_like(total)
        # Each correction term is one broadcast product into a reused
        # buffer: the small factors are combined first, so only the last
        # multiply touches ∏ d_p elements.
        for size in range(2, m):
            for subset in combinations(range(m), size):
                missing = [p for p in range(m) if p not in subset]
                # δ_p = 0 for any missing view kills the whole term.
                if any(not nonzero[p] for p in missing):
                    continue
                sign = -1.0 if (m - size) % 2 else 1.0
                core = fold(
                    self._moments[subset] / self._n,
                    0,
                    [self._dims[p] for p in subset],
                )
                outer = sign * spread(deltas[missing[0]], missing[:1])
                for p in missing[1:]:
                    outer = outer * spread(deltas[p], (p,))
                np.multiply(spread(core, subset), outer, out=buffer)
                total += buffer
        if all(nonzero):
            # The |T| ≤ 1 terms are all ±⊗_p δ_p (M̄_{p} = δ_p): m of
            # sign (−1)^{m−1} and one of sign (−1)^m.
            outer = (-1.0 if m % 2 == 0 else 1.0) * (m - 1) * spread(
                deltas[0], (0,)
            )
            for p in range(1, m - 1):
                outer = outer * spread(deltas[p], (p,))
            np.multiply(outer, spread(deltas[m - 1], (m - 1,)), out=buffer)
            total += buffer
        return total
