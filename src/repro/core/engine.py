"""Staged TCCA fit engine: ``ingest → moments → whiten → build → decompose → finalize``.

Before this module, the library had five tangled fit paths (batch/stream ×
dense/implicit, plus precomputed) inside :class:`~repro.core.tcca.TCCA` and
a parallel decompose copy in ``KTCCA``. The engine decomposes every fit
into the same explicit stages:

1. **ingest** — fold raw data (a batch of views or a chunked stream) into
2. **moments** — a :class:`MomentState`: mergeable, serializable
   sufficient statistics built exclusively from the
   :mod:`repro.streaming.covariance` accumulators;
3. **whiten** — per-view whiteners ``C̃_pp^{-1/2}`` from the moments;
4. **build** — the whitened tensor ``M``, dense
   (:class:`WhitenedTensor` carrying the array) or implicit (carrying a
   :class:`~repro.tensor.operator.CovarianceTensorOperator`);
5. **decompose** — one dispatch over the CP solvers
   (ALS / HOPM / deflation, dense or implicit) with an optional
   ``factors_init`` warm start;
6. **finalize** — normalize, canonicalize, and map the whitened factors
   back through the per-view transforms.

Because the moments are *additive over samples*, the same stages run
incrementally: :meth:`~repro.core.tcca.TCCA.partial_fit` folds a new
minibatch into the stored :class:`MomentState`, re-whitens, rebuilds ``M``,
and warm-starts the decomposition from the previous factors — justified by
the local linear convergence of alternating low-rank approximation methods
(Hu & Ye 2019; see PAPERS.md), so a refresh near the previous optimum
re-converges in a handful of sweeps instead of a cold solve.
:meth:`MomentState.merge` additionally makes the ingest stage
shard-parallel: workers accumulate disjoint sample shards and the merged
state is exactly the single-pass state.

Two moment policies cover the two solver families:

* ``track_tensor=True`` — the full raw covariance tensor ``C`` (plus the
  exact mean-correction subset moments) is accumulated; the build stage
  whitens it with mode products ``M = C ×_1 W_1 … ×_m W_m``. State is
  ``O(∏ d_p)``, independent of the sample count — the dense solver's
  resumable form.
* ``retain_samples=True`` — only per-view moments are accumulated
  (``O(Σ d_p²)``) and the raw minibatches are retained in a
  :class:`SampleStore`; the build stage re-whitens them into an implicit
  operator. State is ``O(N · Σ d_p)`` — far below ``∏ d_p`` in exactly
  the high-dimensional regime the implicit solver exists for.

Every dense fit — one-shot ``fit``/``fit_stream``, ``partial_fit``,
``fit_moments`` and the distributed reduce — builds ``M`` through
:func:`build_stage` from a ``track_tensor`` state: the cold-fit builder
:func:`whitened_covariance_tensor` is that stage composition, so a cold
fit is bit-identical to a first refresh on the same batch and a stream is
read once. The implicit cold builders whiten the caller's resident views
(or re-read the stream) instead of retaining a copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.exceptions import ValidationError
from repro.linalg.whitening import regularized_inverse_sqrt
from repro.parallel.executors import ExecutionPolicy
from repro.parallel.sharding import accumulate_parallel
from repro.streaming.covariance import (
    StreamingCovariance,
    StreamingCovarianceTensor,
    check_nan_policy,
    screen_chunks,
)
from repro.streaming.views import (
    ViewStream,
    as_view_stream,
    iter_validated_chunks,
)
from repro.tensor.decomposition import (
    best_rank1,
    best_rank1_implicit,
    cp_als,
    cp_als_implicit,
    tensor_power_deflation,
)
from repro.tensor.dense import multi_mode_product
from repro.tensor.operator import CovarianceTensorOperator
from repro.utils.validation import check_views, ensure_2d

__all__ = [
    "DecompositionSpec",
    "FinalizedFit",
    "MomentState",
    "SampleStore",
    "WhitenedTensor",
    "WhiteningState",
    "build_stage",
    "decompose_stage",
    "finalize_stage",
    "ingest_stage",
    "whiten_stage",
    "whitened_covariance_operator",
    "whitened_covariance_operator_streaming",
    "whitened_covariance_tensor",
    "whitened_covariance_tensor_streaming",
]

#: serialization layout version of :meth:`MomentState.state_dict`.
MOMENT_STATE_VERSION = 1


def _validate_chunks(chunks, *, require_finite: bool = True) -> list[np.ndarray]:
    """One aligned minibatch: >= 2 two-dimensional views, equal widths.

    The single copy of the chunk contract shared by :class:`SampleStore`
    and the per-view-accumulator path of :class:`MomentState`
    (:class:`~repro.streaming.covariance.StreamingCovarianceTensor`
    enforces the same rules internally for the tensor path).
    ``require_finite=False`` defers NaN/Inf handling to the caller's
    :func:`~repro.streaming.covariance.screen_chunks` pass.
    """
    chunks = [
        ensure_2d(
            chunk,
            name=f"chunks[{index}]",
            require_finite=require_finite,
        )
        for index, chunk in enumerate(chunks)
    ]
    if len(chunks) < 2:
        raise ValidationError(
            f"need at least 2 view chunks, got {len(chunks)}"
        )
    widths = {chunk.shape[1] for chunk in chunks}
    if len(widths) != 1:
        raise ValidationError(
            f"view chunks must share the sample count; got "
            f"{sorted(widths)}"
        )
    return chunks


def _is_parallel(policy) -> bool:
    """Whether ``policy`` asks for more than in-process serial execution."""
    return isinstance(policy, ExecutionPolicy) and policy.n_workers > 1


def _whiten_view(whitener, view, mean) -> np.ndarray:
    """Center and whiten one resident view (picklable worker body)."""
    return whitener @ (np.asarray(view, dtype=np.float64) - mean)


def _compute_cast(array, dtype_policy):
    """Cast a finalized array to the policy's compute dtype (no-op when
    the policy is absent or already float64 — the bit-for-bit default)."""
    if dtype_policy is None:
        return array
    return array.astype(dtype_policy.compute, copy=False)


# -- stage payloads ---------------------------------------------------------


class WhitenedTensor:
    """Precomputed whitening state shared by TCCA fits of different ranks.

    Building the whitened covariance tensor ``M`` is the dominant cost of a
    TCCA fit and is independent of ``n_components``; computing it once and
    passing it to several ``TCCA.fit(views, precomputed=...)`` calls
    amortizes it across a dimension sweep. The state carries ``M`` in one
    (or both) of two forms:

    * ``tensor`` — the dense ``∏ d_p`` array
      (:func:`whitened_covariance_tensor`), consumed by the dense solver;
    * ``operator`` — a
      :class:`~repro.tensor.operator.CovarianceTensorOperator`
      (:func:`whitened_covariance_operator`), consumed by the implicit
      solver without ``∏ d_p`` memory.
    """

    def __init__(self, means, whiteners, tensor=None, epsilon=0.0, *,
                 operator=None):
        if tensor is None and operator is None:
            raise ValidationError(
                "WhitenedTensor needs the dense tensor, the operator, or "
                "both"
            )
        self.means = means
        self.whiteners = whiteners
        self.tensor = tensor
        self.operator = operator
        self.epsilon = float(epsilon)

    @property
    def dims(self) -> list[int]:
        """Feature dimension of each view."""
        return [whitener.shape[0] for whitener in self.whiteners]

    @property
    def has_tensor(self) -> bool:
        """Whether the dense tensor form is available."""
        return self.tensor is not None

    @property
    def has_operator(self) -> bool:
        """Whether the implicit operator form is available."""
        return self.operator is not None


@dataclass(frozen=True)
class DecompositionSpec:
    """What the decompose stage should solve, independent of *how* ``M``
    is represented (dense array or implicit operator)."""

    method: str = "als"
    rank: int = 1
    max_iter: int = 200
    tol: float = 1e-8
    random_state: object = None


@dataclass
class WhiteningState:
    """Output of the whiten stage: per-view centering and whitening maps."""

    means: list  # (d_p, 1) columns
    whiteners: list  # (d_p, d_p) symmetric inverse square roots
    epsilon: float


@dataclass
class FinalizedFit:
    """Output of the finalize stage, ready to become fitted attributes."""

    result: object  # the raw DecompositionResult (sweep counts, history)
    cp: object  # normalized (and possibly sign-canonicalized) CPTensor
    correlations: np.ndarray
    factors: list = field(default_factory=list)
    canonical_vectors: list = field(default_factory=list)


# -- moments ----------------------------------------------------------------


class SampleStore:
    """Retained raw minibatches — the implicit path's resumable state.

    The implicit solver's whole point is never materializing anything
    ``∏ d_p``-sized, so its mergeable "moments" are the data itself plus
    per-view statistics: ``O(N · Σ d_p)`` memory, which in the implicit
    regime (``∏ d_p ≫ N · Σ d_p``) is the cheaper sufficient statistic.
    Chunks are copied on :meth:`add` so callers may reuse their buffers.
    """

    def __init__(self, dims=None):
        self._dims = None if dims is None else tuple(int(d) for d in dims)
        self._chunks: list[list[np.ndarray]] = []
        self._n = 0

    @property
    def dims(self) -> tuple[int, ...] | None:
        """Per-view feature dimensions (``None`` until the first add)."""
        return self._dims

    @property
    def n_samples(self) -> int:
        """Total retained samples."""
        return self._n

    def add(self, chunks) -> "SampleStore":
        """Retain one aligned minibatch of ``(d_p, n_chunk)`` arrays."""
        chunks = [
            np.array(chunk, dtype=np.float64, copy=True)
            for chunk in _validate_chunks(chunks)
        ]
        if self._dims is None:
            self._dims = tuple(chunk.shape[0] for chunk in chunks)
        if tuple(chunk.shape[0] for chunk in chunks) != self._dims:
            raise ValidationError(
                f"chunk dimensions {[c.shape[0] for c in chunks]} do not "
                f"match store dims {list(self._dims)}"
            )
        self._chunks.append(chunks)
        self._n += chunks[0].shape[1]
        return self

    def merge(self, other: "SampleStore") -> "SampleStore":
        """Append another store's retained samples to this one."""
        if not isinstance(other, SampleStore):
            raise ValidationError(
                f"can only merge SampleStore, got {type(other).__name__}"
            )
        if other._n == 0:
            return self
        if self._dims is not None and other._dims != self._dims:
            raise ValidationError(
                f"cannot merge store dims {other._dims} into {self._dims}"
            )
        if self._dims is None:
            self._dims = other._dims
        # Adopt by reference: the arrays were already defensively copied
        # when other.add() ingested them and are never written afterwards,
        # so aliasing is safe — and the shard-merge reduce
        # (accumulate_parallel) would otherwise transiently hold every
        # retained sample twice while the shard states are discarded.
        self._chunks.extend(list(chunks) for chunks in other._chunks)
        self._n += other._n
        return self

    @property
    def views(self) -> list[np.ndarray]:
        """The retained data as one concatenated ``(d_p, N)`` array per view."""
        if self._n == 0:
            raise ValidationError("sample store is empty")
        return [
            np.concatenate(
                [chunks[p] for chunks in self._chunks], axis=1
            )
            for p in range(len(self._dims))
        ]


class MomentState:
    """Mergeable, serializable sufficient statistics of a resumable fit.

    The single source of moments for every ingest path: built exclusively
    from :class:`~repro.streaming.covariance.StreamingCovariance` /
    :class:`~repro.streaming.covariance.StreamingCovarianceTensor`
    accumulators, so batch views, chunked streams, incremental
    minibatches, and shard-parallel workers all produce the same state.

    Parameters
    ----------
    track_tensor:
        Accumulate the full raw covariance tensor (with exact mean
        correction) — what the dense build stage needs. ``O(∏ d_p)``
        state, independent of the sample count.
    retain_samples:
        Keep the raw minibatches in a :class:`SampleStore` — what the
        implicit build stage needs. ``O(N · Σ d_p)`` state, no ``∏ d_p``
        object anywhere.
    nan_policy:
        ``"raise"`` (default) rejects minibatches carrying NaN/Inf with
        a typed :class:`~repro.exceptions.ValidationError` naming the
        view and chunk index; ``"skip"`` drops the affected samples
        from every view (keeping them aligned) and counts them in
        :attr:`n_skipped`.
    dtype:
        Accumulation dtype of every moment buffer (``None`` → float64 —
        the :class:`~repro.backends.DTypePolicy` default, including
        under ``precision="mixed"``, where only the *sweeps* drop to
        float32). Recorded in :meth:`state_dict` and enforced by
        :meth:`merge`, so shards accumulated under different precision
        policies cannot be silently combined.

    With both flags off only per-view statistics are kept — the implicit
    cold fit paths' first pass (means + whiteners), where the operator is
    then built directly from the still-available source data.
    """

    def __init__(
        self,
        *,
        track_tensor: bool = False,
        retain_samples: bool = False,
        dims=None,
        nan_policy: str = "raise",
        dtype=None,
    ):
        if track_tensor and retain_samples:
            raise ValidationError(
                "choose one moment policy: track_tensor (dense) or "
                "retain_samples (implicit), not both"
            )
        self.track_tensor = bool(track_tensor)
        self.retain_samples = bool(retain_samples)
        self.nan_policy = check_nan_policy(nan_policy)
        self._dtype = np.dtype(np.float64 if dtype is None else dtype)
        self._n_skipped = 0
        self._chunk_index = 0
        dims = None if dims is None else tuple(int(d) for d in dims)
        self._tensor_acc = (
            StreamingCovarianceTensor(
                dims=dims,
                center=True,
                track_view_covariances=True,
                nan_policy=self.nan_policy,
                dtype=self._dtype,
            )
            if self.track_tensor
            else None
        )
        self._view_accs: list[StreamingCovariance] | None = (
            None
            if self.track_tensor
            else (
                None
                if dims is None
                else [
                    StreamingCovariance(d, dtype=self._dtype) for d in dims
                ]
            )
        )
        self._store = (
            SampleStore(dims=dims) if self.retain_samples else None
        )
        self._n = 0

    # -- accumulation -------------------------------------------------------

    def update(self, chunks) -> "MomentState":
        """Fold one aligned minibatch of ``(d_p, n_chunk)`` arrays in."""
        if self.track_tensor:
            # The tensor accumulator screens non-finite samples itself
            # (same nan_policy); mirror its post-screen sample count.
            self._tensor_acc.update(chunks)
            self._n = self._tensor_acc.n_samples
            return self
        chunks = _validate_chunks(chunks, require_finite=False)
        if self._view_accs is None:
            self._view_accs = [
                StreamingCovariance(chunk.shape[0], dtype=self._dtype)
                for chunk in chunks
            ]
        if len(chunks) != len(self._view_accs):
            raise ValidationError(
                f"expected {len(self._view_accs)} view chunks, got "
                f"{len(chunks)}"
            )
        chunks, skipped = screen_chunks(
            chunks,
            nan_policy=self.nan_policy,
            chunk_index=self._chunk_index,
        )
        self._chunk_index += 1
        self._n_skipped += skipped
        if chunks[0].shape[1] == 0:
            # every sample of the minibatch was skipped: nothing to fold
            return self
        for accumulator, chunk in zip(self._view_accs, chunks):
            accumulator.update(chunk)
        if self.retain_samples:
            self._store.add(chunks)
        self._n += int(chunks[0].shape[1])
        return self

    def merge(self, other: "MomentState") -> "MomentState":
        """Fold another state's samples in — exact shard-parallel reduce."""
        if not isinstance(other, MomentState):
            raise ValidationError(
                f"can only merge MomentState, got {type(other).__name__}"
            )
        if (
            other.track_tensor != self.track_tensor
            or other.retain_samples != self.retain_samples
        ):
            raise ValidationError(
                "cannot merge moment states with different policies"
            )
        if other._dtype != self._dtype:
            raise ValidationError(
                f"cannot merge a {other._dtype.name} moment state into a "
                f"{self._dtype.name} one; shards must be accumulated "
                "under the same accumulate_dtype (re-run the divergent "
                "shard with a matching precision policy)"
            )
        if self.track_tensor:
            # the tensor merge folds skip counts in even when the other
            # state holds zero surviving samples
            self._tensor_acc.merge(other._tensor_acc)
            self._n = self._tensor_acc.n_samples
            return self
        # an all-skipped shard still contributes its skip count
        self._n_skipped += other._n_skipped
        if other._n == 0:
            return self
        if self._view_accs is None:
            self._view_accs = [
                StreamingCovariance(acc.dim, dtype=self._dtype)
                for acc in other._view_accs
            ]
        if len(self._view_accs) != len(other._view_accs):
            raise ValidationError(
                "cannot merge moment states with different view counts"
            )
        for mine, theirs in zip(self._view_accs, other._view_accs):
            mine.merge(theirs)
        if self.retain_samples:
            self._store.merge(other._store)
        self._n += other._n
        return self

    # -- finalized statistics ------------------------------------------------

    def _statistics(self) -> list[StreamingCovariance]:
        if self._n == 0:
            raise ValidationError(
                "moment state is empty; feed at least one minibatch first"
            )
        if self.track_tensor:
            return self._tensor_acc.view_statistics
        return self._view_accs

    @property
    def n_samples(self) -> int:
        """Number of samples folded in so far."""
        return self._n

    @property
    def dtype(self) -> np.dtype:
        """Accumulation dtype of the moment buffers."""
        return self._dtype

    @property
    def n_skipped(self) -> int:
        """Samples dropped by ``nan_policy="skip"`` so far."""
        if self.track_tensor:
            return self._tensor_acc.n_skipped
        return self._n_skipped

    @property
    def dims(self) -> tuple[int, ...] | None:
        """Per-view feature dimensions (``None`` while empty)."""
        if self.track_tensor:
            return self._tensor_acc.dims
        if self._view_accs is None:
            return None
        return tuple(acc.dim for acc in self._view_accs)

    @property
    def n_views(self) -> int | None:
        """Number of views (``None`` while empty)."""
        dims = self.dims
        return None if dims is None else len(dims)

    def means(self) -> list[np.ndarray]:
        """Exact per-view means as ``(d_p, 1)`` columns."""
        return [acc.mean.reshape(-1, 1) for acc in self._statistics()]

    def view_covariances(self) -> list[np.ndarray]:
        """Exact per-view covariances ``C_pp``."""
        return [acc.covariance() for acc in self._statistics()]

    def tensor(self) -> np.ndarray:
        """The centered raw covariance tensor ``C`` (dense policy only)."""
        if not self.track_tensor:
            raise ValidationError(
                "this moment state tracks no covariance tensor "
                "(track_tensor=False); it serves the implicit build path"
            )
        return self._tensor_acc.tensor()

    @property
    def samples(self) -> SampleStore:
        """The retained minibatches (implicit policy only)."""
        if not self.retain_samples:
            raise ValidationError(
                "this moment state retains no samples "
                "(retain_samples=False); it serves the dense build path"
            )
        return self._store

    # -- serialization -------------------------------------------------------

    @staticmethod
    def _lift_arrays(state: dict, arrays: dict, prefix: str) -> dict:
        """Move array values of ``state`` into ``arrays`` under ``prefix``."""
        meta = {}
        for key, value in state.items():
            if isinstance(value, np.ndarray):
                arrays[f"{prefix}{key}"] = value
                meta[key] = {"__array__": f"{prefix}{key}"}
            else:
                meta[key] = value
        return meta

    @staticmethod
    def _restore_arrays(meta: dict, arrays: dict) -> dict:
        state = {}
        for key, value in meta.items():
            if isinstance(value, dict) and "__array__" in value:
                state[key] = np.asarray(arrays[value["__array__"]])
            else:
                state[key] = value
        return state

    def state_dict(self) -> tuple[dict, dict]:
        """``(meta, arrays)`` — JSON-able metadata plus named arrays.

        The split matches the model persistence layout
        (:mod:`repro.api.persistence`): ``meta`` goes into the JSON
        header, ``arrays`` into the ``.npz`` payload, and
        :meth:`from_state_dict` reassembles an identical state.
        """
        arrays: dict[str, np.ndarray] = {}
        meta: dict = {
            "version": MOMENT_STATE_VERSION,
            "track_tensor": self.track_tensor,
            "retain_samples": self.retain_samples,
            "n_samples": int(self._n),
            "nan_policy": self.nan_policy,
            "dtype": self._dtype.name,
            "n_skipped": int(self._n_skipped),
            "chunk_index": int(self._chunk_index),
        }
        if self.track_tensor:
            state = self._tensor_acc.state_dict()
            moments = state.pop("moments")
            views = state.pop("views")
            meta["accumulator"] = state
            if moments is not None:
                meta["moment_keys"] = sorted(moments)
                for key, moment in moments.items():
                    arrays[f"moment.{key}"] = moment
            meta["views"] = (
                None
                if views is None
                else [
                    self._lift_arrays(view, arrays, f"view{p}.")
                    for p, view in enumerate(views)
                ]
            )
        else:
            meta["views"] = (
                None
                if self._view_accs is None
                else [
                    self._lift_arrays(
                        acc.state_dict(), arrays, f"view{p}."
                    )
                    for p, acc in enumerate(self._view_accs)
                ]
            )
        if self.retain_samples and self._store.n_samples > 0:
            for p, view in enumerate(self._store.views):
                arrays[f"samples.{p}"] = view
            meta["n_stored_views"] = len(self._store.dims)
        return meta, arrays

    @classmethod
    def from_state_dict(cls, meta: dict, arrays: dict) -> "MomentState":
        """Rebuild a state from :meth:`state_dict` output."""
        version = meta.get("version")
        if version != MOMENT_STATE_VERSION:
            raise ValidationError(
                f"unsupported moment-state version {version!r} "
                f"(this library writes {MOMENT_STATE_VERSION})"
            )
        state = cls(
            track_tensor=bool(meta["track_tensor"]),
            retain_samples=bool(meta["retain_samples"]),
            # .get defaults keep states written before nan_policy
            # existed loadable (they never skipped anything)
            nan_policy=meta.get("nan_policy", "raise"),
            # states written before dtype existed were always float64
            dtype=meta.get("dtype"),
        )
        state._n_skipped = int(meta.get("n_skipped", 0))
        state._chunk_index = int(meta.get("chunk_index", 0))
        views_meta = meta.get("views")
        restored_views = (
            None
            if views_meta is None
            else [cls._restore_arrays(view, arrays) for view in views_meta]
        )
        if state.track_tensor:
            accumulator_state = dict(meta["accumulator"])
            accumulator_state["views"] = restored_views
            accumulator_state["moments"] = (
                {
                    key: np.asarray(arrays[f"moment.{key}"])
                    for key in meta.get("moment_keys", [])
                }
                if meta.get("moment_keys") is not None
                else None
            )
            state._tensor_acc = StreamingCovarianceTensor.from_state_dict(
                accumulator_state
            )
        elif restored_views is not None:
            state._view_accs = [
                StreamingCovariance.from_state_dict(view)
                for view in restored_views
            ]
        if state.retain_samples and meta.get("n_stored_views"):
            state._store.add(
                [
                    np.asarray(arrays[f"samples.{p}"])
                    for p in range(int(meta["n_stored_views"]))
                ]
            )
        state._n = int(meta["n_samples"])
        return state


# -- stages -----------------------------------------------------------------


def ingest_stage(
    moments: MomentState, source, *, chunk_size=None, policy=None
) -> MomentState:
    """Fold a data source into ``moments`` and return it.

    ``source`` is either a plain sequence of ``(d_p, N)`` view matrices
    (consumed as a single minibatch — one accumulator update, all BLAS)
    or a :class:`~repro.streaming.views.ViewStream` / stream-coercible
    object (e.g. a ``MultiviewDataset``), consumed chunk by chunk so
    nothing sample-sized beyond one chunk is resident (unless the moment
    policy retains samples). Passing ``chunk_size`` forces the chunked
    path for any source.

    A parallel ``policy`` turns the ingest into map-reduce: the stream is
    split into shards (a plain batch is wrapped in an
    :class:`~repro.streaming.views.ArrayViewStream` first), each worker
    accumulates a fresh state over its shard, and the shard states are
    folded into ``moments`` with the exact :meth:`MomentState.merge` —
    same statistics as the sequential pass to round-off.
    """
    # the moment state owns NaN/Inf handling (its nan_policy either
    # raises a chunk-indexed error or skips-and-counts), so the wrappers
    # here must not pre-reject non-finite input
    if _is_parallel(policy):
        stream = as_view_stream(source, chunk_size, require_finite=False)
        moments.merge(
            accumulate_parallel(
                stream,
                partial(
                    MomentState,
                    track_tensor=moments.track_tensor,
                    retain_samples=moments.retain_samples,
                    dims=moments.dims,
                    nan_policy=moments.nan_policy,
                    dtype=moments.dtype,
                ),
                policy,
            )
        )
        return moments
    if (
        isinstance(source, ViewStream)
        or chunk_size is not None
        or hasattr(source, "views")
    ):
        stream = as_view_stream(source, chunk_size, require_finite=False)
        for chunks in iter_validated_chunks(stream):
            moments.update(chunks)
        return moments
    views = check_views(source, min_views=2, require_finite=False)
    moments.update(views)
    return moments


def whiten_stage(
    moments: MomentState, epsilon: float, *, policy=None
) -> WhiteningState:
    """Per-view means and whiteners ``(C_pp + ε I)^{-1/2}`` from moments.

    The ``m`` eigendecompositions are independent; a parallel ``policy``
    fans them across workers (one task per view).
    """
    means = moments.means()
    covariances = moments.view_covariances()
    if _is_parallel(policy) and len(covariances) > 1:
        whiteners = policy.map(
            partial(regularized_inverse_sqrt, epsilon=epsilon), covariances
        )
    else:
        whiteners = [
            regularized_inverse_sqrt(covariance, epsilon)
            for covariance in covariances
        ]
    return WhiteningState(means=means, whiteners=whiteners, epsilon=epsilon)


def build_stage(
    moments: MomentState,
    whitening: WhiteningState,
    solver: str,
    *,
    policy=None,
    dtype_policy=None,
) -> WhitenedTensor:
    """Assemble the whitened tensor ``M`` from mergeable moments.

    * ``solver="dense"`` — mode-multiply the accumulated raw covariance
      tensor: ``M = C ×_1 W_1 … ×_m W_m`` (Theorem 2 applied to the
      *stored* moments, so no re-pass over data is ever needed);
    * ``solver="implicit"`` — whiten the retained samples once and wrap
      them in a :class:`~repro.tensor.operator.CovarianceTensorOperator`.

    A :class:`~repro.backends.DTypePolicy` with a non-float64
    ``compute_dtype`` downcasts the *finished* ``M`` (dense) or the
    whitened views backing the operator (implicit) — whitening itself
    always runs in float64; the default policy changes nothing.
    """
    if solver == "dense":
        tensor = _compute_cast(
            multi_mode_product(moments.tensor(), whitening.whiteners),
            dtype_policy,
        )
        return WhitenedTensor(
            means=whitening.means,
            whiteners=whitening.whiteners,
            tensor=tensor,
            epsilon=whitening.epsilon,
        )
    if solver != "implicit":
        raise ValidationError(
            f"unknown build solver {solver!r}; expected 'dense' or "
            "'implicit'"
        )
    return _implicit_state(
        whitening, moments.samples.views, policy, dtype_policy
    )


def decompose_stage(
    spec: DecompositionSpec,
    *,
    tensor=None,
    operator=None,
    factors_init=None,
    warn_on_no_convergence: bool = False,
):
    """One dispatch over every CP solver the estimators use.

    Exactly one of ``tensor`` (dense array) / ``operator`` (implicit)
    must be given; ``factors_init`` warm-starts ALS and HOPM (the greedy
    deflation solver re-solves from scratch — its residual subtraction
    has no meaningful warm start).
    """
    if (tensor is None) == (operator is None):
        raise ValidationError(
            "decompose_stage needs exactly one of tensor= or operator="
        )
    common = dict(
        max_iter=spec.max_iter,
        tol=spec.tol,
        random_state=spec.random_state,
        warn_on_no_convergence=warn_on_no_convergence,
        factors_init=factors_init,
    )
    if operator is not None:
        if spec.method == "als":
            return cp_als_implicit(operator, spec.rank, **common)
        if spec.method == "hopm":
            return best_rank1_implicit(operator, **common)
        raise ValidationError(
            f"decomposition {spec.method!r} has no implicit form"
        )
    if spec.method == "als":
        return cp_als(tensor, spec.rank, **common)
    if spec.method == "hopm":
        return best_rank1(tensor, **common)
    if spec.method == "power":
        return tensor_power_deflation(
            tensor,
            spec.rank,
            max_iter=spec.max_iter,
            tol=spec.tol,
            random_state=spec.random_state,
        )
    raise ValidationError(
        f"unknown decomposition {spec.method!r}; expected 'als', 'hopm', "
        "or 'power'"
    )


def finalize_stage(
    result,
    transforms,
    *,
    apply=None,
    canonicalize_signs: bool = True,
) -> FinalizedFit:
    """Normalize the CP output and map factors back through ``transforms``.

    ``transforms`` holds one per-view matrix (TCCA: the whiteners
    ``C̃_pp^{-1/2}``, applied by matmul; KTCCA: the Cholesky factors
    ``L_p``, applied by ``apply=np.linalg.solve``). Sign canonicalization
    makes the fit deterministic up to round-off — batch, streaming, and
    incremental moment assemblies that differ in the last bit land on the
    same canonical vectors.
    """
    cp = result.cp.normalize()
    if canonicalize_signs:
        cp = cp.canonicalize_signs()
    if apply is None:
        def apply(transform, factor):
            return transform @ factor
    vectors = [
        apply(transform, factor)
        for transform, factor in zip(transforms, cp.factors)
    ]
    return FinalizedFit(
        result=result,
        cp=cp,
        correlations=cp.weights.copy(),
        factors=cp.factors,
        canonical_vectors=vectors,
    )


def _implicit_state(
    whitening: WhiteningState, views, policy, dtype_policy
) -> WhitenedTensor:
    """Whiten resident raw views into an implicit-operator state.

    The one whitening pass of the implicit path, shared by
    :func:`build_stage` (retained samples) and
    :func:`whitened_covariance_operator` (a caller's batch); a parallel
    ``policy`` whitens one view per task.
    """
    view_triples = list(zip(whitening.whiteners, views, whitening.means))
    if _is_parallel(policy):
        whitened = policy.starmap(_whiten_view, view_triples)
    else:
        whitened = [_whiten_view(*triple) for triple in view_triples]
    whitened = [_compute_cast(view, dtype_policy) for view in whitened]
    return WhitenedTensor(
        means=whitening.means,
        whiteners=whitening.whiteners,
        operator=CovarianceTensorOperator.from_views(whitened, policy=policy),
        epsilon=whitening.epsilon,
    )


# -- cold-fit builders (stage compositions) ---------------------------------


def whitened_covariance_tensor(
    source, epsilon: float, *, policy=None, dtype_policy=None
) -> WhitenedTensor:
    """Compute the whitening state and dense tensor ``M`` (Theorem 2).

    The dense cold fit of :meth:`~repro.core.tcca.TCCA.fit` and
    :meth:`~repro.core.tcca.TCCA.fit_stream`: ``source`` (views or
    anything :func:`ingest_stage` accepts) is folded into a fresh
    ``track_tensor`` :class:`MomentState` in one pass, whitened, and
    ``M = C ×_1 C̃_11^{-1/2} … ×_m C̃_mm^{-1/2}`` is built from the stored
    raw moments (:func:`build_stage`) — so a cold fit is bit-identical to
    :meth:`~repro.core.tcca.TCCA.fit_moments` and a first
    :meth:`~repro.core.tcca.TCCA.partial_fit` on the same batch. The
    state's ``nan_policy`` stays ``"raise"``: a one-shot build never
    skips samples.

    A parallel ``policy`` runs the ingest as sharded map-reduce, reduced
    with the exact :meth:`MomentState.merge` — same ``M`` to round-off.
    Each worker holds its own ``∏ d_p`` accumulator, so peak accumulation
    memory scales to ``n_workers × ∏ d_p`` (still independent of ``N``).
    Keep ``n_jobs`` at 1 when ``∏ d_p`` is near the memory ceiling, or
    use the implicit solver.
    """
    accumulate = None if dtype_policy is None else dtype_policy.accumulate
    moments = ingest_stage(
        MomentState(track_tensor=True, dtype=accumulate), source, policy=policy
    )
    whitening = whiten_stage(moments, epsilon, policy=policy)
    return build_stage(
        moments, whitening, "dense", dtype_policy=dtype_policy
    )


def whitened_covariance_tensor_streaming(
    stream,
    epsilon: float,
    *,
    chunk_size: int | None = None,
    policy=None,
    dtype_policy=None,
) -> WhitenedTensor:
    """Out-of-core version of :func:`whitened_covariance_tensor`.

    Coerces ``stream`` with :func:`~repro.streaming.views.as_view_stream`
    (so plain views are consumed in chunks) and makes a single pass over
    it: peak accumulation memory is the ``∏ d_p`` moment state plus one
    chunk, independent of ``N``, and the result matches the batch path to
    floating-point round-off.
    """
    return whitened_covariance_tensor(
        as_view_stream(stream, chunk_size),
        epsilon,
        policy=policy,
        dtype_policy=dtype_policy,
    )


def whitened_covariance_operator(
    views, epsilon: float, *, policy=None, dtype_policy=None
) -> WhitenedTensor:
    """Whitening state with ``M`` as an implicit operator — no ``∏ d_p``.

    The tensor-free counterpart of :func:`whitened_covariance_tensor`:
    identical means and whiteners, but ``M`` is represented by a
    :class:`~repro.tensor.operator.CovarianceTensorOperator` over the
    whitened views, so peak memory stays ``O(Σ d_p (d_p + N))`` however
    large ``∏ d_p`` grows. A parallel ``policy`` shards the moment pass
    and threads the operator's blocked contraction kernels.
    """
    views = check_views(views, min_views=2)
    moments = ingest_stage(MomentState(), views, policy=policy)
    whitening = whiten_stage(moments, epsilon, policy=policy)
    return _implicit_state(whitening, views, policy, dtype_policy)


def whitened_covariance_operator_streaming(
    stream,
    epsilon: float,
    *,
    chunk_size: int | None = None,
    policy=None,
    dtype_policy=None,
) -> WhitenedTensor:
    """Fully out-of-core whitening state: stream-backed implicit ``M``.

    One pass builds exact means and whiteners
    (:class:`~repro.streaming.covariance.StreamingCovariance`); ``M`` is
    then represented by a stream-backed
    :class:`~repro.tensor.operator.CovarianceTensorOperator` that
    re-whitens chunks on the fly during each solver contraction. Nothing
    sized ``∏ d_p`` *or* ``N`` is ever resident — the end-to-end
    out-of-core path for views too wide for the dense tensor. A parallel
    ``policy`` shards the whitening pass and the operator's per-sweep
    stream contractions.
    """
    stream = as_view_stream(stream, chunk_size)
    policy = policy if _is_parallel(policy) else None
    moments = ingest_stage(MomentState(), stream, policy=policy)
    whitening = whiten_stage(moments, epsilon, policy=policy)
    operator = CovarianceTensorOperator.from_stream(
        stream,
        whiteners=whitening.whiteners,
        means=whitening.means,
        policy=policy,
        dtype=None if dtype_policy is None else dtype_policy.compute,
    )
    return WhitenedTensor(
        means=whitening.means,
        whiteners=whitening.whiteners,
        operator=operator,
        epsilon=epsilon,
    )
