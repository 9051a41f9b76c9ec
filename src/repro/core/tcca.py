"""Tensor canonical correlation analysis (TCCA) — the paper's contribution.

TCCA maximizes the high-order canonical correlation
``ρ = corr(z_1, …, z_m) = C_{12…m} ×_1 h_1^T ×_2 … ×_m h_m^T`` (Theorem 1)
subject to ``h_p^T (C_pp + ε I) h_p = 1`` (Eq. 4.7-4.8). Substituting
``u_p = C̃_pp^{1/2} h_p`` turns this into finding unit vectors maximizing
``M ×_1 u_1^T … ×_m u_m^T`` on the whitened covariance tensor
``M = C ×_1 C̃_11^{-1/2} … ×_m C̃_mm^{-1/2}`` (Theorem 2), i.e. the best
rank-1 approximation of ``M`` (Eq. 4.10) — and rank-``r`` CP-ALS yields
``r`` canonical directions per view fitted jointly.

``M`` can be solved *dense* (materialized, ``∏ d_p`` memory — the cost the
paper's Figs. 7-10 measure) or *implicitly*: every contraction CP-ALS/HOPM
needs factors through the whitened data as Hadamard products of ``(N, r)``
projections (:mod:`repro.tensor.operator`), so high-dimensional views fit
without the tensor ever existing. ``solver="auto"`` picks per problem
size.

Every fit — batch, streamed, precomputed, or incremental — runs through
the staged engine in :mod:`repro.core.engine`
(``ingest → moments → whiten → build → decompose → finalize``).
:meth:`TCCA.partial_fit` keeps the engine's mergeable
:class:`~repro.core.engine.MomentState` in the fitted model, so new
minibatches fold into the moments and the CP solve warm-starts from the
previous factors instead of refitting from scratch.

The per-view projections ``Z_p = X_p^T C̃_pp^{-1/2} U_p`` (Eq. 4.11) are
concatenated into the final ``(m·r)``-dimensional representation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.api.registry import register
from repro.backends import resolve_precision
from repro.cca.base import MultiviewTransformer
from repro.core import engine
from repro.core.engine import (
    MomentState,
    WhitenedTensor,
    whitened_covariance_operator,
    whitened_covariance_operator_streaming,
    whitened_covariance_tensor,
    whitened_covariance_tensor_streaming,
)
from repro.exceptions import ValidationError
from repro.parallel.executors import (
    check_executor_name,
    check_n_jobs,
    resolve_executor,
)
from repro.streaming.covariance import check_nan_policy
from repro.streaming.views import as_view_stream
from repro.utils.validation import check_positive_int, check_views

__all__ = [
    "AUTO_SOLVER_DENSE_BUDGET",
    "TCCA",
    "WhitenedTensor",
    "multiview_canonical_correlation",
    "resolve_tcca_solver",
    "whitened_covariance_operator",
    "whitened_covariance_operator_streaming",
    "whitened_covariance_tensor",
    "whitened_covariance_tensor_streaming",
]

_DECOMPOSITIONS = ("als", "hopm", "power")
_SOLVERS = ("auto", "dense", "implicit")

#: ``solver="auto"`` switches to the implicit path when the dense tensor
#: would exceed this many entries (2**24 floats = 128 MB) — the point
#: where materializing ``∏ d_p`` starts to dominate a fit's footprint.
AUTO_SOLVER_DENSE_BUDGET = 2**24


def resolve_tcca_solver(solver: str, dims, decomposition: str = "als") -> str:
    """Resolve ``"auto"`` into ``"dense"`` or ``"implicit"`` for ``dims``.

    Auto picks the implicit solver when ``∏ d_p`` exceeds
    :data:`AUTO_SOLVER_DENSE_BUDGET`, except for the deflation solver
    (``decomposition="power"``), which subtracts dense residuals and
    therefore always materializes.
    """
    if solver not in _SOLVERS:
        raise ValidationError(
            f"unknown solver {solver!r}; expected one of {_SOLVERS}"
        )
    if solver != "auto":
        return solver
    if decomposition == "power":
        return "dense"
    n_entries = math.prod(int(d) for d in dims)  # exact — never wraps
    return "implicit" if n_entries > AUTO_SOLVER_DENSE_BUDGET else "dense"


def multiview_canonical_correlation(views, canonical_vectors) -> float:
    """High-order canonical correlation ``(z_1 ⊙ z_2 ⊙ … ⊙ z_m)^T e``.

    Computes the left-hand side of Theorem 1 directly from data: project
    each (centered) view with its canonical vector and sum the element-wise
    product of the canonical variables, normalized by ``N`` to match the
    ``1/N``-scaled covariance tensor.
    """
    views = check_views(views, min_views=2)
    if len(canonical_vectors) != len(views):
        raise ValidationError(
            f"need one canonical vector per view ({len(views)}), "
            f"got {len(canonical_vectors)}"
        )
    n_samples = views[0].shape[1]
    product = np.ones(n_samples)
    for view, vector in zip(views, canonical_vectors):
        vector = np.asarray(vector, dtype=np.float64).ravel()
        if vector.shape[0] != view.shape[0]:
            raise ValidationError(
                "canonical vector length must match the view dimension; "
                f"got {vector.shape[0]} for dimension {view.shape[0]}"
            )
        product = product * (view.T @ vector)
    return float(product.sum() / n_samples)


@register("tcca")
class TCCA(MultiviewTransformer):
    """Tensor CCA for an arbitrary number of views.

    Parameters
    ----------
    n_components:
        Subspace dimension ``r`` per view; the concatenated output has
        ``m·r`` dimensions. Must satisfy ``r <= min_p d_p``.
    epsilon:
        Regularization ``ε`` of the variance constraints
        ``h_p^T (C_pp + ε I) h_p = 1`` (Eq. 4.8).
    solver:
        How the whitened tensor ``M`` is represented during the solve:
        ``"dense"`` materializes it (``∏ d_p`` memory — the paper's
        measured path), ``"implicit"`` runs the same decomposition against
        factored contractions of the whitened data
        (``O(N · Σ d_p · r)`` per sweep, no ``∏ d_p`` object), and
        ``"auto"`` (default) picks implicit once ``∏ d_p`` exceeds
        :data:`AUTO_SOLVER_DENSE_BUDGET`. Both produce the same canonical
        vectors up to round-off.
    decomposition:
        Solver for the rank-``r`` problem on the whitened tensor ``M``:
        ``"als"`` (joint CP-ALS — the paper's choice), ``"hopm"``
        (higher-order power method; only for ``n_components == 1``), or
        ``"power"`` (greedy rank-1 deflation, the ablation comparator —
        dense only).
    max_iter, tol:
        Iteration budget and tolerance passed to the tensor solver.
    random_state:
        Seed for solver initialization.
    n_jobs:
        Worker count for the parallel execution layer: ``None`` (default)
        defers to the ``REPRO_JOBS`` environment variable (missing means
        serial), ``-1`` means all cores, otherwise an integer >= 1. With
        more than one worker, moment accumulation runs as sharded
        map-reduce (reduced with the exact
        :meth:`~repro.core.engine.MomentState.merge`), the per-view
        whitening eigendecompositions fan out, and the implicit solver's
        blocked contraction kernels thread — the fitted model matches the
        serial fit to round-off regardless of shard count or order.
    executor:
        Execution policy: ``"auto"`` (threads when ``n_jobs > 1``),
        ``"serial"``, ``"thread"``, or ``"process"``. Policy is
        configuration, not fitted state — it is persisted with the other
        constructor parameters and never changes what a fit computes.
    nan_policy:
        How the incremental/accumulated ingest paths treat NaN/Inf
        samples: ``"raise"`` (default) rejects the minibatch with a
        typed :class:`~repro.exceptions.ValidationError` naming the
        offending view and chunk index; ``"skip"`` drops the affected
        samples from every view (keeping the sample axes aligned) and
        surfaces the running count as :attr:`n_skipped_` on the fitted
        model. One-shot :meth:`fit`/:meth:`fit_stream` always reject
        non-finite input — skipping only makes sense for long
        accumulation sessions fed by unattended pipelines.
    precision:
        Dtype policy of the fit (see :mod:`repro.backends`):

        * ``None`` / ``"float64"`` (default) — everything in float64,
          bit-for-bit the library's historical arithmetic;
        * ``"mixed"`` — moments accumulate in float64 (where the
          cancellation over ``N`` outer products lives), the whitened
          tensor / operator and its CP sweeps run in float32 at a
          tolerance floored at ``√ε_float32``, and both solvers finish
          with a float64 polish pass warm-started from the float32
          factors at the original ``tol``. The dense polish transiently
          upcasts the tensor; the implicit polish keeps the float32
          operator (its memory contract) and relies on float64 factor
          iterates promoting each contraction, so only the ~1e-7 view
          quantization survives;
        * ``"float32"`` — accumulation *and* compute in float32; fastest
          and smallest, for exploratory sweeps only.

        Whitening eigendecompositions always run in float64 (see
        :mod:`repro.linalg.whitening`). The resolved policy is recorded
        on the fitted model as :attr:`dtype_policy_` and persisted, so
        a reloaded model transforms at fit precision.

    Attributes
    ----------
    canonical_vectors_:
        List of ``(d_p, r)`` matrices ``H_p = C̃_pp^{-1/2} U_p``.
    factors_:
        The unit-norm whitened factors ``U_p`` of the CP decomposition.
    correlations_:
        CP weights ``λ^{(k)}`` — the attained canonical correlations per
        component (descending in magnitude for the ALS solver).
    covariance_tensor_shape_:
        Shape of the covariance tensor ``(d_1, …, d_m)``; its product is
        the memory cost the complexity experiments measure (and what the
        implicit solver avoids paying).
    solver_used_:
        ``"dense"`` or ``"implicit"`` — the resolved solver of this fit.
    moments_:
        Only after :meth:`partial_fit`: the mergeable
        :class:`~repro.core.engine.MomentState` the incremental session
        accumulates into. Persisted by :func:`repro.api.save_model`, so a
        reloaded model resumes exactly where it stopped.
    n_skipped_:
        Samples dropped so far by ``nan_policy="skip"`` across the
        model's accumulation session (0 for one-shot fits and the
        default ``"raise"`` policy).
    dtype_policy_:
        The resolved :class:`~repro.backends.DTypePolicy` of the fit as
        a plain dict (``compute_dtype``, ``accumulate_dtype``,
        ``polish``) — persisted in the model header so loading and
        serving reproduce the fit's precision.
    """

    #: derived solver output that transform never reads — not persisted.
    _non_persistent_ = ("decomposition_result_",)

    def __init__(
        self,
        n_components: int = 1,
        epsilon: float = 1e-2,
        *,
        solver: str = "auto",
        decomposition: str = "als",
        max_iter: int = 200,
        tol: float = 1e-8,
        random_state=None,
        n_jobs=None,
        executor: str = "auto",
        nan_policy: str = "raise",
        precision=None,
    ):
        self.n_components = check_positive_int(n_components, "n_components")
        self.nan_policy = check_nan_policy(nan_policy)
        resolve_precision(precision)  # validate eagerly; stored verbatim
        self.precision = precision
        if epsilon < 0.0:
            raise ValidationError(f"epsilon must be >= 0, got {epsilon}")
        self.epsilon = float(epsilon)
        if solver not in _SOLVERS:
            raise ValidationError(
                f"unknown solver {solver!r}; expected one of {_SOLVERS}"
            )
        self.solver = solver
        self.n_jobs = check_n_jobs(n_jobs)
        self.executor = check_executor_name(executor)
        if decomposition not in _DECOMPOSITIONS:
            raise ValidationError(
                f"unknown decomposition {decomposition!r}; expected one of "
                f"{_DECOMPOSITIONS}"
            )
        self.decomposition = decomposition
        if decomposition == "hopm" and self.n_components != 1:
            raise ValidationError(
                "decomposition='hopm' extracts a single component; use "
                "'als' or 'power' for n_components > 1"
            )
        if decomposition == "power" and solver == "implicit":
            raise ValidationError(
                "decomposition='power' deflates dense residuals and has no "
                "implicit form; use solver='dense' (or 'auto') with it"
            )
        self.max_iter = check_positive_int(max_iter, "max_iter")
        self.tol = float(tol)
        self.random_state = random_state

    def fit(self, views, *, precomputed: WhitenedTensor | None = None) -> "TCCA":
        """Learn canonical vectors from ``m >= 2`` views of shape ``(d_p, N)``.

        A one-shot fit: any incremental accumulator state from a previous
        :meth:`partial_fit` session is discarded (the fitted model then
        reflects exactly ``views``).

        Parameters
        ----------
        views:
            The view matrices.
        precomputed:
            Optional whitening state from
            :func:`whitened_covariance_tensor` /
            :func:`whitened_covariance_operator` computed on the *same*
            views with ``epsilon == self.epsilon``; skips the tensor
            construction (useful when sweeping ``n_components``).
        """
        views = check_views(views, min_views=2)
        dims = [view.shape[0] for view in views]
        self._check_rank(dims)
        solver = resolve_tcca_solver(self.solver, dims, self.decomposition)
        if precomputed is None:
            policy = self._policy()
            dtype_policy = self._dtype_policy()
            if solver == "implicit":
                precomputed = whitened_covariance_operator(
                    views, self.epsilon, policy=policy,
                    dtype_policy=dtype_policy,
                )
            else:
                precomputed = whitened_covariance_tensor(
                    views, self.epsilon, policy=policy,
                    dtype_policy=dtype_policy,
                )
        else:
            self._check_precomputed(precomputed, dims)
            solver = self._solver_for_precomputed(precomputed, solver)
        self._reset_incremental()
        return self._finish_fit(precomputed, dims, solver)

    def fit_stream(
        self,
        stream,
        *,
        chunk_size: int | None = None,
        precomputed: WhitenedTensor | None = None,
    ) -> "TCCA":
        """Learn canonical vectors from a chunked multi-view stream.

        The out-of-core counterpart of :meth:`fit`: consumes a
        :class:`~repro.streaming.views.ViewStream` (or a
        :class:`~repro.datasets.synthetic.MultiviewDataset` / list of view
        matrices, wrapped automatically) chunk by chunk, so peak
        covariance-accumulation memory is independent of the sample count.
        With the dense solver the stream is read once into the raw moment
        state (:func:`whitened_covariance_tensor_streaming`); with the
        implicit solver nothing ``∏ d_p``-sized exists either — the solver
        contracts against the stream directly
        (:func:`whitened_covariance_operator_streaming`). On the same data
        this yields the same canonical vectors as :meth:`fit` up to
        floating-point round-off.

        Parameters
        ----------
        stream:
            The chunked data source. The implicit solver iterates it
            several times (once per sweep), so it must then be
            re-iterable; the dense solver reads it once.
        chunk_size:
            Optional chunk size forwarded to the stream wrapper.
        precomputed:
            Optional whitening state built on the *same* stream with
            ``epsilon == self.epsilon``.
        """
        stream = as_view_stream(stream, chunk_size)
        dims = list(stream.dims)
        if len(dims) < 2:
            raise ValidationError(
                f"need at least 2 views, stream has {len(dims)}"
            )
        self._check_rank(dims)
        solver = resolve_tcca_solver(self.solver, dims, self.decomposition)
        if precomputed is None:
            policy = self._policy()
            dtype_policy = self._dtype_policy()
            if solver == "implicit":
                precomputed = whitened_covariance_operator_streaming(
                    stream, self.epsilon, policy=policy,
                    dtype_policy=dtype_policy,
                )
            else:
                precomputed = whitened_covariance_tensor_streaming(
                    stream, self.epsilon, policy=policy,
                    dtype_policy=dtype_policy,
                )
        else:
            self._check_precomputed(precomputed, dims)
            solver = self._solver_for_precomputed(precomputed, solver)
        self._reset_incremental()
        return self._finish_fit(precomputed, dims, solver)

    def partial_fit(self, views) -> "TCCA":
        """Fold a minibatch into the accumulated moments and refresh the fit.

        The incremental entry point of the staged engine: ``views`` (a
        list of aligned ``(d_p, n_batch)`` arrays, ``n_batch`` as small as
        one sample) is ingested into the model's mergeable
        :class:`~repro.core.engine.MomentState`, the whiteners are rebuilt
        from the updated moments, and the CP decomposition re-solves
        **warm-started** from the previous factors — near the previous
        optimum this re-converges in a small fraction of a cold refit's
        sweeps. After every call the model is fully fitted on *all*
        samples seen by the session: its moments match a cold :meth:`fit`
        on the concatenated data to round-off, but the warm-started solve
        may settle in a different local optimum than the cold one.

        The first call starts the session and fixes its geometry (view
        dimensions) and resolved solver. With the dense solver the state
        is the raw covariance tensor's moments — ``O(∏ d_p)``, independent
        of the sample count; with the implicit solver nothing
        ``∏ d_p``-sized exists and the state instead retains the ingested
        samples (``O(N · Σ d_p)``) plus per-view moments. The state is
        saved with the model (:func:`repro.api.save_model`), so a reloaded
        model resumes accumulating exactly where it stopped — the
        ``python -m repro update`` loop.

        A previous one-shot :meth:`fit` does **not** seed the session:
        its data is no longer available as moments, so the first
        :meth:`partial_fit` after it starts an empty session (a fresh
        model fitted on the minibatches seen from now on).
        """
        # NaN/Inf handling belongs to the moment state's nan_policy
        # (chunk-indexed raise, or skip-and-count) — not to this
        # shape/alignment check
        views = check_views(views, min_views=2, require_finite=False)
        dims = [view.shape[0] for view in views]
        moments = getattr(self, "moments_", None)
        if moments is None:
            self._check_rank(dims)
            solver = resolve_tcca_solver(
                self.solver, dims, self.decomposition
            )
            moments = MomentState(
                track_tensor=(solver == "dense"),
                retain_samples=(solver == "implicit"),
                dims=dims,
                nan_policy=self.nan_policy,
                dtype=self._accumulate_dtype(),
            )
            self.moments_ = moments
            # A brand-new session solves cold: factors_ possibly left by
            # a previous one-shot fit belong to data these moments do not
            # contain, and seeding ALS with them would pull the fresh
            # session toward an unrelated optimum.
            factors_init = None
        else:
            if list(moments.dims) != dims:
                raise ValidationError(
                    f"minibatch dimensions {dims} do not match the "
                    f"accumulated moments' {list(moments.dims)}"
                )
            solver = self._solver_for_moments(moments)
            factors_init = self._warm_factors(dims)
        policy = self._policy()
        engine.ingest_stage(moments, views, policy=policy)
        whitening = engine.whiten_stage(moments, self.epsilon, policy=policy)
        precomputed = engine.build_stage(
            moments, whitening, solver, policy=policy,
            dtype_policy=self._dtype_policy(),
        )
        return self._finish_fit(
            precomputed, dims, solver, factors_init=factors_init
        )

    def moment_state_for(self, dims) -> MomentState:
        """An empty :class:`MomentState` configured for this estimator.

        The accumulate side of the distributed protocol: a worker builds
        this state, ingests its shard of the data, and ships the result
        as a ``.moments`` artifact. The state's policy is resolved from
        the estimator's configuration exactly as :meth:`partial_fit`
        would — dense solvers track the raw covariance tensor, implicit
        solvers retain the samples — so shards accumulated by identically
        configured workers are mergeable with each other and with a
        local ``partial_fit`` session.
        """
        dims = [int(d) for d in dims]
        if len(dims) < 2:
            raise ValidationError(
                f"need at least 2 views, got dims={dims}"
            )
        self._check_rank(dims)
        solver = resolve_tcca_solver(self.solver, dims, self.decomposition)
        return MomentState(
            track_tensor=(solver == "dense"),
            retain_samples=(solver == "implicit"),
            dims=dims,
            nan_policy=self.nan_policy,
            dtype=self._accumulate_dtype(),
        )

    def fit_moments(self, moments: MomentState) -> "TCCA":
        """Fit from accumulated moments alone — the reduce-side finalize.

        Runs the tail of the staged engine (``whiten → build → decompose
        → finalize``) on a :class:`MomentState`, typically the merge of
        ``.moments`` shards accumulated elsewhere. The moments become the
        model's incremental session (``moments_``), so a reduced model
        keeps accepting :meth:`partial_fit` minibatches and
        ``python -m repro update`` refreshes exactly like one fitted
        locally.
        """
        if moments.dims is None or moments.n_samples == 0:
            raise ValidationError(
                "fit_moments needs a non-empty moment state (accumulate "
                "at least one sample before reducing)"
            )
        dims = [int(d) for d in moments.dims]
        self._check_rank(dims)
        solver = self._solver_for_moments(moments)
        policy = self._policy()
        whitening = engine.whiten_stage(moments, self.epsilon, policy=policy)
        precomputed = engine.build_stage(
            moments, whitening, solver, policy=policy,
            dtype_policy=self._dtype_policy(),
        )
        self.moments_ = moments
        return self._finish_fit(precomputed, dims, solver)

    def _policy(self):
        """The execution policy of this fit, resolved from configuration."""
        return resolve_executor(self.executor, self.n_jobs)

    def _dtype_policy(self):
        """The resolved dtype policy, or ``None`` for the float64 default.

        Returning ``None`` (not the default policy object) keeps every
        float64 code path on the exact pre-policy arithmetic — the
        engine's casts are then skipped entirely, not run as no-ops.
        """
        policy = resolve_precision(self.precision)
        return None if policy.is_default else policy

    def _accumulate_dtype(self):
        """Moment-accumulation dtype (``None`` → float64 default)."""
        policy = self._dtype_policy()
        return None if policy is None else policy.accumulate

    def _reset_incremental(self) -> None:
        """Drop any partial_fit session state (one-shot fits replace it)."""
        if hasattr(self, "moments_"):
            del self.moments_

    def _solver_for_moments(self, moments: MomentState) -> str:
        """The solver an accumulated moment state can serve.

        The session's resolved solver is implied by the moment policy; an
        explicit ``solver`` parameter that contradicts it (e.g. changed
        via ``set_params`` after the session started, or after loading)
        is an error rather than a silent restart.
        """
        solver = "dense" if moments.track_tensor else "implicit"
        if self.solver not in ("auto", solver):
            raise ValidationError(
                f"solver={self.solver!r} cannot resume a partial_fit "
                f"session accumulated for the {solver!r} solver; keep "
                "the session's solver (or refit from scratch)"
            )
        return solver

    def _warm_factors(self, dims) -> list[np.ndarray] | None:
        """Previous factors, if they can warm-start the next solve."""
        factors = getattr(self, "factors_", None)
        if factors is None or self.decomposition == "power":
            return None
        if len(dims) == 2:
            # For m=2 the whitened tensor is a matrix, whose rank-r CP has
            # a continuum of equivalent factorizations; warm factors would
            # converge to an arbitrary mix instead of the SVD-canonical
            # solution the HOSVD init lands on directly (the init *is* the
            # optimum there, so a cold start already converges in a couple
            # of sweeps).
            return None
        if len(factors) != len(dims):
            return None
        for factor, dim in zip(factors, dims):
            if factor.shape != (int(dim), self.n_components):
                return None
        return [np.array(factor, copy=True) for factor in factors]

    def _check_rank(self, dims) -> None:
        max_rank = min(dims)
        if self.n_components > max_rank:
            raise ValidationError(
                f"n_components={self.n_components} exceeds the smallest view "
                f"dimension {max_rank} (the paper requires r <= min_p d_p)"
            )

    def _check_precomputed(self, precomputed: WhitenedTensor, dims) -> None:
        # isclose rather than !=: an ε that round-tripped through a JSON
        # config (or was recomputed as e.g. 0.1 * 0.1) must still match
        # the precomputed whitening state it was built with.
        if not math.isclose(
            precomputed.epsilon, self.epsilon, rel_tol=1e-9, abs_tol=1e-12
        ):
            raise ValidationError(
                f"precomputed state was built with epsilon="
                f"{precomputed.epsilon}, the estimator uses "
                f"{self.epsilon}"
            )
        if precomputed.dims != list(dims):
            raise ValidationError(
                "precomputed state dimensions do not match the views"
            )

    def _solver_for_precomputed(
        self, precomputed: WhitenedTensor, resolved: str
    ) -> str:
        """Reconcile the resolved solver with what ``precomputed`` carries.

        ``solver="auto"`` adapts to the available form (whoever built the
        state already paid its cost); an *explicit* solver choice that the
        state cannot serve is an error rather than a silent fallback.
        """
        if self.solver == "auto":
            if resolved == "implicit" and not precomputed.has_operator:
                return "dense"
            if resolved == "dense" and not precomputed.has_tensor:
                if self.decomposition == "power":
                    raise ValidationError(
                        "decomposition='power' needs a precomputed state "
                        "carrying the dense tensor; this one holds only "
                        "the implicit operator (build it with "
                        "whitened_covariance_tensor)"
                    )
                return "implicit"
            return resolved
        if resolved == "dense" and not precomputed.has_tensor:
            raise ValidationError(
                "solver='dense' needs a precomputed state carrying the "
                "dense tensor; this one holds only the implicit operator "
                "(build it with whitened_covariance_tensor)"
            )
        if resolved == "implicit" and not precomputed.has_operator:
            raise ValidationError(
                "solver='implicit' needs a precomputed state carrying the "
                "operator; this one holds only the dense tensor "
                "(build it with whitened_covariance_operator)"
            )
        return resolved

    def _finish_fit(
        self,
        precomputed: WhitenedTensor,
        dims,
        solver: str,
        *,
        factors_init=None,
    ) -> "TCCA":
        """Decompose the whitened tensor and set the fitted attributes."""
        self.means_ = precomputed.means
        self.covariance_tensor_shape_ = tuple(int(d) for d in dims)
        self.solver_used_ = solver

        dtype_policy = self._dtype_policy()
        sweep_tol = (
            self.tol if dtype_policy is None
            else dtype_policy.sweep_tol(self.tol)
        )
        spec = engine.DecompositionSpec(
            method=self.decomposition,
            rank=self.n_components,
            max_iter=self.max_iter,
            tol=sweep_tol,
            random_state=self.random_state,
        )
        # Final polish sweep (mixed policy): re-solve in float64 at the
        # original tol, warm-started from the low-precision factors —
        # near the optimum this converges in a handful of sweeps and
        # strips the float32 iteration round-off. The deflation solver
        # re-solves from scratch and has no meaningful warm start.
        polish = (
            dtype_policy is not None
            and dtype_policy.polish
            and self.decomposition != "power"
        )
        polish_spec = engine.DecompositionSpec(
            method=self.decomposition,
            rank=self.n_components,
            max_iter=self.max_iter,
            tol=self.tol,
            random_state=self.random_state,
        )
        if solver == "implicit":
            result = engine.decompose_stage(
                spec, operator=precomputed.operator, factors_init=factors_init
            )
            if polish:
                # The operator keeps its float32 whitened views (its
                # memory contract); float64 warm-start factors promote
                # every contraction to float64 arithmetic, so the sweeps
                # converge at the original tol and only the ~1e-7 view
                # quantization remains.
                result = engine.decompose_stage(
                    polish_spec,
                    operator=precomputed.operator,
                    factors_init=[
                        np.asarray(factor, dtype=np.float64)
                        for factor in result.cp.factors
                    ],
                )
        else:
            result = engine.decompose_stage(
                spec, tensor=precomputed.tensor, factors_init=factors_init
            )
            if polish:
                # The upcast is transient; the float32 tensor stays the
                # fit's resident form.
                result = engine.decompose_stage(
                    polish_spec,
                    tensor=np.asarray(
                        precomputed.tensor, dtype=np.float64
                    ),
                    factors_init=[
                        np.asarray(factor, dtype=np.float64)
                        for factor in result.cp.factors
                    ],
                )
        finalized = engine.finalize_stage(result, precomputed.whiteners)
        self.decomposition_result_ = result
        # Canonical correlations are reported in float64 regardless of
        # the compute dtype — they are scalars-per-component, and the
        # user-facing contract (ordering, comparisons across fits of
        # different precisions) should not depend on the policy.
        self.correlations_ = np.asarray(
            finalized.correlations, dtype=np.float64
        )
        self.factors_ = finalized.factors
        compute = None if dtype_policy is None else dtype_policy.compute
        self.canonical_vectors_ = (
            finalized.canonical_vectors
            if compute is None
            else [
                np.asarray(vectors, dtype=compute)
                for vectors in finalized.canonical_vectors
            ]
        )
        self.dtype_policy_ = resolve_precision(self.precision).to_dict()
        self.n_views_ = len(dims)
        self._dims = list(dims)
        moments = getattr(self, "moments_", None)
        self.n_skipped_ = 0 if moments is None else int(moments.n_skipped)
        return self

    @property
    def _transform_dtype(self) -> np.dtype:
        """Compute dtype of projections, from the fit's recorded policy.

        Models saved before the policy existed carry no
        ``dtype_policy_`` and project in float64 — their historical
        behaviour.
        """
        policy = getattr(self, "dtype_policy_", None)
        if policy is None:
            return np.dtype(np.float64)
        return np.dtype(policy["compute_dtype"])

    def transform(self, views, *, chunk_size: int | None = None) -> list[np.ndarray]:
        """Project every view: ``Z_p = X_p^T H_p`` of shape ``(N, r)``.

        ``chunk_size`` bounds the projection's working memory: the views
        are processed in sample slices of that width, so the centered
        intermediates never exceed one slice per view — transform of a
        very large ``N`` runs memory-bounded. The result is identical
        (same arithmetic per sample) either way.

        Projections run in the fit's recorded compute dtype: a
        mixed/float32 model casts the inputs down and returns float32
        canonical variables rather than silently upcasting its float32
        canonical vectors through float64 inputs.
        """
        self._check_fitted()
        views = self._check_transform_views(views, self._dims)
        dtype = self._transform_dtype
        views = [view.astype(dtype, copy=False) for view in views]
        means = [
            np.asarray(mean, dtype=dtype) for mean in self.means_
        ]
        if chunk_size is None:
            return [
                (view - mean).T @ vectors
                for view, mean, vectors in zip(
                    views, means, self.canonical_vectors_
                )
            ]
        chunk_size = check_positive_int(chunk_size, "chunk_size")
        n_samples = views[0].shape[1]
        outputs = [
            np.empty((n_samples, vectors.shape[1]), dtype=dtype)
            for vectors in self.canonical_vectors_
        ]
        for start in range(0, n_samples, chunk_size):
            stop = min(start + chunk_size, n_samples)
            for view, mean, vectors, output in zip(
                views, means, self.canonical_vectors_, outputs
            ):
                output[start:stop] = (
                    view[:, start:stop] - mean
                ).T @ vectors
        return outputs

    def canonical_correlations(self, views) -> np.ndarray:
        """Empirical high-order correlations of each component on ``views``.

        Evaluates Theorem 1's data-side expression for every fitted
        component — useful for validating the tensor-side optimum.
        """
        self._check_fitted()
        views = self._check_transform_views(views, self._dims)
        centered = [view - mean for view, mean in zip(views, self.means_)]
        return np.array(
            [
                multiview_canonical_correlation(
                    centered,
                    [vectors[:, k] for vectors in self.canonical_vectors_],
                )
                for k in range(self.n_components)
            ]
        )
