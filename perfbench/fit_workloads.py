"""The three fit-side workloads: streamed dense fit, wide implicit fit, refresh.

Every dataset comes from ``make_multiview_latent`` with five signal
factors, seeded from the benchmark's ``--seed``. Five factors match the
rank-5 fits: with the generator's default four, the fifth component is
noise and the number of ALS sweeps swings by up to 7x between seeds
(measured 28 to 200 on ``fit_stream_dense``), which no run length can
average out. The rank-5, five-factor problem still exercises the cold
and the warm-started solve on every path.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from common import metric, p50, timed_setup, timing_summary

RANK = 5
N_SIGNAL_FACTORS = 5
EPSILON = 1e-2  # TCCA's default regularisation

SIZES = {
    "fit_stream_dense": {"n": 20000, "dims": (60, 50, 40), "chunk": 2000},
    "fit_implicit_wide": {"n": 2500, "dims": (400, 300, 200), "solver": "auto"},
    "refresh_incremental": {"calls": 60, "batch": 500, "dims": (60, 50, 40)},
}
# Smoke sizes are far below AUTO_SOLVER_DENSE_BUDGET, so the implicit
# solver is named there instead of picked by "auto".
SMOKE_SIZES = {
    "fit_stream_dense": {"n": 600, "dims": (8, 7, 6), "chunk": 200},
    "fit_implicit_wide": {"n": 300, "dims": (30, 20, 15), "solver": "implicit"},
    "refresh_incremental": {"calls": 6, "batch": 300, "dims": (20, 16, 12)},
}

# Check tolerances, fixed before measuring.
STREAM_VS_BATCH_TOL = 1e-9      # measured agreement ~5e-15
IMPLICIT_IDENTITY_TOL = 1e-8    # variance constraint, refit determinism
IMPLICIT_RECORDED_TOL = 1e-6    # against values recorded per seed
MOMENT_TOL = 1e-9               # incremental vs batch moments (relative)
REFRESH_CORRELATION_TOL = 1e-2  # warm session vs cold fit (loose) ...
REFRESH_ERROR_TOL = 1e-2        # ... else relative error of the CP fit of M


def seed_sequence(seed: int, *stream) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed % (1 << 64), *stream])


def make_views(n, dims, seed, *stream):
    from repro.datasets import make_multiview_latent

    dataset = make_multiview_latent(
        n,
        dims,
        n_signal_factors=N_SIGNAL_FACTORS,
        random_state=np.random.default_rng(seed_sequence(seed, *stream)),
    )
    return [np.ascontiguousarray(view) for view in dataset.views]


def relative_gap(actual, expected) -> float:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    return float(np.max(np.abs(actual - expected))) / scale


def peak_mb(operation) -> float:
    """tracemalloc peak of one call of ``operation``, in MB."""
    tracemalloc.start()
    try:
        operation()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


# -- fit_stream_dense ------------------------------------------------------


class StreamDense:
    """``TCCA.fit_stream`` over chunked views, checked against a batch fit."""

    def __init__(self, seed, sizes):
        from repro import TCCA

        self.sizes = sizes
        self.views = make_views(sizes["n"], sizes["dims"], seed, 0)
        self.reference = TCCA(n_components=RANK, solver="dense").fit(
            self.views
        )
        self.operation()  # warm-up

    def operation(self):
        from repro import TCCA
        from repro.streaming.views import ArrayViewStream

        return TCCA(n_components=RANK, solver="dense").fit_stream(
            ArrayViewStream(self.views, chunk_size=self.sizes["chunk"])
        )

    def check(self, model) -> list[str]:
        problems = []
        gap = relative_gap(model.correlations_, self.reference.correlations_)
        if not gap <= STREAM_VS_BATCH_TOL:
            problems.append(f"stream vs batch correlations differ by {gap:.3g}")
        for p, (got, want) in enumerate(
            zip(model.canonical_vectors_, self.reference.canonical_vectors_)
        ):
            gap = relative_gap(got, want)
            if not gap <= STREAM_VS_BATCH_TOL:
                problems.append(f"view {p} vectors differ by {gap:.3g}")
        return problems


# -- fit_implicit_wide -----------------------------------------------------


class ImplicitWide:
    """``TCCA.fit`` with ``solver="auto"`` on views too wide for ``∏ d_p``."""

    def __init__(self, seed, sizes, recorded=None):
        self.sizes = sizes
        self.views = make_views(sizes["n"], sizes["dims"], seed, 0)
        n = self.views[0].shape[1]
        self.centered = [
            view - view.mean(axis=1, keepdims=True) for view in self.views
        ]
        # C_pp + eps I from the raw views, for the variance constraints
        self.regularized = [
            x @ x.T / n + EPSILON * np.eye(x.shape[0]) for x in self.centered
        ]
        self.recorded = recorded
        self.first = self.operation()  # warm-up, and the determinism anchor

    def operation(self):
        from repro import TCCA

        return TCCA(
            n_components=RANK, epsilon=EPSILON, solver=self.sizes["solver"]
        ).fit(self.views)

    def recomputed(self, model):
        """The CP weights implied by the vectors, from the raw views.

        ``rho_k = mean_n prod_p h_pk'(x_pn - mean_p)`` is ``M`` contracted
        with component ``k``. The correlations are the least-squares CP
        weights, so they solve ``G lambda = rho`` with the Gram matrix
        ``G = prod_p H_p'(C_pp + eps I)H_p`` (elementwise product over
        views); measured agreement ~1e-14 for every seed.
        """
        vectors = model.canonical_vectors_
        rho = np.prod(
            [h.T @ x for h, x in zip(vectors, self.centered)], axis=0
        ).mean(axis=1)
        gram = np.prod(
            [h.T @ c @ h for h, c in zip(vectors, self.regularized)], axis=0
        )
        return np.linalg.solve(gram, rho)

    def check(self, model) -> list[str]:
        problems = []
        if model.solver_used_ != "implicit":
            problems.append(f"solver {model.solver_used_!r}, not implicit")
        for p, (h, c) in enumerate(zip(model.canonical_vectors_, self.regularized)):
            norms = np.einsum("ik,ij,jk->k", h, c, h)
            gap = float(np.max(np.abs(norms - 1.0)))
            if not gap <= IMPLICIT_IDENTITY_TOL:
                problems.append(f"view {p}: h'(C+eps I)h off 1 by {gap:.3g}")
        gap = relative_gap(model.correlations_, self.recomputed(model))
        if not gap <= IMPLICIT_IDENTITY_TOL:
            problems.append(
                f"correlations off their recomputation from the views by {gap:.3g}"
            )
        gap = relative_gap(model.correlations_, self.first.correlations_)
        if not gap <= IMPLICIT_IDENTITY_TOL:
            problems.append(f"refit differs from the first fit by {gap:.3g}")
        if self.recorded is not None:
            gap = float(np.max(np.abs(model.correlations_ - self.recorded)))
            if not gap <= IMPLICIT_RECORDED_TOL:
                problems.append(f"correlations off recorded by {gap:.3g}")
        return problems


def _fit_loop(workload, seconds, clock=time.perf_counter):
    """Back-to-back operations for ``seconds``; returns timings, failures."""
    durations, failures = [], []
    failed = 0
    deadline = clock() + seconds
    while True:
        start = clock()
        try:
            model = workload.operation()
        except Exception as error:  # a failed operation is counted, not fatal
            problems = [f"{type(error).__name__}: {error}"]
            durations.append(clock() - start)
        else:
            durations.append(clock() - start)
            problems = workload.check(model)
        failed += bool(problems)
        failures.extend(problems)
        if clock() >= deadline:
            return durations, failed, failures


def _fit_workload(name, seed, sizes, recorded_for):
    if name == "fit_implicit_wide":
        return ImplicitWide(seed, sizes, recorded_for(seed))
    return StreamDense(seed, sizes)


def run_fit(name, args, sizes, recorded_for):
    """Untraced run of a fit workload: the end-to-end metrics."""
    workload, setup_s, setup_all = timed_setup(
        lambda: _fit_workload(name, args.seed, sizes, recorded_for)
    )
    durations, failed, failures = _fit_loop(workload, args.seconds)
    peak = peak_mb(workload.operation)
    summary = timing_summary(durations)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "p50_ms": metric(summary["p50"] * 1e3, "ms"),
        "peak_mb": metric(peak, "MB"),
        "max_ops_per_s": metric(len(durations) / sum(durations), "1/s"),
    }
    details = {
        "operation": "one fit",
        "sizes": sizes,
        "setup_runs_s": setup_all,
        "timing": summary,
        "failures": failures[:20],
    }
    if name == "fit_implicit_wide":
        details["recorded_correlations"] = workload.recorded is not None
    return metrics, len(durations), failed, details


def trace_fit(name, args, sizes, recorded_for, tracer):
    """Traced run: alternate untraced and traced operations."""
    from layers import install_fit_layers

    workload = _fit_workload(name, args.seed, sizes, recorded_for)
    plain, traced, failures = [], [], []
    failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        for durations, trace in ((plain, False), (traced, True)):
            if trace:
                install_fit_layers(tracer)
            error = None
            start = time.perf_counter()
            try:
                model = workload.operation()
            except Exception as caught:  # counted as failed, as untraced
                error = caught
            finally:
                durations.append(time.perf_counter() - start)
                tracer.unpatch()
            if error is None:
                problems = workload.check(model)
            else:
                problems = [f"{type(error).__name__}: {error}"]
            failed += bool(problems)
            failures.extend(problems)
        if time.perf_counter() >= deadline:
            break
    return {
        "ops": len(traced),
        "plain_s": plain,
        "traced_s": traced,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "failures": failures,
    }


# -- refresh_incremental ---------------------------------------------------


class RefreshPass:
    """One ``partial_fit`` session over a fresh dataset, plus its references."""

    def __init__(self, seed, index, sizes):
        from repro import TCCA
        from repro.core.engine import MomentState

        self.sizes = sizes
        n = sizes["calls"] * sizes["batch"]
        self.views = make_views(n, sizes["dims"], seed, 1, index)
        self.batch_moments = MomentState(
            track_tensor=True, dims=sizes["dims"]
        ).update(self.views)
        self.cold = TCCA(n_components=RANK, solver="dense").fit(self.views)
        self.optimum_gaps = []

    def minibatch(self, call):
        lo = call * self.sizes["batch"]
        return [view[:, lo:lo + self.sizes["batch"]] for view in self.views]

    def run(self, clock, hook=None):
        """All calls of the session; returns (model, per-call seconds).

        ``hook(call, entering)`` runs around each call, outside its timing.
        """
        from repro import TCCA

        model = TCCA(n_components=RANK, solver="dense")
        durations = []
        for call in range(self.sizes["calls"]):
            batch = self.minibatch(call)
            if hook is not None:
                hook(call, True)
            start = clock()
            try:
                model.partial_fit(batch)
            finally:
                durations.append(clock() - start)
                if hook is not None:
                    hook(call, False)
        return model, durations

    def check(self, model) -> list[str]:
        problems = []
        session = model.moments_
        if session.n_samples != self.batch_moments.n_samples:
            problems.append(
                f"session holds {session.n_samples} samples, batch "
                f"{self.batch_moments.n_samples}"
            )
            return problems
        pairs = [("tensor", session.tensor(), self.batch_moments.tensor())]
        pairs += [
            (f"mean {p}", got, want)
            for p, (got, want) in enumerate(
                zip(session.means(), self.batch_moments.means())
            )
        ]
        pairs += [
            (f"covariance {p}", got, want)
            for p, (got, want) in enumerate(
                zip(
                    session.view_covariances(),
                    self.batch_moments.view_covariances(),
                )
            )
        ]
        for label, got, want in pairs:
            gap = relative_gap(got, want)
            if not gap <= MOMENT_TOL:
                problems.append(f"incremental {label} off batch by {gap:.3g}")
        # Loose: a warm-started session may settle in another local optimum
        # than a cold fit. That passes when the session's CP model fits the
        # whitened tensor M of all its samples about as well (relative
        # reconstruction error at most REFRESH_ERROR_TOL above the cold's).
        gap = float(np.max(np.abs(model.correlations_ - self.cold.correlations_)))
        if not gap <= REFRESH_CORRELATION_TOL:
            tensor = self.whitened_tensor()
            warm = model.decomposition_result_.relative_error(tensor)
            cold = self.cold.decomposition_result_.relative_error(tensor)
            self.optimum_gaps.append((gap, warm, cold))
            if not warm <= cold + REFRESH_ERROR_TOL:
                problems.append(
                    f"warm session correlations {gap:.3g} off the cold fit's "
                    f"and a worse fit of M (error {warm:.6f} vs {cold:.6f})"
                )
        return problems

    def whitened_tensor(self):
        from repro.core import engine

        whitening = engine.whiten_stage(self.batch_moments, EPSILON)
        return engine.build_stage(
            self.batch_moments, whitening, "dense"
        ).tensor


class Refresh:
    """Setup of ``refresh_incremental``: the first pass and a warm-up call."""

    def __init__(self, seed, sizes):
        from repro import TCCA

        self.seed = seed
        self.sizes = sizes
        self.first = RefreshPass(seed, 0, sizes)
        TCCA(n_components=RANK, solver="dense").partial_fit(
            self.first.minibatch(0)
        )


def _refresh_passes(setup, seconds, hook_for=None):
    """Whole passes, each on a fresh dataset, until ``seconds`` elapse.

    Dataset generation and the reference computations are untimed. Returns
    one record per pass (``index``, per-call ``durations``, ``bad`` calls,
    local ``optima`` gaps) and the failure messages.
    """
    clock = time.perf_counter
    deadline = clock() + seconds
    current = setup.first
    passes, failures = [], []
    index = 0
    while True:
        hook = hook_for(index) if hook_for is not None else None
        record = {"index": index, "durations": [], "bad": 0, "optima": []}
        try:
            model, record["durations"] = current.run(clock, hook)
        except Exception as error:
            failures.append(f"pass {index}: {type(error).__name__}: {error}")
            record["bad"] = current.sizes["calls"]
        else:
            problems = current.check(model)
            failures.extend(f"pass {index}: {p}" for p in problems)
            # a failed end-of-pass check fails every call of the pass
            record["bad"] = current.sizes["calls"] if problems else 0
            record["optima"] = current.optimum_gaps
        passes.append(record)
        index += 1
        if clock() >= deadline:
            return passes, failures
        current = RefreshPass(setup.seed, index, setup.sizes)


def _warm(passes, traced=None):
    """Warm-call timings; a session's first call is its cold start."""
    return [
        d for record in passes
        if traced is None or (record["index"] % 2 == 1) == traced
        for d in record["durations"][1:]
    ]


def _refresh_peak_mb(setup) -> float:
    from repro import TCCA

    model = TCCA(n_components=RANK, solver="dense")
    model.partial_fit(setup.first.minibatch(0))
    return peak_mb(lambda: model.partial_fit(setup.first.minibatch(1)))


def run_refresh(args, sizes):
    setup, setup_s, setup_all = timed_setup(lambda: Refresh(args.seed, sizes))
    passes, failures = _refresh_passes(setup, args.seconds)
    durations = _warm(passes)
    peak = _refresh_peak_mb(setup)
    summary = timing_summary(durations)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "p50_ms": metric(summary["p50"] * 1e3, "ms"),
        "peak_mb": metric(peak, "MB"),
        "max_ops_per_s": metric(len(durations) / sum(durations), "1/s"),
    }
    details = {
        "operation": "one warm partial_fit call",
        "sizes": sizes,
        "passes": len(passes),
        "setup_runs_s": setup_all,
        "timing": summary,
        "pass_p50_ms": [p50(r["durations"][1:]) * 1e3 for r in passes],
        "opening_call_ms": [r["durations"][0] * 1e3 for r in passes if r["durations"]],
        "other_local_optima": [r["optima"] for r in passes if r["optima"]],
        "failures": failures[:20],
    }
    attempted = len(passes) * sizes["calls"]
    return metrics, attempted, sum(r["bad"] for r in passes), details


def trace_refresh(args, sizes, tracer):
    """Traced run: even passes untraced, odd passes traced call by call."""
    from layers import install_fit_layers

    setup = Refresh(args.seed, sizes)

    def hook_for(index):
        if index % 2 == 0:
            return None

        def hook(call, entering):
            if call == 0:
                return  # the session-opening cold solve is not a refresh
            if entering:
                install_fit_layers(tracer)
            else:
                tracer.unpatch()

        return hook

    passes, failures = _refresh_passes(setup, args.seconds, hook_for)
    if len(passes) < 2:  # always trace at least one pass
        extra = RefreshPass(setup.seed, 1, sizes)
        model, durations = extra.run(time.perf_counter, hook_for(1))
        problems = extra.check(model)
        failures.extend(f"pass 1: {p}" for p in problems)
        passes.append({"index": 1, "durations": durations,
                       "bad": sizes["calls"] if problems else 0})
    plain, traced = _warm(passes, traced=False), _warm(passes, traced=True)
    attempted = len(passes) * sizes["calls"]
    failed = sum(r["bad"] for r in passes)
    return {
        "ops": len(traced),
        "plain_s": plain,
        "traced_s": traced,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
