"""Parallel execution layer: executors, sharding, map-reduce equivalence.

The contract under test is the headline guarantee of
:mod:`repro.parallel`: parallelism never changes what is computed.
Sharded accumulation reduced with the exact ``merge()`` matches the
single-pass statistics to ≤1e-12 for any shard count, shard order, or
executor, and end-to-end parallel fits match serial fits to ≤1e-10 in
canonical correlations.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KTCCA, TCCA, MomentState
from repro.core import engine
from repro.exceptions import ValidationError
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    accumulate_parallel,
    check_n_jobs,
    effective_n_jobs,
    parallel_chunk_size,
    resolve_executor,
    shard_stream,
)
from repro.parallel.sharding import _accumulate_shard
from repro.streaming import (
    ArrayViewStream,
    GeneratorViewStream,
    StreamingCovarianceTensor,
    ViewStream,
    iter_validated_chunks,
)
from repro.tensor.operator import CovarianceTensorOperator


def _latent_views(dims, n_samples, seed=0, noise=0.3, offset=0.0):
    """Shared-factor views with separated strengths (well-conditioned)."""
    rng = np.random.default_rng(seed)
    strengths = (2.0 * 0.5 ** np.arange(3))[:, None]
    signal = strengths * rng.standard_normal((3, n_samples))
    return [
        rng.standard_normal((d, 3)) @ signal
        + noise * rng.standard_normal((d, n_samples))
        + offset
        for d in dims
    ]


# -- executors ---------------------------------------------------------------


class TestExecutors:
    def test_check_n_jobs_accepts_none_minus_one_and_positive(self):
        assert check_n_jobs(None) is None
        assert check_n_jobs(-1) == -1
        assert check_n_jobs(np.int64(3)) == 3

    @pytest.mark.parametrize("bad", [0, -2, 2.5, True, "4"])
    def test_check_n_jobs_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            check_n_jobs(bad)

    def test_effective_n_jobs_reads_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert effective_n_jobs(None) == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert effective_n_jobs(None) == 3
        assert effective_n_jobs(2) == 2  # explicit beats env

    def test_effective_n_jobs_rejects_bad_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(ValidationError):
            effective_n_jobs(None)
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValidationError):
            effective_n_jobs(None)

    def test_effective_n_jobs_all_cores(self):
        import os

        assert effective_n_jobs(-1) == max(1, os.cpu_count() or 1)

    def test_resolve_executor_kinds(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert isinstance(resolve_executor("auto", None), SerialExecutor)
        assert isinstance(resolve_executor("auto", 4), ThreadExecutor)
        assert isinstance(resolve_executor("serial", 4), SerialExecutor)
        assert isinstance(resolve_executor("thread", 2), ThreadExecutor)
        assert isinstance(resolve_executor("process", 2), ProcessExecutor)
        policy = ThreadExecutor(5)
        assert resolve_executor(policy, 2) is policy
        with pytest.raises(ValidationError):
            resolve_executor("fork", 2)

    @pytest.mark.parametrize(
        "policy",
        [SerialExecutor(), ThreadExecutor(3), ProcessExecutor(2)],
        ids=["serial", "thread", "process"],
    )
    def test_map_preserves_input_order(self, policy):
        items = list(range(11))
        assert policy.map(str, items) == [str(item) for item in items]
        assert policy.starmap(divmod, [(7, 3), (9, 2)]) == [(2, 1), (4, 1)]

    def test_for_shared_memory_demotes_process_to_thread(self):
        demoted = ProcessExecutor(4).for_shared_memory()
        assert isinstance(demoted, ThreadExecutor)
        assert demoted.n_workers == 4
        thread = ThreadExecutor(2)
        assert thread.for_shared_memory() is thread

    def test_pool_is_reused_across_map_calls(self):
        policy = ThreadExecutor(2)
        policy.map(str, range(4))
        pool = policy._pool
        assert pool is not None
        policy.map(str, range(4))
        assert policy._pool is pool  # no per-call pool churn
        policy.shutdown()
        assert policy._pool is None
        assert policy.map(str, range(3)) == ["0", "1", "2"]  # recreates
        policy.shutdown()


# -- sharding ----------------------------------------------------------------


class TestSharding:
    def test_shards_partition_the_chunk_sequence(self):
        views = _latent_views((5, 4), 100, seed=1)
        stream = ArrayViewStream(views, chunk_size=17)  # 6 chunks, last=15
        shards = shard_stream(stream, 4)
        assert len(shards) == 4
        assert sum(shard.n_samples for shard in shards) == 100
        replayed = [
            chunk
            for shard in shards
            for chunk in iter_validated_chunks(shard)
        ]
        original = list(iter_validated_chunks(stream))
        assert len(replayed) == len(original)
        for mine, theirs in zip(replayed, original):
            for a, b in zip(mine, theirs):
                np.testing.assert_array_equal(a, b)

    def test_more_shards_than_chunks_yields_empty_tails(self):
        views = _latent_views((4, 3), 30, seed=2)
        stream = ArrayViewStream(views, chunk_size=16)  # 2 chunks
        shards = shard_stream(stream, 5)
        assert [shard.n_samples for shard in shards] == [16, 14, 0, 0, 0]
        assert list(shards[-1].chunks()) == []

    def test_generator_stream_shards(self):
        def factory(index, start, stop):
            rng = np.random.default_rng(index)
            return [rng.standard_normal((d, stop - start)) for d in (4, 3)]

        stream = GeneratorViewStream(factory, 50, (4, 3), chunk_size=12)
        shards = shard_stream(stream, 3)
        assert sum(shard.n_samples for shard in shards) == 50
        replayed = [
            chunk
            for shard in shards
            for chunk in iter_validated_chunks(shard)
        ]
        for mine, theirs in zip(replayed, iter_validated_chunks(stream)):
            for a, b in zip(mine, theirs):
                np.testing.assert_array_equal(a, b)

    def test_generator_shards_do_not_replay_earlier_chunks(self):
        """chunk_at random access: shard k generates only its own block."""
        calls = []

        def factory(index, start, stop):
            calls.append(index)
            rng = np.random.default_rng(index)
            return [rng.standard_normal((d, stop - start)) for d in (4, 3)]

        stream = GeneratorViewStream(factory, 60, (4, 3), chunk_size=10)
        shards = shard_stream(stream, 3)  # 6 chunks -> 2 per shard
        calls.clear()
        list(shards[2].chunks())  # the last shard: chunks 4 and 5
        assert calls == [4, 5]

    def test_shard_stream_requires_chunk_geometry(self):
        class Opaque(ViewStream):
            @property
            def dims(self):
                return (3, 2)

            @property
            def n_samples(self):
                return 10

            def chunks(self):
                yield (np.ones((3, 10)), np.ones((2, 10)))

        with pytest.raises(ValidationError, match="chunk_size"):
            shard_stream(Opaque(), 2)

    def test_empty_shards_carry_no_parent_data(self):
        """An empty shard must not ship the whole dataset to a worker."""
        views = _latent_views((4, 3), 30, seed=2)
        stream = ArrayViewStream(views, chunk_size=16)  # 2 chunks
        shards = shard_stream(stream, 5)
        import pickle

        for shard in shards[2:]:
            assert shard.n_samples == 0
            # a pickled empty shard is tiny — no view arrays inside
            assert len(pickle.dumps(shard)) < 1000

    def test_process_executor_falls_back_for_unpicklable_streams(self):
        """Closure-factory streams run under the thread twin, not a crash.

        Every stream_*_like dataset factory builds its chunk factory as
        a closure, which cannot cross a process boundary; the reduce
        must still work (threads), not die in ProcessPoolExecutor.
        """
        from repro.datasets import stream_multiview_latent

        stream = stream_multiview_latent(
            n_samples=200, dims=(6, 5, 4), chunk_size=32, random_state=0
        )
        serial = TCCA(
            n_components=2, solver="dense", random_state=0,
            executor="serial",
        ).fit_stream(stream)
        model = TCCA(
            n_components=2, solver="dense", random_state=0,
            n_jobs=2, executor="process",
        ).fit_stream(stream)
        np.testing.assert_allclose(
            model.correlations_, serial.correlations_, rtol=0, atol=1e-10
        )

    def test_accumulate_parallel_falls_back_to_serial_on_opaque_stream(self):
        class Opaque(ViewStream):
            @property
            def dims(self):
                return (3, 2)

            @property
            def n_samples(self):
                return 10

            def chunks(self):
                rng = np.random.default_rng(0)
                yield tuple(rng.standard_normal((d, 10)) for d in (3, 2))

        state = accumulate_parallel(
            Opaque(), partial(MomentState, track_tensor=True),
            ThreadExecutor(3),
        )
        assert state.n_samples == 10

    def test_parallel_chunk_size_bounds(self):
        # large N: about chunks_per_worker chunks per worker
        assert parallel_chunk_size(100_000, 4) == 6250
        # moderate N: the efficiency floor does not kick in above 64
        assert parallel_chunk_size(1_000, 2) == 125
        # tiny datasets never exceed their own size
        assert parallel_chunk_size(10, 4) == 10


# -- map-reduce accumulation -------------------------------------------------


@pytest.mark.parametrize(
    "policy",
    [SerialExecutor(), ThreadExecutor(3), ProcessExecutor(2)],
    ids=["serial", "thread", "process"],
)
@pytest.mark.parametrize("n_shards", [2, 3, 7])
def test_accumulate_parallel_matches_single_pass(policy, n_shards):
    views = _latent_views((6, 5, 4), 160, seed=3, offset=1.5)
    stream = ArrayViewStream(views, chunk_size=24)
    factory = partial(MomentState, track_tensor=True)
    serial = _accumulate_shard(factory, stream)
    merged = accumulate_parallel(stream, factory, policy, n_shards=n_shards)
    assert merged.n_samples == serial.n_samples == 160
    np.testing.assert_allclose(
        merged.tensor(), serial.tensor(), rtol=1e-12, atol=1e-12
    )
    for mine, theirs in zip(merged.means(), serial.means()):
        np.testing.assert_allclose(mine, theirs, rtol=1e-12, atol=1e-12)
    for mine, theirs in zip(
        merged.view_covariances(), serial.view_covariances()
    ):
        np.testing.assert_allclose(mine, theirs, rtol=1e-12, atol=1e-12)


@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=9), min_size=2, max_size=5
    ).filter(lambda sizes: sum(sizes) >= 4),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_merge_is_permutation_invariant(sizes, seed):
    """Reducing k shards in any order matches the single pass ≤1e-12.

    Shards are uneven and may be empty; each shard picks its own
    stabilizing shift (its first chunk's mean), so the merge exercises
    the closed-form re-shift, not just moment addition.
    """
    n_total = sum(sizes)
    views = _latent_views((5, 4, 3), n_total, seed=seed, offset=0.7)
    boundaries = np.cumsum([0] + list(sizes))
    shard_views = [
        [view[:, lo:hi] for view in views]
        for lo, hi in zip(boundaries[:-1], boundaries[1:])
    ]

    def shard_states():
        states = []
        for chunk in shard_views:
            state = MomentState(track_tensor=True)
            if chunk[0].shape[1]:
                state.update(chunk)
            states.append(state)
        return states

    reference = MomentState(track_tensor=True).update(views)
    order = np.random.default_rng(seed).permutation(len(sizes))
    permuted = shard_states()
    merged = MomentState(track_tensor=True)
    for index in order:
        merged.merge(permuted[index])
    natural = shard_states()
    merged_natural = MomentState(track_tensor=True)
    for state in natural:
        merged_natural.merge(state)

    for candidate in (merged, merged_natural):
        assert candidate.n_samples == n_total
        np.testing.assert_allclose(
            candidate.tensor(), reference.tensor(), rtol=1e-12, atol=1e-12
        )
        for mine, theirs in zip(
            candidate.view_covariances(), reference.view_covariances()
        ):
            np.testing.assert_allclose(mine, theirs, rtol=1e-12, atol=1e-12)


def _fit_from_moments(moments, epsilon=1e-2, rank=2):
    """Whiten → build → decompose → finalize from accumulated moments."""
    whitening = engine.whiten_stage(moments, epsilon)
    built = engine.build_stage(moments, whitening, "dense")
    spec = engine.DecompositionSpec(method="als", rank=rank, random_state=0)
    result = engine.decompose_stage(spec, tensor=built.tensor)
    return engine.finalize_stage(result, built.whiteners)


@pytest.mark.parametrize(
    "policy",
    [ThreadExecutor(3), ProcessExecutor(2)],
    ids=["thread", "process"],
)
def test_sharded_fit_is_shard_order_invariant(policy):
    """Permuted shard reduction → identical moments and factors ≤1e-12.

    The shard states themselves are computed under the executor (thread
    and process), then reduced in different orders; the fitted factors
    of every reduction agree to 1e-12 and match the serial fit.
    """
    views = _latent_views((10, 8, 6), 220, seed=11, offset=0.5)
    stream = ArrayViewStream(views, chunk_size=32)
    shards = shard_stream(stream, 4)  # uneven: 7 chunks over 4 shards
    factory = partial(MomentState, track_tensor=True)

    fits = []
    for order in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0]):
        states = policy.map(
            partial(_accumulate_shard, factory),
            [shards[index] for index in order],
        )
        merged = states[0]
        for state in states[1:]:
            merged.merge(state)
        assert merged.n_samples == 220
        fits.append(_fit_from_moments(merged))

    reference = _fit_from_moments(factory().update(views))
    for fit in fits:
        np.testing.assert_allclose(
            fit.correlations, fits[0].correlations, rtol=1e-12, atol=1e-12
        )
        for mine, theirs in zip(fit.canonical_vectors, fits[0].canonical_vectors):
            np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            fit.correlations, reference.correlations, rtol=0, atol=1e-10
        )


# -- end-to-end estimator equivalence ---------------------------------------


@pytest.fixture(scope="module")
def serial_fits():
    """Serial reference fits per (m, solver), shared across executor cases."""
    cache = {}

    def get(m, solver):
        key = (m, solver)
        if key not in cache:
            views = _latent_views((12, 9, 7)[:m], 300, seed=7)
            cache[key] = (
                views,
                TCCA(
                    n_components=2,
                    solver=solver,
                    random_state=0,
                    executor="serial",
                ).fit(views),
            )
        return cache[key]

    return get


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("solver", ["dense", "implicit"])
@pytest.mark.parametrize("m", [2, 3])
def test_parallel_fit_matches_serial(serial_fits, m, solver, executor):
    views, reference = serial_fits(m, solver)
    model = TCCA(
        n_components=2,
        solver=solver,
        random_state=0,
        n_jobs=2,
        executor=executor,
    ).fit(views)
    assert model.solver_used_ == solver
    np.testing.assert_allclose(
        model.correlations_, reference.correlations_, rtol=0, atol=1e-10
    )
    for mine, theirs in zip(
        model.canonical_vectors_, reference.canonical_vectors_
    ):
        np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-8)


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("solver", ["dense", "implicit"])
def test_parallel_fit_stream_matches_serial(serial_fits, solver, executor):
    views, reference = serial_fits(3, solver)
    # chunk size chosen so the 300 samples split into uneven shards
    model = TCCA(
        n_components=2,
        solver=solver,
        random_state=0,
        n_jobs=3,
        executor=executor,
    ).fit_stream(ArrayViewStream(views, chunk_size=47))
    np.testing.assert_allclose(
        model.correlations_, reference.correlations_, rtol=0, atol=1e-10
    )


def test_parallel_partial_fit_matches_serial(serial_fits):
    """Parallel ingest changes nothing about the incremental session.

    The comparison is serial-partial_fit vs parallel-partial_fit (same
    warm-start trajectory, different ingest parallelism) — the engine's
    partial_fit ≡ cold-fit equivalence itself is tests/test_engine.py's
    contract.
    """
    views, _reference = serial_fits(3, "dense")
    halves = [
        [view[:, :150] for view in views],
        [view[:, 150:] for view in views],
    ]
    serial = TCCA(
        n_components=2, solver="dense", random_state=0, executor="serial"
    )
    parallel = TCCA(
        n_components=2, solver="dense", random_state=0, n_jobs=2
    )
    for half in halves:
        serial.partial_fit(half)
        parallel.partial_fit(half)
    assert parallel.moments_.n_samples == serial.moments_.n_samples == 300
    np.testing.assert_allclose(
        parallel.correlations_, serial.correlations_, rtol=0, atol=1e-10
    )
    for mine, theirs in zip(
        parallel.canonical_vectors_, serial.canonical_vectors_
    ):
        np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-8)


def test_repro_jobs_env_default_matches_serial(serial_fits, monkeypatch):
    views, reference = serial_fits(3, "dense")
    monkeypatch.setenv("REPRO_JOBS", "2")
    model = TCCA(n_components=2, solver="dense", random_state=0).fit(views)
    np.testing.assert_allclose(
        model.correlations_, reference.correlations_, rtol=0, atol=1e-10
    )


def test_ktcca_parallel_matches_serial(rng):
    base = rng.standard_normal((2, 60))
    kernels = []
    for _ in range(3):
        lifted = rng.standard_normal((5, 2)) @ base
        lifted = lifted + 0.2 * rng.standard_normal(lifted.shape)
        kernels.append(lifted.T @ lifted)
    reference = KTCCA(n_components=2, random_state=0).fit(kernels)
    for executor in ("thread", "process"):
        model = KTCCA(
            n_components=2, random_state=0, n_jobs=2, executor=executor
        ).fit(kernels)
        np.testing.assert_allclose(
            model.correlations_, reference.correlations_, rtol=0, atol=1e-10
        )
        for mine, theirs in zip(model.dual_vectors_, reference.dual_vectors_):
            np.testing.assert_allclose(mine, theirs, rtol=0, atol=1e-8)


# -- threaded contraction kernels -------------------------------------------


def test_operator_kernels_match_serial_blocked():
    views = _latent_views((8, 6, 5), 240, seed=13)
    centered = [view - view.mean(axis=1, keepdims=True) for view in views]
    serial = CovarianceTensorOperator.from_views(centered, block_floats=2**12)
    threaded = CovarianceTensorOperator.from_views(
        centered, block_floats=2**12, policy=ThreadExecutor(3)
    )
    # process demotes to threads for shared-memory kernels
    demoted = CovarianceTensorOperator.from_views(
        centered, block_floats=2**12, policy=ProcessExecutor(3)
    )
    rng = np.random.default_rng(0)
    factors = [rng.standard_normal((d, 2)) for d in (8, 6, 5)]
    vectors = [factor[:, 0] for factor in factors]
    for parallel in (threaded, demoted):
        for mode in range(3):
            np.testing.assert_allclose(
                parallel.mttkrp(factors, mode),
                serial.mttkrp(factors, mode),
                rtol=1e-12,
                atol=1e-12,
            )
            np.testing.assert_allclose(
                parallel.mode_gram(mode),
                serial.mode_gram(mode),
                rtol=1e-12,
                atol=1e-12,
            )
        assert parallel.multi_contract(vectors) == pytest.approx(
            serial.multi_contract(vectors), abs=1e-12
        )
        assert parallel.frobenius_norm_sq() == pytest.approx(
            serial.frobenius_norm_sq(), rel=1e-12
        )


def test_stream_operator_contractions_match_serial():
    views = _latent_views((7, 5, 4), 180, seed=17, offset=0.9)
    stream = ArrayViewStream(views, chunk_size=25)
    moments = MomentState().update(views)
    whitening = engine.whiten_stage(moments, 1e-2)
    build = dict(whiteners=whitening.whiteners, means=whitening.means)
    serial = CovarianceTensorOperator.from_stream(stream, **build)
    threaded = CovarianceTensorOperator.from_stream(
        stream, **build, policy=ThreadExecutor(3)
    )
    rng = np.random.default_rng(1)
    factors = [rng.standard_normal((d, 2)) for d in (7, 5, 4)]
    for mode in range(3):
        np.testing.assert_allclose(
            threaded.mttkrp(factors, mode),
            serial.mttkrp(factors, mode),
            rtol=1e-12,
            atol=1e-12,
        )
    vectors = [factor[:, 1] for factor in factors]
    assert threaded.multi_contract(vectors) == pytest.approx(
        serial.multi_contract(vectors), abs=1e-12
    )


def test_whiten_stage_fanout_is_exact():
    views = _latent_views((6, 5, 4), 90, seed=19)
    moments = MomentState().update(views)
    serial = engine.whiten_stage(moments, 1e-2)
    fanned = engine.whiten_stage(moments, 1e-2, policy=ThreadExecutor(3))
    for mine, theirs in zip(fanned.whiteners, serial.whiteners):
        np.testing.assert_array_equal(mine, theirs)


# -- API-boundary validation -------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -3, 1.5, True])
    def test_tcca_rejects_bad_n_jobs(self, bad):
        with pytest.raises(ValueError):
            TCCA(n_jobs=bad)

    def test_tcca_rejects_bad_executor(self):
        with pytest.raises(ValueError):
            TCCA(executor="cluster")

    def test_ktcca_rejects_bad_parallel_params(self):
        with pytest.raises(ValueError):
            KTCCA(n_jobs=0)
        with pytest.raises(ValueError):
            KTCCA(executor="gpu")

    @pytest.mark.parametrize("bad", [0, -4, 2.5, "many"])
    def test_fit_stream_rejects_bad_chunk_size(self, bad, three_views):
        with pytest.raises(ValueError):
            TCCA(n_components=1).fit_stream(three_views, chunk_size=bad)

    @pytest.mark.parametrize("bad", [0, -1, 0.5])
    def test_transform_rejects_bad_chunk_size(self, bad, three_views):
        model = TCCA(n_components=1, random_state=0).fit(three_views)
        with pytest.raises(ValueError):
            model.transform(three_views, chunk_size=bad)

    def test_pipeline_rejects_bad_parallel_params(self):
        from repro.api import MultiviewPipeline

        with pytest.raises(ValueError):
            MultiviewPipeline("tcca", "rls", n_jobs=0)
        with pytest.raises(ValueError):
            MultiviewPipeline("tcca", "rls", executor="bogus")

    def test_parallel_config_round_trips_and_is_not_fitted_state(
        self, tmp_path, three_views
    ):
        from repro.api import load_model, save_model

        model = TCCA(
            n_components=1, random_state=0, n_jobs=2, executor="thread"
        ).fit(three_views)
        path = tmp_path / "model.npz"
        save_model(model, path)
        loaded = load_model(path)
        # policy is config: restored via params, not fitted attributes
        assert loaded.n_jobs == 2
        assert loaded.executor == "thread"
        for mine, theirs in zip(
            loaded.canonical_vectors_, model.canonical_vectors_
        ):
            np.testing.assert_array_equal(mine, theirs)
