"""Streaming subsystem: accumulator/batch equivalence and stream protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tcca import (
    TCCA,
    whitened_covariance_tensor,
    whitened_covariance_tensor_streaming,
)
from repro.datasets import (
    make_ads_like,
    make_multiview_latent,
    make_nuswide_like,
    make_secstr_like,
    stream_ads_like,
    stream_multiview_latent,
    stream_nuswide_like,
    stream_secstr_like,
)
from repro.exceptions import ValidationError
from repro.linalg.covariance import (
    covariance_tensor,
    cross_covariance,
    view_covariance,
)
from repro.streaming import (
    ArrayViewStream,
    GeneratorViewStream,
    StreamingCovariance,
    StreamingCovarianceTensor,
    as_view_stream,
)


def _ragged_chunks(rng, n_samples):
    """A random partition of ``range(n_samples)`` into contiguous chunks."""
    boundaries = np.sort(
        rng.choice(np.arange(1, n_samples), size=rng.integers(1, 8), replace=False)
    )
    edges = [0, *boundaries.tolist(), n_samples]
    return list(zip(edges[:-1], edges[1:]))


# ---------------------------------------------------------------------------
# StreamingCovariance
# ---------------------------------------------------------------------------


class TestStreamingCovariance:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_batch_over_ragged_chunks(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((7, 101)) + rng.standard_normal((7, 1))
        accumulator = StreamingCovariance()
        for start, stop in _ragged_chunks(rng, 101):
            accumulator.update(data[:, start:stop])
        assert accumulator.n_samples == 101
        centered = data - data.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(
            accumulator.mean, data.mean(axis=1), atol=1e-12
        )
        np.testing.assert_allclose(
            accumulator.covariance(), centered @ centered.T / 101, atol=1e-12
        )
        np.testing.assert_allclose(
            accumulator.covariance(center=False), data @ data.T / 101,
            atol=1e-12,
        )

    def test_large_offset_stability(self):
        """The shifted statistics survive means ≫ standard deviations."""
        rng = np.random.default_rng(3)
        data = rng.standard_normal((4, 256)) + 1e7
        accumulator = StreamingCovariance()
        for start in range(0, 256, 32):
            accumulator.update(data[:, start:start + 32])
        reference = np.cov(data, bias=True)
        np.testing.assert_allclose(
            accumulator.covariance(), reference, atol=1e-8
        )

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((5, 90)) + 3.0
        shards = [
            StreamingCovariance().update(data[:, start:stop])
            for start, stop in [(0, 20), (20, 55), (55, 90)]
        ]
        merged = StreamingCovariance()
        for shard in shards:
            merged.merge(shard)
        single = StreamingCovariance().update(data)
        assert merged.n_samples == 90
        np.testing.assert_allclose(merged.mean, single.mean, atol=1e-12)
        np.testing.assert_allclose(
            merged.covariance(), single.covariance(), atol=1e-12
        )

    def test_rejects_mismatched_dimension_and_empty_finalize(self):
        accumulator = StreamingCovariance()
        accumulator.update(np.zeros((3, 4)))
        with pytest.raises(ValidationError):
            accumulator.update(np.zeros((2, 4)))
        with pytest.raises(ValidationError):
            StreamingCovariance().mean

    def test_merge_into_empty_checks_declared_dimension(self):
        declared = StreamingCovariance(dim=5)
        other = StreamingCovariance().update(np.ones((3, 4)))
        with pytest.raises(ValidationError):
            declared.merge(other)

    def test_mean_only_mode_tracks_means_but_not_covariance(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((4, 30))
        accumulator = StreamingCovariance(second_moment=False)
        accumulator.update(data[:, :10]).update(data[:, 10:])
        np.testing.assert_allclose(
            accumulator.mean, data.mean(axis=1), atol=1e-12
        )
        with pytest.raises(ValidationError):
            accumulator.covariance()


# ---------------------------------------------------------------------------
# StreamingCovarianceTensor
# ---------------------------------------------------------------------------


class TestStreamingCovarianceTensor:
    @pytest.mark.parametrize("dims", [(6, 5), (6, 5, 4), (3, 4, 2, 3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_batch_tensor_over_shuffled_chunk_sizes(self, dims, seed):
        """The acceptance property: any chunking reproduces the batch tensor."""
        rng = np.random.default_rng(seed)
        n_samples = 97
        views = [
            rng.standard_normal((dim, n_samples)) + rng.normal()
            for dim in dims
        ]
        centered = [view - view.mean(axis=1, keepdims=True) for view in views]
        reference = covariance_tensor(centered)
        accumulator = StreamingCovarianceTensor()
        for start, stop in _ragged_chunks(rng, n_samples):
            accumulator.update([view[:, start:stop] for view in views])
        assert accumulator.n_samples == n_samples
        np.testing.assert_allclose(
            accumulator.tensor(), reference, atol=1e-12
        )
        for index, view in enumerate(centered):
            np.testing.assert_allclose(
                accumulator.view_covariance(index),
                view @ view.T / n_samples,
                atol=1e-12,
            )

    def test_raw_mode_matches_uncentered_moment(self):
        rng = np.random.default_rng(5)
        views = [rng.standard_normal((d, 40)) for d in (4, 3, 5)]
        accumulator = StreamingCovarianceTensor(center=False)
        accumulator.update([view[:, :25] for view in views])
        accumulator.update([view[:, 25:] for view in views])
        reference = np.einsum("in,jn,kn->ijk", *views) / 40
        np.testing.assert_allclose(
            accumulator.tensor(), reference, atol=1e-12
        )

    def test_chunk_validation(self):
        accumulator = StreamingCovarianceTensor(dims=(3, 2))
        with pytest.raises(ValidationError):
            accumulator.update([np.zeros((3, 4))])
        with pytest.raises(ValidationError):
            accumulator.update([np.zeros((3, 4)), np.zeros((2, 5))])
        with pytest.raises(ValidationError):
            accumulator.update([np.zeros((4, 4)), np.zeros((2, 4))])
        with pytest.raises(ValidationError):
            accumulator.tensor()

    def test_batch_covariance_functions_delegate(self, three_views):
        """Batch linalg results are reproduced through the accumulators."""
        reference = np.einsum(
            "in,jn,kn->ijk", *three_views
        ) / three_views[0].shape[1]
        np.testing.assert_allclose(
            covariance_tensor(three_views), reference, atol=1e-12
        )
        view = three_views[0]
        np.testing.assert_allclose(
            view_covariance(view),
            view @ view.T / view.shape[1],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            cross_covariance(three_views[0], three_views[1]),
            three_views[0] @ three_views[1].T / view.shape[1],
            atol=1e-12,
        )


# ---------------------------------------------------------------------------
# ViewStream protocol
# ---------------------------------------------------------------------------


class TestViewStreams:
    def test_array_stream_chunks_and_reiterates(self, three_views):
        stream = ArrayViewStream(three_views, chunk_size=16)
        assert stream.dims == (6, 5, 4)
        assert stream.n_views == 3
        assert stream.n_samples == 40
        sizes = [chunk[0].shape[1] for chunk in stream.chunks()]
        assert sizes == [16, 16, 8]
        first = np.hstack([chunk[0] for chunk in stream.chunks()])
        np.testing.assert_array_equal(first, three_views[0])

    def test_as_view_stream_accepts_dataset_views_and_stream(self):
        data = make_multiview_latent(60, dims=(6, 5), random_state=0)
        for source in (data, data.views, data.stream(chunk_size=10)):
            stream = as_view_stream(source, 10)
            assert stream.n_samples == 60
            assert stream.dims == (6, 5)

    def test_as_view_stream_never_mutates_the_source_stream(self):
        data = make_multiview_latent(60, dims=(6, 5), random_state=0)
        source = data.stream(chunk_size=10)
        rechunked = as_view_stream(source, 25)
        assert source.chunk_size == 10
        assert rechunked.chunk_size == 25
        assert rechunked is not source
        assert as_view_stream(source) is source
        assert as_view_stream(source, 10) is source

    def test_generator_streams_refuse_rechunking(self):
        """Chunk geometry is part of a generated stream's data identity."""
        stream = stream_multiview_latent(
            64, dims=(5, 4), chunk_size=16, random_state=7
        )
        with pytest.raises(ValidationError):
            as_view_stream(stream, 32)
        assert as_view_stream(stream, 16) is stream

    def test_generator_stream_validates_factory_output(self):
        stream = GeneratorViewStream(
            lambda index, start, stop: (np.zeros((3, stop - start)),),
            10,
            (3, 2),
            chunk_size=4,
        )
        with pytest.raises(ValidationError):
            list(stream.chunks())

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: stream_multiview_latent(
                90, dims=(8, 7, 6), chunk_size=32, random_state=0
            ),
            lambda: stream_secstr_like(90, chunk_size=32, random_state=1),
            lambda: stream_ads_like(
                90, dims=(20, 15, 12), chunk_size=32, random_state=2
            ),
            lambda: stream_nuswide_like(
                90, dims=(25, 12, 10), chunk_size=32, random_state=3
            ),
        ],
        ids=["latent", "secstr", "ads", "nuswide"],
    )
    def test_dataset_streams_are_reiterable_and_consistent(self, factory):
        stream = factory()
        passes = [list(stream.chunks()), list(stream.chunks())]
        assert sum(c[0].shape[1] for c in passes[0]) == 90
        for chunk_a, chunk_b in zip(*passes):
            for view_a, view_b in zip(chunk_a, chunk_b):
                np.testing.assert_array_equal(view_a, view_b)
        for chunk in passes[0]:
            assert tuple(view.shape[0] for view in chunk) == stream.dims

    def test_chunk_rng_disjoint_from_seed_sequence_spawn(self):
        from repro.utils.rng import chunk_rng

        root = np.random.SeedSequence(42)
        spawned = np.random.default_rng(root.spawn(1)[0])
        derived = chunk_rng(np.random.SeedSequence(42), 0)
        assert not np.array_equal(
            spawned.random(8), derived.random(8)
        )

    def test_dataset_stream_seeds_are_independent_per_chunk(self):
        full = stream_multiview_latent(
            64, dims=(5, 4), chunk_size=16, random_state=7
        )
        # Re-chunking the same seed changes sample grouping but each chunk
        # remains internally deterministic.
        again = stream_multiview_latent(
            64, dims=(5, 4), chunk_size=16, random_state=7
        )
        for chunk_a, chunk_b in zip(full.chunks(), again.chunks()):
            np.testing.assert_array_equal(chunk_a[0], chunk_b[0])

    @pytest.mark.parametrize(
        "make, stream, kwargs",
        [
            (
                make_multiview_latent,
                stream_multiview_latent,
                {"dims": (8, 7, 6)},
            ),
            (make_secstr_like, stream_secstr_like, {}),
            (make_ads_like, stream_ads_like, {"dims": (20, 15, 12)}),
            (
                make_nuswide_like,
                stream_nuswide_like,
                {"dims": (25, 12, 10)},
            ),
        ],
        ids=["latent", "secstr", "ads", "nuswide"],
    )
    def test_stream_factories_match_batch_distributions(
        self, make, stream, kwargs
    ):
        """Guard the 'same distribution as the batch factory' contract.

        Batch and stream realizations differ per seed (different draw
        order), so single draws cannot be compared; instead pool per-view
        summary moments over many structure seeds and require the two
        generators to agree within the observed cross-seed noise (z-score
        test). Deterministic (fixed seeds), and fails loudly if one
        generative model drifts — e.g. a changed tilt scale or loading
        normalization applied to only one of the pair.
        """
        n, n_seeds = 200, 24

        def summarize(views):
            # Per-view marginal moments plus the cross-view odd-order
            # joint moment (mean of the product of per-sample view
            # averages) — the statistic the datasets' order-m dependence
            # is built around, so a dropped coupling fails loudly too.
            per_view = [
                (view.mean(), view.var(), np.abs(view).mean())
                for view in views
            ]
            profiles = [
                (view - view.mean(axis=1, keepdims=True)).mean(axis=0)
                for view in views
            ]
            joint = float(np.prod(profiles, axis=0).mean())
            return [*(x for stats in per_view for x in stats), joint]

        summaries = {"batch": [], "stream": []}
        for seed in range(n_seeds):
            batch_views = make(n, random_state=seed, **kwargs).views
            stream_views = [
                np.hstack(blocks)
                for blocks in zip(
                    *stream(
                        n, chunk_size=128, random_state=seed, **kwargs
                    ).chunks()
                )
            ]
            summaries["batch"].append(summarize(batch_views))
            summaries["stream"].append(summarize(stream_views))
        batch_stats = np.array(summaries["batch"])
        stream_stats = np.array(summaries["stream"])
        difference = stream_stats.mean(axis=0) - batch_stats.mean(axis=0)
        standard_error = np.sqrt(
            (batch_stats.var(axis=0) + stream_stats.var(axis=0)) / n_seeds
        )
        z_scores = difference / (standard_error + 1e-12)
        assert np.abs(z_scores).max() < 6.0, (
            f"stream/batch moment mismatch, |z| up to "
            f"{np.abs(z_scores).max():.1f}"
        )


# ---------------------------------------------------------------------------
# Streaming TCCA
# ---------------------------------------------------------------------------


class TestStreamingTCCA:
    @pytest.mark.parametrize("dims", [(12, 10), (12, 10, 8)])
    def test_fit_stream_matches_fit(self, dims):
        """Acceptance: streaming canonical vectors equal batch, atol 1e-10."""
        data = make_multiview_latent(
            n_samples=400, dims=dims, random_state=11
        )
        batch = TCCA(n_components=3, epsilon=1e-2, random_state=0).fit(
            data.views
        )
        streamed = TCCA(
            n_components=3, epsilon=1e-2, random_state=0
        ).fit_stream(data.stream(chunk_size=64))
        for batch_vectors, stream_vectors in zip(
            batch.canonical_vectors_, streamed.canonical_vectors_
        ):
            np.testing.assert_allclose(
                stream_vectors, batch_vectors, atol=1e-10
            )
        np.testing.assert_allclose(
            streamed.correlations_, batch.correlations_, atol=1e-10
        )
        np.testing.assert_allclose(
            streamed.transform_combined(data.views),
            batch.transform_combined(data.views),
            atol=1e-8,
        )

    def test_whitening_state_matches_batch(self):
        data = make_multiview_latent(
            n_samples=300, dims=(9, 8, 7), random_state=13
        )
        batch = whitened_covariance_tensor(data.views, 1e-2)
        streamed = whitened_covariance_tensor_streaming(
            data.stream(chunk_size=47), 1e-2
        )
        np.testing.assert_allclose(
            streamed.tensor, batch.tensor, atol=1e-12
        )
        for mean_stream, mean_batch in zip(streamed.means, batch.means):
            np.testing.assert_allclose(mean_stream, mean_batch, atol=1e-12)
        for whitener_stream, whitener_batch in zip(
            streamed.whiteners, batch.whiteners
        ):
            np.testing.assert_allclose(
                whitener_stream, whitener_batch, atol=1e-12
            )

    def test_fit_stream_from_generated_stream(self):
        stream = stream_multiview_latent(
            200, dims=(10, 9, 8), chunk_size=64, random_state=5
        )
        model = TCCA(n_components=2, epsilon=1e-1, random_state=0).fit_stream(
            stream
        )
        assert model.covariance_tensor_shape_ == (10, 9, 8)
        assert [v.shape for v in model.canonical_vectors_] == [
            (10, 2), (9, 2), (8, 2),
        ]

    def test_fit_stream_rank_validation(self):
        stream = stream_multiview_latent(
            50, dims=(5, 4), chunk_size=16, random_state=0
        )
        with pytest.raises(ValidationError):
            TCCA(n_components=5).fit_stream(stream)

    @pytest.mark.parametrize("solver", ["dense", "implicit"])
    def test_fit_stream_pass_count(self, solver):
        """Dense fit_stream reads its stream once; implicit re-reads it.

        Serial (``n_jobs=1``): a sharded ingest slices the arrays of an
        ArrayViewStream directly and never starts a pass on the parent.
        """

        class CountingStream(ArrayViewStream):
            # every consumer starts a pass through chunks() (which
            # __iter__ delegates to)
            passes = 0

            def chunks(self):
                self.passes += 1
                return super().chunks()

        data = make_multiview_latent(
            n_samples=200, dims=(8, 7, 6), random_state=2
        )
        stream = CountingStream(data.views, chunk_size=64)
        TCCA(
            n_components=2, solver=solver, random_state=0, n_jobs=1
        ).fit_stream(stream)
        if solver == "dense":
            assert stream.passes == 1
        else:
            # the stream-backed operator re-reads it on every sweep
            assert stream.passes > 1

    def test_accumulation_memory_independent_of_n(self):
        """Peak accumulator memory must not scale with the sample count."""
        import tracemalloc

        def peak_bytes(n_samples):
            rng_seed = 17
            stream = stream_multiview_latent(
                n_samples,
                dims=(10, 9, 8),
                chunk_size=50,
                random_state=rng_seed,
            )
            accumulator = StreamingCovarianceTensor()
            tracemalloc.start()
            tracemalloc.reset_peak()
            for chunks in stream.chunks():
                accumulator.update(chunks)
            accumulator.tensor()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        small = peak_bytes(200)
        large = peak_bytes(3200)
        # 16x the data must not even double the accumulation footprint.
        assert large < 2.0 * small


# ---------------------------------------------------------------------------
# Merge semantics: shard-parallel accumulation == single pass
# ---------------------------------------------------------------------------


def _shard_bounds(n_samples, n_shards, rng):
    """Random contiguous shards, deliberately including empty ones."""
    cuts = np.sort(rng.integers(0, n_samples + 1, size=n_shards - 1))
    edges = [0, *cuts.tolist(), n_samples]
    return list(zip(edges[:-1], edges[1:]))


class TestStreamingCovarianceMerge:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_shards", [2, 3, 7])
    def test_sharded_merge_matches_single_pass(self, seed, n_shards):
        """merge(split over k shards) == one accumulator fed everything.

        Shards get their own shift (each sees its own first chunk), so
        this exercises the closed-form re-shift, including shards that
        happen to be empty or a single sample wide.
        """
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((6, 83)) + 5.0 * rng.standard_normal((6, 1))
        single = StreamingCovariance().update(data)

        merged = StreamingCovariance()
        for start, stop in _shard_bounds(83, n_shards, rng):
            shard = StreamingCovariance()
            if stop > start:
                shard.update(data[:, start:stop])
            merged.merge(shard)
        assert merged.n_samples == 83
        np.testing.assert_allclose(merged.mean, single.mean, atol=1e-12)
        np.testing.assert_allclose(
            merged.covariance(), single.covariance(), atol=1e-12
        )

    def test_single_row_shards(self):
        """Degenerate shards of one sample each still merge exactly."""
        rng = np.random.default_rng(9)
        data = rng.standard_normal((4, 12)) + 3.0
        single = StreamingCovariance().update(data)
        merged = StreamingCovariance()
        for index in range(12):
            merged.merge(
                StreamingCovariance().update(data[:, index : index + 1])
            )
        np.testing.assert_allclose(merged.mean, single.mean, atol=1e-12)
        np.testing.assert_allclose(
            merged.covariance(), single.covariance(), atol=1e-12
        )

    def test_merging_empty_is_identity(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((5, 40))
        merged = StreamingCovariance().update(data)
        before = merged.covariance().copy()
        merged.merge(StreamingCovariance())
        assert merged.n_samples == 40
        np.testing.assert_array_equal(merged.covariance(), before)

    def test_state_dict_round_trip_resumes(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((5, 60)) + 2.0
        accumulator = StreamingCovariance().update(data[:, :25])
        resumed = StreamingCovariance.from_state_dict(
            accumulator.state_dict()
        )
        accumulator.update(data[:, 25:])
        resumed.update(data[:, 25:])
        np.testing.assert_array_equal(
            accumulator.covariance(), resumed.covariance()
        )
        np.testing.assert_array_equal(accumulator.mean, resumed.mean)


class TestStreamingCovarianceTensorMerge:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_shards", [2, 3, 7])
    @pytest.mark.parametrize("dims", [(5, 4), (5, 4, 3)])
    def test_sharded_merge_matches_single_pass(self, seed, n_shards, dims):
        """Tensor, means, and C_pp all agree with a single pass <= 1e-12.

        Each shard's accumulator picks its own stabilizing shift, so the
        merge exercises the full multilinear re-shift expansion across
        every subset moment (pairs, triples, the full tensor).
        """
        rng = np.random.default_rng(seed)
        n_samples = 71
        views = [
            rng.standard_normal((dim, n_samples))
            + 4.0 * rng.standard_normal((dim, 1))
            for dim in dims
        ]
        single = StreamingCovarianceTensor()
        single.update(views)

        merged = StreamingCovarianceTensor()
        for start, stop in _shard_bounds(n_samples, n_shards, rng):
            shard = StreamingCovarianceTensor()
            if stop > start:
                shard.update([view[:, start:stop] for view in views])
            merged.merge(shard)
        assert merged.n_samples == n_samples
        np.testing.assert_allclose(
            merged.tensor(), single.tensor(), atol=1e-12
        )
        for index in range(len(dims)):
            np.testing.assert_allclose(
                merged.view_covariance(index),
                single.view_covariance(index),
                atol=1e-12,
            )
            np.testing.assert_allclose(
                merged.means[index], single.means[index], atol=1e-12
            )

    def test_single_row_shards(self):
        rng = np.random.default_rng(11)
        views = [
            rng.standard_normal((4, 9)) + 2.0,
            rng.standard_normal((3, 9)) - 1.0,
        ]
        single = StreamingCovarianceTensor()
        single.update(views)
        merged = StreamingCovarianceTensor()
        for index in range(9):
            shard = StreamingCovarianceTensor()
            shard.update([view[:, index : index + 1] for view in views])
            merged.merge(shard)
        np.testing.assert_allclose(
            merged.tensor(), single.tensor(), atol=1e-12
        )

    def test_merge_into_empty_adopts_state(self):
        rng = np.random.default_rng(2)
        views = [rng.standard_normal((4, 30)), rng.standard_normal((3, 30))]
        shard = StreamingCovarianceTensor()
        shard.update(views)
        merged = StreamingCovarianceTensor()
        merged.merge(shard)
        np.testing.assert_array_equal(merged.tensor(), shard.tensor())
        # ... and the adopted state is a copy, not a view of the shard's.
        merged.update([view[:, :5] for view in views])
        assert merged.n_samples == 35
        assert shard.n_samples == 30

    def test_raw_mode_merge_requires_matching_shifts(self):
        rng = np.random.default_rng(4)
        views = [rng.standard_normal((4, 20)), rng.standard_normal((3, 20))]
        left = StreamingCovarianceTensor(center=False)
        left.update(views)
        # raw accumulators are built unshifted; a shifted one can only
        # arrive as a restored state
        state = StreamingCovarianceTensor(center=False).update(
            views
        ).state_dict()
        state["views"][0]["shift"] = np.ones(4)
        right = StreamingCovarianceTensor.from_state_dict(state)
        with pytest.raises(ValidationError, match="shifts"):
            left.merge(right)
        # identical shifts merge exactly
        same = StreamingCovarianceTensor(center=False)
        same.update(views)
        left.merge(same)
        assert left.n_samples == 40

    def test_mismatched_configuration_rejected(self):
        rng = np.random.default_rng(6)
        views = [rng.standard_normal((4, 10)), rng.standard_normal((3, 10))]
        centered = StreamingCovarianceTensor()
        centered.update(views)
        raw = StreamingCovarianceTensor(center=False)
        raw.update(views)
        with pytest.raises(ValidationError):
            centered.merge(raw)
        other_dims = StreamingCovarianceTensor()
        other_dims.update([views[0], views[1][:2]])
        with pytest.raises(ValidationError):
            centered.merge(other_dims)

    def test_state_dict_round_trip_resumes(self):
        rng = np.random.default_rng(8)
        views = [
            rng.standard_normal((4, 50)) + 1.0,
            rng.standard_normal((3, 50)) - 2.0,
            rng.standard_normal((2, 50)),
        ]
        accumulator = StreamingCovarianceTensor()
        accumulator.update([view[:, :20] for view in views])
        resumed = StreamingCovarianceTensor.from_state_dict(
            accumulator.state_dict()
        )
        accumulator.update([view[:, 20:] for view in views])
        resumed.update([view[:, 20:] for view in views])
        np.testing.assert_array_equal(
            accumulator.tensor(), resumed.tensor()
        )
        for index in range(3):
            np.testing.assert_array_equal(
                accumulator.view_covariance(index),
                resumed.view_covariance(index),
            )
