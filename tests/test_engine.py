"""Staged fit engine: incremental partial_fit, mergeable moments, warm starts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import MODEL_FORMAT_VERSION, MultiviewPipeline, load_model, save_model
from repro.api.persistence import read_archive
from repro.core import TCCA
from repro.core import engine
from repro.core.engine import (
    DecompositionSpec,
    MomentState,
    SampleStore,
    whitened_covariance_tensor,
)
from repro.datasets import make_multiview_latent
from repro.exceptions import ShapeError, ValidationError
from repro.tensor.decomposition import cp_als, best_rank1
from repro.tensor.decomposition.init import check_factors_init


@pytest.fixture
def latent_views():
    return make_multiview_latent(n_samples=620, random_state=0).views


def _minibatches(views, edges):
    return [
        [view[:, start:stop] for view in views]
        for start, stop in zip(edges[:-1], edges[1:])
    ]


# ---------------------------------------------------------------------------
# Engine stages
# ---------------------------------------------------------------------------


class TestEngineStages:
    def test_dense_build_matches_numpy_reference(self, latent_views):
        """M from stored raw moments == Theorem 2 computed directly.

        The reference centers the views, whitens with an ``eigh``
        inverse square root of ``C_pp + εI`` and contracts the raw
        covariance tensor with ``einsum`` — no library code involved.
        """
        epsilon = 1e-2
        moments = engine.ingest_stage(
            MomentState(track_tensor=True), latent_views
        )
        whitening = engine.whiten_stage(moments, epsilon)
        built = engine.build_stage(moments, whitening, "dense")

        n_samples = latent_views[0].shape[1]
        centered = [
            view - view.mean(axis=1, keepdims=True) for view in latent_views
        ]
        whiteners = []
        for view in centered:
            covariance = view @ view.T / n_samples
            values, vectors = np.linalg.eigh(
                covariance + epsilon * np.eye(view.shape[0])
            )
            whiteners.append((vectors / np.sqrt(values)) @ vectors.T)
        raw = np.einsum("in,jn,kn->ijk", *centered) / n_samples
        reference = np.einsum("ijk,ai,bj,ck->abc", raw, *whiteners)
        np.testing.assert_allclose(built.tensor, reference, atol=1e-10)
        for mine, theirs in zip(whitening.whiteners, whiteners):
            np.testing.assert_allclose(mine, theirs, atol=1e-10)

    def test_cold_fit_is_bit_identical_to_moment_fits(self, latent_views):
        """fit, fit_moments and a first partial_fit share one arithmetic."""
        def model():
            # serial (not the REPRO_JOBS default): the caller-side ingest
            # below runs serially, and sharding changes round-off
            return TCCA(
                n_components=3, solver="dense", random_state=0, n_jobs=1
            )

        cold = model().fit(latent_views)
        reducer = model()
        reduced = reducer.fit_moments(
            engine.ingest_stage(
                reducer.moment_state_for(
                    [view.shape[0] for view in latent_views]
                ),
                latent_views,
            )
        )
        refreshed = model().partial_fit(latent_views)
        for other in (reduced, refreshed):
            np.testing.assert_array_equal(
                other.correlations_, cold.correlations_
            )
            for mine, theirs in zip(
                other.canonical_vectors_, cold.canonical_vectors_
            ):
                np.testing.assert_array_equal(mine, theirs)

    def test_moment_policies_are_exclusive(self):
        with pytest.raises(ValidationError):
            MomentState(track_tensor=True, retain_samples=True)

    def test_tensor_requires_dense_policy(self, latent_views):
        moments = engine.ingest_stage(
            MomentState(retain_samples=True), latent_views
        )
        with pytest.raises(ValidationError):
            moments.tensor()
        with pytest.raises(ValidationError):
            engine.ingest_stage(
                MomentState(track_tensor=True), latent_views
            ).samples

    def test_ingest_accepts_streams(self, latent_views):
        from repro.streaming import ArrayViewStream

        chunked = engine.ingest_stage(
            MomentState(track_tensor=True),
            ArrayViewStream(latent_views, chunk_size=64),
        )
        batch = engine.ingest_stage(
            MomentState(track_tensor=True), latent_views
        )
        assert chunked.n_samples == batch.n_samples
        np.testing.assert_allclose(
            chunked.tensor(), batch.tensor(), atol=1e-12
        )

    def test_decompose_stage_needs_exactly_one_target(self):
        spec = DecompositionSpec(rank=1)
        with pytest.raises(ValidationError):
            engine.decompose_stage(spec)

    def test_moment_state_merge_matches_sequential(self, latent_views):
        """Shard-parallel moment workers reduce to the single-pass state."""
        batches = _minibatches(latent_views, [0, 150, 151, 400, 620])
        for policy in (
            {"track_tensor": True},
            {"retain_samples": True},
        ):
            sequential = MomentState(**policy)
            merged = MomentState(**policy)
            for batch in batches:
                sequential.update(batch)
                shard = MomentState(**policy)
                shard.update(batch)
                merged.merge(shard)
            merged.merge(MomentState(**policy))  # empty shard is a no-op
            assert merged.n_samples == sequential.n_samples == 620
            for mine, theirs in zip(merged.means(), sequential.means()):
                np.testing.assert_allclose(mine, theirs, atol=1e-12)
            for mine, theirs in zip(
                merged.view_covariances(), sequential.view_covariances()
            ):
                np.testing.assert_allclose(mine, theirs, atol=1e-12)
            if policy.get("track_tensor"):
                np.testing.assert_allclose(
                    merged.tensor(), sequential.tensor(), atol=1e-12
                )
            else:
                for mine, theirs in zip(
                    merged.samples.views, sequential.samples.views
                ):
                    np.testing.assert_array_equal(mine, theirs)

    def test_sample_store_validation(self):
        store = SampleStore()
        store.add([np.zeros((3, 4)), np.zeros((2, 4))])
        with pytest.raises(ValidationError):
            store.add([np.zeros((3, 4)), np.zeros((5, 4))])
        with pytest.raises(ValidationError):
            store.add([np.zeros((3, 4)), np.zeros((2, 5))])
        assert store.n_samples == 4


# ---------------------------------------------------------------------------
# Warm starts (factors_init)
# ---------------------------------------------------------------------------


class TestFactorsInit:
    def test_als_warm_start_from_solution_converges_immediately(
        self, latent_views
    ):
        state = whitened_covariance_tensor(latent_views, 1e-2)
        cold = cp_als(
            state.tensor, 2, tol=1e-12, random_state=0,
            warn_on_no_convergence=False,
        )
        warm = cp_als(
            state.tensor, 2, tol=1e-12,
            factors_init=cold.cp.factors,
            warn_on_no_convergence=False,
        )
        assert warm.n_iterations <= max(3, cold.n_iterations // 4)
        np.testing.assert_allclose(
            np.abs(warm.cp.weights), np.abs(cold.cp.weights), atol=1e-8
        )

    def test_hopm_warm_start(self, latent_views):
        state = whitened_covariance_tensor(latent_views, 1e-2)
        cold = best_rank1(
            state.tensor, tol=1e-12, random_state=0,
            warn_on_no_convergence=False,
        )
        warm = best_rank1(
            state.tensor, tol=1e-12, factors_init=cold.cp.factors,
            warn_on_no_convergence=False,
        )
        assert warm.n_iterations <= cold.n_iterations
        np.testing.assert_allclose(
            warm.cp.weights, cold.cp.weights, atol=1e-10
        )

    def test_factors_init_validation(self):
        with pytest.raises(ValidationError):
            check_factors_init((4, 3), 2, [np.zeros((4, 2))])
        with pytest.raises(ShapeError):
            check_factors_init(
                (4, 3), 2, [np.zeros((4, 2)), np.zeros((3, 1))]
            )
        with pytest.raises(ValidationError):
            check_factors_init(
                (4, 3), 1, [np.full((4, 1), np.nan), np.ones((3, 1))]
            )
        checked = check_factors_init(
            (4, 3), 1, [np.full((4, 1), 2.0), np.ones((3, 1))]
        )
        np.testing.assert_allclose(np.linalg.norm(checked[0]), 1.0)


# ---------------------------------------------------------------------------
# TCCA.partial_fit
# ---------------------------------------------------------------------------


class TestPartialFit:
    @pytest.mark.parametrize("n_views", [2, 3])
    @pytest.mark.parametrize("solver", ["dense", "implicit"])
    def test_matches_cold_fit_on_concatenated_data(self, n_views, solver):
        """Acceptance: partial_fit == cold fit to <= 1e-8 correlations."""
        views = make_multiview_latent(n_samples=620, random_state=1).views
        views = views[:n_views]
        cold = TCCA(
            n_components=3, random_state=0, tol=1e-13, max_iter=2000,
            solver=solver,
        ).fit(views)
        incremental = TCCA(
            n_components=3, random_state=0, tol=1e-13, max_iter=2000,
            solver=solver,
        )
        for batch in _minibatches(views, [0, 200, 201, 500, 620]):
            incremental.partial_fit(batch)
        assert incremental.solver_used_ == solver
        assert incremental.moments_.n_samples == 620
        np.testing.assert_allclose(
            incremental.correlations_, cold.correlations_, atol=1e-8
        )
        for mine, theirs in zip(
            incremental.canonical_vectors_, cold.canonical_vectors_
        ):
            np.testing.assert_allclose(mine, theirs, atol=1e-5)

    def test_hopm_partial_fit(self, latent_views):
        # The refresh is small relative to the accumulated data, so the
        # warm-tracked power iteration stays in the cold solve's basin.
        # (A refresh that *doubles* the data may legitimately track a
        # different — sometimes better — rank-1 critical point.)
        cold = TCCA(
            decomposition="hopm", random_state=0, tol=1e-13
        ).fit(latent_views)
        incremental = TCCA(decomposition="hopm", random_state=0, tol=1e-13)
        for batch in _minibatches(latent_views, [0, 500, 620]):
            incremental.partial_fit(batch)
        np.testing.assert_allclose(
            incremental.correlations_, cold.correlations_, atol=1e-8
        )

    def test_power_decomposition_partial_fit_cold_solves(self, latent_views):
        """The deflation solver has no warm start but still accumulates."""
        cold = TCCA(
            n_components=2, decomposition="power", random_state=0,
        ).fit(latent_views)
        incremental = TCCA(
            n_components=2, decomposition="power", random_state=0,
        )
        for batch in _minibatches(latent_views, [0, 310, 620]):
            incremental.partial_fit(batch)
        np.testing.assert_allclose(
            incremental.correlations_, cold.correlations_, atol=1e-6
        )

    def test_small_refresh_reuses_sweeps(self, latent_views):
        """A small minibatch near the optimum must not cost more sweeps
        than a cold solve — the warm start the engine exists for."""
        base = [view[:, :600] for view in latent_views]
        tail = [view[:, 600:] for view in latent_views]
        cold = TCCA(n_components=2, random_state=0).fit(latent_views)
        incremental = TCCA(n_components=2, random_state=0)
        incremental.partial_fit(base)
        incremental.partial_fit(tail)
        assert (
            incremental.decomposition_result_.n_iterations
            <= cold.decomposition_result_.n_iterations
        )

    def test_transform_after_partial_fit(self, latent_views):
        model = TCCA(n_components=2, random_state=0).partial_fit(
            latent_views
        )
        projections = model.transform(latent_views)
        assert [p.shape for p in projections] == [
            (620, 2) for _ in latent_views
        ]

    def test_dimension_mismatch_rejected(self, latent_views):
        model = TCCA(n_components=1).partial_fit(latent_views)
        with pytest.raises(ValidationError):
            model.partial_fit([view[:-1] for view in latent_views])

    def test_first_partial_fit_after_full_fit_solves_cold(self):
        """A prior one-shot fit must not leak its factors into the warm
        start of a brand-new incremental session on different data."""
        old = make_multiview_latent(n_samples=300, random_state=5).views
        new = make_multiview_latent(n_samples=300, random_state=99).views
        recycled = TCCA(n_components=3, random_state=0, tol=1e-12)
        recycled.fit(old)
        recycled.partial_fit(new)
        fresh = TCCA(n_components=3, random_state=0, tol=1e-12)
        fresh.partial_fit(new)
        np.testing.assert_array_equal(
            recycled.correlations_, fresh.correlations_
        )

    def test_full_fit_resets_the_session(self, latent_views):
        model = TCCA(n_components=1, random_state=0)
        model.partial_fit(latent_views)
        assert hasattr(model, "moments_")
        model.fit(latent_views)
        assert not hasattr(model, "moments_")

    def test_solver_change_cannot_resume_session(self, latent_views):
        model = TCCA(n_components=1, solver="dense", random_state=0)
        model.partial_fit(latent_views)
        model.solver = "implicit"
        with pytest.raises(ValidationError):
            model.partial_fit(latent_views)

    def test_implicit_moments_hold_no_tensor(self, latent_views):
        model = TCCA(n_components=1, solver="implicit", random_state=0)
        model.partial_fit(latent_views)
        assert model.moments_.retain_samples
        assert not model.moments_.track_tensor


# ---------------------------------------------------------------------------
# Persistence of the incremental session
# ---------------------------------------------------------------------------


class TestIncrementalPersistence:
    @pytest.mark.parametrize("solver", ["dense", "implicit"])
    def test_save_load_resumes_bit_exactly(
        self, tmp_path, latent_views, solver
    ):
        path = tmp_path / "model.npz"
        stayed = TCCA(
            n_components=2, random_state=0, tol=1e-12, solver=solver
        )
        stayed.partial_fit([view[:, :400] for view in latent_views])
        save_model(stayed, path)
        resumed = load_model(path)
        tail = [view[:, 400:] for view in latent_views]
        stayed.partial_fit(tail)
        resumed.partial_fit(tail)
        assert resumed.moments_.n_samples == 620
        np.testing.assert_array_equal(
            stayed.correlations_, resumed.correlations_
        )
        for mine, theirs in zip(
            stayed.canonical_vectors_, resumed.canonical_vectors_
        ):
            np.testing.assert_array_equal(mine, theirs)

    def test_header_records_schema_version(self, tmp_path, latent_views):
        path = tmp_path / "model.npz"
        save_model(
            TCCA(n_components=1, random_state=0).partial_fit(latent_views),
            path,
        )
        header, payload = read_archive(path)
        with payload:
            assert header["version"] == MODEL_FORMAT_VERSION == 3
            assert header["state"]["moments_"]["kind"] == "moments"

    def test_plain_fit_persists_without_moments(self, tmp_path, latent_views):
        path = tmp_path / "model.npz"
        save_model(TCCA(n_components=1, random_state=0).fit(latent_views), path)
        header, payload = read_archive(path)
        with payload:
            assert "moments_" not in header["state"]
        assert getattr(load_model(path), "moments_", None) is None


# ---------------------------------------------------------------------------
# Pipeline partial_fit
# ---------------------------------------------------------------------------


class TestPipelinePartialFit:
    def test_incremental_pipeline_tracks_full_fit(self):
        data = make_multiview_latent(n_samples=500, random_state=2)
        pipeline = MultiviewPipeline(
            "tcca", "rls",
            reducer_params={"n_components": 3, "random_state": 0,
                            "tol": 1e-12},
        )
        for start, stop in [(0, 200), (200, 350), (350, 500)]:
            pipeline.partial_fit(
                [view[:, start:stop] for view in data.views],
                data.labels[start:stop],
            )
        full = MultiviewPipeline(
            "tcca", "rls",
            reducer_params={"n_components": 3, "random_state": 0,
                            "tol": 1e-12},
        ).fit(data.views, data.labels)
        incremental_score = pipeline.score(data.views, data.labels)
        full_score = full.score(data.views, data.labels)
        assert incremental_score >= full_score - 0.02

    def test_save_load_continues_the_session(self, tmp_path):
        data = make_multiview_latent(n_samples=400, random_state=3)
        path = tmp_path / "pipeline.npz"
        stayed = MultiviewPipeline(
            "tcca", "rls",
            reducer_params={"n_components": 2, "random_state": 0},
        )
        stayed.partial_fit(
            [view[:, :250] for view in data.views], data.labels[:250]
        )
        stayed.save(path)
        resumed = MultiviewPipeline.load(path)
        tail_views = [view[:, 250:] for view in data.views]
        stayed.partial_fit(tail_views, data.labels[250:])
        resumed.partial_fit(tail_views, data.labels[250:])
        np.testing.assert_array_equal(
            stayed.predict(data.views), resumed.predict(data.views)
        )

    def test_non_incremental_reducer_rejected(self):
        data = make_multiview_latent(n_samples=60, random_state=0)
        pipeline = MultiviewPipeline("cca", "rls")
        with pytest.raises(ValidationError):
            pipeline.partial_fit(data.views[:2], data.labels)

    def test_label_count_validated(self):
        data = make_multiview_latent(n_samples=60, random_state=0)
        pipeline = MultiviewPipeline(
            "tcca", "rls", reducer_params={"n_components": 1}
        )
        with pytest.raises(ValidationError):
            pipeline.partial_fit(data.views, data.labels[:-3])


# ---------------------------------------------------------------------------
# Satellites: repr, transform validation + chunking
# ---------------------------------------------------------------------------


class TestParamsRepr:
    def test_defaults_collapse(self):
        assert repr(TCCA()) == "TCCA()"

    def test_non_default_params_shown(self):
        text = repr(TCCA(n_components=3, epsilon=0.05, solver="implicit"))
        assert text == (
            "TCCA(n_components=3, epsilon=0.05, solver='implicit')"
        )

    def test_every_registered_estimator_has_readable_repr(self):
        from repro.api import (
            available_classifiers,
            available_reducers,
            get_estimator_class,
        )

        for kind, names in (
            ("reducer", available_reducers()),
            ("classifier", available_classifiers()),
        ):
            for name in names:
                cls = get_estimator_class(name, kind)
                text = repr(cls())
                assert text.startswith(f"{cls.__name__}(")
                assert "object at 0x" not in text


class TestTransformValidation:
    def test_shape_error_on_wrong_feature_dims(self, latent_views):
        model = TCCA(n_components=1, random_state=0).fit(latent_views)
        wrong = [view[:-2] for view in latent_views]
        with pytest.raises(ShapeError):
            model.transform(wrong)
        with pytest.raises(ShapeError):
            model.transform(latent_views[:-1])

    def test_chunked_transform_matches_full(self, latent_views):
        model = TCCA(n_components=2, random_state=0).fit(latent_views)
        full = model.transform(latent_views)
        chunked = model.transform(latent_views, chunk_size=97)
        for mine, theirs in zip(chunked, full):
            np.testing.assert_array_equal(mine, theirs)

    def test_chunked_pipeline_transform(self):
        data = make_multiview_latent(n_samples=150, random_state=0)
        pipeline = MultiviewPipeline(
            "tcca", "rls", reducer_params={"n_components": 2}
        ).fit(data.views, data.labels)
        np.testing.assert_array_equal(
            pipeline.transform(data.views, chunk_size=31),
            pipeline.transform(data.views),
        )

    def test_chunk_size_validated(self, latent_views):
        model = TCCA(n_components=1, random_state=0).fit(latent_views)
        with pytest.raises(ValidationError):
            model.transform(latent_views, chunk_size=0)
