"""Fault-tolerance suite: retry policies, fault injection, checkpointed
accumulation, shard quarantine, executor demotion, and serve backpressure.

Everything here is deterministic and sleep-free: timing goes through
:class:`~repro.serve.batcher.ManualClock`, failures are scripted by
:class:`~repro.reliability.FaultPlan` at exact call counts, and the
crash-simulation tests assert bit-level equivalence between a resumed
and an uninterrupted accumulation pass.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from repro.artifacts import (
    load_moments,
    reduce_shards,
    save_moments,
)
from repro.artifacts.distributed import accumulate_views
from repro.core import TCCA
from repro.datasets import make_multiview_latent
from repro.exceptions import (
    InjectedFault,
    NumericalWarning,
    PersistenceError,
    ReliabilityWarning,
    RetryExhaustedError,
    ServerOverloaded,
    ValidationError,
    WorkerKilled,
)
from repro.linalg import whitening
from repro.parallel import (
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
)
from repro.reliability import (
    FaultPlan,
    RetryPolicy,
    accumulate_views_checkpointed,
    checkpoint_path_for,
    discard_checkpoint,
    fault_point,
    install_from_env,
    load_checkpoint,
    save_checkpoint,
    uninstall_plan,
)
from repro.serve import ManualClock, MicroBatcher, ModelManager
from repro.streaming import ArrayViewStream


DIMS = (7, 5, 4)
N = 120

# recorded at import so forked pool workers inherit the parent's value
# while the parent (and any thread demotion target) sees its own pid
_PARENT_PID = os.getpid()


def _double(item):
    return item * 2


def _die_in_child(item):
    if os.getpid() != _PARENT_PID:
        os._exit(13)
    return item * 2


def make_views(n=N, dims=DIMS, seed=0):
    data = make_multiview_latent(n_samples=n, dims=dims, random_state=seed)
    return [np.asarray(view) for view in data.views]


def state_arrays(moments) -> dict:
    _meta, arrays = moments.state_dict()
    return arrays


def assert_states_close(a, b, atol=1e-10):
    """Bit-level comparison — valid only for passes with identical chunk
    geometry (the accumulators' shifted statistics depend on it)."""
    sa, sb = state_arrays(a), state_arrays(b)
    assert sorted(sa) == sorted(sb)
    for key in sa:
        np.testing.assert_allclose(sa[key], sb[key], atol=atol, rtol=0)


def fitted_correlations(moments):
    """Chunk-geometry-invariant fingerprint of an accumulated state."""
    return TCCA(n_components=2).fit_moments(moments).correlations_


# -- RetryPolicy -------------------------------------------------------------


class TestRetryPolicy:
    def test_delay_schedule_is_deterministic(self):
        a = RetryPolicy(5, base_delay=0.1, multiplier=2.0, seed=7)
        b = RetryPolicy(5, base_delay=0.1, multiplier=2.0, seed=7)
        delays = [a.delay(k) for k in range(1, 5)]
        assert delays == [b.delay(k) for k in range(1, 5)]
        # raw exponential growth, stretched by at most the jitter fraction
        for k, delay in enumerate(delays, start=1):
            raw = 0.1 * 2.0 ** (k - 1)
            assert raw <= delay < raw * (1.0 + a.jitter)

    def test_different_seeds_desynchronize(self):
        a = RetryPolicy(3, seed=1)
        b = RetryPolicy(3, seed=2)
        assert a.delay(1) != b.delay(1)

    def test_delay_caps_at_max_delay(self):
        policy = RetryPolicy(
            8, base_delay=1.0, multiplier=10.0, max_delay=2.0, jitter=0.0
        )
        assert policy.delay(6) == 2.0

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(OSError("disk"))
        assert policy.is_retryable(TimeoutError())
        assert not policy.is_retryable(ValidationError("bad input"))
        assert not policy.is_retryable(ValueError("nope"))

    def test_run_recovers_from_transient_failures(self):
        clock = ManualClock()
        policy = RetryPolicy(3, clock=clock)
        attempts = []

        def flaky():
            attempts.append(len(attempts))
            if len(attempts) < 3:
                raise OSError("transient")
            return "ok"

        retries = []
        result = policy.run(
            flaky, on_retry=lambda k, err: retries.append((k, str(err)))
        )
        assert result == "ok"
        assert len(attempts) == 3
        assert [k for k, _ in retries] == [1, 2]
        # waits went through the manual clock, never time.sleep
        expected = policy.delay(1) + policy.delay(2)
        assert clock.monotonic() == pytest.approx(expected)

    def test_run_propagates_non_retryable_immediately(self):
        calls = []

        def bad():
            calls.append(1)
            raise ValidationError("bad input stays bad")

        with pytest.raises(ValidationError):
            RetryPolicy(5, clock=ManualClock()).run(bad)
        assert len(calls) == 1

    def test_exhaustion_wraps_and_chains(self):
        def always():
            raise OSError("still down")

        policy = RetryPolicy(3, clock=ManualClock())
        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.run(always)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, OSError)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"max_attempts": 2, "base_delay": -1.0},
            {"max_attempts": 2, "multiplier": 0.5},
            {"max_attempts": 2, "jitter": -0.1},
            {"max_attempts": 2, "retryable": ("OSError",)},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValidationError):
            RetryPolicy(**kwargs)


# -- FaultPlan ---------------------------------------------------------------


class TestFaultPlan:
    def test_inactive_fault_point_is_passthrough(self):
        payload = {"x": np.arange(3.0)}
        assert fault_point("nowhere", payload) is payload

    def test_fail_at_exact_call(self):
        plan = FaultPlan().fail_at("site", nth=2)
        with plan:
            fault_point("site")
            with pytest.raises(InjectedFault):
                fault_point("site")
            fault_point("site")  # only the 2nd call fails
        assert plan.calls("site") == 3
        assert plan.fired == [("site", 2, "fail")]

    def test_fail_with_custom_error_and_repeat(self):
        plan = FaultPlan().fail_at(
            "site", nth=2, error=OSError("disk full"), repeat=True
        )
        with plan:
            fault_point("site")
            for _ in range(3):
                with pytest.raises(OSError):
                    fault_point("site")

    def test_kill_raises_worker_killed(self):
        with FaultPlan().kill_at("site", nth=1):
            with pytest.raises(WorkerKilled):
                fault_point("site")

    def test_corrupt_mutates_payload(self):
        entries = {"a": np.zeros(3), "b": np.ones(2)}
        with FaultPlan().corrupt_at("site", nth=1):
            corrupted = fault_point("site", entries)
        assert not np.array_equal(corrupted["a"], entries["a"])
        # original payload untouched; later calls pass through
        assert np.array_equal(entries["a"], np.zeros(3))

    def test_slow_calls_injected_sleep(self):
        naps = []
        plan = FaultPlan(sleep=naps.append).slow_at(
            "site", nth=1, seconds=1.5
        )
        with plan:
            fault_point("site")
        assert naps == [1.5]

    def test_context_manager_uninstalls(self):
        plan = FaultPlan().fail_at("site", nth=1)
        with plan:
            pass
        fault_point("site")  # no active plan left -> no fault

    def test_innermost_plan_wins(self):
        outer = FaultPlan().fail_at("site", nth=1)
        inner = FaultPlan()
        with outer, inner:
            fault_point("site")  # inner plan has no rule for the site
        assert outer.fired == []
        assert inner.calls("site") == 1

    def test_from_spec_round_trip(self):
        plan = FaultPlan.from_spec(
            "accumulate.chunk:kill@3,artifact.payload:corrupt@1"
        )
        with plan:
            fault_point("accumulate.chunk")
            fault_point("accumulate.chunk")
            with pytest.raises(WorkerKilled):
                fault_point("accumulate.chunk")

    @pytest.mark.parametrize(
        "spec", ["nosite", "site:explode@1", "site:fail@0", "site:fail@x"]
    )
    def test_from_spec_rejects_bad_entries(self, spec):
        with pytest.raises(ValidationError):
            FaultPlan.from_spec(spec)

    def test_install_from_env(self):
        assert install_from_env({}) is None
        plan = install_from_env({"REPRO_FAULTS": "site:fail@1"})
        try:
            with pytest.raises(InjectedFault):
                fault_point("site")
        finally:
            uninstall_plan(plan)


# -- checkpointed accumulation -----------------------------------------------


class TestCheckpointing:
    def test_save_load_round_trip(self, tmp_path):
        views = make_views()
        moments, params = accumulate_views(views, estimator="tcca")
        path = checkpoint_path_for(tmp_path / "part0.moments")
        save_checkpoint(
            moments,
            path,
            estimator="tcca",
            params={
                k: v
                for k, v in params.items()
                if k not in ("n_jobs", "executor")
            },
            rows_done=N,
            total_rows=N,
            chunk_rows=32,
        )
        header, restored = load_checkpoint(path)
        assert header["kind"] == "checkpoint"
        assert header["checkpoint"] == {
            "rows_done": N,
            "total_rows": N,
            "chunk_rows": 32,
        }
        assert_states_close(moments, restored)
        assert discard_checkpoint(path)
        assert not discard_checkpoint(path)

    def test_load_refuses_plain_shard(self, tmp_path):
        views = make_views()
        moments, params = accumulate_views(views, estimator="tcca")
        path = tmp_path / "part0.moments"
        save_moments(moments, path, estimator="tcca", params=params)
        with pytest.raises(PersistenceError, match="not a\n?.*checkpoint"):
            load_checkpoint(path)

    def test_fresh_pass_matches_unchunked(self, tmp_path):
        views = make_views()
        reference, _ = accumulate_views(views, estimator="tcca")
        path = checkpoint_path_for(tmp_path / "part0.moments")
        moments, _params, progress = accumulate_views_checkpointed(
            views, checkpoint_path=path, checkpoint_every=32
        )
        assert progress["resumed_at"] == 0
        assert progress["total_rows"] == N
        assert progress["checkpoints"] == (N - 1) // 32
        assert moments.n_samples == reference.n_samples
        np.testing.assert_allclose(
            fitted_correlations(reference),
            fitted_correlations(moments),
            atol=1e-10,
        )

    def test_crash_and_resume_is_bit_exact(self, tmp_path):
        """Satellite (d): kill at an exact chunk, resume, get the same fit."""
        views = make_views()
        uninterrupted, _params, _ = accumulate_views_checkpointed(
            views,
            checkpoint_path=checkpoint_path_for(tmp_path / "ref.moments"),
            checkpoint_every=32,
        )
        path = checkpoint_path_for(tmp_path / "part0.moments")
        with FaultPlan().kill_at("accumulate.chunk", nth=3):
            with pytest.raises(WorkerKilled):
                accumulate_views_checkpointed(
                    views, checkpoint_path=path, checkpoint_every=32
                )
        assert os.path.exists(path)
        header, partial = load_checkpoint(path)
        assert partial.n_samples == 64  # two completed 32-row chunks
        resumed, _params, progress = accumulate_views_checkpointed(
            views, checkpoint_path=path, checkpoint_every=32, resume=True
        )
        assert progress["resumed_at"] == 64
        # identical chunk geometry -> identical statistics, to the bit
        assert_states_close(uninterrupted, resumed, atol=0)
        # the fitted models agree too, not just the raw statistics
        direct = TCCA(n_components=2).fit(views)
        resumed_fit = TCCA(n_components=2).fit_moments(resumed)
        np.testing.assert_allclose(
            direct.correlations_, resumed_fit.correlations_, atol=1e-10
        )

    def test_resume_reuses_recorded_chunk_geometry(self, tmp_path):
        views = make_views()
        path = checkpoint_path_for(tmp_path / "part0.moments")
        with FaultPlan().kill_at("accumulate.chunk", nth=2):
            with pytest.raises(WorkerKilled):
                accumulate_views_checkpointed(
                    views, checkpoint_path=path, checkpoint_every=50
                )
        # a different checkpoint_every on resume is overridden by the
        # cursor's recorded geometry, keeping the pass bit-identical
        resumed, _params, progress = accumulate_views_checkpointed(
            views, checkpoint_path=path, checkpoint_every=999, resume=True
        )
        assert progress["checkpoint_every"] == 50
        reference, _params, _ = accumulate_views_checkpointed(
            views,
            checkpoint_path=checkpoint_path_for(tmp_path / "ref.moments"),
            checkpoint_every=50,
        )
        assert_states_close(reference, resumed, atol=0)

    def test_resume_refuses_config_mismatch(self, tmp_path):
        views = make_views()
        path = checkpoint_path_for(tmp_path / "part0.moments")
        with FaultPlan().kill_at("accumulate.chunk", nth=2):
            with pytest.raises(WorkerKilled):
                accumulate_views_checkpointed(
                    views,
                    params={"epsilon": 1e-3},
                    checkpoint_path=path,
                    checkpoint_every=32,
                )
        with pytest.raises(ValidationError, match="params"):
            accumulate_views_checkpointed(
                views,
                params={"epsilon": 1e-1},
                checkpoint_path=path,
                checkpoint_every=32,
                resume=True,
            )

    def test_checkpoint_write_retries_transient_failures(self, tmp_path):
        views = make_views()
        path = checkpoint_path_for(tmp_path / "part0.moments")
        plan = FaultPlan().fail_at(
            "artifact.write", nth=1, error=OSError("transient")
        )
        with plan:
            accumulate_views_checkpointed(
                views,
                checkpoint_path=path,
                checkpoint_every=32,
                retry=RetryPolicy(3, clock=ManualClock()),
            )
        assert ("artifact.write", 1, "fail") in plan.fired
        load_checkpoint(path)  # the retried write succeeded and is valid

    def test_reduce_refuses_checkpoint_files(self, tmp_path):
        views = make_views()
        shard_path = tmp_path / "part0.moments"
        moments, params = accumulate_views(views, estimator="tcca")
        save_moments(moments, shard_path, estimator="tcca", params=params)
        ckpt = checkpoint_path_for(shard_path)
        save_checkpoint(
            moments,
            ckpt,
            estimator="tcca",
            params=params,
            rows_done=N,
            total_rows=N,
            chunk_rows=32,
        )
        with pytest.raises(ValidationError, match="in-progress checkpoint"):
            reduce_shards([shard_path, ckpt])


# -- shard quarantine --------------------------------------------------------


def write_shard(tmp_path, name, views, shard=None, params=None):
    moments, resolved = accumulate_views(
        views, estimator="tcca", params=params, shard=shard
    )
    path = tmp_path / name
    save_moments(
        moments,
        path,
        estimator="tcca",
        params=resolved,
        shard=(
            None if shard is None else {"index": shard[0], "count": shard[1]}
        ),
    )
    return path


def damage(path):
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.seek(size - 9)
        fh.write(b"\x00\x00\x00")


class TestQuarantine:
    def test_fail_mode_names_every_corrupt_file(self, tmp_path):
        views = make_views()
        paths = [
            write_shard(tmp_path, f"part{i}.moments", views, shard=(i, 3))
            for i in range(3)
        ]
        damage(paths[0])
        damage(paths[2])
        with pytest.raises(PersistenceError) as excinfo:
            reduce_shards(paths)
        message = str(excinfo.value)
        assert "2 of 3" in message
        assert "part0.moments" in message
        assert "part2.moments" in message

    def test_skip_mode_quarantines_and_reduces_remainder(self, tmp_path):
        views = make_views()
        paths = [
            write_shard(tmp_path, f"part{i}.moments", views, shard=(i, 3))
            for i in range(3)
        ]
        damage(paths[1])
        with pytest.warns(ReliabilityWarning, match="part1.moments"):
            model, report = reduce_shards(paths, on_corrupt="skip")
        assert report["n_shards"] == 2
        assert [q["name"] for q in report["quarantined"]] == [
            "part1.moments"
        ]
        # degraded model == reduce of only the healthy shards
        healthy, _ = reduce_shards([paths[0], paths[2]])
        np.testing.assert_allclose(
            model.correlations_, healthy.correlations_, atol=1e-12
        )

    def test_skip_mode_with_nothing_left_fails(self, tmp_path):
        views = make_views()
        path = write_shard(tmp_path, "part0.moments", views)
        damage(path)
        with pytest.warns(ReliabilityWarning):
            with pytest.raises(PersistenceError, match="nothing left"):
                reduce_shards([path], on_corrupt="skip")

    def test_rejects_unknown_on_corrupt(self, tmp_path):
        with pytest.raises(ValidationError, match="on_corrupt"):
            reduce_shards([tmp_path / "x.moments"], on_corrupt="ignore")

    def test_all_incompatible_shards_reported_in_one_error(self, tmp_path):
        """Satellite (b): every mismatch in a single exhaustive error."""
        views = make_views()
        good = write_shard(tmp_path, "part0.moments", views)
        other_params = write_shard(
            tmp_path, "part1.moments", views, params={"epsilon": 0.5}
        )
        other_dims = write_shard(
            tmp_path, "part2.moments", make_views(dims=(6, 5, 4))
        )
        with pytest.raises(ValidationError) as excinfo:
            reduce_shards([good, other_params, other_dims])
        message = str(excinfo.value)
        assert "2 file(s) disagree" in message
        assert "part1.moments" in message and "params" in message
        assert "part2.moments" in message and "dims" in message


# -- executor retry & demotion -----------------------------------------------


class TestExecutorReliability:
    def test_per_task_retry_recovers(self):
        policy = SerialExecutor().with_retry(
            RetryPolicy(3, clock=ManualClock())
        )
        plan = FaultPlan().fail_at(
            "executor.task", nth=2, error=OSError("flaky worker")
        )
        with plan:
            results = policy.map(_double, [1, 2, 3])
        assert results == [2, 4, 6]
        # item 2's first attempt failed and was retried in place
        assert plan.fired == [("executor.task", 2, "fail")]
        assert plan.calls("executor.task") == 4

    def test_per_task_retry_exhaustion_propagates(self):
        policy = SerialExecutor().with_retry(
            RetryPolicy(2, clock=ManualClock())
        )
        plan = FaultPlan().fail_at(
            "executor.task", nth=1, error=OSError("dead"), repeat=True
        )
        with plan:
            with pytest.raises(RetryExhaustedError):
                policy.map(_double, [1])

    def test_map_fault_site_counts_calls(self):
        plan = FaultPlan()
        with plan:
            SerialExecutor().map(_double, [1])
            SerialExecutor().map(_double, [2])
        assert plan.calls("executor.map") == 2

    def test_thread_pool_demotes_to_serial_on_break(self, monkeypatch):
        from concurrent.futures import BrokenExecutor

        policy = ThreadExecutor(2)

        class BrokenPool:
            def map(self, fn, items):
                raise BrokenExecutor("pool is broken")

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(policy, "_get_pool", lambda: BrokenPool())
        with pytest.warns(ReliabilityWarning, match="demoting"):
            results = policy.map(_double, [1, 2, 3])
        assert results == [2, 4, 6]
        assert isinstance(policy._fallback, SerialExecutor)
        # demotion is sticky: later maps go straight to the fallback
        assert policy.map(_double, [4]) == [8]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker-death simulation relies on fork inheritance",
    )
    def test_process_pool_demotes_to_threads_on_worker_death(self):
        policy = ProcessExecutor(2)
        try:
            # forked workers os._exit mid-task, breaking the pool; the
            # thread fallback runs in the parent process and survives
            with pytest.warns(ReliabilityWarning, match="demoting"):
                results = policy.map(_die_in_child, [1, 2, 3, 4])
            assert results == [2, 4, 6, 8]
            assert isinstance(policy._fallback, ThreadExecutor)
        finally:
            policy.shutdown()


# -- whitening conditioning guard --------------------------------------------


class TestWhiteningFloor:
    def setup_method(self):
        whitening._reset_conditioning_warning()

    def teardown_method(self):
        whitening._reset_conditioning_warning()

    def test_ill_conditioned_warns_once_per_process(self):
        # rank-deficient covariance with a tiny epsilon: the floor bites
        covariance = np.diag([1.0, 1e-40, 0.0])
        with pytest.warns(NumericalWarning, match="once per process"):
            result = whitening.regularized_inverse_sqrt(covariance, 1e-30)
        assert np.all(np.isfinite(result))
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericalWarning)
            whitening.regularized_inverse_sqrt(covariance, 1e-30)
        whitening._reset_conditioning_warning()
        with pytest.warns(NumericalWarning):
            whitening.regularized_inverse_sqrt(covariance, 1e-30)

    def test_well_conditioned_stays_silent(self):
        covariance = np.diag([2.0, 1.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error", NumericalWarning)
            result = whitening.regularized_inverse_sqrt(covariance, 1e-6)
        np.testing.assert_allclose(
            result @ result,
            np.linalg.inv(covariance + 1e-6 * np.eye(3)),
            atol=1e-12,
        )

    def test_floor_bounds_amplification(self):
        covariance = np.diag([1.0, 0.0, 0.0])
        with pytest.warns(NumericalWarning):
            result = whitening.regularized_inverse_sqrt(covariance, 1e-300)
        eigenvalues = np.linalg.eigvalsh(result)
        floor = 3 * np.finfo(np.float64).eps  # scale=1, dim=3
        assert eigenvalues.max() <= 1.0 / np.sqrt(floor) * (1 + 1e-12)


# -- nan_policy plumbing -----------------------------------------------------


class TestNanPolicy:
    def test_raise_names_view_and_chunk(self):
        views = make_views(n=40)
        views[1][2, 17] = np.nan
        model = TCCA(n_components=2)
        with pytest.raises(ValidationError, match=r"views\[1\].*chunk 0"):
            model.partial_fit(views)

    def test_skip_drops_aligned_samples_and_counts(self):
        views = make_views(n=60)
        views[0][0, 5] = np.inf
        views[2][1, 41] = np.nan
        clean = [np.delete(view, [5, 41], axis=1) for view in views]
        model = TCCA(n_components=2, nan_policy="skip")
        model.partial_fit(views)
        assert model.n_skipped_ == 2
        reference = TCCA(n_components=2).fit(clean)
        np.testing.assert_allclose(
            model.correlations_, reference.correlations_, atol=1e-10
        )

    def test_skip_count_survives_merge_and_state_dict(self):
        views = make_views(n=80)
        views[0][0, 10] = np.nan
        views[1][0, 70] = np.inf
        left = [view[:, :40] for view in views]
        right = [view[:, 40:] for view in views]
        a, _ = accumulate_views(
            left, estimator="tcca", params={"nan_policy": "skip"}
        )
        b, _ = accumulate_views(
            right, estimator="tcca", params={"nan_policy": "skip"}
        )
        assert (a.n_skipped, b.n_skipped) == (1, 1)
        a.merge(b)
        assert a.n_skipped == 2
        assert a.n_samples == 78
        restored = type(a).from_state_dict(*a.state_dict())
        assert restored.n_skipped == 2

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValidationError, match="nan_policy"):
            TCCA(nan_policy="ignore")

    @pytest.mark.parametrize("entry", ["fit", "fit_stream"])
    @pytest.mark.parametrize("nan_policy", ["raise", "skip"])
    def test_one_shot_fit_still_strict(self, nan_policy, entry):
        """A one-shot dense fit rejects NaN whatever the session policy."""
        views = make_views(n=40)
        views[0][0, 0] = np.nan
        # the stream leaves NaN screening to the fit's moment state
        source = (
            views
            if entry == "fit"
            else ArrayViewStream(views, chunk_size=16, require_finite=False)
        )
        model = TCCA(n_components=2, solver="dense", nan_policy=nan_policy)
        with pytest.raises(ValidationError, match="NaN"):
            getattr(model, entry)(source)


# -- serve backpressure & reload breaker -------------------------------------


def fitted_model_file(tmp_path):
    from repro.api import save_model

    views = make_views(n=100, dims=(6, 5))
    model = TCCA(n_components=2).fit(views)
    path = tmp_path / "model.npz"
    save_model(model, path)
    return os.fspath(path), views


class TestServeBackpressure:
    def test_admission_bound_rejects_with_retry_after(self):
        clock = ManualClock()
        ran = []

        def runner(snapshot, stacked):
            ran.append(stacked[0].shape[1])
            return [np.zeros((1, stacked[0].shape[1]))]

        batcher = MicroBatcher(
            runner,
            lambda: object(),
            max_batch=64,
            window_seconds=0.01,
            max_inflight_rows=10,
            clock=clock,
        )

        async def run():
            views = [np.zeros((3, 6))]
            first = asyncio.ensure_future(batcher.submit(views))
            await asyncio.sleep(0)
            # 6 rows queued; 6 more would exceed the 10-row bound
            with pytest.raises(ServerOverloaded) as excinfo:
                await batcher.submit(views)
            assert excinfo.value.retry_after >= 0.001
            assert batcher.stats["rejected"] == 1
            assert batcher.load["queued_rows"] == 6
            # a small request still fits under the bound
            second = asyncio.ensure_future(
                batcher.submit([np.zeros((3, 4))])
            )
            await asyncio.sleep(0)
            assert batcher.load["at_capacity"]
            clock.advance(0.01)  # window fires -> batch runs
            await first
            await second
            # capacity freed once the batch settled
            assert batcher.load["queued_rows"] == 0
            assert batcher.load["inflight_rows"] == 0
            assert not batcher.load["at_capacity"]
            # a previously-rejected request is admitted again
            third = asyncio.ensure_future(batcher.submit(views))
            await asyncio.sleep(0)
            clock.advance(0.01)
            await third

        asyncio.run(run())
        assert sum(ran) == 16

    def test_server_maps_overload_to_429(self, tmp_path):
        from repro.serve import Request, ServeApp

        path, views = fitted_model_file(tmp_path)
        clock = ManualClock()
        app = ServeApp(
            ModelManager(path),
            max_inflight_rows=4,
            window_seconds=0.01,
            clock=clock,
        )

        def transform_request(n_rows):
            payload = {
                "views": [view[:, :n_rows].T.tolist() for view in views]
            }
            return Request(
                method="POST",
                path="/transform",
                body=json.dumps(payload).encode(),
            )

        async def run():
            parked = asyncio.ensure_future(
                app.handle(transform_request(3))
            )
            await asyncio.sleep(0)
            rejected = await app.handle(transform_request(3))
            assert rejected.status == 429
            assert rejected.headers.get("Retry-After") == "1"
            error = json.loads(rejected.body)["error"]
            assert error["type"] == "overloaded"
            assert error["status"] == 429
            health = app.health()
            assert health["status"] == "ok"  # 3 of 4 rows: not at capacity
            clock.advance(0.01)
            accepted = await parked
            assert accepted.status == 200

        asyncio.run(run())


class TestReloadBreaker:
    def test_breaker_opens_and_half_open_probe_recovers(self, tmp_path):
        path, _views = fitted_model_file(tmp_path)
        clock = ManualClock()
        manager = ModelManager(
            path, failure_threshold=2, cooldown_seconds=5.0, clock=clock
        )
        good = manager.current()
        with open(path, "rb") as fh:
            original = fh.read()
        with open(path, "wb") as fh:
            fh.write(b"not a model")
        for _ in range(2):
            assert manager.maybe_reload() is good  # stale beats down
        assert manager.breaker["state"] == "open"
        assert manager.breaker["retry_in_seconds"] == pytest.approx(5.0)
        # while open, the file is not even probed
        probes = FaultPlan()
        with probes:
            manager.maybe_reload()
        assert probes.calls("serve.reload") == 0
        # cooldown over: the half-open probe sees the repaired file
        with open(path, "wb") as fh:
            fh.write(original)
        clock.advance(5.0)
        snapshot = manager.maybe_reload()
        assert snapshot.version > good.version
        assert manager.breaker["state"] == "closed"
        assert manager.breaker["consecutive_failures"] == 0

    def test_failed_half_open_probe_reopens(self, tmp_path):
        path, _views = fitted_model_file(tmp_path)
        clock = ManualClock()
        manager = ModelManager(
            path, failure_threshold=1, cooldown_seconds=5.0, clock=clock
        )
        with open(path, "wb") as fh:
            fh.write(b"junk")
        manager.maybe_reload()
        assert manager.breaker["state"] == "open"
        clock.advance(5.0)
        manager.maybe_reload()  # probe fails -> fresh cooldown
        assert manager.breaker["state"] == "open"
        assert manager.breaker["retry_in_seconds"] == pytest.approx(5.0)

    def test_reload_fault_site_counts(self, tmp_path):
        path, _views = fitted_model_file(tmp_path)
        manager = ModelManager(path)
        os.utime(path, ns=(1, 1))  # change the stat signature
        plan = FaultPlan().fail_at(
            "serve.reload", nth=1, error=OSError("injected")
        )
        with plan:
            manager.maybe_reload()
        assert plan.calls("serve.reload") == 1
        assert manager.reload_errors == 1
