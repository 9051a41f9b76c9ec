"""Which library entry points the traced runs wrap, and under what name.

Each wrapper sits on the attribute the caller looks up: ``core.engine``
imports ``cp_als``, ``multi_mode_product`` and ``regularized_inverse_sqrt``
by name, and ``core.tcca`` imports the cold-fit tensor builders by name,
so those module globals are patched rather than the defining modules.
Methods are patched on their classes. Layers not on any workload's path
(``kernels``, ``parallel``, ``artifacts``, ``reliability``) are left alone.
"""

from __future__ import annotations

import contextvars
import itertools
import math

# Request identity inside the server: set when a request has been read and
# inherited by every later span of the same connection task.
REQUEST = contextvars.ContextVar("perfbench_request", default=None)


def _tensor_update_flops(args, kwargs, result):
    """Leading-term flops of one moment update, computed from chunk shapes.

    The full m-way moment costs one GEMM ``X_1 @ K^T`` (``2·n·∏d``) plus
    the sample-wise Khatri-Rao product ``K`` (``n·∏_{p>1} d``); the
    lower-order mean-correction subsets are left out.
    """
    chunks = args[1]
    dims = [int(chunk.shape[0]) for chunk in chunks]
    n = int(chunks[0].shape[1])
    rest = math.prod(dims[1:])
    return {"flops": 2 * n * dims[0] * rest + n * rest}


def _mttkrp_flops(args, kwargs, result):
    """Flops of one implicit MTTKRP, computed from the operator's shapes.

    Every view is projected onto its factor (``2·N·d_p·r`` each), the
    ``m-1`` projections are multiplied element-wise, and the product is
    contracted back through the target view.
    """
    operator, factors = args[0], args[1]
    n = int(operator.n_samples)
    rank = int(factors[0].shape[1])
    dims = [int(d) for d in operator.shape]
    return {
        "flops": 2 * n * rank * sum(dims) + (len(dims) - 1) * n * rank
    }


def _decomposition(args, kwargs, result):
    return {
        "sweeps": int(result.n_iterations),
        "converged": bool(result.converged),
    }


def install_fit_layers(tracer) -> None:
    """Wrap the streaming, linalg, tensor, decomposition and engine layers."""
    from repro.core import engine, tcca
    from repro.streaming.covariance import (
        StreamingCovariance,
        StreamingCovarianceTensor,
    )
    from repro.tensor.operator import CovarianceTensorOperator

    tracer.patch(
        StreamingCovarianceTensor, "update", "streaming.tensor_update",
        annotate=_tensor_update_flops,
    )
    tracer.patch(StreamingCovariance, "update", "streaming.view_update")
    tracer.patch(engine, "regularized_inverse_sqrt", "linalg.whiten")
    tracer.patch(engine, "multi_mode_product", "tensor.multi_mode_product")
    tracer.patch(
        CovarianceTensorOperator, "mode_gram", "tensor.operator.mode_gram"
    )
    tracer.patch(
        CovarianceTensorOperator, "mttkrp", "tensor.operator.mttkrp",
        annotate=_mttkrp_flops,
    )
    tracer.patch(
        engine, "cp_als", "decomposition.cp_als", annotate=_decomposition
    )
    tracer.patch(
        engine, "cp_als_implicit", "decomposition.cp_als_implicit",
        annotate=_decomposition,
    )
    tracer.patch(engine, "ingest_stage", "engine.ingest")
    tracer.patch(engine, "whiten_stage", "engine.whiten")
    tracer.patch(engine, "build_stage", "engine.build")
    # cold fits build M through these builders instead of build_stage;
    # their ingest and whiten children are subtracted in self time
    for builder in (
        "whitened_covariance_tensor",
        "whitened_covariance_tensor_streaming",
        "whitened_covariance_operator",
        "whitened_covariance_operator_streaming",
    ):
        tracer.patch(tcca, builder, "engine.build")
    tracer.patch(engine, "decompose_stage", "engine.decompose")
    tracer.patch(engine, "finalize_stage", "engine.finalize")


class _ArrivalReader:
    """Stream-reader proxy noting when a request's first line arrived."""

    def __init__(self, reader, marks, clock):
        self._reader = reader
        self._marks = marks
        self._clock = clock

    async def readline(self):
        line = await self._reader.readline()
        if "start" not in self._marks:
            self._marks["start"] = self._clock()
        return line

    async def readexactly(self, n):
        return await self._reader.readexactly(n)


def _arrival_start(args, kwargs, clock):
    marks: dict = {}
    reader = _ArrivalReader(args[0], marks, clock)
    return (reader,) + tuple(args[1:]), kwargs, marks


def install_serve_layers(tracer) -> None:
    """Wrap the protocol, batcher, model-manager and api layers of a server.

    Must run before the :class:`~repro.serve.server.ServeApp` is built: the
    batchers capture ``ModelManager.maybe_reload`` as a bound method.
    """
    from repro.cca.base import MultiviewTransformer
    from repro.serve import server
    from repro.serve.batcher import MicroBatcher
    from repro.serve.model_manager import ModelManager
    from repro.serve.protocol import Request, Response

    request_ids = itertools.count(1)
    batch_calls = itertools.count(1)

    def read_done(args, kwargs, result):
        if result is None:
            return {}
        request = next(request_ids)
        REQUEST.set(request)
        return {"request": request, "bytes": len(result.body)}

    def in_request(args, kwargs, result):
        return {"request": REQUEST.get()}

    def decoded(args, kwargs, result):
        return {"request": REQUEST.get(), "rows": int(result[0].shape[1])}

    def submitted(args, kwargs, result):
        return {
            "request": REQUEST.get(),
            "batch": int(result.batch_id),
            "batch_size": int(result.batch_size),
            "batch_rows": int(result.batch_rows),
        }

    def model_call(args, kwargs, result):
        # batches run one at a time under the batcher's flush lock, so the
        # k-th model call of the /transform route serves batch k
        return {"batch": next(batch_calls)}

    tracer.patch(
        server, "read_request", "serve.protocol.read_request",
        annotate=read_done, start_hook=_arrival_start,
    )
    tracer.patch(
        Request, "json", "serve.protocol.json_parse", annotate=in_request
    )
    tracer.patch(
        server, "decode_views", "serve.protocol.decode_views",
        annotate=decoded,
    )
    tracer.patch(
        server, "json_response", "serve.protocol.encode", annotate=in_request
    )
    tracer.patch(
        Response, "encode", "serve.protocol.encode", annotate=in_request
    )
    tracer.patch(
        MicroBatcher, "submit", "serve.batcher.submit", annotate=submitted
    )
    tracer.patch(
        MultiviewTransformer, "transform_combined", "api.transform",
        annotate=model_call,
    )
    tracer.patch(
        ModelManager, "maybe_reload", "serve.model_manager.maybe_reload"
    )
