"""Per-layer metrics of a traced run, from the recorded spans.

Every traced run emits the same names: layers a workload does not reach
read zero there. Span-layer figures are per operation of the workload (a
fit, a ``partial_fit`` call, or a served ``/transform`` request):
``.calls`` spans, ``.s`` seconds inside them, ``.self_s`` seconds not
covered by a child span.
"""

from __future__ import annotations

from common import metric, p50, tail
from tracer import layer_totals

FIT_LAYERS = (
    "streaming.tensor_update",
    "streaming.view_update",
    "linalg.whiten",
    "tensor.multi_mode_product",
    "tensor.operator.mode_gram",
    "tensor.operator.mttkrp",
    "decomposition.cp_als",
    "decomposition.cp_als_implicit",
    "engine.ingest",
    "engine.whiten",
    "engine.build",
    "engine.decompose",
    "engine.finalize",
)
SERVE_LAYERS = (
    "serve.protocol.read_request",
    "serve.protocol.json_parse",
    "serve.protocol.decode_views",
    "serve.protocol.encode",
    "api.transform",
    "serve.model_manager.maybe_reload",
)
PROTOCOL = SERVE_LAYERS[:4]
FLOP_LAYERS = ("streaming.tensor_update", "tensor.operator.mttkrp")
SOLVERS = ("decomposition.cp_als", "decomposition.cp_als_implicit")


def span_metrics(spans, n_ops) -> dict:
    """calls / s / self_s per op for every span layer, plus computed counts."""
    totals = layer_totals(spans)
    per_op = max(n_ops, 1)
    out = {}
    for layer in FIT_LAYERS + SERVE_LAYERS:
        entry = totals.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{layer}.calls"] = metric(entry["calls"] / per_op, "count")
        out[f"{layer}.s"] = metric(entry["s"] / per_op, "s")
        out[f"{layer}.self_s"] = metric(entry["self_s"] / per_op, "s")
    for layer in FLOP_LAYERS:
        flops = sum(s[5].get("flops", 0) for s in spans if s[1] == layer)
        out[f"{layer}.gflop_computed"] = metric(flops / 1e9 / per_op, "GFLOP")
    for layer in SOLVERS:
        solves = [s[5] for s in spans if s[1] == layer]
        sweeps = sum(a["sweeps"] for a in solves)
        converged = sum(1 for a in solves if a["converged"])
        out[f"{layer}.sweeps"] = metric(
            sweeps / len(solves) if solves else 0.0, "count"
        )
        out[f"{layer}.converged_ratio"] = metric(
            converged / len(solves) if solves else 0.0, "ratio"
        )
    return out


def serve_request_metrics(spans, batcher_delta, small_rows) -> dict:
    """Batcher and per-request-class figures from the server's spans.

    A request's queue wait runs from its ``submit`` to the start of its
    batch's model call; its protocol time is the sum of its read (from
    the first line's arrival), JSON parse, view decode and response
    encode spans.
    """
    model_calls = {
        s[5]["batch"]: s for s in spans if s[1] == "api.transform"
    }
    by_request: dict = {}
    for span in spans:
        request = span[5].get("request")
        if request is not None:
            by_request.setdefault(request, []).append(span)
    waits = {"small": [], "bulk": []}
    protocol = {"small": [], "bulk": []}
    model = {"small": [], "bulk": []}
    for request_spans in by_request.values():
        submit = [s for s in request_spans if s[1] == "serve.batcher.submit"]
        decode = [
            s for s in request_spans if s[1] == "serve.protocol.decode_views"
        ]
        if not submit or not decode:
            continue  # not a /transform request (health checks)
        submit = submit[0]
        call = model_calls.get(submit[5]["batch"])
        if call is None:
            continue
        cls = "small" if decode[0][5]["rows"] <= small_rows else "bulk"
        waits[cls].append((call[2] - submit[2]) * 1e3)
        model[cls].append((call[3] - call[2]) * 1e3)
        protocol[cls].append(
            1e3 * sum(s[3] - s[2] for s in request_spans if s[1] in PROTOCOL)
        )
    all_waits = waits["small"] + waits["bulk"]
    batches = batcher_delta.get("batches", 0)
    out = {
        "serve.batcher.queue_wait_ms_p50": metric(p50(all_waits), "ms"),
        "serve.batcher.queue_wait_ms_tail": metric(tail(all_waits)[0], "ms"),
        "serve.batcher.requests_per_batch": metric(
            batcher_delta.get("requests", 0) / batches if batches else 0.0,
            "count",
        ),
        "serve.batcher.rows_per_batch": metric(
            batcher_delta.get("rows", 0) / batches if batches else 0.0,
            "count",
        ),
        "serve.batcher.flush_on_window_share": metric(
            batcher_delta.get("flush_on_window", 0) / batches
            if batches else 0.0,
            "ratio",
        ),
        "serve.batcher.rejected": metric(
            batcher_delta.get("rejected", 0), "count"
        ),
        "serve.batcher.timeouts": metric(
            batcher_delta.get("timeouts", 0), "count"
        ),
    }
    for cls in ("small", "bulk"):
        out[f"serve.{cls}.queue_wait_ms_p50"] = metric(p50(waits[cls]), "ms")
        out[f"serve.{cls}.protocol_ms_p50"] = metric(p50(protocol[cls]), "ms")
        out[f"serve.{cls}.model_ms_p50"] = metric(p50(model[cls]), "ms")
    return out


def empty_serve_metrics() -> dict:
    return serve_request_metrics([], {}, 1)


CLIENT_METRICS = (
    ("serve.client.late_ms_p99", "ms"),
    ("serve.client.sent", "count"),
    ("serve.client.failed", "count"),
    ("serve.client.small_ms_p50", "ms"),
    ("serve.client.small_ms_tail", "ms"),
    ("serve.client.bulk_ms_p50", "ms"),
    ("serve.client.bulk_ms_tail", "ms"),
)


def client_metrics(values=None) -> dict:
    values = values or {}
    return {name: metric(values.get(name, 0.0), unit) for name, unit in CLIENT_METRICS}


def overhead_metrics(plain_s, traced_s, n_spans, n_ops) -> dict:
    """Tracing overhead (median traced op minus median untraced op), and
    the tail of the untraced operations with its percentile."""
    plain, traced = p50(plain_s), p50(traced_s)
    value, percentile, _n = tail(plain_s)
    return {
        "untraced.tail_ms": metric(value * 1e3, "ms"),
        "untraced.tail_pct": metric(percentile, "pct"),
        "trace.overhead_ms": metric((traced - plain) * 1e3, "ms"),
        "trace.overhead_share": metric(
            (traced - plain) / plain if plain else 0.0, "ratio"
        ),
        "trace.spans_per_op": metric(n_spans / max(n_ops, 1), "count"),
    }
