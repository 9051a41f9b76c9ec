"""``serve_mixed``: open-loop HTTP load against ``python -m repro serve``.

Traffic: seeded Poisson arrivals from one asyncio process over as many
keep-alive connections as there are cores (at most two, the calibrated
setting). Most requests carry one row ("small"); a seeded few carry
128-256 rows ("bulk"). Every request body is encoded before the clock
starts, each latency runs from the request's due time, and the
generator's own lateness is reported; a run whose generator fell behind
by more than the frozen bound is marked invalid.

The fixed offered rate, the rate ladder for ``max_ops_per_s`` and the
latency limits were calibrated once and are frozen in ``reference.json``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import selectors
import shutil
import signal
import subprocess
import sys
import time

import numpy as np

from common import metric, nproc, p50, tail, timed_setup, timing_summary
from fit_workloads import RANK, make_views, peak_mb, seed_sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

SIZES = {"fit_n": 5000, "dims": (60, 50, 40), "bulk_rows": (128, 256),
         "small_pool": 256, "bulk_pool": 12}
SMOKE_SIZES = {"fit_n": 400, "dims": (8, 7, 6), "bulk_rows": (16, 32),
               "small_pool": 16, "bulk_pool": 3}
MAX_CONNECTIONS = 2
OUTPUT_TOL = 1e-9  # served rows vs in-process transform_combined
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 30.0
WINDOWS = 5  # fixed-rate phase windows behind p50_ms
RUNG_WINDOWS = 3  # ladder rung windows behind a rung's small-request tail


def server_env() -> dict:
    env = dict(os.environ)  # REPRO_JOBS / REPRO_FAULTS already scrubbed
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class Server:
    """A model server child process; ``close()`` stops it and waits."""

    def __init__(self, command, workdir, tag):
        self.stderr_path = os.path.join(workdir, f"{tag}.stderr")
        with open(self.stderr_path, "wb") as stderr:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=server_env(), stdout=subprocess.PIPE,
                stderr=stderr, stdin=subprocess.DEVNULL,
            )
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.close()
            raise

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=0.5):
                    if self.process.poll() is not None:
                        break
                    continue
                line = self.process.stdout.readline().decode()
                if not line:
                    break
                if " on http://" in line:
                    return int(line.rsplit(":", 1)[1].split()[0])
        raise RuntimeError(
            f"server did not become ready: {self.stderr_tail()}"
        )

    def stderr_tail(self) -> str:
        with open(self.stderr_path, "rb") as handle:
            return handle.read()[-2000:].decode(errors="replace")

    def close(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it will not stop."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def get_json(port, path):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def post(port, body):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request(
            "POST", "/transform", body,
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


# -- requests ----------------------------------------------------------------


class Traffic:
    """Pre-encoded request pool and the expected output of every body."""

    def __init__(self, seed, sizes, model_path):
        from repro.api import hash_model_file, load_model

        # bulk sizes are spread evenly over the range, so the seed varies
        # the rows and the schedule but not the mean bulk size
        low, high = sizes["bulk_rows"]
        counts = [1] * sizes["small_pool"] + [
            int(round(x))
            for x in np.linspace(low, high, sizes["bulk_pool"])
        ]
        rows = make_views(sum(counts), sizes["dims"], seed, 4)
        model = load_model(model_path)
        self.expected_hash = hash_model_file(model_path)
        self.small = list(range(sizes["small_pool"]))
        self.bulk = list(range(sizes["small_pool"], len(counts)))
        self.rows = counts
        self.wire, self.bodies, self.expected = [], [], []
        offset = 0
        for count in counts:
            views = [view[:, offset:offset + count] for view in rows]
            offset += count
            body = json.dumps({"views": [v.T.tolist() for v in views]}).encode()
            self.bodies.append(body)
            self.wire.append(
                b"POST /transform HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Content-Type: application/json\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\n\r\n" + body
            )
            self.expected.append(model.transform_combined(views))
        self.model = model

    def schedule(self, rng, rate, seconds, bulk_every):
        """Poisson due times (s from phase start) and the body of each.

        One request in each block of ``bulk_every`` is bulk, at a seeded
        position, so every phase carries the same bulk share and only
        where bulk requests land varies.
        """
        plan = []
        due = float(rng.exponential(1.0 / rate))
        while due < seconds:
            if len(plan) % bulk_every == 0:
                bulk_at = len(plan) + int(rng.integers(bulk_every))
            if len(plan) == bulk_at:
                body = self.bulk[int(rng.integers(len(self.bulk)))]
            else:
                body = self.small[int(rng.integers(len(self.small)))]
            plan.append((due, body))
            due += float(rng.exponential(1.0 / rate))
        return plan

    def check(self, body, status, payload) -> str | None:
        if status != 200:
            return f"HTTP {status}: {payload[:200]!r}"
        try:
            document = json.loads(payload)
        except ValueError:
            return "response is not JSON"
        if document.get("model_hash") != self.expected_hash:
            return "model_hash differs from the served file's hash"
        outputs = np.asarray(document.get("outputs"), dtype=np.float64)
        expected = self.expected[body]
        if outputs.shape != expected.shape or not np.allclose(
            outputs, expected, rtol=OUTPUT_TOL, atol=OUTPUT_TOL
        ):
            return "outputs differ from in-process transform_combined"
        return None

    def bulk_peak_mb(self) -> float:
        """Peak of one in-process parse, decode, transform, encode (bulk)."""
        from repro.serve.protocol import Request, decode_views, json_response

        body = self.bodies[max(self.bulk, key=lambda i: self.rows[i])]

        def handle():
            views = decode_views(Request("POST", "/transform", body=body).json())
            output = self.model.transform_combined(views)
            json_response({"outputs": output.tolist()}).encode()

        return peak_mb(handle)


async def _read_response(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _phase(port, traffic, plan, connections):
    """Send ``plan`` open loop; one record per request.

    Record: ``(body, due, late, done, status, payload)`` with times in
    seconds on the monotonic clock; ``done`` is None for a request that
    never completed.
    """
    loop = asyncio.get_running_loop()
    links = [
        await asyncio.open_connection("127.0.0.1", port)
        for _ in range(connections)
    ]
    queue: asyncio.Queue = asyncio.Queue()
    records = [None] * len(plan)
    start = loop.time() + 0.05

    async def dispatch():
        for index, (offset, body) in enumerate(plan):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            records[index] = [body, due, loop.time() - due, None, None, b""]
            queue.put_nowait(index)
        for _ in links:
            queue.put_nowait(None)

    async def worker(reader, writer):
        while True:
            index = await queue.get()
            if index is None:
                return
            record = records[index]
            writer.write(traffic.wire[record[0]])
            await writer.drain()
            status, payload = await _read_response(reader)
            record[3], record[4], record[5] = loop.time(), status, payload

    tasks = [asyncio.create_task(dispatch())] + [
        asyncio.create_task(worker(reader, writer)) for reader, writer in links
    ]
    limit = (plan[-1][0] if plan else 0.0) + REQUEST_TIMEOUT_S
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=limit)
    except (asyncio.TimeoutError, asyncio.IncompleteReadError,
            asyncio.LimitOverrunError, OSError, ValueError):
        # the requests left without a response are counted failed
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
    finally:
        for _reader, writer in links:
            writer.close()
    return [r for r in records if r is not None] + [
        [body, start + offset, 0.0, None, None, b""]
        for (offset, body), r in zip(plan, records) if r is None
    ]


def run_phase(port, traffic, plan):
    # asyncio's loop clock is time.monotonic, shared with the server's spans
    connections = max(1, min(MAX_CONNECTIONS, nproc()))
    return asyncio.run(_phase(port, traffic, plan, connections))


def summarize(records, traffic):
    """Latencies (ms from due time) by class, lateness, failures."""
    lat = {"small": [], "bulk": [], "all": []}
    late, failures = [], []
    for body, due, lateness, done, status, payload in records:
        late.append(lateness * 1e3)
        problem = (
            "no response (timeout or connection error)" if done is None
            else traffic.check(body, status, payload)
        )
        if problem is not None:
            failures.append(problem)
            continue
        cls = "bulk" if body in traffic.bulk else "small"
        latency = (done - due) * 1e3
        lat[cls].append(latency)
        lat["all"].append(latency)
    return lat, late, failures


def windows_of(records, count):
    """``records`` (in due order) cut into ``count`` consecutive runs."""
    size = max(1, -(-len(records) // count))
    return [records[i:i + size] for i in range(0, len(records), size)]


def late_p99(late):
    ordered = sorted(late)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))] if late else 0.0


# -- setup -------------------------------------------------------------------


class Setup:
    """Data, the model fit and save, a ready server, one warm-up request."""

    def __init__(self, seed, sizes, workdir, command_for, tag):
        from repro import TCCA
        from repro.api import save_model

        self.model_path = os.path.join(workdir, "model.npz")
        views = make_views(sizes["fit_n"], sizes["dims"], seed, 2)
        model = TCCA(n_components=RANK, solver="dense").fit(views)
        save_model(model, self.model_path)
        self.server = Server(command_for(self.model_path), workdir, tag)
        rows = [view[:, :1].T.tolist() for view in views]
        status, _payload = post(self.server.port, json.dumps({"views": rows}))
        if status != 200:
            self.server.close()
            raise RuntimeError(f"warm-up request failed with HTTP {status}")

    def close(self):
        self.server.close()


def cli_command(model_path):
    return [sys.executable, "-m", "repro", "serve", model_path, "--port", "0"]


def ladder(port, traffic, calibration, rng, rung_seconds):
    """Highest ladder rate whose small-request tail meets the limit.

    A rung passes with no failed request, the small-request tail (the
    median of its windows' tails) within the limit, and no growing
    backlog: the median of the last tenth of small requests also within
    the limit. Rungs are probed by bisection, passing below and failing
    above, so a run probes about log2(len(ladder)) rungs whatever the
    server's speed. Returns (records, rate, rungs run); the rate is 0 only
    when the lowest rung fails.
    """
    rates = calibration["ladder"]
    limit = calibration["small_tail_limit_ms"]
    low, high = -1, len(rates)  # rates[low] passed, rates[high] failed
    records, walked = [], []
    while high - low > 1:
        index = (low + high) // 2
        plan = traffic.schedule(rng, rates[index], rung_seconds,
                                calibration["bulk_every"])
        rung = run_phase(port, traffic, plan)
        records.extend(rung)
        lat, _late, failures = summarize(rung, traffic)
        small = lat["small"]
        last = small[-max(1, len(small) // 10):]
        small_tail = p50([
            tail(summarize(part, traffic)[0]["small"])[0]
            for part in windows_of(rung, RUNG_WINDOWS)
        ])
        ok = bool(
            small and not failures
            and small_tail <= limit and p50(last) <= limit
        )
        walked.append({"rate": rates[index], "ok": ok,
                       "small_tail_ms": small_tail,
                       "failed": len(failures)})
        if ok:
            low = index
        else:
            high = index
    return records, (rates[low] if low >= 0 else 0.0), walked


def run(args, calibration, smoke=False):
    sizes = SMOKE_SIZES if smoke else SIZES
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    setup = None
    try:
        setup, setup_s, setup_all = timed_setup(
            lambda: Setup(args.seed, sizes, workdir, cli_command, "cli")
        )
        traffic = Traffic(args.seed, sizes, setup.model_path)
        rng = np.random.default_rng(seed_sequence(args.seed, 5))
        plan = traffic.schedule(rng, calibration["rate"], 0.45 * args.seconds,
                                calibration["bulk_every"])
        fixed = run_phase(setup.server.port, traffic, plan)
        rungs, max_rate, walked = ladder(
            setup.server.port, traffic, calibration, rng, 0.085 * args.seconds
        )
        records = fixed + rungs
        peak = traffic.bulk_peak_mb()
    finally:
        if setup is not None:
            setup.close()
        shutil.rmtree(workdir, ignore_errors=True)
    lat, late, _failures = summarize(fixed, traffic)
    _all_lat, _all_late, all_failures = summarize(records, traffic)
    summary = timing_summary(lat["all"])
    lateness = late_p99(late)
    # The fixed-rate phase is cut into windows of consecutive requests and
    # the median of the window p50s is reported, so a burst of CPU steal on
    # the shared host moves one window rather than the run.
    windows = [
        timing_summary(summarize(part, traffic)[0]["all"])
        for part in windows_of(fixed, WINDOWS)
    ]
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "p50_ms": metric(p50([w["p50"] for w in windows]), "ms"),
        "peak_mb": metric(peak, "MB"),
        "max_ops_per_s": metric(max_rate, "1/s"),
    }
    details = {
        "operation": "one /transform request (latency from its due time)",
        "sizes": sizes,
        "calibration": calibration,
        "setup_runs_s": setup_all,
        "timing_all_ms": summary,
        "windows_ms": windows,
        "timing_small_ms": timing_summary(lat["small"]),
        "timing_bulk_ms": timing_summary(lat["bulk"]),
        "late_ms_p99": lateness,
        "ladder": walked,
        "failures": all_failures[:20],
    }
    if lateness > calibration["late_limit_ms"]:
        details["invalid"] = (
            f"generator lateness p99 {lateness:.2f} ms exceeds "
            f"{calibration['late_limit_ms']} ms"
        )
    return metrics, len(records), len(all_failures), details


def trace(args, calibration, smoke=False):
    """Untraced CLI server, then the traced launcher, same schedule."""
    import perlayer

    sizes = SMOKE_SIZES if smoke else SIZES
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    spans_path = os.path.join(workdir, "spans.json")
    launcher = os.path.join(HERE, "serve_launcher.py")
    plain = traced_setup = None
    try:
        plain = Setup(args.seed, sizes, workdir, cli_command, "cli")
        traffic = Traffic(args.seed, sizes, plain.model_path)

        def plan():
            rng = np.random.default_rng(seed_sequence(args.seed, 5))
            return traffic.schedule(rng, calibration["rate"],
                                    0.45 * args.seconds,
                                    calibration["bulk_every"])

        plain_records = run_phase(plain.server.port, traffic, plan())
        plain.close()
        plain = None
        traced_setup = Setup(
            args.seed, sizes, workdir,
            lambda path: [sys.executable, launcher, path, spans_path],
            "traced",
        )
        port = traced_setup.server.port
        _status, before = get_json(port, "/healthz")
        traced_records = run_phase(port, traffic, plan())
        _status, after = get_json(port, "/healthz")
        traced_setup.close()
        traced_setup = None
        with open(spans_path) as handle:
            dump = json.load(handle)
    finally:
        for setup in (plain, traced_setup):
            if setup is not None:
                setup.close()
        shutil.rmtree(workdir, ignore_errors=True)
    spans = [tuple(span) for span in dump["spans"]]
    counters = {
        key: after["batcher"]["transform"][key]
        - before["batcher"]["transform"][key]
        for key in after["batcher"]["transform"]
    }
    lat, late, failures = summarize(plain_records, traffic)
    t_lat, _t_late, t_failures = summarize(traced_records, traffic)
    n_requests = sum(1 for s in spans if s[1] == "serve.protocol.decode_views")
    metrics = perlayer.span_metrics(spans, n_requests)
    metrics.update(perlayer.serve_request_metrics(spans, counters, 1))
    metrics.update(
        perlayer.client_metrics(
            {
                "serve.client.late_ms_p99": late_p99(late),
                "serve.client.sent": len(plain_records) + len(traced_records),
                "serve.client.failed": len(failures) + len(t_failures),
                "serve.client.small_ms_p50": p50(lat["small"]),
                "serve.client.small_ms_tail": tail(lat["small"])[0],
                "serve.client.bulk_ms_p50": p50(lat["bulk"]),
                "serve.client.bulk_ms_tail": tail(lat["bulk"])[0],
            }
        )
    )
    metrics.update(
        perlayer.overhead_metrics(
            [x / 1e3 for x in lat["all"]], [x / 1e3 for x in t_lat["all"]],
            len(spans), n_requests,
        )
    )
    details = {
        "sizes": sizes,
        "calibration": calibration,
        "batcher_counters": counters,
        "traced_requests": n_requests,
        "failures": (failures + t_failures)[:20],
    }
    attempted = len(plain_records) + len(traced_records)
    return metrics, attempted, len(failures) + len(t_failures), details
