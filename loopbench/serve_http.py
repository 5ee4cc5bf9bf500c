"""``serve_http``: the service as ``mube serve`` builds it, driven over HTTP.

``load_universe("books:60:0")``, a default ``ServeApp`` and a
``ServeHTTPServer`` on an ephemeral loopback port run inside the benchmark
process.  Two client threads, one keep-alive connection each, drive it in
rounds (a closed loop): per round each client runs one session script.  In
even rounds both clients run the same script, and their answers must be
identical.  The universe is the same in every run; ``--seed`` picks the
scripts' optimizer seeds and so their pinned sources.

Two operations of every script fail on every request today and are
counted as failed, not hidden: ``accept_ga`` by index (the handler
indexes a frozenset) followed by ``drop_ga`` 0, and an edits body that is
a JSON array (answered 500 where a 4xx is due).
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import checks
from common import Sample, figure, median, p90, peak_rss_mb
from harness import Context, Outcome, in_process_setup

SOURCES = 60
UNIVERSE_SEED = 0
BUDGET = 10
ITERATIONS = 3
CLIENTS = 2
EMPHASIS = ("coverage", 0.4)
#: Requests per client per round (the accept_ga fault is two requests).
REQUESTS_PER_SCRIPT = 16
#: The service's resident set grows with every session it has served, so
#: ``peak_rss_mb`` is read after a fixed number of rounds, not at the end
#: of a time-bound run.
RSS_ROUNDS = 6
#: Longest a round may take before the run gives up on it.
ROUND_DEADLINE_S = 60.0

DEFAULT_WEIGHTS = checks.normalised(checks.PAPER_WEIGHTS)


class Service:
    """The resident service and its HTTP server thread."""

    def __init__(self, ctx: Context):
        from repro.serve import ServeApp, load_universe
        from repro.serve.app import ServeHTTPServer

        self.resident = load_universe(f"books:{SOURCES}:{UNIVERSE_SEED}")
        self.app = ServeApp(
            {self.resident.name: self.resident}, job_dir=str(ctx.tmp / "jobs")
        )
        self.app.start()
        try:
            self.server = ServeHTTPServer(("127.0.0.1", 0), self.app)
        except OSError:
            self.app.close()
            raise
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="loopbench-serve", daemon=True
        )
        self.thread.start()
        self.port = self.server.server_address[1]
        self.names = checks.attribute_names(self.resident.universe)

    def close(self) -> None:
        try:
            self.server.shutdown()
            self.thread.join(timeout=30)
            self.server.server_close()
        finally:
            self.app.close()


class Request:
    """One request as the client saw it."""

    __slots__ = ("method", "path", "status", "payload", "elapsed", "record")

    def __init__(self, method, path):
        self.method = method
        self.path = path
        self.status = 0
        self.payload = None
        self.elapsed = 0.0
        self.record = None


class Client(threading.Thread):
    """A closed-loop user: one script per round, one connection."""

    def __init__(self, index: int, service: Service, bench: "Bench"):
        super().__init__(name=f"loopbench-client-{index}")
        self.index = index
        self.service = service
        self.bench = bench
        self.conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
        self.script_seed = 0
        self.requests: list[Request] = []
        self.ops: list[tuple[str, bool, float]] = []  # (kind, ok, seconds)
        self.answers: list[dict] = []
        self.session_ids: set[str] = set()
        self.error: BaseException | None = None

    def run(self) -> None:
        bench = self.bench
        while True:
            try:
                bench.start.wait(timeout=ROUND_DEADLINE_S)
            except threading.BrokenBarrierError:
                return
            if bench.stopping:
                return
            self.requests, self.ops, self.answers = [], [], []
            try:
                self.script()
            except Exception as exc:  # reported by the main thread
                self.error = exc
            try:
                bench.end.wait(timeout=ROUND_DEADLINE_S)
            except threading.BrokenBarrierError:
                return

    # -- requests ----------------------------------------------------------------

    def call(self, method, path, body=None, raw=None) -> Request:
        tracer = self.bench.tracer
        request = Request(method, path)
        started = time.perf_counter()
        if tracer is None:
            self._exchange(request, body, raw)
        else:
            with tracer.root("op") as record:
                self._exchange(request, body, raw, tracer)
            request.record = record
        request.elapsed = time.perf_counter() - started
        self.requests.append(request)
        return request

    def _exchange(self, request, body, raw, tracer=None):
        data = raw if raw is not None else (
            json.dumps(body).encode() if body is not None else None
        )
        headers = {"Content-Type": "application/json"} if data is not None else {}
        if tracer is not None:
            http = tracer.open("client.http")
        self.conn.request(request.method, request.path, body=data, headers=headers)
        response = self.conn.getresponse()
        text = response.read()
        if tracer is not None:
            tracer.close(http)
        request.status = response.status
        request.payload = json.loads(text)

    def op(self, kind: str, requests: list[Request], ok: bool) -> None:
        self.ops.append((kind, ok, sum(r.elapsed for r in requests)))

    # -- the session script ------------------------------------------------------

    def script(self) -> None:
        seed = self.script_seed
        posed = dict(
            max_sources=BUDGET, theta=0.65, beta=2,
            weights=dict(DEFAULT_WEIGHTS), names=self.service.names,
        )
        made = self.call("POST", "/sessions", {"iterations": ITERATIONS, "seed": seed})
        self.op("light", [made], made.status == 201)
        sid = made.payload["session_id"]
        self.session_ids.add(sid)
        base = f"/sessions/{sid}"

        def solve():
            done = self.call("POST", base + "/solve", {})
            self.op("solve", [done], done.status == 200)
            if done.status != 200:
                raise checks.CheckFailed(f"solve answered {done.status}: {done.payload}")
            answer = checks.from_payload(done.payload)
            checks.check_answer(answer, checks.Posed(**posed))
            self.answers.append(done.payload["solution"])
            return answer

        def edit(edits):
            done = self.call("POST", base + "/edits", {"edits": edits})
            self.op("light", [done], done.status == 200)

        first = solve()
        ids = sorted(first.selected)
        pin = ids[seed % len(ids)]
        edit([{"op": "require_source", "source": pin}])
        posed["pinned"] = frozenset({pin})
        solve()
        edit([{"op": "emphasize", "qef": EMPHASIS[0], "weight": EMPHASIS[1]}])
        posed["weights"] = checks.emphasized(posed["weights"], *EMPHASIS)
        solve()
        edit([{"op": "set_theta", "theta": 0.7}])
        posed["theta"] = 0.7
        accept = self.call("POST", base + "/edits", {"edits": [{"op": "accept_ga", "ga": 0}]})
        drop = self.call("POST", base + "/edits", {"edits": [{"op": "drop_ga", "ga": 0}]})
        self.op("fault", [accept, drop], accept.status == 200 and drop.status == 200)
        solve()
        array = [{"op": "release_source", "source": pin}]
        bad = self.call("POST", base + "/edits", raw=json.dumps(array).encode())
        self.op("fault", [bad], 400 <= bad.status < 500)
        edit([{"op": "release_source", "source": pin}])
        posed["pinned"] = frozenset()
        solve()
        described = self.call("GET", base)
        info = described.payload
        self.op(
            "light", [described],
            described.status == 200 and info.get("solves") == 5
            and info.get("required_sources") == [] and info.get("theta") == 0.7,
        )
        health = self.call("GET", "/health")
        self.op(
            "light", [health],
            health.status == 200 and health.payload.get("status") in ("ok", "degraded"),
        )
        closed = self.call("DELETE", base)
        self.op("light", [closed], closed.status == 200 and closed.payload.get("closed") is True)


class Bench:
    def __init__(self, ctx: Context, service: Service):
        self.ctx = ctx
        self.tracer = ctx.tracer
        self.service = service
        self.stopping = False
        self.start = threading.Barrier(CLIENTS + 1)
        self.end = threading.Barrier(CLIENTS + 1)
        self.clients = [Client(i, service, self) for i in range(CLIENTS)]

    def close(self) -> None:
        self.stopping = True
        self.start.abort()
        self.end.abort()
        for client in self.clients:
            if client.is_alive():
                client.join(timeout=ROUND_DEADLINE_S)
            client.conn.close()


def merge_server_records(tracer, clients) -> None:
    """Fold each request's server-side ``dispatch`` spans into the
    client record of the same request.

    Every client keeps one connection, so one handler thread serves all
    its requests in order.  A thread is matched to a client by the
    session ids its requests carry; requests then pair up in order and
    must agree on method and path.
    """
    with tracer._lock:
        server, tracer.records[:] = list(tracer.records), []
    by_thread: dict[int, list] = {}
    for record in server:
        if record.name == "serve.dispatch_self":
            by_thread.setdefault(record.thread, []).append(record)
    for client in clients:
        mine = [
            records for records in by_thread.values()
            if any(_session_of(r) in client.session_ids for r in records)
        ]
        if len(mine) != 1:
            raise AssertionError(f"client {client.index}: {len(mine)} handler threads")
        served = sorted(mine[0], key=lambda r: r.start)
        if len(served) != len(client.requests):
            raise AssertionError(
                f"client {client.index}: {len(client.requests)} requests, "
                f"{len(served)} dispatched"
            )
        for request, done in zip(client.requests, served):
            if (request.method, request.path) != (done.meta["method"], done.meta["path"]):
                raise AssertionError(f"request {request.path} paired with {done.meta}")
            record = request.record
            record.selfs["serve.transport"] = record.selfs.pop("client.http") - done.wall
            for layer, seconds in done.selfs.items():
                record.selfs[layer] += seconds
            for name, amount in done.counts.items():
                record.counts[name] += amount


def _session_of(record) -> str | None:
    if "session_id" in record.meta:
        return record.meta["session_id"]
    parts = [p for p in record.meta.get("path", "").split("/") if p]
    return parts[1] if len(parts) >= 2 and parts[0] == "sessions" else None


def run(ctx: Context) -> Outcome:
    service, setup = in_process_setup(ctx, lambda: Service(ctx), Service.close)
    bench = Bench(ctx, service)
    try:
        for client in bench.clients:
            client.start()
        return drive(ctx, bench, setup)
    finally:
        bench.close()
        service.close()


def drive(ctx: Context, bench: Bench, setup: Sample) -> Outcome:
    cal = ctx.calibrator
    done: list[tuple[float, float, list]] = []  # (round seconds, factor, ops)
    records = []
    attempted = failed = 0
    rss_mb = None
    if bench.tracer is not None:
        with bench.tracer._lock:
            bench.tracer.records.clear()
    before = cal.point()
    started = time.perf_counter()
    while ctx.clock_running(started):
        rounds = len(done)
        twin = rounds % 2 == 0
        for client in bench.clients:
            client.script_seed = ctx.seed * 1000 + rounds * 2 + (0 if twin else client.index)
        round_started = time.perf_counter()
        bench.start.wait(timeout=ROUND_DEADLINE_S)
        bench.end.wait(timeout=ROUND_DEADLINE_S)
        round_raw = time.perf_counter() - round_started
        after = cal.point()
        factor = cal.factor(before, after)
        before = after
        ops = []
        for client in bench.clients:
            if client.error is not None:
                raise client.error
            for kind, ok, seconds in client.ops:
                attempted += 1
                if not ok:
                    failed += 1
                    if kind != "fault":
                        raise checks.CheckFailed(f"a {kind} operation failed")
                ops.append((kind, seconds))
        if twin and bench.clients[0].answers != bench.clients[1].answers:
            raise checks.CheckFailed("twin clients received different answers")
        if bench.tracer is not None:
            merge_server_records(bench.tracer, bench.clients)
            ops.extend(
                ("record", r.record)
                for client in bench.clients for r in client.requests
            )
        done.append((round_raw, factor, ops))
        if len(done) == RSS_ROUNDS:
            rss_mb = peak_rss_mb()
    # Requests are scaled in their CPU share only.  The median light
    # request is taken as every request's transport share: today that is
    # a 40 ms delayed-ACK wait (see README), which does not scale with the
    # machine's speed.
    wait = median([s for _, _, ops in done for kind, s in ops if kind == "light"])

    def scaled(raw: float, factor: float) -> float:
        return wait + (raw - wait) * factor

    solves, light = [], []
    load = raw_load = 0.0
    for round_raw, factor, ops in done:
        round_wait = REQUESTS_PER_SCRIPT * wait
        load += round_wait + max(round_raw - round_wait, 0.0) * factor
        raw_load += round_raw
        for kind, item in ops:
            if kind == "record":
                raw = item.wall
                records.append((item, scaled(raw, factor) / raw))
            elif kind in ("solve", "light"):
                sample = Sample(kind, item, scaled(item, factor) / item)
                (solves if kind == "solve" else light).append(sample)
    return Outcome(
        setup=setup,
        headline=solves,
        aux=light,
        load_s=load,
        rate_ops=len(solves),
        attempted=attempted,
        failed=failed,
        rss_mb=rss_mb,
        detail={
            "solve_req_p50_s": figure(solves),
            "solve_req_p90_s": figure(solves, p90),
            "light_req_p50_s": figure(light),
            "solves_per_s": {
                "value": len(solves) / load, "raw": len(solves) / raw_load,
                "n": len(solves),
            },
            "transport_wait_s": wait,
            "rounds": len(done),
        },
        records=records,
    )
