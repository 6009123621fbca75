"""The ``serve-mixed`` workload: open-loop load on a ``repro serve`` process.

One client process keeps two connections to the server.  Arrivals are a
seeded Poisson process: for each rate step the benchmark fixes the
request count (rate x duration) and draws the arrival times uniformly
over the step, which is a Poisson process conditioned on that count.
About 1% of requests are first-seen lstm variants (fresh plans that
write to the cache); the rest are exact cache hits on a warmed pool.
Latency runs from each request's *due* time, so a generator or server
stall is charged to every request it delays; the generator's own
lateness is reported separately.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: The warmed pool: every request that is not a first-seen variant is
#: one of these, so it is answered from the cache.
POOL = (
    {"model": "lstm", "gc": "dgc", "ratio": 0.01, "machines": 2, "gpus": 4},
    {"model": "lstm", "gc": "dgc", "ratio": 0.01, "machines": 2, "gpus": 2},
    {"model": "lstm", "gc": "dgc", "ratio": 0.05, "machines": 2, "gpus": 4},
    {"model": "lstm", "gc": "randomk", "ratio": 0.01, "machines": 2, "gpus": 4},
    {"model": "lstm", "gc": "efsignsgd", "machines": 2, "gpus": 4},
    {"model": "vgg16", "gc": "dgc", "ratio": 0.01, "machines": 2, "gpus": 4},
    {"model": "vgg16", "gc": "dgc", "ratio": 0.01, "machines": 2, "gpus": 2},
    {"model": "vgg16", "gc": "efsignsgd", "machines": 2, "gpus": 4},
)
#: (step name, requests per second).
STEPS = (("lo", 150.0), ("hi", 450.0))
MISS_SHARE = 0.01
#: The DGC ratio of the first first-seen variant; each next one adds
#: 0.00001.  Fixed, not seeded: lstm planning work depends on the ratio,
#: so the fresh plans (and their in-process re-plans) cost the same on
#: every seed.
VARIANT_BASE_RATIO = 0.004
CONNECTIONS = 2
#: Admission-control queue depth.  The default (16) refuses the burst of
#: cache hits that arrives at the ``hi`` rate while a fresh plan holds
#: the interpreter lock; a deeper queue lets that burst show up as tail
#: latency instead.  A refusal still counts as a failed request.
QUEUE_LIMIT = 256
#: A request unanswered this long after its due time counts as failed.
CLIENT_TIMEOUT_S = 60.0


@dataclass
class Request:
    step: str
    due: float  # seconds after the start of the timed phase
    payload: dict


def schedule(seed: int, step_seconds: float) -> List[Request]:
    """The seeded request list of one timed phase."""
    rng = random.Random(seed)
    requests: List[Request] = []
    offset = 0.0
    # First-seen variants differ from every pool entry and from each
    # other by their DGC ratio, so each is exactly one fresh plan.
    variant = 0
    for step, rate in STEPS:
        count = int(round(rate * step_seconds))
        times = sorted(rng.uniform(0.0, step_seconds) for _ in range(count))
        # One miss per whole block of 1/MISS_SHARE requests, at a seeded
        # offset: misses never bunch up, so the tail measures the cost of
        # one fresh plan rather than the luck of the draw, and every seed
        # makes the same number of them.
        spacing = int(round(1 / MISS_SHARE))
        first = rng.randrange(spacing)
        misses = {first + spacing * k for k in range(count // spacing)}
        for index, at in enumerate(times):
            if index in misses:
                payload = {
                    "model": "lstm",
                    "gc": "dgc",
                    "ratio": round(VARIANT_BASE_RATIO + 0.00001 * variant, 6),
                    "machines": 2,
                    "gpus": 4,
                }
                variant += 1
            else:
                payload = dict(rng.choice(POOL))
            requests.append(Request(step, offset + at, payload))
        offset += step_seconds
    for number, request in enumerate(requests):
        request.payload["request_id"] = f"{seed}-{number}"
    return requests


@dataclass
class Outcome:
    """What the client saw for one timed phase."""

    #: Per request, in schedule order; None when it was not answered.
    responses: List[Optional[dict]]
    latency_s: List[Optional[float]]
    late_s: List[float]
    window: Tuple[float, float]
    stats_before: dict
    stats_after: dict
    #: CPU time the server used over the timed phase.
    server_cpu_s: float
    peak_rss_mb: float


class Client:
    """JSON-lines connections with request_id-matched responses."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conns: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.pending: Dict[str, asyncio.Future] = {}
        self.ops: Optional[asyncio.Queue] = None
        self._readers: List[asyncio.Task] = []

    async def open(self) -> None:
        self.ops = asyncio.Queue()
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            self.conns.append((reader, writer))
            self._readers.append(
                asyncio.get_running_loop().create_task(self._read(reader))
            )

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            received = time.perf_counter()
            message = json.loads(line)
            if "op" in message:
                self.ops.put_nowait(message)
                continue
            future = self.pending.pop(message.get("request_id", ""), None)
            if future is not None and not future.done():
                future.set_result((received, message))

    def send(self, number: int, payload: dict) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.pending[payload["request_id"]] = future
        writer = self.conns[number % CONNECTIONS][1]
        writer.write((json.dumps(payload) + "\n").encode())
        return future

    async def op(self, name: str) -> dict:
        writer = self.conns[0][1]
        writer.write((json.dumps({"op": name}) + "\n").encode())
        await writer.drain()
        return await asyncio.wait_for(self.ops.get(), CLIENT_TIMEOUT_S)

    async def close(self) -> None:
        for _, writer in self.conns:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)


class Server:
    """A ``repro serve`` subprocess (optionally via the traced launcher)."""

    def __init__(self, root: Path, traced_spans: Optional[Path] = None) -> None:
        command = [sys.executable]
        if traced_spans is None:
            command += ["-m", "repro"]
        else:
            command += [
                str(root / "perfbench" / "serve_traced.py"),
                "--spans-out",
                str(traced_spans),
            ]
        command += ["serve", "--port", "0", "--workers", "2", "--jobs", "1",
                    "--queue-limit", str(QUEUE_LIMIT)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(root),
        )
        self.port: Optional[int] = None
        self.output: List[str] = []

    def wait_listening(self, timeout_s: float = 60.0) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            self.output.append(line)
            if "listening on" in line:
                address = line.split("listening on", 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                return self.port
        raise RuntimeError("server did not start:\n" + "".join(self.output))

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server process has used."""
        with open(f"/proc/{self.process.pid}/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, timeout_s: float = 60.0) -> None:
        """Wait for a drained server to exit; kill it if it does not."""
        try:
            rest, _ = self.process.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.process.kill()
            rest, _ = self.process.communicate()
        self.output.append(rest or "")


async def warm(client: Client, tag: str) -> List[dict]:
    """Plan the pool once (fresh plans that fill the cache)."""
    futures = [
        client.send(n, {**payload, "request_id": f"warm-{tag}-{n}"})
        for n, payload in enumerate(POOL)
    ]
    for _, writer in client.conns:
        await writer.drain()
    done = await asyncio.wait_for(asyncio.gather(*futures), CLIENT_TIMEOUT_S)
    return [message for _, message in done]


async def start_warm(root: Path, traced_spans: Optional[Path] = None):
    """Server start to listening, then the cache warm-up: the set-up."""
    server = Server(root, traced_spans)
    try:
        port = await asyncio.get_running_loop().run_in_executor(
            None, server.wait_listening
        )
        client = Client(port)
        await client.open()
        warmed = await warm(client, str(server.process.pid))
    except BaseException:
        server.process.kill()
        server.stop()
        raise
    return server, client, warmed


async def drive(client: Client, server: Server, requests: List[Request]) -> Outcome:
    """Send ``requests`` open-loop and collect every answer."""
    stats_before = await client.op("stats")
    cpu_before = server.cpu_seconds()
    futures = []
    late = []
    start = time.perf_counter() + 0.05
    for number, request in enumerate(requests):
        due = start + request.due
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(max(0.0, time.perf_counter() - due))
        futures.append((due, client.send(number, request.payload)))
        if number % 64 == 0:
            for _, writer in client.conns:
                await writer.drain()
    end_sent = time.perf_counter()
    responses: List[Optional[dict]] = []
    latency: List[Optional[float]] = []
    for due, future in futures:
        try:
            remaining = max(0.0, due + CLIENT_TIMEOUT_S - time.perf_counter())
            received, message = await asyncio.wait_for(future, remaining)
        except asyncio.TimeoutError:
            responses.append(None)
            latency.append(None)
            continue
        responses.append(message)
        latency.append(received - due)
    window = (start, max(end_sent, time.perf_counter()))
    cpu_s = server.cpu_seconds() - cpu_before
    stats_after = await client.op("stats")
    rss = server.peak_rss_mb()
    return Outcome(
        responses=responses,
        latency_s=latency,
        late_s=late,
        window=window,
        stats_before=stats_before,
        stats_after=stats_after,
        server_cpu_s=cpu_s,
        peak_rss_mb=rss,
    )


async def shutdown(client: Client, server: Server) -> None:
    try:
        await client.op("drain")
    finally:
        await client.close()
        await asyncio.get_running_loop().run_in_executor(None, server.stop)


def response_failures(requests: List[Request], outcome: Outcome) -> List[str]:
    """Per-request failures: no answer, an error, a refusal, or a
    degraded/stale/heuristic answer."""
    failures = []
    for request, response in zip(requests, outcome.responses):
        rid = request.payload["request_id"]
        if response is None:
            failures.append(f"{rid}: no response within {CLIENT_TIMEOUT_S}s")
        elif response.get("status") != "ok":
            failures.append(f"{rid}: {response.get('status')}: "
                            f"{response.get('reason')}")
        elif response.get("degraded") or response.get("source") not in (
            "fresh", "cache"
        ):
            failures.append(f"{rid}: degraded answer ({response.get('source')})")
    after = outcome.stats_after
    for key in ("retries", "degraded", "refused", "rejected_saturated",
                "errors", "deadline_misses", "queue_expired"):
        if after.get(key):
            failures.append(f"server stats: {key} = {after[key]}")
    return failures


def served_plans(requests: List[Request], outcome: Outcome) -> Dict[str, Tuple[dict, dict]]:
    """Distinct served fingerprints -> (request payload, first response)."""
    plans: Dict[str, Tuple[dict, dict]] = {}
    for request, response in zip(requests, outcome.responses):
        if response and response.get("status") == "ok":
            plans.setdefault(response["fingerprint"], (request.payload, response))
    return plans


def replan_check(
    plans: Dict[str, Tuple[dict, dict]], passes: int = 0, seconds: float = 0.0
):
    """Re-plan every distinct served job in process, cold: one checked
    warm-up pass, then ``passes`` timed passes and more while the next
    one fits in ``seconds`` (counted from the start).

    Returns ``(walls, failures)``: each job's wall times over the timed
    passes, and the failures.  Every pass must reproduce every served
    digest and iteration time, and the warm-up pass's plans must pass
    the oracle and timeline audit.
    """
    import gc

    from plans import check_plan
    from repro.service.api import PlanRequest, strategy_digest
    from repro.service.core import PlanningCore

    jobs = []
    for fingerprint in sorted(plans):
        payload, response = plans[fingerprint]
        request = PlanRequest.from_dict(
            {k: v for k, v in payload.items() if k != "request_id"}
        )
        jobs.append((fingerprint, request.build_job(), response))
    walls: List[List[float]] = [[] for _ in jobs]
    failures = []
    start = time.perf_counter()
    for number in itertools.count():
        gc.collect()
        pass_start = time.perf_counter()
        for (fingerprint, job, response), times in zip(jobs, walls):
            call_start = time.perf_counter()
            result = PlanningCore(jobs=1).plan_job(job)
            if number:
                times.append(time.perf_counter() - call_start)
            label = f"{job.model.name} {fingerprint[:12]}"
            if strategy_digest(result.strategy) != response["strategy_digest"]:
                failures.append(f"{label}: served digest differs from re-plan")
            if result.iteration_time != response["iteration_time"]:
                failures.append(f"{label}: served iteration time differs")
            if number == 0:
                failures += check_plan(
                    label, job, result.strategy, result.iteration_time
                )
        now = time.perf_counter()
        if number >= passes and now + (now - pass_start) - start > seconds:
            return walls, failures
