"""Server subprocesses, the load generator, and one measured round.

Everything here runs on one asyncio event loop in the benchmark's own
process: no helper threads, at most two connections (``nproc`` of the
sizing host), ``time.monotonic`` stamps taken when a request is due or
sent and when its response has been parsed.

A round is: spawn a server on an empty store (``setup_s``) -> the timed
window -> ``stats``/``metrics`` over the wire -> ``kill -9`` -> restart
on the same store (``recover_s``) -> durability audit -> SIGTERM ->
offline ``verify`` of the store.

A closed-loop window is served in pieces, and between two pieces, with
nothing in flight, the generator times a fixed piece of reference work:
how fast this host is running *now*.  Requests are stamped on a clock
that stands still during those pauses (:func:`serving_clock`).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import shutil
import signal
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from bench.workloads import Inputs, Workload

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space: stores, server logs and span dumps (git-ignored).
WORK = Path(__file__).resolve().parent / ".work"

#: No answer within this long is a failed request.
REQUEST_TIMEOUT_S = 60.0
#: Spawn-to-listening and signal-to-exit limits.
PROCESS_TIMEOUT_S = 60.0
#: ``check`` stride that leaves one prefix: the whole schedule.
SINGLE_PREFIX = 1_000_000
#: Audit sample: this many seeded-random acknowledged pids + the newest.
AUDIT_RANDOM, AUDIT_NEWEST = 300, 50


class BenchError(Exception):
    """The benchmark could not run (as opposed to: ran and measured)."""


# ----------------------------------------------------------------------
# the host's speed
# ----------------------------------------------------------------------
#: Pieces a closed-loop window is served in (fewer when it has fewer
#: requests); the reference work runs after each.
PIECES = 30
#: Units of reference work per window, shared evenly among its pauses.
REFERENCE_UNITS = 900
#: Units timed just before a server is spawned, and again just after its
#: first answer: the host's speed during set-up.
SETUP_REFERENCE_UNITS = 150
#: About what one unit takes on this host at its quietest.  It only
#: fixes the scale: a rate or a time normalised with it reads as the
#: quiet host's.
REFERENCE_UNIT_S = 0.12e-3

_REFERENCE_DOC = [
    {
        "pid": pid,
        "events": [
            {"kind": "lock.grant", "at": step * 0.5, "who": f"p{pid}a{step}"}
            for step in range(6)
        ],
    }
    for pid in range(12)
]

#: Seconds this process has spent in :func:`reference_work` so far.
_paused_s = 0.0


def serving_clock() -> float:
    """``time.monotonic`` less every pause for reference work so far."""
    return time.monotonic() - _paused_s


def reference_work(units: int) -> float:
    """Time ``units`` of a fixed piece of work; the seconds it took.

    Standard library only, so no change to the program can move it: a
    JSON round trip of a small document, which of the candidates tried
    (arithmetic loop, pointer chase, allocation, pickle) is the one this
    host slows in step with the server, over a 2x range of slowness.
    """
    global _paused_s
    begun = time.monotonic()
    for _ in range(units):
        json.loads(json.dumps(_REFERENCE_DOC))
    taken = time.monotonic() - begun
    _paused_s += taken
    return taken


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------
class Server:
    """One ``bench.server_main`` subprocess and its listening port."""

    def __init__(self, process, port: int, spawned_at: float, log) -> None:
        self.process = process
        self.port = port
        self.spawned_at = spawned_at
        self._log = log

    @classmethod
    async def spawn(
        cls,
        workload: Workload,
        store_path: Path,
        trace_out: Path | None = None,
    ) -> "Server":
        env = {
            key: value
            for key, value in os.environ.items()
            # Ambient REPRO_* knobs would reconfigure the server.
            if not key.startswith("REPRO_")
        }
        env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}{ROOT}"
        command = [
            sys.executable,
            "-m",
            "bench.server_main",
            "--spec",
            json.dumps(workload.spec),
            "--store-path",
            str(store_path),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        log = open(store_path.with_suffix(".log"), "ab")
        spawned_at = serving_clock()
        process = await asyncio.create_subprocess_exec(
            *command,
            stdout=asyncio.subprocess.PIPE,
            stderr=log,
            env=env,
            cwd=ROOT,
        )
        server = cls(process, 0, spawned_at, log)
        try:
            banner = await asyncio.wait_for(
                process.stdout.readline(), PROCESS_TIMEOUT_S
            )
            # "repro-serve listening on 127.0.0.1:PORT (...)"
            server.port = int(
                banner.split(b"listening on ")[1].split()[0].split(b":")[1]
            )
        except (asyncio.TimeoutError, IndexError, ValueError):
            await server.kill()
            raise BenchError(
                f"server did not come up; see {log.name}"
            ) from None
        return server

    async def connect(self) -> "Connection":
        # The ``metrics`` body is one line far over the 64 KiB default.
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=1 << 24
        )
        return Connection(reader, writer)

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    async def kill(self) -> None:
        """``kill -9`` and reap."""
        if self.process.returncode is None:
            self.process.kill()
        await self.process.wait()
        self._log.close()

    async def terminate(self) -> tuple[int, bytes]:
        """SIGTERM, wait for the drain; ``(exit code, rest of stdout)``."""
        self.process.send_signal(signal.SIGTERM)
        try:
            out, _ = await asyncio.wait_for(
                self.process.communicate(), PROCESS_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            await self.kill()
            raise BenchError("server did not drain on SIGTERM") from None
        self._log.close()
        return self.process.returncode, out


class Connection:
    """One client connection: pipelined requests matched by ``id``."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        #: Pushed event frames received, by topic.
        self.events: dict[str, int] = {}
        self.frames_in = 0
        self.bytes_in = 0
        self._task = asyncio.create_task(self._read())

    async def _read(self) -> None:
        try:
            while line := await self._reader.readline():
                frame = json.loads(line)
                parsed_at = serving_clock()
                self.frames_in += 1
                self.bytes_in += len(line)
                topic = frame.get("event")
                if topic is not None:
                    self.events[topic] = self.events.get(topic, 0) + 1
                    continue
                future = self._pending.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result((parsed_at, frame))
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionError("connection closed")
                    )
            self._pending.clear()

    def send(self, request: dict) -> asyncio.Future:
        """Write one request; the future yields ``(parsed_at, frame)``."""
        future = asyncio.get_running_loop().create_future()
        self._pending[request["id"]] = future
        self._writer.write(
            json.dumps(request, separators=(",", ":")).encode() + b"\n"
        )
        return future

    async def call(self, request_id: int, cmd: str, **args) -> dict:
        """One request, awaited; raises unless the answer is ``ok``."""
        _, frame = await asyncio.wait_for(
            self.send({"cmd": cmd, "id": request_id, **args}),
            REQUEST_TIMEOUT_S,
        )
        if not frame.get("ok"):
            raise BenchError(f"{cmd} answered {frame}")
        return frame

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except OSError:
            pass
        await self._task


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
@dataclass
class Sample:
    """One request as the client saw it."""

    #: When it was due (open loop) or sent (closed loop).
    started: float
    #: When its response had been parsed; ``None`` = never answered.
    done: float | None
    #: ``pid -> outcome`` the client was told; empty when it failed.
    outcomes: dict[int, str]

    @property
    def ok(self) -> bool:
        return bool(self.outcomes)


async def _await_sample(started: float, future) -> Sample:
    try:
        done, frame = await asyncio.wait_for(future, REQUEST_TIMEOUT_S)
    except (asyncio.TimeoutError, ConnectionError):
        return Sample(started, None, {})
    if not frame.get("ok"):
        # ok:false (shed, internal error): answered, but a failure.
        return Sample(started, done, {})
    return Sample(
        started,
        done,
        {row["pid"]: row["outcome"] for row in frame["outcomes"]},
    )


def _submit(request_id: int, program: int, count: int) -> dict:
    return {
        "cmd": "submit",
        "id": request_id,
        "program": program,
        "count": count,
        "wait": True,
    }


async def closed_loop(
    connections, workload: Workload, inputs: Inputs, ids
) -> tuple[list[Sample], list[float], float, float]:
    """Each connection sends its next request when the last was answered.

    Returns ``(samples, send lags, when the window opened, seconds per
    unit of reference work)``; a closed loop has no schedule to lag
    behind.
    """
    samples: list[Sample] = []
    reference_s = 0.0
    opened = serving_clock()

    async def client(connection: Connection, programs) -> None:
        for program in programs:
            sent = serving_clock()
            future = connection.send(
                _submit(next(ids), program, workload.count)
            )
            samples.append(await _await_sample(sent, future))

    pieces = min(PIECES, len(inputs.programs))
    units = REFERENCE_UNITS // pieces
    for index in range(pieces):
        programs = iter(
            inputs.programs[
                index * len(inputs.programs) // pieces
                : (index + 1) * len(inputs.programs) // pieces
            ]
        )
        await asyncio.gather(*(client(c, programs) for c in connections))
        reference_s += reference_work(units)
    return samples, [], opened, reference_s / (units * pieces)


async def open_loop(
    connections, workload: Workload, inputs: Inputs, ids
) -> tuple[list[Sample], list[float], float, float]:
    """Send on the Poisson schedule, whatever the server does.

    A schedule cannot pause, so no reference work is timed: the rate of
    an open loop that keeps up is the schedule's, whatever the host.
    """
    opens_at = serving_clock() + 0.02
    waiting = []
    lags = []
    for index, (program, offset) in enumerate(
        zip(inputs.programs, inputs.due)
    ):
        due = opens_at + offset
        delay = due - serving_clock()
        if delay > 0:
            await asyncio.sleep(delay)
        connection = connections[index % len(connections)]
        future = connection.send(
            _submit(next(ids), program, workload.count)
        )
        lags.append(serving_clock() - due)
        waiting.append(asyncio.ensure_future(_await_sample(due, future)))
    return list(await asyncio.gather(*waiting)), lags, opens_at, 0.0


# ----------------------------------------------------------------------
# one round
# ----------------------------------------------------------------------
@dataclass
class Round:
    """Everything one round observed."""

    samples: list[Sample]
    lags: list[float]
    #: Start and end of the timed window, on the serving clock.
    opened: float
    closed: float
    #: Seconds a unit of reference work took during the window; 0.0 in
    #: an open loop.
    reference_unit_s: float
    setup_s: float
    #: The same around the set-up.
    setup_reference_unit_s: float
    recover_s: float
    rss_mb: float
    #: ``stats`` / ``metrics`` bodies taken after the window.
    stats: dict
    metrics: dict
    #: ``stats.store.recovered`` of the restarted server.
    recovered: dict
    #: Client-side counts over the whole session.
    frames_in: int
    bytes_in: int
    events_in: dict[str, int]
    #: Span dump of the traced server, or ``None``.  Every round of a
    #: run dumps to the same path: read it before the next round.
    trace_path: Path | None
    #: Gate and audit failures; empty = the round is correct.
    problems: list[str] = field(default_factory=list)


def _outcome_counts(samples) -> Counter:
    return Counter(
        outcome
        for sample in samples
        for outcome in sample.outcomes.values()
    )


def metric_samples(metrics_body: dict, family: str) -> list[dict]:
    for entry in metrics_body["metrics"]["families"]:
        if entry["name"] == family:
            return entry["samples"]
    return []


def metric_total(metrics_body: dict, family: str, **labels) -> float:
    """Sum of a counter family's samples matching ``labels``."""
    return sum(
        sample["value"]
        for sample in metric_samples(metrics_body, family)
        if all(sample["labels"].get(k) == v for k, v in labels.items())
    )


def _check_counts(round_: Round, workload: Workload) -> None:
    """Client view == ``stats`` == ``metrics``; every request answered."""
    problems = round_.problems
    failed = [s for s in round_.samples if not s.ok]
    if failed:
        unanswered = sum(1 for s in failed if s.done is None)
        problems.append(
            f"{len(failed)} requests failed ({unanswered} unanswered)"
        )
    seen = _outcome_counts(round_.samples)
    manager = round_.stats["manager"]
    expected = {
        "submitted": sum(len(s.outcomes) for s in round_.samples),
        "committed": seen["committed"],
        "aborted": seen["aborted"],
    }
    served = {
        "submitted": manager["submitted"],
        "committed": manager["committed"],
        "aborted": manager["submitted"]
        - manager["committed"]
        - manager["cancellations"],
    }
    if served != expected:
        problems.append(f"client saw {expected}, stats say {served}")
    counted = {
        "submitted": metric_total(
            round_.metrics, "repro_process_submitted_total"
        ),
        "committed": metric_total(
            round_.metrics,
            "repro_process_outcomes_total",
            outcome="committed",
        ),
        "aborted": metric_total(
            round_.metrics,
            "repro_process_outcomes_total",
            outcome="aborted",
        ),
    }
    if counted != served:
        problems.append(f"metrics say {counted}, stats say {served}")
    if workload.subscribe:
        pushed = {
            topic: round_.events_in.get(topic, 0)
            for topic in ("process.commit", "process.abort")
        }
        wanted = {
            "process.commit": manager["committed"],
            # One per abort *execution*: resubmitted victims included.
            "process.abort": served["aborted"] + manager["resubmissions"],
        }
        if pushed != wanted:
            problems.append(
                f"subscriber was pushed {pushed}, stats imply {wanted}"
            )


async def _audit(
    connection: Connection, round_: Round, ids, seed: int
) -> None:
    """After ``kill -9`` + restart: nothing acknowledged was lost."""
    told: dict[int, str] = {}
    for sample in round_.samples:
        told.update(sample.outcomes)
    stats = await connection.call(next(ids), "stats")
    round_.recovered = stats["store"].get("recovered", {})
    restored = round_.recovered.get("restored")
    if restored != len(told):
        round_.problems.append(
            f"restart restored {restored} of {len(told)} acknowledged"
        )
    pids = sorted(told)
    chosen = sorted(
        set(pids[-AUDIT_NEWEST:]).union(
            random.Random(f"audit/{seed}").sample(
                pids, min(AUDIT_RANDOM, len(pids))
            )
        )
    )
    answers = await asyncio.gather(
        *(
            asyncio.wait_for(
                connection.send(
                    {"cmd": "status", "id": next(ids), "pid": pid}
                ),
                REQUEST_TIMEOUT_S,
            )
            for pid in chosen
        )
    )
    for pid, (_, frame) in zip(chosen, answers):
        if (
            not frame.get("ok")
            or frame.get("state") != "done"
            or frame.get("outcome") != told[pid]
        ):
            round_.problems.append(
                f"pid {pid} was acknowledged {told[pid]}, "
                f"restart says {frame}"
            )


def _verify_store(store_path: Path, round_: Round) -> None:
    from repro.storage import Store

    store = Store.open("log", str(store_path), fsync="never")
    try:
        report = store.verify()
    finally:
        store.close()
    if not report["ok"]:
        round_.problems.append(
            f"store verify: corrupt {report['corrupt']}"
        )


async def _ping(server: Server, ids) -> tuple[Connection, float]:
    """Connect and ping; ``(connection, when the pong was parsed)``."""
    connection = await server.connect()
    answered, frame = await asyncio.wait_for(
        connection.send({"cmd": "ping", "id": next(ids)}),
        REQUEST_TIMEOUT_S,
    )
    if not frame.get("ok"):
        raise BenchError(f"ping answered {frame}")
    return connection, answered


async def run_round(
    workload: Workload,
    inputs: Inputs,
    seed: int,
    trace: bool,
    check: bool = False,
) -> Round:
    """One full round; see the module docstring for the phases.

    With ``check`` the server also runs its ``check`` verb (CT, P-RED,
    P-RC) over the recorded schedule before the crash — only affordable
    at verify-pass sizes, and as one prefix (the whole schedule) rather
    than one per event.
    """
    WORK.mkdir(exist_ok=True)
    store_path = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(store_path, ignore_errors=True)
    trace_path = store_path.with_suffix(".spans") if trace else None
    ids = itertools.count(1)
    setup_reference_s = reference_work(SETUP_REFERENCE_UNITS)
    server = await Server.spawn(workload, store_path, trace_path)
    connections: list[Connection] = []
    try:
        first, answered = await _ping(server, ids)
        connections.append(first)
        setup_s = answered - server.spawned_at
        setup_reference_s += reference_work(SETUP_REFERENCE_UNITS)
        while len(connections) < workload.connections:
            connections.append(await server.connect())
        if workload.subscribe:
            await first.call(
                next(ids),
                "subscribe",
                topics=["process.commit", "process.abort"],
            )
        loop = open_loop if workload.loop == "open" else closed_loop
        samples, lags, opened, reference_unit_s = await loop(
            connections, workload, inputs, ids
        )
        closed = max(
            (s.done for s in samples if s.done is not None),
            default=serving_clock(),
        )
        rss_mb = server.peak_rss_mb()
        stats = await first.call(next(ids), "stats")
        metrics = await first.call(next(ids), "metrics")
        round_ = Round(
            samples=samples,
            lags=lags,
            opened=opened,
            closed=closed,
            reference_unit_s=reference_unit_s,
            setup_s=setup_s,
            setup_reference_unit_s=setup_reference_s
            / (2 * SETUP_REFERENCE_UNITS),
            recover_s=0.0,
            rss_mb=rss_mb,
            stats=stats,
            metrics=metrics,
            recovered={},
            frames_in=sum(c.frames_in for c in connections),
            bytes_in=sum(c.bytes_in for c in connections),
            events_in=dict(first.events),
            trace_path=trace_path,
        )
        _check_counts(round_, workload)
        if check:
            report = await first.call(
                next(ids), "check", stride=SINGLE_PREFIX
            )
            if not (
                report["complete"]
                and report["correct_termination"]
                and report["prefix_reducible"]
                and report["process_recoverable"]
                and report["violations"] == 0
            ):
                round_.problems.append(f"check verb: {report}")
        if trace_path is not None:
            trace_path.unlink(missing_ok=True)
            server.process.send_signal(signal.SIGUSR1)
            deadline = time.monotonic() + PROCESS_TIMEOUT_S
            while not trace_path.exists():
                if time.monotonic() > deadline:
                    raise BenchError("traced server wrote no span dump")
                await asyncio.sleep(0.01)

        killed_at = serving_clock()
        await server.kill()
        for connection in connections:
            await connection.close()
        connections.clear()
        server = await Server.spawn(workload, store_path)
        revived, answered = await _ping(server, ids)
        connections.append(revived)
        round_.recover_s = answered - killed_at
        await _audit(revived, round_, ids, seed)
        await revived.close()
        connections.clear()
        code, out = await server.terminate()
        if code != 0 or b"drained cleanly" not in out:
            round_.problems.append(
                f"SIGTERM drain exited {code}: {out[-200:]!r}"
            )
        _verify_store(store_path, round_)
        if not round_.problems:
            # The servers' stderr is only worth keeping for a post-mortem.
            store_path.with_suffix(".log").unlink(missing_ok=True)
        return round_
    finally:
        for connection in connections:
            await connection.close()
        await server.kill()
        shutil.rmtree(store_path, ignore_errors=True)
