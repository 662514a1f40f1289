"""The four workloads: what each one is, and how a seed becomes its inputs.

A workload fixes a *world* (the server's catalog, conflict relation and
failure sampling — constants here, so every seed meets the same
contention structure) and a *load shape* (closed or open loop,
connections, request count per round).  ``--seed`` feeds only what a
client chooses: which catalog program each request names and, in the
open loop, when each request is due.  The server never sees the seed.

One **round** is one fresh server on an empty store serving exactly
``requests`` requests.  Round ``k`` of seed ``s`` always sends the same
inputs, so its work is identical run to run; successive rounds send
different ones, so a run — one round per 3 s of ``--seconds``, medians
over rounds — averages over orders and schedules instead of replaying
one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

#: Seed of the catalog and of the server's failure sampling.  Part of
#: the world, not of the load: see the module docstring.
WORLD_SEED = 3

#: The store's flush policy: the shipped default, in every workload.
FLUSH_POLICY = "batch"

#: Requests answered later than this count as missing the limit.
LIMIT_MS = 100.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``closed``: each connection sends its next request when the last
    #: one was answered.  ``open``: requests are sent on a Poisson
    #: schedule (see :func:`make_inputs`) whatever the server does, and
    #: are timed from when they were *due*.
    loop: str
    connections: int
    #: Requests per round.
    requests: int
    #: Processes per ``submit`` (``count=``).
    count: int
    #: ``WorkloadSpec`` fields of the server's catalog.
    spec: dict
    #: Open loop only: offered requests per second over all connections.
    rate: float = 0.0
    #: Connection 0 subscribes to ``process.commit``/``process.abort``.
    subscribe: bool = False
    #: The percentile ``client.lat_tail_ms`` reports, per round: the
    #: highest that leaves ten or more samples beyond it over the three
    #: rounds or more of a run.
    tail_q: float = 0.99
    #: Latency limit of ``client.ontime_frac``, per request.
    limit_ms: float = LIMIT_MS

    def scaled(self, scale: float) -> "Workload":
        """The same shape at ``scale`` times the requests (smoke, verify)."""
        return replace(
            self, requests=max(2, round(self.requests * scale))
        )


@dataclass(frozen=True)
class Inputs:
    """What one round sends."""

    #: Catalog index named by each request, in send order.
    programs: tuple[int, ...]
    #: Open loop: seconds after the window opens at which each request
    #: is due, ascending.  Empty for closed loops.
    due: tuple[float, ...]


def make_inputs(workload: Workload, seed: int, round_index: int) -> Inputs:
    rng = random.Random(f"{workload.name}/{seed}/{round_index}")
    catalog = workload.spec["n_processes"]
    # Every program equally often, in a seeded order: the mix of work
    # is the same for every seed, only its interleaving differs.
    programs = [index % catalog for index in range(workload.requests)]
    rng.shuffle(programs)
    due: list[float] = []
    if workload.loop == "open":
        # A Poisson process conditioned on its count per quarter of the
        # window: uniform arrivals within each quarter, the same number
        # in each.  Locally as bursty as Poisson, but the offered load
        # of the whole window and of its final quarter do not vary with
        # the seed, so the rates measured over them are the server's.
        quarter = workload.requests / workload.rate / 4
        for index in range(4):
            share = len(range(index, workload.requests, 4))
            due += (
                (index + rng.random()) * quarter for _ in range(share)
            )
        due.sort()
    return Inputs(programs=tuple(programs), due=tuple(due))


_DECLARED = dict(
    n_processes=8,
    n_activity_types=12,
    conflict_density=0.3,
    failure_probability=0.04,
    seed=WORLD_SEED,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="steady_closed",
            why=(
                "closed loop, 2 connections, one process per request on "
                "a low-conflict catalog: storage snapshots and event "
                "emission do most of the work, protocol little"
            ),
            loop="closed",
            connections=2,
            requests=900,
            count=1,
            spec=_DECLARED,
        ),
        Workload(
            name="open_poisson",
            why=(
                "open loop, Poisson arrivals over 2 connections with a "
                "commit/abort subscriber: the queue may grow, drains "
                "batch, and event push runs; timed from due time"
            ),
            loop="open",
            connections=2,
            requests=480,
            count=1,
            rate=120.0,
            subscribe=True,
            spec=_DECLARED,
        ),
        Workload(
            name="burst_contended",
            why=(
                "closed loop, 1 connection, 16-process bursts at "
                "conflict density 0.6: protocol rules, lock table, "
                "park/wake and emit do the work; wire and fsync none"
            ),
            loop="closed",
            connections=1,
            requests=12,
            count=16,
            spec=dict(
                _DECLARED, n_processes=16, conflict_density=0.6
            ),
            tail_q=0.75,
            limit_ms=16 * LIMIT_MS,
        ),
        Workload(
            name="grounded_closed",
            why=(
                "closed loop, 1 connection, grounded catalog: the only "
                "workload whose subsystem transactions run and write "
                "WAL and records through storage; no lock contention"
            ),
            loop="closed",
            connections=1,
            requests=900,
            count=1,
            spec=dict(_DECLARED, grounded=True),
        ),
    )
}
