"""The EventBus bridge records exactly what a direct tracer records.

Satellite guarantee for the live-observability story: a trace collected
*through the service* (bus frames, or the flight recorder's DUMP) is
the same artifact a local :class:`~repro.obs.Tracer` would have
written, so ``repro explain`` gives identical answers either way.
"""

from __future__ import annotations

import json

from repro.client import ServiceClient
from repro.obs import MetricsTracer, Tracer, explain_process
from repro.obs.events import EVENT_TYPES
from repro.scheduler.manager import make_manager
from repro.server.bridge import BusTracer
from repro.server.bus import EventBus
from repro.server.net import start_server_thread
from repro.server.service import ServiceConfig
from repro.sim.runner import make_protocol
from repro.sim.workload import WorkloadSpec, build_workload

SPEC = WorkloadSpec(
    n_processes=10,
    n_activity_types=6,
    conflict_density=0.5,
    failure_probability=0.05,
    arrival_spacing=0.5,
    seed=11,
)


def _run(tracer):
    workload = build_workload(SPEC)
    protocol = make_protocol("process-locking", workload)
    manager = make_manager(
        protocol,
        subsystems=workload.make_subsystems(),
        seed=SPEC.seed,
        tracer=tracer,
    )
    for i, program in enumerate(workload.programs):
        manager.submit(program, at=workload.arrival_time(i))
    manager.run()


def test_bridge_records_byte_identical_to_direct_tracer(uid_floor):
    uid_floor.pin()
    direct = Tracer()
    _run(direct)

    uid_floor.repin()
    bus = EventBus()
    collected: list[dict] = []
    bus.subscribe(["*"], lambda topic, record: collected.append(record))
    _run(MetricsTracer(sinks=(BusTracer(bus),)))

    direct_text = "\n".join(
        json.dumps(r, sort_keys=True) for r in direct.records()
    )
    bridged_text = "\n".join(
        json.dumps(r, sort_keys=True) for r in collected
    )
    assert direct_text == bridged_text

    # And the causal account derived from either stream is identical.
    pid = next(r["pid"] for r in direct.records() if "pid" in r)
    assert explain_process(direct.records(), pid) == explain_process(
        collected, pid
    )


def test_live_service_bus_stream_matches_flight_dump():
    """Subscribed frames and DUMP describe the same emission stream."""
    handle = start_server_thread(
        ServiceConfig(
            spec=WorkloadSpec(
                n_processes=6, conflict_density=0.4, seed=5
            ),
            seed=5,
            flight_capacity=100_000,
        )
    )
    try:
        with ServiceClient(handle.host, handle.port, timeout=30) as client:
            client.subscribe("*")
            client.submit(count=4, wait=True)
            dump = client.dump()["events"]
            assert dump

            streamed: list[dict] = []
            while len(streamed) < len(dump):
                frame = client.next_event(timeout=5.0)
                assert frame is not None, (
                    f"stream dried up at {len(streamed)}/{len(dump)}"
                )
                if frame["event"] in EVENT_TYPES:
                    streamed.append(frame["record"])

            # The fold stamps each event once and hands the same
            # (seq, t) to the ring and the bridge: the streams agree
            # record for record, stamps included.
            stamps = [(r["seq"], r["t"]) for r in dump]
            assert [(r["seq"], r["t"]) for r in streamed] == stamps
            assert [seq for seq, __ in stamps] == list(
                range(stamps[0][0], stamps[0][0] + len(stamps))
            )
            times = [t for __, t in stamps]
            assert times == sorted(times)
            assert streamed == dump

            pid = next(r["pid"] for r in dump if "pid" in r)
            assert explain_process(dump, pid) == explain_process(
                streamed, pid
            )
    finally:
        handle.stop()
