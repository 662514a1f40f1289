"""The server under test: ``repro serve`` as a subprocess.

Calls the public :func:`repro.server.net.run_server` with a
:class:`~repro.server.service.ServiceConfig` — exactly what the
``repro serve`` verb runs — on the log store with the shipped ``batch``
flush policy and the sequential manager.  With ``--trace-out`` the built
service is wrapped by :mod:`bench.tracing` before it starts serving, and
``SIGUSR1`` writes the spans recorded so far to that file.

Run by :mod:`bench.harness`, which puts the repository's ``src`` and
root on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import signal

from repro.server import net
from repro.server.service import ServiceConfig
from repro.sim.workload import WorkloadSpec

from bench.workloads import FLUSH_POLICY, WORLD_SEED


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True, help="WorkloadSpec as JSON")
    parser.add_argument("--store-path", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    config = ServiceConfig(
        spec=WorkloadSpec(**json.loads(args.spec)),
        seed=WORLD_SEED,
        workers=0,
        store="log",
        store_path=args.store_path,
        store_fsync=FLUSH_POLICY,
    )
    if args.trace_out:
        from bench.tracing import Recorder, instrument

        recorder = Recorder()
        build = net.ProcessLockingService

        def build_traced(service_config):
            service = build(service_config)
            instrument(service, recorder)
            return service

        # run_server builds the service itself; hand it a builder that
        # wraps the instance on its way out.
        net.ProcessLockingService = build_traced
        signal.signal(
            signal.SIGUSR1,
            lambda signum, frame: recorder.dump(args.trace_out),
        )
    net.run_server(config, host="127.0.0.1", port=0)


if __name__ == "__main__":
    main()
