"""Durability chaos: crash-at-any-byte damage against a real store.

The campaign materializes one durable run — a grounded workload driven
through :class:`~repro.server.service.ProcessLockingService` on a
``log``-backend :class:`~repro.storage.Store` — then attacks the files
it left behind, round by seeded round.  Against the **commit log**,
which every appended namespace shares:

* **torn tail** — the log is truncated at an arbitrary byte offset
  (a kill -9 mid-``write``); reopening must heal deterministically to
  the **global prefix**: every namespace holds exactly its frames that
  lie wholly before the cut, so all of them stop at one point of the
  program's history, and no partial record surfaces;
* **checksum corruption** — one byte inside a complete frame is
  flipped (bit rot, a bad sector); opening must raise the typed
  :class:`~repro.errors.WalCorruptionError` instead of decoding junk;
* **partial fsync loss** — whole tail frames disappear (a power cut
  after an acknowledged-but-unsynced batch); reopening must recover
  the surviving global prefix cleanly, with nothing to heal.

Against each **swapped slot** (``meta``, ``snapshot``), the same three:
a truncated file reads as empty, a flipped byte raises, a swap that
never became durable leaves no file.

The frame assertions are structural — payload equality against the
pristine log — so a failure pinpoints the byte-level guarantee that
broke.  Each family also **restarts a service** on one damaged copy of
the log, beside the newest checkpoint document that can be on disk at
that cut: it must come up, drain, and pass the ``check`` battery
(complete, CT, P-RC, ``conserved``) and ``Store.verify`` — or, on the
flipped byte, refuse to start with the typed error.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.errors import WalCorruptionError
from repro.storage import Store
from repro.storage.backend import COMMIT_LOG, scan_log
from repro.storage.codec import HEADER_SIZE

LOG_FILE = COMMIT_LOG + ".log"
SNAPSHOT_FILE = "snapshot.log"


@dataclass
class DurabilityRound:
    """One damage-and-recover round."""

    family: str
    namespace: str
    detail: str
    ok: bool
    failure: str = ""

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "namespace": self.namespace,
            "detail": self.detail,
            "ok": self.ok,
            "failure": self.failure,
        }


@dataclass
class DurabilityReport:
    """Outcome of a durability chaos campaign."""

    seed: int
    rounds: list[DurabilityRound] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(round_.ok for round_ in self.rounds)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "rounds": [round_.to_dict() for round_ in self.rounds],
        }

    def describe(self) -> str:
        lines = [
            f"durability chaos (seed={self.seed}): "
            f"{len(self.rounds)} rounds, "
            f"{'all passed' if self.ok else 'FAILURES'}"
        ]
        for round_ in self.rounds:
            status = "ok" if round_.ok else f"FAIL: {round_.failure}"
            lines.append(
                f"  [{round_.family}] {round_.namespace}: "
                f"{round_.detail} -> {status}"
            )
        return "\n".join(lines)


def _service(path: str, seed: int, processes: int):
    from repro.server.service import ProcessLockingService, ServiceConfig
    from repro.sim.workload import WorkloadSpec

    return ProcessLockingService(
        ServiceConfig(
            spec=WorkloadSpec(
                n_processes=processes, grounded=True, seed=seed
            ),
            seed=seed,
            store="log",
            store_path=path,
            store_fsync="never",
            # Several snapshots, so the trace namespace holds several
            # frames and there are several documents to restart beside.
            snapshot_every=32,
        )
    )


def _populate_store(
    path: str, seed: int, processes: int
) -> list[tuple[int, bytes | None]]:
    """Run a grounded workload durably, leaving real files behind.

    Returns the checkpoint documents the run swapped in, oldest first:
    ``(log size, snapshot file bytes)``, the size read once the drain
    that cut the document was over — so a log cut at or past it is a
    state the document can be found beside.  No document at size 0.
    """
    log = os.path.join(path, LOG_FILE)
    slot = os.path.join(path, SNAPSHOT_FILE)
    documents: list[tuple[int, bytes | None]] = [(0, None)]

    def note_document() -> None:
        with open(slot, "rb") as handle:
            document = handle.read()
        if document != documents[-1][1]:
            documents.append((os.path.getsize(log), document))

    service = _service(path, seed, processes).start()
    try:
        for program in range(processes):
            service.execute(
                {"cmd": "submit", "program": program, "wait": True}
            ).result(timeout=120)
            if os.path.exists(slot):
                note_document()
        service.execute({"cmd": "drain"}).result(timeout=120)
    finally:
        service.stop()
    note_document()
    return documents


def _truncate(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.truncate(offset)


def _flip(path: str, offset: int) -> None:
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


def _reopen(path: str, namespaces) -> dict[str, list[bytes]]:
    """Open the store (healing the log's torn tail); what it reads."""
    store = Store.open("log", path, fsync="never")
    try:
        return {
            namespace: store.backend.read_all(namespace)
            for namespace in namespaces
        }
    finally:
        store.close()


def _restart(path: str, seed: int, processes: int) -> str:
    """Serve from the store at ``path`` until it drains; empty string
    when the check battery and ``Store.verify`` pass, else what fails."""
    service = _service(path, seed, processes).start()
    try:
        service.execute({"cmd": "drain"}).result(timeout=120)
        report = service.execute({"cmd": "check"}).result(timeout=120)
    finally:
        service.stop()
    failed = [
        name
        for name in (
            "complete",
            "correct_termination",
            "process_recoverable",
            "conserved",
        )
        if not report[name]
    ]
    if failed:
        return f"restarted, but check says not {', '.join(failed)}"
    store = Store.open("log", path, fsync="never")
    try:
        verdict = store.verify()
    finally:
        store.close()
    if not verdict["ok"]:
        return f"restarted, but verify finds {verdict['corrupt']} corrupt"
    return ""


def run_durability_campaign(
    seed: int = 0, quick: bool = False
) -> DurabilityReport:
    """Damage a real durable store every way a crash can; verify recovery."""
    report = DurabilityReport(seed=seed)
    rng = random.Random(seed)
    processes = 6 if quick else 10
    cuts = 6 if quick else 12
    workdir = tempfile.mkdtemp(prefix="repro-durability-")
    golden = os.path.join(workdir, "golden")

    def fresh_copy() -> str:
        target = tempfile.mkdtemp(dir=workdir, prefix="round-")
        os.rmdir(target)
        shutil.copytree(golden, target)
        return target

    def attempt(
        family: str, namespace: str, detail: str, probe, corrupt=False
    ) -> bool:
        """One round.  ``probe()`` returns why the damaged store let it
        down, or an empty string; a ``WalCorruptionError`` out of it is
        what a ``corrupt`` round must see, and a failure of any other:
        a cut is a shorter file or a torn tail, never corruption."""
        try:
            failure = probe()
            if corrupt:
                failure = "corrupt frame went undetected"
        except WalCorruptionError as error:
            failure = "" if corrupt else f"a mere cut raised: {error}"
        report.rounds.append(
            DurabilityRound(
                family=family,
                namespace=namespace,
                detail=detail,
                ok=not failure,
                failure=failure,
            )
        )
        return not failure

    try:
        documents = _populate_store(golden, seed, processes)
        with open(os.path.join(golden, LOG_FILE), "rb") as handle:
            scan, ids, owners = scan_log(handle.read())
        size = scan.good_bytes

        def global_prefix(target: str, cut: int) -> str:
            """Every namespace holds its frames that end by ``cut``."""
            held = _reopen(target, ids)
            for namespace in ids:
                want = [
                    payload
                    for owner, payload, end in zip(
                        owners, scan.payloads, scan.ends
                    )
                    if owner == namespace and end <= cut
                ]
                if held[namespace] != want:
                    return (
                        f"{namespace} recovered {len(held[namespace])} "
                        f"frames, not the {len(want)} ahead of the cut"
                    )
            return ""

        def cut_log(family: str, offset: int, restart: bool) -> None:
            target = fresh_copy()
            _truncate(os.path.join(target, LOG_FILE), offset)
            prefix_held = attempt(
                family,
                COMMIT_LOG,
                f"truncate@{offset}/{size}B",
                lambda: global_prefix(target, offset),
            )
            if not (restart and prefix_held):
                return
            # Beside the newest document that can be there at this cut.
            document = [
                document for at, document in documents if at <= offset
            ][-1]
            slot = os.path.join(target, SNAPSHOT_FILE)
            if document is None:
                os.remove(slot)
            else:
                with open(slot, "wb") as handle:
                    handle.write(document)
            attempt(
                family,
                COMMIT_LOG,
                f"restart on truncate@{offset}",
                lambda: _restart(target, seed, processes),
            )

        # -- the commit log: torn tails at arbitrary byte offsets ------
        for index, offset in enumerate(
            sorted(rng.sample(range(1, size), cuts))
        ):
            cut_log("torn-tail", offset, restart=index == cuts // 2)

        # -- a flipped byte in a complete frame's payload (the frame
        # stays complete, so healing cannot quietly drop it) -----------
        frame = rng.randrange(len(scan.ends))
        offset = rng.randrange(
            (scan.ends[frame - 1] if frame else 0) + HEADER_SIZE,
            scan.ends[frame],
        )
        target = fresh_copy()
        _flip(os.path.join(target, LOG_FILE), offset)
        attempt(
            "checksum",
            COMMIT_LOG,
            f"flip byte@{offset}",
            lambda: global_prefix(target, size),
            corrupt=True,
        )
        attempt(
            "checksum",
            COMMIT_LOG,
            f"restart on flip byte@{offset}",
            lambda: _restart(target, seed, processes),
            corrupt=True,
        )

        # -- whole tail frames lost: cuts at frame boundaries ----------
        for index, offset in enumerate(
            sorted(rng.sample(scan.ends[:-1], cuts // 2))
        ):
            cut_log("fsync-loss", offset, restart=index == cuts // 4)

        # -- the swapped slots -----------------------------------------
        def reads_empty(target: str, namespace: str) -> str:
            held = _reopen(target, [namespace])[namespace]
            return f"a damaged slot reads {held}" if held else ""

        for namespace, name in (
            ("meta", "meta.log"),
            ("snapshot", SNAPSHOT_FILE),
        ):
            slot_size = os.path.getsize(os.path.join(golden, name))
            offset = rng.randrange(1, slot_size)
            torn = fresh_copy()
            _truncate(os.path.join(torn, name), offset)
            attempt(
                "torn-tail",
                namespace,
                f"truncate@{offset}/{slot_size}B",
                lambda: reads_empty(torn, namespace),
            )
            offset = rng.randrange(HEADER_SIZE, slot_size)
            flipped = fresh_copy()
            _flip(os.path.join(flipped, name), offset)
            attempt(
                "checksum",
                namespace,
                f"flip byte@{offset}",
                lambda: reads_empty(flipped, namespace),
                corrupt=True,
            )
            # A swap that never became durable leaves no file.
            absent = fresh_copy()
            os.remove(os.path.join(absent, name))
            attempt(
                "fsync-loss",
                namespace,
                "restart without the file",
                lambda: _restart(absent, seed, processes),
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report
