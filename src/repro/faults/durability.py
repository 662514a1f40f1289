"""Durability chaos: crash-at-any-byte damage against a real store.

The campaign materializes one durable run — a grounded workload driven
through :class:`~repro.server.service.ProcessLockingService` on a
``log``-backend :class:`~repro.storage.Store` — then attacks the files
it left behind, round by seeded round:

* **torn tail** — the log is truncated at an arbitrary byte offset
  (a kill -9 mid-``write``); reopening must heal deterministically,
  keeping exactly a *frame prefix* of the original records and never
  surfacing a partial record;
* **checksum corruption** — one byte inside a complete frame is
  flipped (bit rot, a bad sector); reading must raise the typed
  :class:`~repro.errors.WalCorruptionError` instead of decoding junk;
* **partial fsync loss** — whole tail frames disappear (a power cut
  after an acknowledged-but-unsynced batch); reopening must recover
  the surviving prefix cleanly.

Every assertion is structural — frame counts and payload equality
against the pristine file — so a failure pinpoints the byte-level
guarantee that broke, not a downstream symptom.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.errors import WalCorruptionError
from repro.storage.codec import HEADER_SIZE, scan_frames


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


def _populate_store(path: str, seed: int, processes: int) -> None:
    """Run a grounded workload durably, leaving real files behind."""
    from repro.server.service import ProcessLockingService, ServiceConfig
    from repro.sim.workload import WorkloadSpec

    service = ProcessLockingService(
        ServiceConfig(
            spec=WorkloadSpec(
                n_processes=processes, grounded=True, seed=seed
            ),
            seed=seed,
            store="log",
            store_path=path,
            store_fsync="never",
            # Several snapshots, so the trace namespace holds several
            # frames and the fsync-loss family reaches it too.
            snapshot_every=32,
        )
    ).start()
    try:
        for program in range(processes):
            service.execute(
                {"cmd": "submit", "program": program, "wait": True}
            ).result(timeout=120)
        service.execute({"cmd": "drain"}).result(timeout=120)
    finally:
        service.stop()


def _log_files(path: str) -> dict[str, str]:
    """``{namespace: filepath}`` for every log file in the store dir."""
    files = {}
    for name in sorted(os.listdir(path)):
        if name.endswith(".log"):
            namespace = name[: -len(".log")].replace("@", "/")
            files[namespace] = os.path.join(path, name)
    return files


def _frames_of(filepath: str) -> list[bytes]:
    with open(filepath, "rb") as handle:
        return scan_frames(handle.read()).payloads


def _reopen_frames(path: str, namespace: str) -> list[bytes]:
    """Open the store (healing torn tails) and read one namespace raw."""
    from repro.storage import Store

    store = Store.open("log", path, fsync="never")
    try:
        return [
            payload
            for payload in store.backend.read_all(namespace)
        ]
    finally:
        store.close()


def _check_prefix(
    recovered: list[bytes], pristine: list[bytes]
) -> str:
    """Empty string when ``recovered`` is a frame prefix, else why not."""
    if len(recovered) > len(pristine):
        return (
            f"recovered {len(recovered)} frames from a file that "
            f"only ever held {len(pristine)}"
        )
    for index, (got, want) in enumerate(zip(recovered, pristine)):
        if got != want:
            return f"frame {index} differs after recovery"
    return ""


def run_durability_campaign(
    seed: int = 0, quick: bool = False
) -> DurabilityReport:
    """Damage a real durable store every way a crash can; verify recovery."""
    report = DurabilityReport(seed=seed)
    rng = random.Random(seed)
    processes = 6 if quick else 10
    cuts_per_file = 3 if quick else 6
    workdir = tempfile.mkdtemp(prefix="repro-durability-")
    golden = os.path.join(workdir, "golden")
    _populate_store(golden, seed, processes)
    pristine = {
        namespace: _frames_of(filepath)
        for namespace, filepath in _log_files(golden).items()
    }

    def fresh_copy() -> str:
        target = tempfile.mkdtemp(dir=workdir, prefix="round-")
        os.rmdir(target)
        shutil.copytree(golden, target)
        return target

    try:
        # -- torn tails: truncate at arbitrary byte offsets ------------
        for namespace, filepath in _log_files(golden).items():
            size = os.path.getsize(filepath)
            if size <= HEADER_SIZE:
                continue
            offsets = sorted(
                rng.sample(
                    range(1, size), min(cuts_per_file, size - 1)
                )
            )
            for offset in offsets:
                target = fresh_copy()
                victim = os.path.join(
                    target, os.path.basename(filepath)
                )
                with open(victim, "r+b") as handle:
                    handle.truncate(offset)
                failure = ""
                try:
                    recovered = _reopen_frames(target, namespace)
                    failure = _check_prefix(
                        recovered, pristine[namespace]
                    )
                except WalCorruptionError as error:
                    # A cut landing on a frame boundary of an earlier
                    # record is indistinguishable from a shorter valid
                    # log; a cut mid-frame must heal, never raise.
                    failure = f"torn tail raised: {error}"
                report.rounds.append(
                    DurabilityRound(
                        family="torn-tail",
                        namespace=namespace,
                        detail=f"truncate@{offset}/{size}B",
                        ok=not failure,
                        failure=failure,
                    )
                )

        # -- checksum corruption: flip a byte in a complete frame ------
        for namespace, filepath in _log_files(golden).items():
            frames = pristine[namespace]
            if not frames:
                continue
            target = fresh_copy()
            victim = os.path.join(target, os.path.basename(filepath))
            # Pick a byte inside the first frame's payload: always a
            # complete frame, so healing cannot quietly drop it.
            offset = HEADER_SIZE + rng.randrange(len(frames[0]))
            with open(victim, "r+b") as handle:
                handle.seek(offset)
                byte = handle.read(1)
                handle.seek(offset)
                handle.write(bytes([byte[0] ^ 0xFF]))
            failure = "corrupt frame went undetected"
            try:
                recovered = _reopen_frames(target, namespace)
                if recovered[:1] != frames[:1]:
                    # Length/CRC collision fallout must still never
                    # surface a silently different record...
                    failure = "corrupt frame decoded to wrong payload"
            except WalCorruptionError:
                failure = ""
            report.rounds.append(
                DurabilityRound(
                    family="checksum",
                    namespace=namespace,
                    detail=f"flip byte@{offset}",
                    ok=not failure,
                    failure=failure,
                )
            )

        # -- partial fsync loss: drop whole tail frames ----------------
        for namespace, filepath in _log_files(golden).items():
            frames = pristine[namespace]
            if len(frames) < 2:
                continue
            keep = rng.randrange(1, len(frames))
            boundary = sum(
                HEADER_SIZE + len(payload)
                for payload in frames[:keep]
            )
            target = fresh_copy()
            victim = os.path.join(target, os.path.basename(filepath))
            with open(victim, "r+b") as handle:
                handle.truncate(boundary)
            failure = ""
            try:
                recovered = _reopen_frames(target, namespace)
                if recovered != frames[:keep]:
                    failure = (
                        f"expected the {keep}-frame prefix, got "
                        f"{len(recovered)} frames"
                    )
            except WalCorruptionError as error:
                failure = f"frame-boundary truncation raised: {error}"
            report.rounds.append(
                DurabilityRound(
                    family="fsync-loss",
                    namespace=namespace,
                    detail=f"keep {keep}/{len(frames)} frames",
                    ok=not failure,
                    failure=failure,
                )
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report
