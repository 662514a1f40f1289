"""Crash at every point of the commit log: one global prefix, always.

Every appended namespace shares one log (``docs/persistence.md``), so
"what can be on disk after a crash" is enumerable: a byte cut of that
log, beside one of the checkpoint documents swapped in before the cut.
The sweep scripts a small durable session, notes the log's size at
every acknowledgement and every document with the size at its swap,
then restarts a service from **every frame boundary** (and a seeded
sample of mid-frame offsets) beside each document that can be there,
and holds the restart to what the session promised: whatever was
acknowledged by the cut is recovered unchanged, no journaled outcome
differs (but a pid's that the document holds live: the restart re-runs
it, and no answer went out on that outcome), every subsystem comes back
holding the records of the last transaction it committed within the
cut (an open one wrote nothing, and a committed one is one frame, there
whole or not at all), the spliced schedule passes ``check``,
``conserved`` holds and ``Store.verify`` is clean.

Two sessions are swept, on the same grounded, contended catalog:

* **eager** — a burst with a cancel in it and two waited submits; each
  drain runs to quiescence, so its documents hold no live process;
* **paced** — virtual time advances a tick at a time and every drain
  that journals cuts a document, so documents hold processes mid-flight
  and a cascade victim awaiting its resubmission: recovery adopts them.

Checked by hand when this was written: with a durable store made to
write each transaction's frame as two appends (its first key, then the
rest), a cut between the two leaves half a transaction on disk, and
both sweeps fail on the subsystem's records at the first such cut.

The swapped slots (``meta``, ``snapshot``) are files of their own: cut
short anywhere they read as empty, a flipped byte is refused with the
typed error, and a service restarts without either file.

The backend-level property under it: for any interleaving of appends
to several namespaces and any byte cut, each namespace reads back a
prefix of its own appends, and together they are one prefix of the
interleaving.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import tempfile
import warnings
from concurrent.futures import Future
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WalCorruptionError
from repro.server.service import ProcessLockingService, ServiceConfig
from repro.sim.workload import WorkloadSpec
from repro.storage import AppendLogBackend, Store
from repro.storage.codec import encode_frame
from repro.storage.facade import codec_for, dumps
from repro.storage.journal import JOURNAL, record_to_dict
from tests.test_storage.commit_log import (
    LOG_FILE,
    boundaries,
    flip_payload_byte,
    log_frames,
)

SPEC = WorkloadSpec(
    n_processes=6,
    conflict_density=0.6,
    failure_probability=0.1,
    grounded=True,
    seed=5,
)
#: Mid-frame offsets tried on top of every frame boundary.
TORN_SAMPLES = 16
#: The paced session's ``time_scale``: a quarter of a virtual time unit
#: per tick.
PACE = 250.0
SLOTS = ("meta", "snapshot")


def _service(path, **config) -> ProcessLockingService:
    return ProcessLockingService(
        ServiceConfig(
            spec=SPEC,
            seed=5,
            store="log",
            store_path=str(path),
            store_fsync="never",
            tick=0.001,  # a stop waits one out
            snapshot_every=config.pop("snapshot_every", 10),
            **config,
        )
    )


def _record_documents(service, log: Path) -> list[tuple[int, dict | None]]:
    """``(log size at the swap, document)`` of every document
    ``service`` swaps in from now on, oldest first, after no document
    at size 0."""
    documents: list[tuple[int, dict | None]] = [(0, None)]
    save = service.store.snapshots.save

    def recording_save(document: dict) -> None:
        documents.append((os.path.getsize(log), document))
        save(document)

    service.store.snapshots.save = recording_save
    return documents


def _record_commits(service, log: Path) -> list[int]:
    """The log's size as each subsystem commit of ``service`` returns,
    from now on: where the transaction's writes are all on disk."""
    commits: list[int] = []
    for subsystem in service.manager.subsystems:
        store = subsystem.store

        def recording_commit(keys, commit=store.commit) -> None:
            commit(keys)
            commits.append(os.path.getsize(log))

        store.commit = recording_commit
    return commits


def _eager_session(path: Path):
    """Run the eager scripted session on a fresh store at ``path``.

    Returns ``(acks, documents, commits)``: ``acks`` are ``(log size,
    kind, body)`` for every answered request, the size read when the
    answer arrived — everything the answer rests on lies before it;
    ``documents`` are those of :func:`_record_documents` and
    ``commits`` those of :func:`_record_commits`.
    """
    service = _service(path)
    log = path / LOG_FILE
    documents = _record_documents(service, log)
    commits = _record_commits(service, log)
    acks: list[tuple[int, str, dict]] = []

    def ask(kind: str, future) -> dict:
        body = future.result(timeout=60)
        acks.append((os.path.getsize(log), kind, body))
        return body

    # Queued before the engine thread exists, so one batch takes both:
    # the cancel reaches pid 2 of the burst before anything has run.
    burst = service.execute({"cmd": "submit", "count": 4})
    cancel = service.execute({"cmd": "cancel", "pid": 2})
    service.start()
    assert ask("submit", burst)["pids"] == [1, 2, 3, 4]
    assert ask("cancel", cancel)["cancelled"]
    for program in (4, 5):
        ask(
            "outcomes",
            service.execute(
                {"cmd": "submit", "program": program, "wait": True}
            ),
        )
    service.stop()
    return acks, documents, commits


def _turn(service, tick: int, requests=()) -> list[Future]:
    """One pass of ``ProcessLockingService._run_loop``, on this thread,
    ``tick`` ticks after it began: apply ``requests``, run a paced
    engine to the virtual time those ticks map to, then journal,
    snapshot and answer (``_post_drain``).  The script's clock stands
    in for the wall's; a ``drain`` request runs the engine to
    quiescence itself."""
    futures = []
    for request in requests:
        future: Future = Future()
        service._apply(request, future)
        futures.append(future)
    config = service.config
    service.manager.engine.run_due(tick * config.tick * config.time_scale)
    service._post_drain()
    return futures


def _paced_session(path: Path):
    """Run the paced scripted session on a fresh store at ``path``;
    ``(acks, documents, commits)`` as of :func:`_eager_session`.

    Driven on this thread a tick at a time (:func:`_turn`), so no wall
    clock enters and every run is the same session.  Every drain that
    journals a record cuts a document (``snapshot_every=1``).  A burst
    of two goes in at tick 0.  The first time a pid waits out its
    resubmission gap, a waited submit goes in at that same virtual
    instant: a journal record, so that drain cuts a document of the
    gap.  A drain ends it.
    """
    service = _service(path, time_scale=PACE, snapshot_every=1)
    log = path / LOG_FILE
    documents = _record_documents(service, log)
    commits = _record_commits(service, log)
    acks: list[tuple[int, str, dict]] = []
    unanswered: list[tuple[str, Future]] = []

    def turn(tick: int, *asked: tuple[str, dict]) -> None:
        futures = _turn(service, tick, [request for _, request in asked])
        unanswered.extend(zip([kind for kind, _ in asked], futures))
        for entry in list(unanswered):
            kind, future = entry
            if future.done():
                acks.append((os.path.getsize(log), kind, future.result()))
                unanswered.remove(entry)

    turn(0, ("submit", {"cmd": "submit", "program": 5, "count": 2}))
    tick, gap_documented = 0, False
    while service.manager.undecided():
        tick += 1
        assert tick < 1000, "the paced session does not settle"
        turn(tick)
        phases = service.manager.undecided().values()
        if not gap_documented and "awaiting-resubmit" in phases:
            gap_documented = True
            turn(
                tick,
                ("outcomes", {"cmd": "submit", "program": 3, "wait": True}),
            )
    _turn(service, tick, [{"cmd": "drain"}])
    service.store.close()
    assert not unanswered
    return acks, documents, commits


@pytest.fixture(scope="module")
def eager(tmp_path_factory):
    """The eager session's store, ``acks``, ``documents`` and
    ``commits``; tests damage copies of the store, never the store."""
    golden = tmp_path_factory.mktemp("eager") / "golden"
    return (golden, *_eager_session(golden))


def _journal(frames, cut: int) -> list[dict]:
    """The journal records within ``cut``, in order."""
    return [
        JOURNAL.decode(payload)
        for name, payload, end in frames
        if name == "journal" and end <= cut
    ]


def _terminals(frames, cut: int) -> dict[int, dict]:
    """pid -> the latest ``terminal`` record within ``cut``."""
    return {
        record["pid"]: record
        for record in _journal(frames, cut)
        if record["kind"] == "terminal"
    }


def _journaled_once(frames, acks) -> int:
    """Check every ``submit`` answer against the journal as the answer
    found it: each pid it names is there, by its ``terminal`` record
    when its drain decided it and by its ``submit`` record otherwise —
    never both from that one drain.  Returns how many answered pids
    outlived their drain (and kept their ``submit`` record)."""
    outlived = 0
    for at, kind, body in acks:
        if kind != "submit":
            continue
        journal = _journal(frames, at)
        kinds: dict[int, set[str]] = {}
        for record in journal:
            kinds.setdefault(record["pid"], set()).add(record["kind"])
        for pid in body["pids"]:
            assert kinds.get(pid) in ({"submit"}, {"terminal"}), (pid, at)
            outlived += kinds[pid] == {"submit"}
    return outlived


def _settled_records(frames, cut: int, commits) -> dict[str, dict]:
    """Each subsystem's non-default records as of the last transaction
    committed within ``cut`` bytes of the log: its ``txn`` frames up to
    where that commit returned (``commits``), last write wins."""
    settled_at = max((end for end in commits if end <= cut), default=0)
    records: dict[str, dict] = {}
    for name, payload, end in frames:
        if end > settled_at:
            break
        kind, _, subsystem = name.partition("/")
        if kind == "ssdata":
            records.setdefault(subsystem, {}).update(
                codec_for(name).decode(payload)["writes"]
            )
    return {
        subsystem: {key: value for key, value in held.items() if value}
        for subsystem, held in records.items()
    }


def _restart_and_audit(
    path: Path,
    acks,
    terminals: dict[int, dict],
    settled: dict[str, dict],
    adopted: frozenset[int] = frozenset(),
    journaled: frozenset[int] = frozenset(),
) -> None:
    """Serve from the damaged store at ``path``; hold it to ``acks``
    (those the cut covers), to the journaled ``terminals`` and to the
    ``settled`` subsystem records, and issue no pid the cut's journal
    names (``journaled``) again.  The outcomes of the ``adopted``
    pids, live in the document beside the cut, are not held: the
    restart re-runs them from it."""
    service = _service(path)  # subsystems recover here; nothing runs yet
    for subsystem in service.manager.subsystems:
        held = {
            key: value
            for key, value in subsystem.store.snapshot().items()
            if value
        }
        assert held == settled.get(subsystem.name, {}), subsystem.name
    pids = sorted(
        {
            *terminals,
            *(
                pid
                for _, _, body in acks
                for pid in body.get("pids", [body.get("pid")])
            ),
        }
    )
    # One batch takes a fresh submission, drains to quiescence, then
    # answers every question.
    try:
        fresh, drain, check, *statuses = _turn(
            service,
            0,
            [
                {"cmd": "submit"},
                {"cmd": "drain"},
                {"cmd": "check"},
                *({"cmd": "status", "pid": pid} for pid in pids),
            ],
        )
        records = {
            pid: service.manager.records.get(pid) for pid in terminals
        }
    finally:
        service.store.close()
    (issued,) = fresh.result(timeout=0)["pids"]
    assert issued > max({*pids, *journaled}, default=0)
    assert drain.result(timeout=0)["quiesced"]
    answers = {
        pid: status.result(timeout=0) for pid, status in zip(pids, statuses)
    }

    def outcome(pid: int) -> str:
        assert answers[pid]["state"] == "done", answers[pid]
        return answers[pid]["outcome"]

    for _, kind, body in acks:
        if kind == "submit":
            for pid in body["pids"]:
                outcome(pid)  # known, and decided by now
        elif kind == "cancel":
            assert outcome(body["pid"]) == "cancelled"
        else:
            for row in body["outcomes"]:
                if row["pid"] not in adopted:
                    assert outcome(row["pid"]) == row["outcome"], row
                    assert answers[row["pid"]]["latency"] == row["latency"]
    for pid, terminal in terminals.items():
        if pid in adopted:
            continue
        # The whole record comes back, not only the outcome.
        assert outcome(pid) == terminal["outcome"], pid
        assert record_to_dict(records[pid]) == terminal["record"], pid
    report = check.result(timeout=0)
    assert report["complete"], report
    assert report["correct_termination"], report
    assert report["process_recoverable"], report
    assert report["conserved"], report
    store = Store.open("log", str(path), fsync="never")
    try:
        assert store.verify()["ok"]
    finally:
        store.close()


def _sweep(
    tmp_path: Path, golden: Path, acks, documents, commits
) -> tuple[int, int]:
    """Restart from every frame boundary of ``golden``'s log, and from
    the seeded mid-frame sample, beside every document swapped in at or
    before the cut.

    A document is swapped in, and synced, before anything after it is
    written, so a crash leaves it beside cuts short of the next one's
    swap only; beside those, no answer the cut covers may report an
    outcome of a pid the document holds live.  (Beside a later cut,
    which only an unsynced swap lost in a power cut leaves, such a
    pid's outcome may differ, and the restart must still be sound.)

    Returns the number of cuts and of restarts.
    """
    data = (golden / LOG_FILE).read_bytes()
    frames = log_frames(data)
    edges = boundaries(data)
    assert edges[-1] == len(data)
    cuts = sorted(
        {*edges, *random.Random(5).sample(range(len(data)), TORN_SAMPLES)}
    )
    replacements = [at for at, _ in documents[1:]] + [len(data) + 1]
    restarts = 0
    for cut in cuts:
        terminals = _terminals(frames, cut)
        journaled = frozenset(
            record["pid"] for record in _journal(frames, cut)
        )
        covered = [ack for ack in acks if ack[0] <= cut]
        answered = {
            row["pid"]
            for _, kind, body in covered
            if kind == "outcomes"
            for row in body["outcomes"]
        }
        settled = _settled_records(frames, cut, commits)
        for (at, document), replaced in zip(documents, replacements):
            if at > cut:
                break
            adopted = frozenset(
                entry["pid"] for entry in (document or {}).get("processes", ())
            )
            if cut < replaced:
                assert not adopted & answered, (cut, at)
            target = tmp_path / f"cut-{cut}-{at}"
            shutil.copytree(golden, target)
            with open(target / LOG_FILE, "r+b") as handle:
                handle.truncate(cut)
            if document is None:
                (target / "snapshot.log").unlink()
            else:
                (target / "snapshot.log").write_bytes(
                    encode_frame(dumps(document))
                )
            _restart_and_audit(
                target, covered, terminals, settled, adopted, journaled
            )
            shutil.rmtree(target)
            restarts += 1
    assert restarts > len(edges)
    return len(cuts), restarts


def test_restart_from_every_frame_boundary(tmp_path, eager):
    golden, acks, documents, commits = eager
    assert len(documents) >= 3  # at least two snapshots
    data = (golden / LOG_FILE).read_bytes()
    frames = log_frames(data)
    assert {name.split("/")[0] for name, _, _ in frames} == {
        "journal",
        "trace",
        "ssdata",
    }
    # Every drain runs to quiescence: each process is journaled once,
    # by its terminal record, and the cancel with it.
    assert _journaled_once(frames, acks) == 0
    assert {record["kind"] for record in _journal(frames, len(data))} == {
        "terminal"
    }
    cuts, restarts = _sweep(tmp_path, golden, acks, documents, commits)
    print(f"eager sweep: {cuts} cuts, {restarts} restarts")


def test_restart_from_every_frame_boundary_of_a_paced_session(tmp_path):
    golden = tmp_path / "golden"
    acks, documents, commits = _paced_session(golden)
    held = [
        entry
        for _, document in documents[1:]
        for entry in document["processes"]
    ]
    # Adopted mid-flight, and adopted inside the resubmission gap.
    assert any(entry["resubmit_in"] is None for entry in held)
    assert any(entry["resubmit_in"] is not None for entry in held)
    assert {kind for _, kind, _ in acks} == {"submit", "outcomes"}
    # The burst outlives the drain that admitted it: a wait=false
    # submit that was answered before its outcome keeps its record.
    frames = log_frames((golden / LOG_FILE).read_bytes())
    assert _journaled_once(frames, acks) == 2
    cuts, restarts = _sweep(tmp_path, golden, acks, documents, commits)
    print(f"paced sweep: {cuts} cuts, {restarts} restarts")


def test_no_answer_reports_an_outcome_a_restart_would_re_run(tmp_path):
    """Found by the paced sweep.  A restart re-runs the pids the newest
    document holds live, whatever their ``terminal`` records say.  Below
    the cadence, a drain used to decide such a pid, answer its waiting
    client and cut no document; after a kill the pid ran again from the
    document, its failures sampled afresh, and could end otherwise.
    That drain now cuts a document first."""
    path = tmp_path / "store"
    service = _service(path, time_scale=PACE, snapshot_every=2)
    waits = _turn(
        service,
        0,
        [
            {"cmd": "submit", "program": 5, "wait": True},
            {"cmd": "submit", "program": 0, "wait": True},
        ],
    )

    def adopted() -> set[int]:
        document = service.store.snapshots.load()
        return {entry["pid"] for entry in document["processes"]}

    assert adopted() == {1, 2}  # two records: tick 0 cut a document
    tick = 0
    while not any(wait.done() for wait in waits):
        tick += 1
        assert tick < 1000
        _turn(service, tick)
    (answered,) = [
        row
        for wait in waits
        if wait.done()
        for row in wait.result(timeout=0)["outcomes"]
    ]
    assert answered["pid"] not in adopted()
    service.store.close()  # killed: what is on disk is all there is
    restarted = _service(path)
    try:
        _, status = _turn(
            restarted,
            0,
            [{"cmd": "drain"}, {"cmd": "status", "pid": answered["pid"]}],
        )
    finally:
        restarted.store.close()
    assert status.result(timeout=0)["outcome"] == answered["outcome"]


def _store_copy(eager, tmp_path: Path) -> Path:
    target = tmp_path / "store"
    shutil.copytree(eager[0], target)
    return target


@pytest.mark.parametrize("kind", ("journal", "trace", "ssdata"))
def test_a_flipped_log_byte_is_refused(eager, tmp_path, kind):
    """Bit rot in a complete frame of the commit log is never healed
    away: opening the store raises the typed error, and so does
    constructing a service on it."""
    target = _store_copy(eager, tmp_path)
    namespace = next(
        name
        for name, _, _ in log_frames((target / LOG_FILE).read_bytes())
        if name.split("/")[0] == kind
    )
    flip_payload_byte(target, namespace)
    with pytest.raises(WalCorruptionError) as caught:
        Store.open("log", str(target), fsync="never")
    assert caught.value.namespace == "commit"
    with pytest.raises(WalCorruptionError):
        _service(target)


@pytest.mark.parametrize("slot", SLOTS)
def test_a_slot_cut_anywhere_reads_empty(eager, tmp_path, slot):
    """A swap torn mid-write: the slot holds no document, not a part."""
    target = _store_copy(eager, tmp_path)
    path = target / f"{slot}.log"
    data = path.read_bytes()
    store = Store.open("log", str(target), fsync="never")
    try:
        assert len(store.backend.read_all(slot)) == 1
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            assert store.backend.read_all(slot) == [], cut
    finally:
        store.close()


@pytest.mark.parametrize("slot", SLOTS)
def test_a_flipped_slot_byte_is_refused(eager, tmp_path, slot):
    """Bit rot anywhere past the length field — in the CRC or the
    payload — raises the typed error, from a read and from a restart."""
    target = _store_copy(eager, tmp_path)
    path = target / f"{slot}.log"
    data = path.read_bytes()

    def flip(offset: int) -> None:
        damaged = bytearray(data)
        damaged[offset] ^= 0xFF
        path.write_bytes(bytes(damaged))

    store = Store.open("log", str(target), fsync="never")
    try:
        for offset in range(4, len(data)):
            flip(offset)
            with pytest.raises(WalCorruptionError):
                store.backend.read_all(slot)
    finally:
        store.close()
    flip(len(data) // 2)
    with pytest.raises(WalCorruptionError) as caught:
        _service(target)
    assert caught.value.namespace == slot


@pytest.mark.parametrize("slot", SLOTS)
def test_a_refused_restart_closes_the_store_it_opened(eager, tmp_path, slot):
    """The service opened the store from a backend name, so a restart
    refused on a damaged slot closes it before the error goes out: no
    commit log is left open for the collector to find."""
    target = _store_copy(eager, tmp_path)
    path = target / f"{slot}.log"
    damaged = bytearray(path.read_bytes())
    damaged[len(damaged) // 2] ^= 0xFF
    path.write_bytes(bytes(damaged))

    def refused() -> bool:
        try:
            _service(target)
        except WalCorruptionError:
            return True  # the traceback, and the service, die here
        return False

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert refused()
        gc.collect()
    leaked = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaked == []


@pytest.mark.parametrize("slot", SLOTS)
def test_restart_without_a_slot_file(eager, tmp_path, slot):
    """A swap that never became durable leaves no file: the meta
    document is written again, and with no checkpoint the journal and
    the log's records carry the restart."""
    golden, acks, _, commits = eager
    target = _store_copy(eager, tmp_path)
    (target / f"{slot}.log").unlink()
    data = (target / LOG_FILE).read_bytes()
    frames = log_frames(data)
    _restart_and_audit(
        target,
        acks,
        _terminals(frames, len(data)),
        _settled_records(frames, len(data), commits),
    )


NAMESPACES = ("journal", "trace", "ssdata/a", "ssdata/b")


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(NAMESPACES), st.binary(max_size=12)
        ),
        min_size=1,
        max_size=10,
    )
)
def test_any_cut_of_interleaved_appends_is_one_global_prefix(appends):
    with tempfile.TemporaryDirectory() as root:
        backend = AppendLogBackend(os.path.join(root, "whole"), fsync="never")
        log = os.path.join(root, "whole", LOG_FILE)
        ends = []
        for namespace, payload in appends:
            backend.append(namespace, payload)
            ends.append(os.path.getsize(log))
        backend.close()
        with open(log, "rb") as handle:
            data = handle.read()
        os.mkdir(os.path.join(root, "cut"))
        for cut in range(len(data) + 1):
            with open(os.path.join(root, "cut", LOG_FILE), "wb") as out:
                out.write(data[:cut])
            damaged = AppendLogBackend(
                os.path.join(root, "cut"), fsync="never"
            )
            survivors = appends[: sum(end <= cut for end in ends)]
            for namespace in NAMESPACES:
                assert damaged.read_all(namespace) == [
                    payload
                    for owner, payload in survivors
                    if owner == namespace
                ]
            damaged.close()
