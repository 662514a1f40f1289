"""Who waits on whom is read from the parked requests, and only there
(docs/performance.md §3-§4; DESIGN.md §7, "Removed: incremental
wait-for maintainer" and "Wake-up drains nest at most 96 deep")."""

from __future__ import annotations

from collections import Counter, deque
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.deadlock import find_wait_cycle
from repro.errors import StarvationError
from repro.obs import Tracer
from repro.process.state import ProcessState
from repro.scheduler.events import ParkedRequest, RequestKind, conserved
from repro.scheduler.manager import ManagerConfig, make_manager
from repro.scheduler.parking import ParkingLot
from repro.sim.runner import make_protocol, run_workload
from repro.sim.workload import WorkloadSpec, build_workload
from repro.theory.criteria import (
    has_correct_termination,
    is_process_recoverable,
)
from tests.test_core.reference import naive_find_wait_cycle

RUNNING, ABORTING = ProcessState.RUNNING, ProcessState.ABORTING
PIDS = st.integers(min_value=0, max_value=7)
NONE = frozenset()
#: (pid, what it waits for, whether that is a cascade, what each
#: cascade victim's first compensation waits for in turn).
PARK = st.tuples(
    PIDS,
    st.frozensets(PIDS, min_size=1, max_size=3),
    st.booleans(),
    st.frozensets(PIDS, max_size=2),
)
#: Mostly parks, or no cycle ever closes; an int unparks the n-th live
#: request (even) or ends the n-th running abort (odd).
OPS = st.lists(
    st.one_of(PARK, PARK, PARK, st.integers(min_value=0)),
    min_size=8,
    max_size=60,
)
#: One park closes two cycles (0-1 and 0-2); the search takes one
#: victim, and the park that follows is by a pid on neither.
TWO_CYCLES_ONE_PARK = [
    (1, frozenset({0}), False, NONE),
    (2, frozenset({0}), False, NONE),
    (0, frozenset({1, 2}), False, NONE),
    (5, frozenset({6}), False, NONE),
]
#: 0 cascades 1 and 2 while 2 still waits on 0: when 1's compensation
#: parks, 2 is not aborting yet, so 0 -> 2 is no edge and 0-2 no cycle.
VICTIM_NOT_YET_ABORTING = [
    (2, frozenset({0}), False, NONE),
    (0, frozenset({1, 2}), True, frozenset({3})),
]


class _Book:
    """A bare :class:`ParkingLot` over stand-in processes (a pid and a
    state each), driven without a manager or a protocol: acting on a
    cycle is recording it and beginning its youngest member's abort.
    The lot is built on ``states`` itself, which is only ever mutated
    in place: it reads the table it was handed."""

    def __init__(self) -> None:
        self.states = {
            pid: SimpleNamespace(pid=pid, state=RUNNING) for pid in range(8)
        }
        self.lot = ParkingLot(self.states)
        #: Whether the last cycle check found a cycle (which it may
        #: leave standing: it acts on one victim).
        self.standing = False

    def act(self, cycle) -> None:
        self.begin_abort(max(cycle))

    def begin_abort(self, pid, compensation=NONE) -> None:
        """``_begin_protocol_abort``: the victim's parked work goes, it
        is aborting, and its first compensation may have to wait."""
        for request in self.lot.of(pid):
            self.lot.unpark(request)
        self.states[pid].state = ABORTING
        if compensation - {pid}:
            self.park(pid, compensation - {pid}, "deferred")

    def finish_abort(self, pid) -> None:
        """The pid's requests go, its waiters wake (the lot unparks
        them to be re-asked), and it restarts under the same pid."""
        self.begin_abort(pid)
        state = self.states.pop(pid)
        for _ in self.lot.wake(pid):
            pass
        state.state = RUNNING
        self.states[pid] = state

    def relation(self) -> dict[int, set[int]]:
        """By definition: a request waits on all of ``wait_for``, a
        cascade only on its victims that are aborting."""
        edges: dict[int, set[int]] = {}
        for request in self.lot:
            edges.setdefault(request.process.pid, set()).update(
                pid
                for pid in request.wait_for
                if request.reason != "awaiting-cascade"
                or self.states[pid].state is ABORTING
            )
        return edges

    def park(self, pid, wait_for, reason, compensation=NONE) -> None:
        """One ``_apply_decision``: park, begin the victims' aborts if
        it is a cascade, check for a cycle — which must name exactly
        the cycle the search over the whole relation, run at every
        park, would."""
        lot = self.lot
        lot.park(
            ParkedRequest(
                RequestKind.COMMIT,
                self.states[pid],
                wait_for=wait_for,
                reason=reason,
            )
        )
        if reason == "awaiting-cascade":
            for victim in wait_for:
                if self.states[victim].state is RUNNING:  # not yet a victim
                    self.begin_abort(victim, compensation)
        edges = lot.wait_edges()
        assert edges == self.relation()
        if not self.standing:
            assert (find_wait_cycle(edges) is not None) == (
                lot._waits_on_itself(pid)
            )
        cycle = lot.cycle_through(pid)
        self.standing = cycle is not None
        assert cycle == naive_find_wait_cycle(edges)
        if cycle is not None:
            self.act(cycle)


def _nonempty(obj, path: str, skip=()) -> dict[str, int]:
    """``path -> len`` of every non-empty container reachable from
    ``obj`` (see :func:`container_sizes`), not looking into ``skip``."""
    sizes: dict[str, int] = {}
    container_sizes(obj, path, sizes, {id(other) for other in skip})
    return {name: size for name, size in sizes.items() if size}


# 200 examples in tier-1; more under a larger profile (CI smoke: 2,000).
@settings(max_examples=max(200, settings().max_examples), deadline=None)
@given(ops=OPS)
@example(ops=TWO_CYCLES_ONE_PARK)
@example(ops=VICTIM_NOT_YET_ABORTING)
def test_walk_from_the_parking_pid_equals_the_whole_relation_search(ops):
    """A park only adds edges that leave the parking pid, so "the whole
    relation has a cycle" is "one was left standing, or the parking pid
    reaches itself" — and the cycle acted on is the one the unguarded
    networkx search over the whole relation picks."""
    book = _Book()
    lot, states = book.lot, book.states
    for op in ops:
        if isinstance(op, tuple):
            pid, blockers, cascade, compensation = op
            blockers = blockers - {pid}
            # A cascade names running processes only.
            victims = frozenset(
                b for b in blockers if cascade and states[b].state is RUNNING
            )
            if victims:
                book.park(pid, victims, "awaiting-cascade", compensation)
            elif blockers:
                book.park(pid, blockers, "deferred")
        elif op % 2:
            aborting = [p for p, s in states.items() if s.state is ABORTING]
            if aborting:
                book.finish_abort(aborting[op % len(aborting)])
        elif len(lot):
            live = list(lot)
            lot.unpark(live[op % len(live)])
    for request in list(lot):
        lot.unpark(request)
    assert _nonempty(lot, "lot", skip=[states]) == {}


def test_audited_cost_based_run_with_deadlock_victims_is_clean(monkeypatch):
    """Pseudo pivots close real cycles (14 victims on this shape); every
    "no cycle" answer of the lot's cycle check is cross-checked here
    against the whole relation."""
    cycle_through = ParkingLot.cycle_through
    walks = []

    def cross_checked(lot, waiter):
        cycle = cycle_through(lot, waiter)
        if cycle is None:
            walks.append(waiter)
            assert find_wait_cycle(lot.wait_edges()) is None, waiter
        return cycle

    monkeypatch.setattr(ParkingLot, "cycle_through", cross_checked)
    spec = WorkloadSpec(
        n_processes=60, conflict_density=0.3, wcc_threshold=25, seed=7
    )
    workload = build_workload(spec)
    result = run_workload(workload, "process-locking", seed=7)
    assert walks
    assert result.stats.deadlock_victims >= 10
    assert conserved(result.records, result.stats)
    schedule = result.trace.to_schedule(workload.conflicts.conflict)
    assert has_correct_termination(schedule)
    assert is_process_recoverable(schedule)


def test_cascade_chain_deeper_than_the_stack_reaches_quiescence():
    """600 simultaneous arrivals at density 0.6 chain far more
    terminations than the interpreter has frames for (six per nested
    wake-up drain): beyond ``_MAX_NESTED_DRAINS`` a termination queues
    its waiters for the enclosing drain instead of nesting another."""
    spec = WorkloadSpec(
        n_processes=600,
        conflict_density=0.6,
        failure_probability=0.04,
        seed=3,
    )
    result = run_workload(build_workload(spec), "process-locking", seed=3)
    assert len(result.records) == 600
    assert conserved(result.records, result.stats)


def test_pure_osl_cascade_chain_deeper_than_the_stack_reaches_quiescence():
    """Pure OSL cascades from a compensation request, four frames a
    victim and no wake-up drain in between: 400 arrivals at density 0.6
    chain deeper than the stack (``RecursionError`` from 380 when the
    chain was unbounded).  Beyond ``_MAX_NESTED_RUNS`` a victim's
    compensation run starts from the engine at the same virtual time."""
    spec = WorkloadSpec(n_processes=400, conflict_density=0.6, seed=3)
    result = run_workload(build_workload(spec), "osl-pure", seed=3)
    assert len(result.records) == 400
    assert conserved(result.records, result.stats)


def test_pure_osl_restarts_two_pids_into_the_same_commit_cycle():
    """Pure OSL's third pathology, a livelock: with no activity
    failures, pids 105 and 106 restart about one time unit apart and
    take ``act04`` and ``act06`` in opposite orders, so each commit is
    on hold behind the other.  The deadlock victim, 106, cascades 105
    through ``act06^-1``, and the cycle re-forms on every resubmission:
    nothing breaks the symmetry (at the default failure probability an
    activity failure does)."""
    spec = WorkloadSpec(
        n_processes=150,
        conflict_density=0.6,
        failure_probability=0.0,
        seed=3,
    )
    tracer = Tracer()
    with pytest.raises(StarvationError, match=r"pids \[106\] exceeded 30"):
        run_workload(
            build_workload(spec),
            "osl-pure",
            seed=3,
            config=ManagerConfig(max_resubmissions=30),
            tracer=tracer,
        )
    cycles = Counter(
        tuple(sorted(event.cycle))
        for __, __, event in tracer.stamped
        if event.kind == "deadlock.victim" and event.pid == 106
    )
    assert cycles[(105, 106)] == 29 and cycles.total() == 30


#: What legitimately grows with history, by attribute name — and the
#: Figure-1 cost memo, filled on first use per activity *type*: bounded
#: by the registry, but a longer run touches more of it.
HISTORY = {"records", "trace", "_finished", "stats", "_wcc_memo"}


def container_sizes(obj, path, sizes, seen) -> None:
    """``path -> len`` of every container reachable from ``obj`` through
    attributes of ``repro`` objects (and through containers of them)."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, (dict, list, set, frozenset, tuple, deque)):
        sizes[path] = len(obj)
        values = obj.values() if isinstance(obj, dict) else obj
        for index, value in enumerate(values):
            container_sizes(value, f"{path}[{index}]", sizes, seen)
    elif type(obj).__module__.startswith("repro."):
        names = set(getattr(obj, "__dict__", ())).union(
            *(getattr(k, "__slots__", ()) for k in type(obj).__mro__)
        )
        for name in sorted(names - HISTORY):
            if hasattr(obj, name):
                value = getattr(obj, name)
                container_sizes(value, f"{path}.{name}", sizes, seen)


def _sizes_after(n_submits: int) -> dict[str, int]:
    spec = WorkloadSpec(
        n_processes=16, conflict_density=0.6, wcc_threshold=25, seed=3
    )
    workload = build_workload(spec)
    manager = make_manager(make_protocol("process-locking", workload), seed=3)
    for index in range(n_submits):
        program = workload.programs[index % len(workload.programs)]
        manager.submit(program, at=0.25 * index)
    assert manager.run().stats.resubmissions > n_submits // 4  # it parked
    sizes: dict[str, int] = {}
    container_sizes(manager, "manager", sizes, set())
    return sizes


def test_no_residue_at_quiescence():
    """Everything the manager, the protocol and the lock table keep is
    empty, or the same, after 50 submits and after 200."""
    short, long = _sizes_after(50), _sizes_after(200)
    grown = {
        path: (short.get(path), size)
        for path, size in long.items()
        if short.get(path) != size
    }
    assert not grown, grown
    lot = {p: n for p, n in short.items() if p.startswith("manager.parking.")}
    assert lot and not any(lot.values()), lot
