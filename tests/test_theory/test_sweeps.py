"""The one-sweep deciders against the per-prefix and pairwise oracles.

Random schedules mix regular activities (compensatable or not, with or
without a point of no return), compensations in reverse order, commits
and aborts, over a random symmetric conflict relation.  Unless the
schedule is drawn with perfect commutativity, some inverses commute
with everything, so a stuck compensation pair can be freed by a later
cancellation.  On each:

* the sweep's first bad prefix is the per-prefix oracle's, and (for at
  most 8 activities) the first prefix that the exact search of
  Definition 4 rejects;
* RED, the survivors and the witness agree with the fixpoint oracle;
* the P-RC sweep finds the pairwise oracle's violations, and P-RC of
  the whole schedule is P-RC of every prefix.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.theory.criteria import (
    check_process_recoverability,
    is_prefix_reducible,
    is_process_recoverable,
    is_reducible,
)
from repro.theory.explain import explain_irreducibility, first_bad_prefix
from repro.theory.reduction import Reduction
from repro.theory.schedule import EventKind, ProcessSchedule, ScheduleEvent
from tests.test_theory.oracles import (
    exact_is_reducible,
    fixpoint_is_reducible,
    fixpoint_survivors,
    pairwise_prc_violations,
    per_prefix_first_bad,
)

#: The example count comes from the profile: 100 in tier-1, 2,000 in
#: CI's randomized ``smoke`` profile.
SWEEP = settings(deadline=None)
NAMES = ["a", "b", "c", "d"]
_uids = itertools.count(70_000)


def build_schedule(choose, length, processes=3, names=NAMES, perfect=False):
    """A well-formed random schedule; ``choose(options)`` picks one.

    With ``perfect`` every inverse carries its regular's name, which is
    the perfect commutativity that the exact search needs to agree.
    """
    pairs = [
        frozenset(pair)
        for pair in itertools.combinations_with_replacement(names, 2)
    ]
    conflicting = {pair for pair in pairs if choose([True, False])}

    def conflict(first, second):
        return frozenset((first, second)) in conflicting

    events = []
    compensatable: dict[int, list[ScheduleEvent]] = {
        proc: [] for proc in range(processes)
    }
    live = list(range(processes))
    while live and len(events) < length:
        proc = choose(live)
        key = (proc, 0)
        actions = ["act", "act", "act", "commit", "abort"]
        if compensatable[proc]:
            actions += ["undo", "undo"]
        action = choose(actions)
        position = len(events)
        if action in ("commit", "abort"):
            kind = EventKind.COMMIT if action == "commit" else EventKind.ABORT
            events.append(ScheduleEvent(position, key, kind))
            live.remove(proc)
        elif action == "undo":
            regular = compensatable[proc].pop()
            events.append(
                ScheduleEvent(
                    position, key, EventKind.ACTIVITY,
                    # An upper-case inverse commutes with everything.
                    regular.name
                    if perfect
                    else choose([regular.name, regular.name.upper()]),
                    next(_uids), compensates=regular.uid,
                    compensatable=True,
                )
            )
        else:
            event = ScheduleEvent(
                position, key, EventKind.ACTIVITY, choose(names),
                next(_uids), compensatable=choose([True, False]),
                point_of_no_return=choose([False, False, True]),
            )
            events.append(event)
            if event.compensatable:
                compensatable[proc].append(event)
    return ProcessSchedule(events, conflict)


def drawn_schedule(data, length, perfect=False):
    return build_schedule(
        lambda options: data.draw(st.sampled_from(options)),
        length,
        perfect=perfect,
    )


@SWEEP
@given(data=st.data())
def test_first_bad_prefix_matches_the_per_prefix_oracle(data):
    schedule = drawn_schedule(data, length=16)
    bad = first_bad_prefix(schedule)
    assert bad == per_prefix_first_bad(schedule)
    assert is_prefix_reducible(schedule) == (bad is None)
    assert is_reducible(schedule) == fixpoint_is_reducible(schedule)
    survivors = list(Reduction.of(schedule).survivors.values())
    assert survivors == fixpoint_survivors(schedule)
    assert (explain_irreducibility(schedule) is None) == is_reducible(
        schedule
    )


@SWEEP
@given(data=st.data())
def test_first_bad_prefix_matches_the_exact_search(data):
    schedule = drawn_schedule(data, length=10, perfect=True)
    if len(schedule.activities) > 8:
        return
    exact = next(
        (
            cut
            for cut in range(1, len(schedule) + 1)
            if not exact_is_reducible(schedule.prefix(cut))
        ),
        None,
    )
    assert first_bad_prefix(schedule) == exact


@SWEEP
@given(data=st.data())
def test_prc_sweep_matches_the_pairwise_oracle(data):
    schedule = drawn_schedule(data, length=16)
    found = [
        (v.earlier.position, v.later.position)
        for v in check_process_recoverability(schedule).violations
    ]
    assert found == pairwise_prc_violations(schedule)


@SWEEP
@given(data=st.data())
def test_prc_of_every_prefix_is_prc_of_the_whole(data):
    schedule = drawn_schedule(data, length=16)
    every_prefix = all(
        not pairwise_prc_violations(schedule.prefix(cut))
        for cut in range(1, len(schedule) + 1)
    )
    assert every_prefix == is_process_recoverable(schedule)


def test_conflict_is_consulted_k_squared_times_at_most():
    """RED, P-RED, P-RC and the witness share one set of conflict rows."""
    rng = random.Random(11)
    schedule = build_schedule(rng.choice, length=600, processes=200)
    calls = 0
    relation = schedule.conflict

    def counting(first, second):
        nonlocal calls
        calls += 1
        return relation(first, second)

    schedule.conflict = counting
    names = {event.name for event in schedule.activities}
    assert len(schedule.activities) >= 200
    is_reducible(schedule)
    is_prefix_reducible(schedule)
    is_process_recoverable(schedule)
    explain_irreducibility(schedule)
    assert calls <= len(names) ** 2
