"""Wait-for cycles and deadlock victims.

Process locking's waits are timestamp-disciplined: almost every deferment
makes a *younger* process wait for an *older* one, and the remaining
exceptions target the unique completing process (which itself never waits
on a running process) or aborting processes (which always terminate).
Under the basic protocol wait-for cycles therefore cannot form — this is
the paper's "timestamp-based deadlock prevention".

The cost-based extension introduces pseudo pivots whose P locks can make
an *older* process wait for a *younger running* one, so cycles become
possible there (and under the S2PL / pure-OSL baselines).  The manager
keeps no graph of its own: who waits on whom is read from the parked
requests.  A park only adds edges that leave the parking pid, so a cycle
it closes runs through that pid and the manager's per-park check is a
depth-first walk from there; only when that walk comes back to its start
is the whole relation handed to :func:`find_wait_cycle`.

:func:`find_cycle` is the one cycle search.  Which cycle it returns
decides the victim, so its order is pinned: it returns exactly the edge
list ``networkx.find_cycle`` returns on the same insertion-ordered
graph (``tests/test_core/test_waitfor_incremental.py`` holds it to
that; ``networkx`` is a test-only oracle).  The victim is the youngest
*running* process on the cycle (never a completing one, which by
construction cannot be required).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from repro.errors import ProtocolError


def find_cycle(
    adjacency: Mapping[Hashable, Iterable[Hashable]],
) -> list[tuple] | None:
    """One cycle of the digraph ``adjacency`` as an edge list, or ``None``.

    Iterative depth-first search: roots in mapping order, skipping nodes
    an earlier root finished; successors in iteration order.  The first
    edge into a node on the current path closes the cycle, returned from
    that node round to it — the same edges ``networkx.find_cycle``
    returns for a directed graph with ``orientation=None``.
    """
    done: set = set()
    for root in adjacency:
        if root in done:
            continue
        # The current path, in order: node -> its index on the path.
        path = {root: 0}
        stack = [iter(adjacency.get(root, ()))]
        while stack:
            for nxt in stack[-1]:
                if nxt in path:
                    cycle = list(path)[path[nxt]:]
                    return list(zip(cycle, cycle[1:] + [nxt]))
                if nxt not in done:
                    path[nxt] = len(path)
                    stack.append(iter(adjacency.get(nxt, ())))
                    break
            else:
                stack.pop()
                done.add(path.popitem()[0])
    return None


def find_wait_cycle(edges: Mapping[int, Iterable[int]]) -> list[int] | None:
    """One wait cycle of the relation ``edges`` as a pid list, or ``None``.

    ``edges`` maps each waiter to its blockers.  Each waiter's blockers
    are searched in ``frozenset`` iteration order, self edges dropped,
    which picks the same cycle (hence the same victim) the historical
    networkx-backed search did.
    """
    cycle = find_cycle({
        waiter: [blocker for blocker in frozenset(blockers)
                 if blocker != waiter]
        for waiter, blockers in edges.items()
    })
    return [tail for tail, _ in cycle] if cycle else None


def choose_cycle_victim(
    cycle: list[int],
    timestamps: dict[int, int],
    running: set[int],
    protected: set[int] | None = None,
) -> int:
    """Pick the youngest running process on a wait cycle.

    ``protected`` processes (pseudo-pivot P-lock holders under the
    cost-based extension) are sacrificed only when every running cycle
    member is protected — deadlock resolution honours cascade
    protection as far as possible.

    Raises
    ------
    ProtocolError
        If no process on the cycle is running (would mean the protocol
        created a cycle of unabortable processes — Theorem 1's argument
        excludes this for correct implementations).
    """
    candidates = [pid for pid in cycle if pid in running]
    if not candidates:
        raise ProtocolError(
            f"unresolvable wait cycle {cycle}: no running process to abort"
        )
    if protected:
        unprotected = [
            pid for pid in candidates if pid not in protected
        ]
        if unprotected:
            candidates = unprotected
    return max(candidates, key=lambda pid: timestamps[pid])
