"""Protocol conformance suite — the six rules as an executable checklist.

:func:`run_conformance` drives *any* scheduler protocol (anything with
the :class:`~repro.core.protocol.ProcessLockManager` decision interface)
through a battery of two-process micro-scenarios, one per behavioural
requirement of process locking, and reports which requirements hold.

Process locking itself passes every check; the baselines fail exactly
the checks that motivate the paper:

* pure OSL fails ``early-verification`` (it shares against timestamp
  order) and the P-exclusivity checks (it has no P locks at all);
* serial execution and exclusive S2PL fail the ordered-sharing checks
  (they admit no sharing whatsoever).

Use this as a TCK when implementing protocol variants: a variant that
passes the full suite inherits the paper's correctness argument shape.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.activities.activity import Activity
from repro.activities.commutativity import ConflictMatrix
from repro.activities.registry import ActivityRegistry
from repro.core.decisions import AbortVictims, Defer, Grant
from repro.core.locks import LockMode
from repro.process.builder import ProgramBuilder
from repro.process.instance import Process

ProtocolFactory = Callable[[ActivityRegistry, ConflictMatrix], object]


@dataclass(frozen=True)
class ConformanceCheck:
    """Outcome of one behavioural requirement."""

    name: str
    description: str
    passed: bool


@dataclass
class ConformanceReport:
    """All check outcomes for one protocol."""

    protocol_name: str
    checks: list[ConformanceCheck] = field(default_factory=list)

    @property
    def passed(self) -> set[str]:
        return {c.name for c in self.checks if c.passed}

    @property
    def failed(self) -> set[str]:
        return {c.name for c in self.checks if not c.passed}

    @property
    def fully_conformant(self) -> bool:
        return not self.failed

    def describe(self) -> str:
        lines = [f"conformance report: {self.protocol_name}"]
        for check in self.checks:
            marker = "PASS" if check.passed else "FAIL"
            lines.append(f"  [{marker}] {check.name}: "
                         f"{check.description}")
        return "\n".join(lines)


class TwoProcessScenario:
    """A fresh two-process environment per check.

    ``alpha`` and ``beta`` are compensatable, ``omega`` a pivot, and all
    three conflict pairwise; ``older`` and ``younger`` are attached with
    ascending timestamps.  Table 2 is derived from one of these per cell
    (:func:`repro.analysis.exhibits.derive_lock_compatibility`).
    """

    def __init__(self, factory: ProtocolFactory) -> None:
        self.registry = ActivityRegistry()
        self.registry.define_compensatable(
            "alpha", "sub", cost=1.0, compensation_cost=0.5
        )
        self.registry.define_compensatable(
            "beta", "sub", cost=1.0, compensation_cost=0.5
        )
        self.registry.define_pivot("omega", "sub", cost=1.0)
        self.conflicts = ConflictMatrix(self.registry)
        for first in ("alpha", "beta", "omega"):
            for second in ("alpha", "beta", "omega"):
                self.conflicts.declare_conflict(first, second)
        self.conflicts.close_perfect()
        self.protocol = factory(self.registry, self.conflicts)
        program = (
            ProgramBuilder("conf", self.registry)
            .sequence("alpha", "beta")
            .build()
        )
        self.older = Process(pid=1, program=program,
                             timestamp=self.protocol.new_timestamp())
        self.younger = Process(pid=2, program=program,
                               timestamp=self.protocol.new_timestamp())
        self.protocol.attach(self.older)
        self.protocol.attach(self.younger)
        self._seq = 100

    def mint(self, process: Process, name: str) -> Activity:
        self._seq += 1
        return Activity(
            self.registry.get(name), process.pid, seq=self._seq
        )

    def request(self, process: Process, name: str, mode: LockMode):
        return self.protocol.request_activity_lock(
            process, self.mint(process, name), mode
        )


def _check_shares_behind_older_c(scenario: TwoProcessScenario) -> bool:
    """C behind an older C lock is ordered shared (Table 2)."""
    assert isinstance(
        scenario.request(scenario.older, "alpha", LockMode.C), Grant
    )
    return isinstance(
        scenario.request(scenario.younger, "alpha", LockMode.C), Grant
    )


def _check_shares_behind_older_p(scenario: TwoProcessScenario) -> bool:
    """C behind an older P lock is ordered shared (Table 2)."""
    decision = scenario.request(scenario.older, "omega", LockMode.P)
    if not isinstance(decision, Grant):
        return False
    return isinstance(
        scenario.request(scenario.younger, "alpha", LockMode.C), Grant
    )


def _check_p_exclusive_behind_c(scenario: TwoProcessScenario) -> bool:
    """P behind a conflicting C lock is never simply granted."""
    decision = scenario.request(scenario.older, "alpha", LockMode.C)
    if not isinstance(decision, Grant):
        return False
    return not isinstance(
        scenario.request(scenario.younger, "omega", LockMode.P), Grant
    )


def _check_p_p_exclusive(scenario: TwoProcessScenario) -> bool:
    """Two conflicting P locks never coexist."""
    decision = scenario.request(scenario.older, "omega", LockMode.P)
    if not isinstance(decision, Grant):
        return False
    return not isinstance(
        scenario.request(scenario.younger, "omega", LockMode.P), Grant
    )


def _check_early_verification(scenario: TwoProcessScenario) -> bool:
    """An older request never silently shares behind a younger holder.

    Process locking resolves the timestamp-order violation immediately
    (cascading abort of the younger holder) or defers; pure OSL grants —
    the late-validation flaw.
    """
    decision = scenario.request(scenario.younger, "alpha", LockMode.C)
    if not isinstance(decision, Grant):
        return True  # no sharing at all: trivially early
    outcome = scenario.request(scenario.older, "alpha", LockMode.C)
    return isinstance(outcome, (AbortVictims, Defer))


def _check_commit_respects_hold(scenario: TwoProcessScenario) -> bool:
    """A process sharing behind an older one cannot commit first."""
    first = scenario.request(scenario.older, "alpha", LockMode.C)
    second = scenario.request(scenario.younger, "alpha", LockMode.C)
    if not (isinstance(first, Grant) and isinstance(second, Grant)):
        return True  # no sharing: nothing to hold
    return not isinstance(
        scenario.protocol.try_commit(scenario.younger), Grant
    )


def _check_compensation_wounds_later_sharers(
    scenario: TwoProcessScenario,
) -> bool:
    """C⁻¹ cascades into conflicting locks acquired after the original."""
    reserved = scenario.older.launch("alpha")
    first = scenario.protocol.request_activity_lock(
        scenario.older, reserved, LockMode.C
    )
    if not isinstance(first, Grant):
        return False
    scenario.older.on_committed(reserved)
    second = scenario.request(scenario.younger, "alpha", LockMode.C)
    if not isinstance(second, Grant):
        return True  # no sharing to cascade into
    failed = scenario.older.launch("beta")
    plan = scenario.older.on_failed(failed)
    comp = scenario.older.make_compensation(plan.compensations[0])
    outcome = scenario.protocol.request_compensation_lock(
        scenario.older, comp
    )
    return isinstance(outcome, (AbortVictims, Defer))


def _check_release_unblocks(scenario: TwoProcessScenario) -> bool:
    """Detaching a holder makes its locks available again."""
    decision = scenario.request(scenario.older, "omega", LockMode.P)
    if not isinstance(decision, Grant):
        return False
    scenario.protocol.detach(scenario.older)
    return isinstance(
        scenario.request(scenario.younger, "omega", LockMode.P), Grant
    )


CHECKS: list[tuple[str, Callable[[TwoProcessScenario], bool], str]] = [
    ("c-shares-behind-older-c", _check_shares_behind_older_c,
     "ordered sharing of C locks in timestamp order"),
    ("c-shares-behind-older-p", _check_shares_behind_older_p,
     "C locks may follow an older P lock"),
    ("p-exclusive-behind-c", _check_p_exclusive_behind_c,
     "P locks are exclusive against held C locks"),
    ("p-p-exclusive", _check_p_p_exclusive,
     "P locks are mutually exclusive"),
    ("early-verification", _check_early_verification,
     "timestamp-order violations resolved at acquisition time"),
    ("commit-respects-hold", _check_commit_respects_hold,
     "no commit while a lock is on hold (relinquish rule)"),
    ("compensation-cascades", _check_compensation_wounds_later_sharers,
     "C⁻¹ reaches conflicting locks acquired after the original"),
    ("release-unblocks", _check_release_unblocks,
     "termination releases every lock"),
]


def run_conformance(
    factory: ProtocolFactory, protocol_name: str = "protocol"
) -> ConformanceReport:
    """Run the full check battery against a protocol factory.

    Each check gets a completely fresh environment (registry, conflict
    matrix, protocol instance, two processes with ascending timestamps).
    """
    report = ConformanceReport(protocol_name=protocol_name)
    for name, check, description in CHECKS:
        scenario = TwoProcessScenario(factory)
        try:
            passed = bool(check(scenario))
        except Exception:
            passed = False
        report.checks.append(
            ConformanceCheck(
                name=name, description=description, passed=passed
            )
        )
    return report
