"""Regeneration of the paper's exhibits (Tables 1–2, Figure 1).

* **Table 1** is rendered from the activity model's constraint checks:
  the registry enforces exactly the cost/failure-probability ranges the
  table states, and :func:`table1_text` prints them.
* **Table 2** is *derived empirically*: :func:`derive_lock_compatibility`
  drives the conformance suite's two-process scenario through a live
  :class:`~repro.core.protocol.ProcessLockManager` and observes which
  held/acquired combinations are ordered-shared (granted) versus
  exclusive (deferred/aborted).  The derived matrix must equal the
  paper's.
* **Figure 1** is reproduced by tracing the dynamic-pivot-determination
  algorithm over a scripted process (:func:`figure1_text`).
"""

from __future__ import annotations

from repro.activities.registry import ActivityRegistry
from repro.analysis.tables import render_table
from repro.core.conformance import TwoProcessScenario
from repro.core.cost_based import Figure1Step, figure1_trace
from repro.core.decisions import Grant
from repro.core.locks import LockMode
from repro.core.protocol import ProcessLockManager

#: The paper's Table 2: (held, acquired) -> ordered shared?
PAPER_TABLE2: dict[tuple[LockMode, LockMode], bool] = {
    (LockMode.C, LockMode.C): True,
    (LockMode.C, LockMode.P): False,
    (LockMode.P, LockMode.C): True,
    (LockMode.P, LockMode.P): False,
}


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------
def table1_text() -> str:
    """Render Table 1 (activity classes and their constraints)."""
    rows = [
        ("compensatable a^c", "0 < c(a) < inf", "0 <= p(a) < 1",
         "0 <= c(a^-1) < inf"),
        ("pivot a^p", "0 < c(a) < inf", "0 <= p(a) < 1",
         "c(a^-1) = inf"),
        ("retriable a^r", "0 < c(a) < inf", "p(a) = 0",
         "0 <= c(a^-1) <= inf"),
        ("compensating a^-1", "0 <= c(a) < inf", "p(a) = 0",
         "c((a^-1)^-1) = inf"),
    ]
    return render_table(
        ["activity class", "execution cost", "failure probability",
         "compensation cost"],
        rows,
        title="Table 1: execution costs and failure probabilities",
    )


# ----------------------------------------------------------------------
# Table 2 (empirical derivation)
# ----------------------------------------------------------------------
def derive_lock_compatibility() -> dict[tuple[LockMode, LockMode], bool]:
    """Observe the protocol's held/acquired compatibility empirically.

    For each combination, a fresh :class:`TwoProcessScenario` on a live
    :class:`ProcessLockManager`: the *older* process takes a lock of the
    held mode (``alpha`` / C or ``omega`` / P), then the *younger* one
    asks for a conflicting lock of the acquired mode; the combination is
    ordered-shared iff the request is granted immediately.
    """
    names = {LockMode.C: "alpha", LockMode.P: "omega"}
    observed: dict[tuple[LockMode, LockMode], bool] = {}
    for held in (LockMode.C, LockMode.P):
        for acquired in (LockMode.C, LockMode.P):
            scenario = TwoProcessScenario(ProcessLockManager)
            decision = scenario.request(scenario.older, names[held], held)
            assert isinstance(decision, Grant)
            outcome = scenario.request(
                scenario.younger, names[acquired], acquired
            )
            observed[(held, acquired)] = isinstance(outcome, Grant)
    return observed


def table2_text(
    observed: dict[tuple[LockMode, LockMode], bool] | None = None,
) -> str:
    """Render the (derived) lock compatibility matrix like Table 2."""
    matrix = observed if observed is not None else (
        derive_lock_compatibility()
    )

    def cell(held: LockMode, acquired: LockMode) -> str:
        return "ordered-shared" if matrix[(held, acquired)] else (
            "exclusive"
        )

    rows = [
        ("C lock held", cell(LockMode.C, LockMode.C),
         cell(LockMode.C, LockMode.P)),
        ("P lock held", cell(LockMode.P, LockMode.C),
         cell(LockMode.P, LockMode.P)),
    ]
    return render_table(
        ["held \\ acquired", "C lock", "P lock"],
        rows,
        title="Table 2: compatibility matrix of C and P locks (derived)",
    )


# ----------------------------------------------------------------------
# Figure 1
# ----------------------------------------------------------------------
def build_figure1_demo() -> tuple[ActivityRegistry, list[str], float]:
    """The scripted process used to trace Figure 1.

    Five steps with costs chosen so the threshold (40) is crossed at the
    third activity — the pseudo pivot — while the fifth is a real pivot.
    """
    registry = ActivityRegistry()
    registry.define_compensatable("collect_order", "shop", cost=3.0,
                                  compensation_cost=1.0)
    registry.define_compensatable("reserve_stock", "shop", cost=8.0,
                                  compensation_cost=4.0)
    registry.define_compensatable("prepare_shipment", "shop", cost=20.0,
                                  compensation_cost=10.0)
    registry.define_compensatable("print_documents", "shop", cost=2.0,
                                  compensation_cost=1.0)
    registry.define_pivot("charge_customer", "bank", cost=1.0)
    names = [
        "collect_order",
        "reserve_stock",
        "prepare_shipment",
        "print_documents",
        "charge_customer",
    ]
    return registry, names, 40.0


def figure1_text(steps: list[Figure1Step] | None = None) -> str:
    """Render the Figure-1 dynamic-pivot-determination trace."""
    if steps is None:
        registry, names, threshold = build_figure1_demo()
        steps = figure1_trace(registry, names, threshold)
    lines = [
        "Figure 1: dynamic pivot determination "
        "(cost-based process scheduling)"
    ]
    lines.extend(step.describe() for step in steps)
    return "\n".join(lines)


def all_exhibits_text() -> str:
    """Every paper exhibit, regenerated, in one report."""
    parts = [table1_text(), "", table2_text(), "", figure1_text()]
    return "\n".join(parts)
