"""Transaction programs: the concrete implementations behind activities.

Every activity type maps to a :class:`TransactionProgram` — a fixed list of
read and write operations against the records of one subsystem.  This is
the "black box" the process manager never looks inside; the library uses
the programs to (a) actually mutate subsystem state during simulation and
(b) *derive* the type-level conflict matrix ``CON`` from read/write sets
instead of postulating it.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import SubsystemError
from repro.subsystems.transactions import Transaction


class OpKind(enum.Enum):
    READ = "read"
    WRITE = "write"


def _increment(value: object) -> object:
    return (value or 0) + 1  # type: ignore[operator]


def _decrement(value: object) -> object:
    return (value or 0) - 1  # type: ignore[operator]


@dataclass(frozen=True)
class Operation:
    """One read or write step of a transaction program."""

    kind: OpKind
    key: str
    update: Callable[[object], object] = field(
        default=_increment, compare=False
    )

    @staticmethod
    def read(key: str) -> "Operation":
        return Operation(OpKind.READ, key)

    @staticmethod
    def write(
        key: str, update: Callable[[object], object] = _increment
    ) -> "Operation":
        return Operation(OpKind.WRITE, key, update)


@dataclass(frozen=True)
class TransactionProgram:
    """A named, fixed sequence of operations on one subsystem."""

    name: str
    operations: tuple[Operation, ...]

    def run(self, txn: Transaction) -> list[object]:
        """Execute all operations within ``txn``; returns read values."""
        results: list[object] = []
        for op in self.operations:
            if op.kind is OpKind.READ:
                results.append(txn.read(op.key))
            else:
                txn.write(op.key, op.update)
        return results

    @property
    def read_set(self) -> frozenset[str]:
        return frozenset(
            op.key for op in self.operations if op.kind is OpKind.READ
        )

    @property
    def write_set(self) -> frozenset[str]:
        return frozenset(
            op.key for op in self.operations if op.kind is OpKind.WRITE
        )

    def conflicts_with(self, other: "TransactionProgram") -> bool:
        """Data-level conflict test: one writes what the other touches."""
        return bool(
            self.write_set & (other.read_set | other.write_set)
            or other.write_set & (self.read_set | self.write_set)
        )


def inverse_program(
    program: TransactionProgram, name: str | None = None
) -> TransactionProgram:
    """Build a compensating program touching the same records.

    Writes are replaced by decrements (the semantic inverse of the default
    increment), reads are dropped — compensation of a pure read is a no-op,
    mirroring the paper's remark that compensation cost may be zero.
    """
    ops = tuple(
        Operation.write(op.key, _decrement)
        for op in program.operations
        if op.kind is OpKind.WRITE
    )
    return TransactionProgram(
        name=name or f"{program.name}^-1", operations=ops
    )


class ProgramCatalog:
    """Registry mapping activity type names to transaction programs."""

    def __init__(self) -> None:
        self._programs: dict[str, TransactionProgram] = {}

    def register(self, activity_name: str, program: TransactionProgram) -> None:
        if activity_name in self._programs:
            raise SubsystemError(
                f"activity {activity_name!r} already has a transaction "
                "program"
            )
        self._programs[activity_name] = program

    def get(self, activity_name: str) -> TransactionProgram:
        try:
            return self._programs[activity_name]
        except KeyError:
            raise SubsystemError(
                f"no transaction program registered for activity "
                f"{activity_name!r}"
            ) from None

    def __contains__(self, activity_name: str) -> bool:
        return activity_name in self._programs
