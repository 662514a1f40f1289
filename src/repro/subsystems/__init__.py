"""Transactional subsystems: the CPSR + ACA bottom layer of the model."""

from repro.subsystems.lock_manager import DataLockManager, DataLockMode
from repro.subsystems.programs import (
    Operation,
    OpKind,
    ProgramCatalog,
    TransactionProgram,
    inverse_program,
)
from repro.subsystems.storage import DurableRecordStore, RecordStore
from repro.subsystems.subsystem import SubsystemPool, TransactionalSubsystem
from repro.subsystems.transactions import Transaction, TransactionState

__all__ = [
    "DataLockManager",
    "DataLockMode",
    "DurableRecordStore",
    "Operation",
    "OpKind",
    "ProgramCatalog",
    "RecordStore",
    "SubsystemPool",
    "Transaction",
    "TransactionProgram",
    "TransactionState",
    "TransactionalSubsystem",
    "inverse_program",
]
