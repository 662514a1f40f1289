"""Durable persistence for the process-locking system.

The paper assumes the bottom-layer subsystems are real transactional
systems that survive crashes; this package makes the reproduction live
up to that.  A :class:`~repro.storage.facade.Store` (an append-only
CRC32-framed log — see :mod:`repro.storage.backend`) persists the
subsystems' committed transactions, one redo frame each, and the
process manager's state as
a logical redo journal with periodic snapshots; the
:class:`~repro.storage.plane.PersistencePlane` replays all of it
through the existing crash-recovery machinery on restart, so a
``kill -9``'d server comes back and drives every in-flight process to
commit or compensation.

Configure with the ``REPRO_STORE*`` knobs (:mod:`repro.config`) or
``repro serve --store``; inspect with ``repro store``.
"""

from repro.storage.backend import FSYNC_POLICIES, AppendLogBackend
from repro.storage.codec import ScanResult, encode_frame, scan_frames
from repro.storage.facade import FrameRepository, Store
from repro.storage.journal import ProgramCodec
from repro.storage.plane import PersistencePlane, RecoveryInfo

__all__ = [
    "FSYNC_POLICIES",
    "AppendLogBackend",
    "FrameRepository",
    "PersistencePlane",
    "ProgramCodec",
    "RecoveryInfo",
    "ScanResult",
    "Store",
    "encode_frame",
    "scan_frames",
]
