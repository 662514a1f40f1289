"""Binary framing for the append-only log backend.

Every record is stored as one self-validating frame::

    +----------------+----------------+===========+
    | length (u32 BE)| crc32 (u32 BE) |  payload  |
    +----------------+----------------+===========+

``length`` counts payload bytes only; ``crc32`` is over the payload.
A **tagged** frame — the commit log's, which interleaves every appended
namespace in one file — spends the first payload byte on the id of the
namespace the rest belongs to, inside the length and under the CRC; the
backend declares which name an id stands for (:mod:`repro.storage.backend`).
The frame shape gives crash recovery a clean split:

* a **torn tail** — fewer bytes on disk than the last frame claims
  (header cut short, or payload cut short) — is the signature of a
  crash mid-append.  :func:`scan_frames` reports where the good prefix
  ends so the caller can truncate deterministically; every byte-level
  prefix truncation of a valid log lands here, never in corruption.
* a **corrupt frame** — a *complete* frame whose CRC32 does not match
  its payload — can only come from bit rot or tampering, never from an
  interrupted append, and raises
  :class:`~repro.errors.WalCorruptionError`.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from repro.errors import WalCorruptionError

#: Frame header: payload length and payload CRC32, both big-endian u32.
_HEADER = struct.Struct(">II")
HEADER_SIZE = _HEADER.size

#: Refuse absurd frame lengths outright — a header claiming gigabytes
#: is corruption (or an attempt to make recovery allocate one), not a
#: record this system ever wrote.
MAX_FRAME_PAYLOAD = 64 * 1024 * 1024


def encode_frame(payload: bytes, tag: bytes = b"") -> bytes:
    """One durable frame for ``payload``, behind ``tag`` when given."""
    length = len(tag) + len(payload)
    if length > MAX_FRAME_PAYLOAD:
        raise WalCorruptionError(
            f"refusing to encode a {length}-byte frame "
            f"(cap {MAX_FRAME_PAYLOAD})"
        )
    header = _HEADER.pack(length, zlib.crc32(payload, zlib.crc32(tag)))
    return header + tag + payload


@dataclass
class ScanResult:
    """Outcome of walking a byte string frame by frame."""

    payloads: list[bytes] = field(default_factory=list)
    #: Of a tagged scan: each frame's tag byte, beside its payload.
    tags: list[int] = field(default_factory=list)
    #: Offset just past each frame (the frame boundaries).
    ends: list[int] = field(default_factory=list)
    #: Bytes covered by complete, CRC-valid frames (the truncation
    #: point when the tail is torn).
    good_bytes: int = 0
    #: Bytes past ``good_bytes`` belonging to an incomplete last frame.
    torn_bytes: int = 0

    @property
    def torn(self) -> bool:
        return self.torn_bytes > 0


def scan_frames(
    data: bytes, namespace: str = "", tagged: bool = False
) -> ScanResult:
    """Decode every complete frame of ``data``; with ``tagged``, split
    each payload's first byte off into ``tags``.

    Raises
    ------
    WalCorruptionError
        On a complete frame whose CRC32 does not match, or whose header
        claims an impossible length while enough bytes follow for the
        header itself, or (tagged) that has no tag byte.  An incomplete
        frame at the very end is reported as a torn tail instead.
    """
    result = ScanResult()
    view = memoryview(data)
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < HEADER_SIZE:
            result.torn_bytes = total - offset
            return result
        length, crc = _HEADER.unpack_from(data, offset)
        if length > MAX_FRAME_PAYLOAD:
            raise WalCorruptionError(
                f"frame at offset {offset} claims {length} payload "
                f"bytes (cap {MAX_FRAME_PAYLOAD})",
                namespace=namespace,
                offset=offset,
            )
        end = offset + HEADER_SIZE + length
        if end > total:
            result.torn_bytes = total - offset
            return result
        start = offset + HEADER_SIZE
        if zlib.crc32(view[start:end]) != crc:
            raise WalCorruptionError(
                f"frame at offset {offset} fails its CRC32 check "
                f"({length} payload bytes)",
                namespace=namespace,
                offset=offset,
            )
        if tagged:
            if not length:
                raise WalCorruptionError(
                    f"frame at offset {offset} carries no tag",
                    namespace=namespace,
                    offset=offset,
                )
            result.tags.append(data[start])
            start += 1
        result.payloads.append(data[start:end])
        result.ends.append(end)
        offset = end
        result.good_bytes = offset
    return result
