"""Look inside, and damage, the one commit log of a ``log`` store.

Every appended namespace shares ``commit.log`` (``docs/persistence.md``),
so a test that wants one namespace's bytes, a frame boundary or a byte
to flip reads the log's framing here.
"""

from __future__ import annotations

from pathlib import Path

from repro.storage.backend import scan_log
from repro.storage.codec import encode_frame

LOG_FILE = "commit.log"


def log_path(root) -> Path:
    return Path(root) / LOG_FILE


def log_frames(data: bytes) -> list[tuple[str, bytes, int]]:
    """``(namespace, payload, end offset)`` of every complete data
    frame of the log bytes ``data``, in file order."""
    scan, _, owners = scan_log(data)
    return [
        (owner, payload, end)
        for owner, payload, end in zip(owners, scan.payloads, scan.ends)
        if owner is not None
    ]


def boundaries(data: bytes) -> list[int]:
    """Every frame boundary of the log bytes ``data``, 0 included."""
    return [0, *scan_log(data)[0].ends]


def payloads_of(root, namespace: str) -> list[bytes]:
    return [
        payload
        for name, payload, _ in log_frames(log_path(root).read_bytes())
        if name == namespace
    ]


def namespace_bytes(root, namespace: str) -> bytes:
    """``namespace``'s frames without their tags, end to end: the
    bytes of the file it had to itself before format 3."""
    return b"".join(map(encode_frame, payloads_of(root, namespace)))


def flip_payload_byte(root, namespace: str) -> None:
    """Flip the last payload byte of ``namespace``'s first frame."""
    path = log_path(root)
    data = bytearray(path.read_bytes())
    end = next(
        end
        for name, _, end in log_frames(bytes(data))
        if name == namespace
    )
    data[end - 1] ^= 0xFF
    path.write_bytes(bytes(data))
