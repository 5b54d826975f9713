"""Durable files: atomic writes, checkpoint generations and quarantine.

Campaign and exact-sweep checkpoints and the service's job and verdict
records are all written by :func:`write_atomic`.  Checkpoints add the
:func:`pack_checkpoint` CRC container and a ``<path>.prev`` generation,
so a kill at any instant leaves one intact; :func:`load_checkpoint`
falls back to it and quarantines a corrupt one to ``.corrupt``.  What a
checkpoint holds, and the checks on it, stay with its owner.
"""

from __future__ import annotations

import io
import json
import os
import struct
import tempfile
import zipfile
import zlib
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.chaos import DEFAULT_RETRY, FaultPlane, RetryPolicy, retry_io
from repro.errors import CheckpointCorrupt, CheckpointError

Hook = Callable[[str, Dict], None]

#: Leading magic of the checkpoint integrity container.
CHECKPOINT_MAGIC = b"RPCKPT01"


def _write_npz(file, members: Dict[str, object]) -> None:
    """An uncompressed NPZ, byte for byte as ``np.savez`` writes it.

    A member is an array or ``(dtype, shape, chunks)``, the array being
    the concatenation of its chunks: each chunk is written straight from
    its buffer, so the whole array never exists.
    """
    with zipfile.ZipFile(file, "w", zipfile.ZIP_STORED, True) as archive:
        for name, member in members.items():
            if isinstance(member, np.ndarray):
                member = (member.dtype, member.shape, [member])
            dtype, shape, chunks = member
            header = {
                "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
                "fortran_order": False,
                "shape": shape,
            }
            with archive.open(f"{name}.npy", "w", force_zip64=True) as out:
                np.lib.format.write_array_header_1_0(out, header)
                for chunk in chunks:
                    chunk = np.ascontiguousarray(chunk, dtype=dtype)
                    out.write(memoryview(chunk).cast("B"))


def pack_checkpoint(payload: bytes) -> bytes:
    """Wrap an NPZ payload in the CRC32 integrity container.

    Layout: 8-byte magic, ``<IQ`` (CRC32 of the payload, payload length),
    payload.  The length catches torn/truncated writes cheaply; the CRC
    catches bit rot and flipped bits anywhere in the payload.
    """
    header = struct.pack(
        "<IQ", zlib.crc32(payload) & 0xFFFFFFFF, len(payload)
    )
    return CHECKPOINT_MAGIC + header + payload


def unpack_checkpoint(blob: bytes, path: str = "<memory>") -> bytes:
    """Verify a checkpoint container and return its NPZ payload.

    Raises :class:`CheckpointCorrupt` on any integrity failure (bad magic,
    torn payload, CRC mismatch).  A blob starting with the zip magic is a
    legacy bare-NPZ checkpoint (pre-container) and passes through
    unchecked -- NPZ's own zip CRCs still apply when it is parsed.
    """
    if blob[:2] == b"PK":
        return blob
    header_len = len(CHECKPOINT_MAGIC) + struct.calcsize("<IQ")
    if len(blob) < header_len or not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointCorrupt(
            f"checkpoint {path!r} has no valid container header"
        )
    crc, length = struct.unpack_from("<IQ", blob, len(CHECKPOINT_MAGIC))
    payload = blob[header_len:]
    if len(payload) != length:
        raise CheckpointCorrupt(
            f"checkpoint {path!r} is torn: {len(payload)} of {length} "
            "payload bytes present"
        )
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise CheckpointCorrupt(
            f"checkpoint {path!r} failed its CRC32 integrity check"
        )
    return payload


def write_atomic(
    path: str,
    data: bytes,
    *,
    site: str,
    retry: RetryPolicy = DEFAULT_RETRY,
    fault_plane: Optional[FaultPlane] = None,
    hook: Optional[Hook] = None,
    rotate: bool = False,
) -> None:
    """Replace ``path`` by ``data`` via an fsync'd same-directory temp file.

    ``rotate`` first moves the current file to ``<path>.prev``.  Chaos
    faults fire at ``site``; the last :class:`OSError` after ``retry``
    propagates for the caller to wrap in its typed error.
    """
    directory = os.path.dirname(os.path.abspath(path))

    def attempt() -> None:
        payload = data
        if fault_plane is not None:
            # An injected EIO retries; torn or flipped bytes "write fine".
            payload = fault_plane.filter_write(site, payload)
        fd, tmp_path = tempfile.mkstemp(
            prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            if rotate and os.path.exists(path):
                os.replace(path, path + ".prev")
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

    retry_io(attempt, retry, site=site, hook=hook)


def quarantine(path: str) -> Optional[str]:
    """Move a file that failed verification to ``<path>.corrupt``, kept
    for post-mortems; its new name, or ``None`` if the move failed."""
    try:
        os.replace(path, path + ".corrupt")
    except OSError:  # pragma: no cover - quarantine is best-effort
        return None
    return path + ".corrupt"


def checkpoint_exists(path: str) -> bool:
    """True when either generation of the checkpoint is on disk."""
    return os.path.exists(path) or os.path.exists(path + ".prev")


def discard_checkpoint(path: str) -> None:
    """Remove both generations of a checkpoint (quarantined files stay)."""
    for candidate in (path, path + ".prev"):
        if os.path.exists(candidate):
            os.unlink(candidate)


def save_checkpoint(
    path: str,
    members: Dict[str, object],
    *,
    retry: RetryPolicy = DEFAULT_RETRY,
    fault_plane: Optional[FaultPlane] = None,
    hook: Optional[Hook] = None,
) -> None:
    """Write the NPZ ``members`` as the current checkpoint generation.

    ``members`` is emptied once the in-memory NPZ holds it, so at most
    two serialized copies exist at once.  Chaos site ``checkpoint.write``;
    raises :class:`CheckpointError` when the write fails after ``retry``.
    """
    buffer = io.BytesIO()
    _write_npz(buffer, members)
    members.clear()
    with buffer.getbuffer() as payload:
        blob = pack_checkpoint(payload)
    del buffer
    try:
        write_atomic(
            path, blob, site="checkpoint.write", retry=retry,
            fault_plane=fault_plane, hook=hook, rotate=True,
        )
    except OSError as exc:
        raise CheckpointError(
            f"could not write checkpoint {path!r}: {exc}"
        ) from exc


def read_checkpoint(
    path: str,
    parse: Callable[[Dict, object], object],
    *,
    fingerprint: object,
    versions: Tuple[int, ...],
    retry: RetryPolicy = DEFAULT_RETRY,
    fault_plane: Optional[FaultPlane] = None,
    hook: Optional[Hook] = None,
):
    """``parse(meta, data)`` of one checkpoint file, ``data`` the open NPZ.

    A file whose ``meta`` names another version or ``fingerprint`` raises
    :class:`CheckpointError`: resuming it would mix incompatible results.
    So does a :class:`CheckpointError` from ``parse``.  Any other failure
    -- unreadable after ``retry`` (chaos site ``checkpoint.read``), bad
    container, zip, JSON or member, or an error inside ``parse`` -- raises
    :class:`CheckpointCorrupt`.
    """

    def read_attempt() -> bytes:
        if fault_plane is not None:
            fault_plane.maybe_fail("checkpoint.read")
        with open(path, "rb") as handle:
            return handle.read()

    try:
        blob = retry_io(read_attempt, retry, site="checkpoint.read", hook=hook)
    except OSError as exc:
        raise CheckpointCorrupt(
            f"could not read checkpoint {path!r}: {exc}"
        ) from exc
    payload = unpack_checkpoint(blob, path)
    try:
        with np.load(io.BytesIO(payload)) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            if meta.get("version") not in versions:
                raise CheckpointError(
                    f"checkpoint {path!r} has version "
                    f"{meta.get('version')!r}, expected one of {versions}"
                )
            if meta.get("fingerprint") != fingerprint:
                raise CheckpointError(
                    f"checkpoint {path!r} was written with a different "
                    "configuration; refusing to mix incompatible results"
                )
            return parse(meta, data)
    except CheckpointError:
        raise
    except Exception as exc:  # zip/JSON/member/table errors -> corrupt file
        raise CheckpointCorrupt(
            f"could not parse checkpoint {path!r}: {exc}"
        ) from exc


def load_checkpoint(
    path: str, load: Callable[[str], object], hook: Optional[Hook] = None
):
    """``load`` of the newest intact generation of ``path``, or ``None``.

    Tries ``path``, then ``<path>.prev``.  A generation ``load`` finds
    :class:`CheckpointCorrupt` is quarantined (``checkpoint_corrupt``) and
    the next one takes over; ``checkpoint_fallback`` names the one used,
    ``"prev"``, or ``"fresh"`` when none is left.  Any other
    :class:`CheckpointError` -- a configuration mismatch -- propagates:
    falling back on it would mix incompatible results.
    """
    if not checkpoint_exists(path):
        return None
    emit = hook if hook is not None else (lambda event, payload: None)
    for candidate in (path, path + ".prev"):
        if not os.path.exists(candidate):
            continue
        try:
            value = load(candidate)
        except CheckpointCorrupt as exc:
            moved = quarantine(candidate)
            emit(
                "checkpoint_corrupt",
                {"path": candidate, "quarantine": moved, "error": str(exc)},
            )
            continue
        if candidate != path:
            emit(
                "checkpoint_fallback",
                {"path": candidate, "generation": "prev"},
            )
        return value
    emit("checkpoint_fallback", {"path": path, "generation": "fresh"})
    return None
