"""Scatter/gather payload references: zero-copy plumbing for the data path.

The paper's argument is that copies are what kill in-kernel data paths.
The simulator models that argument faithfully in *simulated time* (every
modeled copy charges CPU nanoseconds through :meth:`repro.hw.cpu.Cpu.
copy`), but until this module existed it also paid the copies *for
real*: every hop of the data path materialized a fresh Python ``bytes``
object — gather-join on send, ``bytes(view)`` casts on scatter,
read-then-rewrite staging in every relay.  A :class:`PayloadRef` is the
cure: an immutable, ordered list of ``memoryview`` spans over page
frames that flows from the sender's source pages through the NIC, the
wire, and the receiver's scatter without ever being joined.  Bytes are
materialized (:meth:`PayloadRef.tobytes`) only at true sinks.

The cardinal rule of the whole refactor: **model costs are charged, host
copies are not.**  Nothing in this module touches ``cpu.copy`` or any
other simulated-time charge; it only changes what the host Python
process does, so every figure stays byte-identical.

:data:`HOST_COPIES` lives here because every layer feeds it: a
process-wide meter counting *real* host byte-copies (frame
reads/writes, joins, casts, COW detaches).  Zeros written into a frame
that has no storage yet are not copies at all — the frame already reads
as zeros — so they are elided and not counted
(:meth:`repro.mem.phys.Frame.write`).  The data-path benchmark reads it
to prove the copies are gone, and CI pins a per-byte budget on it
(deterministic, unlike wall-clock).  It measures the host, not the
simulation, so no run resets it: every metrics registry publishes the
copies made since that registry was created.

In-flight safety: a view taken from a :class:`repro.mem.phys.Frame`
marks the frame *shared*; the frame's next write detaches its storage
first (copy-on-write), so a sender recycling its transmit buffer can
never corrupt a payload still on the simulated wire.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence
from zlib import crc32

from ..obs import registry as obs_registry


class CopyAccounting:
    """Counts real host byte-copies performed by the simulator.

    ``copies`` is the number of copy operations, ``nbytes`` the bytes
    they moved.  Purely observational: nothing in the model reads it.
    """

    __slots__ = ("copies", "nbytes")

    def __init__(self) -> None:
        self.copies = 0
        self.nbytes = 0

    def count(self, nbytes: int) -> None:
        if nbytes > 0:
            self.copies += 1
            self.nbytes += nbytes

    def snapshot(self) -> dict:
        return {"copies": self.copies, "nbytes": self.nbytes}


#: The process-wide copy meter (see module docstring).
HOST_COPIES = CopyAccounting()


def _start_host_copies(registry):
    """Publish the :data:`HOST_COPIES` made since ``registry`` was
    created into it at snapshot time.  Pull-style on purpose: the
    counting hot path stays two plain integer adds (repro.mem.phys
    inlines them), and the perf-smoke CI gate keeps reading the exact
    same numbers through the meter."""
    copies0, nbytes0 = HOST_COPIES.copies, HOST_COPIES.nbytes

    def collect(reg) -> None:
        reg.gauge("mem.host_copies.ops").set(HOST_COPIES.copies - copies0)
        reg.gauge("mem.host_copies.bytes").set(HOST_COPIES.nbytes - nbytes0)

    return collect


obs_registry.register_collector(_start_host_copies)


class PayloadRef:
    """An immutable scatter/gather reference to payload bytes.

    Holds an ordered tuple of non-empty chunk spans (``bytes`` or
    read-only ``memoryview`` objects over page frames).  All slicing and
    concatenation is zero-copy; :meth:`tobytes` is the only materializer
    and is meant for true sinks (file stores, trace renderers, tests).
    """

    __slots__ = ("_chunks", "length")

    def __init__(self, chunks: Sequence = (), _trusted: bool = False):
        if _trusted:
            self._chunks = tuple(chunks)
        else:
            self._chunks = tuple(c for c in chunks if len(c))
        self.length = sum(map(len, self._chunks))

    # -- builders ---------------------------------------------------------

    @classmethod
    def empty(cls) -> "PayloadRef":
        return _EMPTY

    @classmethod
    def from_bytes(cls, data: "bytes | bytearray | memoryview") -> "PayloadRef":
        """Wrap an existing bytes-like (no copy)."""
        if not len(data):
            return _EMPTY
        return cls((data,), _trusted=True)

    @classmethod
    def from_chunks(cls, chunks: Iterable) -> "PayloadRef":
        """Build from an iterable of chunk spans (empties dropped)."""
        return cls(tuple(chunks))

    @classmethod
    def from_phys(cls, phys, sg) -> "PayloadRef":
        """Gather a physical scatter/gather list into chunk views.

        ``sg`` is any iterable of segments with ``phys_addr``/``length``
        (duck-typed to avoid importing :mod:`repro.mem.layout`).  This is
        what a DMA gather engine reads — views are taken *now*, so later
        writes to the source frames do not alter the payload (the frames
        detach copy-on-write).
        """
        chunks: list = []
        for seg in sg:
            if seg.length:
                chunks.extend(phys.read_phys_view(seg.phys_addr, seg.length))
        return cls(tuple(chunks), _trusted=True)

    @classmethod
    def concat(cls, parts: Iterable["PayloadRef"]) -> "PayloadRef":
        """Concatenate payloads (zero-copy; chunk lists are spliced)."""
        chunks: list = []
        for part in parts:
            chunks.extend(part._chunks)
        if not chunks:
            return _EMPTY
        return cls(tuple(chunks), _trusted=True)

    # -- zero-copy access -------------------------------------------------

    def chunks(self) -> "tuple":
        """The underlying chunk spans, in payload order."""
        return self._chunks

    def slice(self, start: int, length: Optional[int] = None) -> "PayloadRef":
        """Zero-copy sub-range ``[start, start+length)``, clamped to the
        payload like bytes slicing (``length=None`` means to the end)."""
        if start < 0:
            raise ValueError(f"negative slice start {start}")
        start = min(start, self.length)
        end = self.length if length is None else min(start + max(0, length), self.length)
        if start == 0 and end == self.length:
            return self
        if start >= end:
            return _EMPTY
        out: list = []
        pos = 0
        for chunk in self._chunks:
            clen = len(chunk)
            if pos + clen <= start:
                pos += clen
                continue
            lo = max(0, start - pos)
            hi = min(clen, end - pos)
            if lo == 0 and hi == clen:
                out.append(chunk)
            else:
                view = chunk if isinstance(chunk, memoryview) else memoryview(chunk)
                out.append(view[lo:hi])
            pos += clen
            if pos >= end:
                break
        return PayloadRef(tuple(out), _trusted=True)

    # -- sinks ------------------------------------------------------------

    def tobytes(self) -> bytes:
        """Materialize to one ``bytes`` object (a real, counted copy —
        call this only at true sinks)."""
        if not self._chunks:
            return b""
        if len(self._chunks) == 1 and type(self._chunks[0]) is bytes:
            return self._chunks[0]  # already materialized; no copy
        HOST_COPIES.count(self.length)
        return b"".join(self._chunks)

    def checksum(self) -> int:
        """CRC32 over the content without joining (fault layer, tests)."""
        crc = 0
        for chunk in self._chunks:
            crc = crc32(chunk, crc)
        return crc & 0xFFFFFFFF

    # -- bytes-like protocol ----------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __bytes__(self) -> bytes:
        return self.tobytes()

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self.length)
            if step != 1:
                raise ValueError("PayloadRef slices must have step 1")
            return self.slice(start, stop - start)
        if key < 0:
            key += self.length
        if not 0 <= key < self.length:
            raise IndexError("PayloadRef index out of range")
        pos = 0
        for chunk in self._chunks:
            if key < pos + len(chunk):
                return chunk[key - pos]
            pos += len(chunk)
        raise IndexError("PayloadRef index out of range")  # pragma: no cover

    def __repr__(self) -> str:
        return f"PayloadRef(length={self.length}, chunks={len(self._chunks)})"


_EMPTY = PayloadRef((), _trusted=True)
