"""Shared-memory chunk rings: numeric payloads cross the wire without pickle.

A :class:`ChunkRing` is one ``multiprocessing.shared_memory`` segment per
shard, owned (created, recycled and unlinked) by the *parent* and attached
read-only-by-convention by exactly one worker.  The parent copies a chunk's
array bytes into the ring and ships a tiny :class:`PayloadRef` descriptor
(offset, byte count, dtype, shape) inside the wire frame; the worker
rebuilds the array straight off the segment.  The payload bytes therefore
never pass through ``pickle`` or the command queue's pipe — one ``memcpy``
in, one out, instead of serialise → pipe write → deserialise per chunk.

Allocation is a classic ring: payloads are written at the head, and because
each shard's command queue and reply pipe are FIFO, acknowledgements free
them in (nearly) allocation order, so the tail simply chases the head.
Out-of-order frees (a ``WorkerFailure`` consuming one chunk of a frame) are
tolerated by marking the block and advancing the tail over every
contiguously-freed block.  When the ring is full — or a payload is bigger
than the segment — the caller falls back to carrying the array inline in
the (pickled) frame, so the ring is purely an optimisation and never a
correctness dependency.

Lifecycle discipline, enforced by :class:`~repro.cluster.sharding.ProcessShardExecutor`:

* the parent creates one ring per shard *process generation* and unlinks it
  when that generation ends — clean shutdown, crash-triggered respawn,
  shrink, or retirement — so a SIGKILLed worker can never leak a segment
  (the parent still holds it);
* the worker attaches by name at startup and detaches on clean exit; a
  worker death (clean or killed) never unlinks anything, because the
  resource tracker process is shared with — and outlives — the workers
  (see :meth:`ChunkRing.attach`);
* should the *parent* itself die abnormally, the resource tracker unlinks
  every segment it created — nothing survives the process tree.
"""

from __future__ import annotations

import secrets
import threading
from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

#: Prefix of every ring segment name (what the leak tests scan /dev/shm for).
RING_NAME_PREFIX = "repro-ring-"

#: Per-shard ring capacity.  A serving chunk is a few KiB (200
#: float64 observations is 1.6 KiB), so 4 MiB holds far more chunks than the
#: executor's in-flight bound ever admits; bigger payloads just fall back.
DEFAULT_RING_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class PayloadRef:
    """Where one array's bytes live inside a ring (wire-safe descriptor)."""

    offset: int
    nbytes: int
    dtype: str
    shape: tuple


class RingFull(Exception):
    """The ring has no contiguous room for this payload (caller falls back)."""


class ChunkRing:
    """One shared-memory segment with ring-buffer allocation of array payloads.

    Parent side::

        ring = ChunkRing.create()
        ref = ring.write(values)       # raises RingFull when out of room
        ...                            # ship ref on the wire
        ring.free(ref.offset)          # when the chunk is acknowledged
        ring.destroy()                 # close + unlink at end of life

    Worker side::

        ring = ChunkRing.attach(name, capacity)
        values = ring.read(ref)        # a private copy; detectors retain windows
        ring.close()

    All public methods are thread-safe: the parent writes from ingest
    threads and frees from the reply-collector thread.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, capacity: int, owner: bool
    ) -> None:
        self._shm = shm
        self.capacity = int(capacity)
        self.owner = owner
        self._lock = threading.Lock()
        self._head = 0
        # Allocation-ordered blocks: ``[offset, nbytes, freed]``.  The tail
        # (oldest live block) advances by popping contiguously-freed blocks.
        self._blocks: deque[list] = deque()
        self._closed = False
        self.writes = 0
        self.full_rejections = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, capacity: int = DEFAULT_RING_BYTES) -> "ChunkRing":
        """Allocate a fresh parent-owned segment with a collision-free name."""
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        while True:
            name = f"{RING_NAME_PREFIX}{secrets.token_hex(8)}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=int(capacity)
                )
                break
            except FileExistsError:  # pragma: no cover - 64-bit collision
                continue
        return cls(shm, capacity, owner=True)

    @classmethod
    def attach(cls, name: str, capacity: int) -> "ChunkRing":
        """Attach to a parent-created segment (worker side).

        CPython < 3.13 registers *attached* segments with the resource
        tracker too, but a spawned worker shares its parent's tracker
        process and the tracker's cache is a set — the attach-side register
        is a no-op on a name the parent already registered, and the tracker
        dies with the parent, so no worker exit (clean or killed) can ever
        unlink the parent's segment.  Explicitly unregistering here would
        *break* that accounting (one unregister drains the shared entry and
        the parent's own unlink-time unregister then errors inside the
        tracker), so the registration is deliberately left alone.
        """
        return cls(shared_memory.SharedMemory(name=name), capacity, owner=False)

    @property
    def name(self) -> str:
        return self._shm.name

    # ------------------------------------------------------------------
    # Allocation (parent side)
    # ------------------------------------------------------------------
    def _alloc(self, nbytes: int) -> int:
        """Reserve ``nbytes`` contiguously; returns the offset.

        Strict inequalities keep the head from ever landing exactly on the
        tail of a non-empty ring, so "full" and "empty" stay unambiguous.
        """
        if nbytes > self.capacity:
            raise RingFull(nbytes)
        if not self._blocks:
            self._head = 0
            start = 0
        else:
            tail = self._blocks[0][0]
            head = self._head
            if head >= tail:
                # Free space: [head, capacity) then [0, tail).
                if self.capacity - head >= nbytes and head != tail:
                    start = head
                elif nbytes < tail:
                    start = 0
                else:
                    raise RingFull(nbytes)
            elif tail - head > nbytes:
                start = head
            else:
                raise RingFull(nbytes)
        self._blocks.append([start, nbytes, False])
        self._head = start + nbytes
        return start

    def write(self, values: np.ndarray) -> PayloadRef:
        """Copy an array's bytes into the ring; returns its descriptor.

        Raises :class:`RingFull` when there is no room (the caller carries
        the array inline instead) and ``ValueError`` for arrays whose bytes
        are not self-describing (object dtypes).
        """
        if values.dtype.hasobject:
            raise ValueError("object-dtype arrays cannot ride shared memory")
        contiguous = np.ascontiguousarray(values)
        nbytes = int(contiguous.nbytes)
        with self._lock:
            if self._closed:
                raise RingFull(nbytes)
            if nbytes:
                try:
                    offset = self._alloc(nbytes)
                except RingFull:
                    self.full_rejections += 1
                    raise
                self._shm.buf[offset : offset + nbytes] = contiguous.tobytes()
            else:
                # An empty array occupies no ring block: allocating one
                # would park the head exactly on the tail (the ambiguity
                # the strict inequalities exist to prevent).  The sentinel
                # offset matches no block, so its ``free`` is a no-op.
                offset = -1
            self.writes += 1
        return PayloadRef(
            offset=offset,
            nbytes=nbytes,
            dtype=contiguous.dtype.str,
            shape=tuple(contiguous.shape),
        )

    def free(self, offset: int) -> None:
        """Release one payload; the tail advances over contiguous freed blocks.

        Unknown offsets are ignored: a reply can race the ring recycle that
        a crash-respawn performs, and the stale free must not corrupt the
        fresh ring's accounting.
        """
        with self._lock:
            for block in self._blocks:
                if block[0] == offset and not block[2]:
                    block[2] = True
                    break
            while self._blocks and self._blocks[0][2]:
                self._blocks.popleft()
            if not self._blocks:
                self._head = 0

    def live_blocks(self) -> int:
        """Unfreed payloads currently allocated (diagnostics / tests)."""
        with self._lock:
            return sum(1 for block in self._blocks if not block[2])

    # ------------------------------------------------------------------
    # Reading (worker side)
    # ------------------------------------------------------------------
    def read(self, ref: PayloadRef) -> np.ndarray:
        """Rebuild an array from its descriptor, as a private copy.

        The copy is mandatory, not hygiene: detectors retain reference
        windows sliced from the chunk, and the parent recycles the ring
        bytes as soon as the chunk is acknowledged.
        """
        values = np.empty(ref.shape, dtype=np.dtype(ref.dtype))
        if values.nbytes != ref.nbytes:
            raise ValueError(
                f"payload descriptor is inconsistent: dtype {ref.dtype!r} x "
                f"shape {ref.shape} needs {values.nbytes} bytes, ref says "
                f"{ref.nbytes}"
            )
        if ref.nbytes:
            if ref.offset < 0 or ref.offset + ref.nbytes > self.capacity:
                raise ValueError(
                    f"payload [{ref.offset}, {ref.offset + ref.nbytes}) lies "
                    f"outside the {self.capacity}-byte ring"
                )
            memoryview(values).cast("B")[:] = self._shm.buf[
                ref.offset : ref.offset + ref.nbytes
            ]
        return values

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the segment (both sides; idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._shm.close()
        except OSError:  # pragma: no cover - already gone
            pass

    def destroy(self) -> None:
        """Close and unlink (parent side; idempotent, tolerates a prior unlink)."""
        self.close()
        if not self.owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - external cleanup
            pass
