"""Tests for the framed wire transport and the shared-memory chunk rings.

Covers the :class:`~repro.cluster.shm.ChunkRing` allocator (fill, wrap,
out-of-order frees, fallback on exhaustion), property-based round-trip of
the frame codec (arbitrary dtypes/shapes encode → transport → decode
byte-identically, with payloads in shared memory, inline, or mixed),
report parity with the inline replay, and crash safety: a SIGKILLed shard leaks
no ``/dev/shm`` segment, a corrupt frame entry surfaces as a
:class:`~repro.cluster.wire.WorkerFailure` instead of a hang, and lost
chunks still finalize their traces.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ProcessShardExecutor
from repro.cluster.shm import RING_NAME_PREFIX, ChunkRing, PayloadRef, RingFull
from repro.cluster.wire import (
    FramedChunk,
    IngestChunk,
    IngestFrame,
    WorkerFailure,
    decode_frame,
    encode_frame,
)
from repro.datasets.synthetic import drifting_series
from repro.exceptions import ServiceBackendError, ValidationError
from repro.obs.trace import TraceContext
from repro.service import ExplanationService, StreamConfig

WINDOW = 150


def shm_ring_segments() -> list[str]:
    """Names of live repro ring segments on this host."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(p.name for p in shm_dir.glob(f"{RING_NAME_PREFIX}*"))


@pytest.fixture(scope="module")
def drifted_values() -> np.ndarray:
    values, _ = drifting_series(
        length=1200, drift_start=600, drift_magnitude=3.0, seed=5
    )
    return values


# ----------------------------------------------------------------------
# ChunkRing allocator
# ----------------------------------------------------------------------
class TestChunkRing:
    def test_write_read_round_trip_is_byte_identical(self):
        ring = ChunkRing.create(capacity=1 << 16)
        try:
            values = np.arange(300, dtype=np.float64).reshape(100, 3)
            ref = ring.write(values)
            out = ring.read(ref)
            assert out.dtype == values.dtype and out.shape == values.shape
            np.testing.assert_array_equal(out, values)
            # The copy must be private and writable: detectors retain
            # windows past the parent's recycling of the ring bytes.
            out[0, 0] = -1.0
            assert ring.read(ref)[0, 0] == 0.0
        finally:
            ring.destroy()

    def test_fill_free_reuse(self):
        ring = ChunkRing.create(capacity=1024)
        try:
            refs = [ring.write(np.zeros(32)) for _ in range(4)]  # 4 * 256 B
            with pytest.raises(RingFull):
                ring.write(np.zeros(32))
            assert ring.full_rejections == 1
            ring.free(refs[0].offset)
            with pytest.raises(RingFull):
                # Strict inequality: the head may never land exactly on the
                # tail of a non-empty ring, so a same-size wrap into the one
                # freed block is still refused (the caller falls back).
                ring.write(np.zeros(32))
            ring.free(refs[1].offset)
            again = ring.write(np.zeros(32))  # wraps below the tail
            assert again.offset == 0 and again.nbytes == 256
            assert ring.live_blocks() == 3
        finally:
            ring.destroy()

    def test_wraparound_preserves_contents(self):
        ring = ChunkRing.create(capacity=1024)
        try:
            payloads = {}
            refs = []
            for index in range(40):  # 40 * 200 B >> capacity: must recycle
                values = np.full(25, float(index))  # 200 B
                ref = ring.write(values)
                refs.append(ref)
                payloads[ref.offset] = values
                if len(refs) > 3:
                    old = refs.pop(0)
                    np.testing.assert_array_equal(
                        ring.read(old), payloads.pop(old.offset)
                    )
                    ring.free(old.offset)
            for ref in refs:
                np.testing.assert_array_equal(ring.read(ref), payloads[ref.offset])
        finally:
            ring.destroy()

    def test_out_of_order_frees_are_tolerated(self):
        ring = ChunkRing.create(capacity=1024)
        try:
            first, second, third = (ring.write(np.zeros(32)) for _ in range(3))
            ring.free(second.offset)  # middle first: tail cannot advance yet
            assert ring.live_blocks() == 2
            ring.free(first.offset)  # now both pop
            ring.free(third.offset)
            assert ring.live_blocks() == 0
            # An empty ring resets, so the full capacity is contiguous again.
            big = ring.write(np.zeros(100))  # 800 B
            assert big.offset == 0
        finally:
            ring.destroy()

    def test_unknown_and_stale_frees_are_ignored(self):
        ring = ChunkRing.create(capacity=1024)
        try:
            ref = ring.write(np.zeros(8))
            ring.free(12345)  # never allocated
            assert ring.live_blocks() == 1
            ring.free(ref.offset)
            ring.free(ref.offset)  # double free
            assert ring.live_blocks() == 0
        finally:
            ring.destroy()

    def test_zero_size_and_oversize_payloads(self):
        ring = ChunkRing.create(capacity=256)
        try:
            empty = ring.write(np.zeros(0))
            assert empty.nbytes == 0
            np.testing.assert_array_equal(ring.read(empty), np.zeros(0))
            with pytest.raises(RingFull):
                ring.write(np.zeros(1024))  # bigger than the whole ring
        finally:
            ring.destroy()

    def test_object_dtype_rejected(self):
        ring = ChunkRing.create(capacity=1024)
        try:
            with pytest.raises(ValueError):
                ring.write(np.array([object()], dtype=object))
        finally:
            ring.destroy()

    def test_read_rejects_corrupt_refs(self):
        ring = ChunkRing.create(capacity=1024)
        try:
            with pytest.raises(ValueError):
                ring.read(PayloadRef(offset=900, nbytes=800, dtype="<f8", shape=(100,)))
            with pytest.raises(ValueError):
                # dtype x shape disagrees with the byte count
                ring.read(PayloadRef(offset=0, nbytes=64, dtype="<f8", shape=(100,)))
        finally:
            ring.destroy()

    def test_destroy_unlinks_and_is_idempotent(self):
        ring = ChunkRing.create(capacity=1024)
        name = ring.name
        assert name in shm_ring_segments()
        ring.destroy()
        assert name not in shm_ring_segments()
        ring.destroy()  # second destroy is a no-op

    def test_attach_sees_parent_writes(self):
        ring = ChunkRing.create(capacity=4096)
        try:
            values = np.linspace(0.0, 1.0, 257)
            ref = ring.write(values)
            reader = ChunkRing.attach(ring.name, ring.capacity)
            try:
                np.testing.assert_array_equal(reader.read(ref), values)
            finally:
                reader.close()
        finally:
            ring.destroy()


# ----------------------------------------------------------------------
# Frame codec: property-based round trip
# ----------------------------------------------------------------------
DTYPES = ("<f8", "<f4", "<i8", "<i4", "<u2")

chunk_arrays = st.builds(
    lambda dtype, shape, fill: np.full(shape, fill, dtype=np.dtype(dtype)),
    st.sampled_from(DTYPES),
    st.one_of(
        st.integers(min_value=0, max_value=400).map(lambda n: (n,)),
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=1, max_value=8),
        ),
    ),
    st.integers(min_value=0, max_value=1000),  # fits every sampled dtype
)

trace_contexts = st.one_of(
    st.none(),
    st.builds(
        TraceContext,
        trace_id=st.text("abcdef0123456789", min_size=8, max_size=8),
        parent_span_id=st.text("abcdef0123456789", min_size=8, max_size=8),
        sampled=st.booleans(),
    ),
)

chunk_batches = st.lists(
    st.tuples(
        chunk_arrays,
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e6)),
        trace_contexts,
    ),
    min_size=1,
    max_size=12,
)

CODEC_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def build_chunks(batch) -> list[IngestChunk]:
    return [
        IngestChunk(
            seq=index + 1,
            stream_id=f"stream-{index % 3}",
            values=values,
            enqueued_at=enqueued_at,
            trace=trace,
        )
        for index, (values, enqueued_at, trace) in enumerate(batch)
    ]


def assert_round_trip(chunks, decoded):
    assert len(decoded) == len(chunks)
    for chunk, out in zip(chunks, decoded):
        assert isinstance(out, IngestChunk), out
        assert out.seq == chunk.seq
        assert out.stream_id == chunk.stream_id
        assert out.enqueued_at == chunk.enqueued_at
        assert out.trace == chunk.trace
        assert out.values.dtype == chunk.values.dtype
        assert out.values.shape == chunk.values.shape
        assert out.values.tobytes() == chunk.values.tobytes()


class TestFrameCodec:
    @given(chunk_batches)
    @CODEC_SETTINGS
    def test_round_trip_through_shared_memory(self, batch):
        chunks = build_chunks(batch)
        ring = ChunkRing.create(capacity=4 * 1024 * 1024)
        try:
            frame = encode_frame(chunks, ring)
            # The frame is what actually crosses the process boundary:
            # pickle it, exactly like mp.Queue would.
            frame = pickle.loads(pickle.dumps(frame))
            assert all(chunk.payload is not None for chunk in frame.chunks)
            reader = ChunkRing.attach(ring.name, ring.capacity)
            try:
                assert_round_trip(chunks, decode_frame(frame, reader))
            finally:
                reader.close()
        finally:
            ring.destroy()

    @given(chunk_batches)
    @CODEC_SETTINGS
    def test_round_trip_without_a_ring_is_identical(self, batch):
        chunks = build_chunks(batch)
        frame = pickle.loads(pickle.dumps(encode_frame(chunks, None)))
        assert all(chunk.payload is None for chunk in frame.chunks)
        assert_round_trip(chunks, decode_frame(frame, None))

    @given(chunk_batches)
    @CODEC_SETTINGS
    def test_tiny_ring_degrades_to_inline_not_errors(self, batch):
        # A 64-byte ring forces most payloads down the inline fallback;
        # the decoded chunks must not care which path each one took.
        chunks = build_chunks(batch)
        ring = ChunkRing.create(capacity=64)
        try:
            frame = pickle.loads(pickle.dumps(encode_frame(chunks, ring)))
            reader = ChunkRing.attach(ring.name, ring.capacity)
            try:
                assert_round_trip(chunks, decode_frame(frame, reader))
            finally:
                reader.close()
        finally:
            ring.destroy()

    def test_huge_array_rides_inline(self):
        values = np.random.default_rng(0).normal(size=1_000_000)  # 8 MB > ring
        ring = ChunkRing.create(capacity=1024)
        try:
            chunks = [IngestChunk(seq=1, stream_id="s", values=values)]
            frame = encode_frame(chunks, ring)
            assert frame.chunks[0].payload is None
            assert_round_trip(chunks, decode_frame(frame, ring))
        finally:
            ring.destroy()

    def test_decode_isolates_corrupt_entries(self):
        ring = ChunkRing.create(capacity=4096)
        try:
            good = ring.write(np.arange(4, dtype=np.float64))
            frame = IngestFrame(
                chunks=(
                    FramedChunk(seq=1, stream_id="a", payload=good),
                    FramedChunk(
                        seq=2,
                        stream_id="b",
                        payload=PayloadRef(
                            offset=1 << 30, nbytes=800, dtype="<f8", shape=(100,)
                        ),
                    ),
                    FramedChunk(seq=3, stream_id="c"),  # no payload at all
                )
            )
            first, second, third = decode_frame(frame, ring, shard_id="shard-9")
            assert isinstance(first, IngestChunk)
            np.testing.assert_array_equal(first.values, np.arange(4.0))
            for failure, seq in ((second, 2), (third, 3)):
                assert isinstance(failure, WorkerFailure)
                assert failure.seq == seq
                assert failure.shard_id == "shard-9"
                assert failure.command == "IngestFrame"
        finally:
            ring.destroy()


# ----------------------------------------------------------------------
# Transport parity and knobs
# ----------------------------------------------------------------------
def replay_report(drifted_values, executor="process", **service_kwargs):
    with ExplanationService(
        executor=executor,
        default_config=StreamConfig(window_size=WINDOW),
        **service_kwargs,
    ) as service:
        for stream_id in ("a", "b", "c"):
            service.register(stream_id)
        for start in range(0, drifted_values.size, 200):
            piece = drifted_values[start:start + 200]
            for stream_id in ("a", "b", "c"):
                service.submit(stream_id, piece)
        service.drain()
        stats = service.executor.stats()
        return service.report(), stats


class TestTransportParity:
    def test_framed_report_matches_inline_replay(self, drifted_values):
        framed, framed_stats = replay_report(drifted_values, shards=2)
        inline, _ = replay_report(drifted_values, executor="inline")
        assert json.dumps(framed.canonical_dict(), sort_keys=True) == json.dumps(
            inline.canonical_dict(), sort_keys=True
        )
        assert framed.alarms_raised > 0
        assert framed_stats["frames_sent"] >= 1
        assert framed_stats["framed_chunks"] == framed_stats["ingests"]
        assert framed_stats["payload_bytes_shm"] > 0

    def test_frame_size_one_still_frames_correctly(self, drifted_values):
        report, stats = replay_report(
            drifted_values[:600], shards=1, frame_size=1
        )
        assert report.alarms_raised >= 0
        assert stats["frames_sent"] == stats["ingests"]

    def test_transport_validation(self):
        with pytest.raises(ValidationError):
            ExplanationService(executor="process", shards=1, frame_size=0)
        # The framed wire is the only transport; its linger and ring size
        # are fixed, not settable.
        with pytest.raises(TypeError):
            ExplanationService(executor="process", shards=1, transport="framed")
        with pytest.raises(TypeError):
            ProcessShardExecutor(shards=1, frame_linger_seconds=0.01)
        with pytest.raises(TypeError):
            ProcessShardExecutor(shards=1, ring_bytes=0)


# ----------------------------------------------------------------------
# Crash safety: no leaks, no hangs, traces finalized
# ----------------------------------------------------------------------
class TestCrashSafety:
    def test_sigkill_mid_frame_leaks_no_shm_and_loses_chunks_attributably(
        self, drifted_values
    ):
        before = set(shm_ring_segments())
        with ExplanationService(
            executor="process",
            shards=2,
            tracing=True,
            trace_sample=1.0,
            default_config=StreamConfig(window_size=WINDOW),
        ) as service:
            service.register("a")
            service.register("b")
            executor = service.executor
            service.submit("b", drifted_values[:400])
            service.drain()
            during = set(shm_ring_segments()) - before
            assert len(during) == 2, "one ring per live shard"
            # Freeze a's shard so its next chunks sit unprocessed (in the
            # pending frame or its queue), then SIGKILL it mid-flight.
            shard = executor._shards[executor.shard_of("a")]
            os.kill(shard.process.pid, signal.SIGSTOP)
            service.submit("a", drifted_values[:300])
            service.submit("a", drifted_values[300:600])
            os.kill(shard.process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while shard.process.is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            # Drain must not hang on the dead shard's unacknowledged chunks.
            assert service.drain(timeout=60)
            tracer = service.tracer
            report = service.report()
        # Every ring this service created is gone: the respawned
        # generation's fresh ring and the killed generation's both.
        assert set(shm_ring_segments()) - before == set()
        assert report.batcher_stats["restarts"] >= 1
        assert report.batcher_stats["lost_chunks"] >= 1
        lost = [trace for trace in tracer.traces() if trace.status == "lost"]
        assert lost, "lost chunks must finalize their traces as lost"
        assert all(span.finished for trace in lost for span in trace.spans)

    def test_corrupt_frame_surfaces_as_worker_failure_not_hang(self):
        with ExplanationService(
            executor="process", shards=1, default_config=StreamConfig(window_size=WINDOW)
        ) as service:
            service.register("s")
            executor = service.executor
            shard = executor._shards[executor.shard_of("s")]
            # A frame whose payload descriptor lies outside the ring: the
            # worker must answer with a per-chunk WorkerFailure, not die or
            # go silent.
            bad = IngestFrame(
                chunks=(
                    FramedChunk(
                        seq=999_983,
                        stream_id="s",
                        payload=PayloadRef(
                            offset=1 << 40, nbytes=800, dtype="<f8", shape=(100,)
                        ),
                    ),
                )
            )
            with executor._lifecycle:
                executor._post(shard, bad)
            # A real chunk behind the bad frame keeps drain() waiting long
            # enough to observe the deferred failure.
            service.submit("s", np.zeros(10))
            with pytest.raises(ServiceBackendError, match="decode failed"):
                for _ in range(200):
                    service.drain(timeout=0.1)
            service.close(drain=False)

    def test_clean_close_unlinks_every_ring(self, drifted_values):
        before = set(shm_ring_segments())
        with ExplanationService(
            executor="process", shards=2, default_config=StreamConfig(window_size=WINDOW)
        ) as service:
            service.register("s")
            service.submit("s", drifted_values[:400])
            service.drain()
        assert set(shm_ring_segments()) - before == set()

    def test_resize_recycles_the_retired_shards_rings(self, drifted_values):
        before = set(shm_ring_segments())
        with ExplanationService(
            executor="process", shards=4, default_config=StreamConfig(window_size=WINDOW)
        ) as service:
            service.register("s")
            service.submit("s", drifted_values[:400])
            service.drain()
            assert len(set(shm_ring_segments()) - before) == 4
            service.executor.resize(2)
            service.submit("s", drifted_values[400:800])
            service.drain()
            assert len(set(shm_ring_segments()) - before) == 2
        assert set(shm_ring_segments()) - before == set()
