"""Unit coverage for the serving wire protocol and shortest-queue routing.

These run in-process (no OS workers), so they live in the default
tier-1 selection: the framing and routing layers stay covered even
when the ``proc``-marked process suites are deselected.
"""

import multiprocessing

import pytest

from repro.core.architectures import Architecture
from repro.errors import WireProtocolError
from repro.serving.router import _least_loaded, _ShardHandle
from repro.serving.session import SessionSummary
from repro.serving.wire import (
    HEADER,
    MAGIC,
    MESSAGE_KINDS,
    Hello,
    Ping,
    Pong,
    RunScript,
    ScriptDone,
    ScriptFailed,
    Shutdown,
    ShutdownAck,
    decode_frame,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.serving.workload import make_workload


class TestWireFrames:
    def roundtrip(self, message):
        return decode_frame(encode_frame(message))

    def test_every_message_kind_roundtrips(self):
        script = make_workload(seed=1, sessions=1, calls_per_session=2)[0]
        summary = SessionSummary(
            session_id=0,
            architecture=Architecture.WFMS.value,
            calls=3,
            aborted=0,
            simulated_ms=12.5,
            rows_returned=7,
        )
        messages = [
            Hello(shard_id=3, pid=4242),
            RunScript(request_id=9, script=script),
            ScriptDone(
                request_id=9,
                session_id=0,
                row_sets=[[(1, "a")], None],
                call_sim_ms=[1.25, 0.5],
                simulated_ms=1.75,
                latencies=[0.001, 0.002],
                summary=summary,
            ),
            ScriptFailed(
                request_id=9, session_id=0, error_kind="ValueError", message="boom"
            ),
            Ping(token=7),
            Pong(token=7, completed=5),
            Shutdown(),
            ShutdownAck(completed=5),
        ]
        assert {type(m) for m in messages} == set(MESSAGE_KINDS.values())
        for message in messages:
            assert self.roundtrip(message) == message

    def test_scripts_cross_the_frame_intact(self):
        script = make_workload(seed=42, sessions=3, calls_per_session=4)[2]
        back = self.roundtrip(RunScript(request_id=1, script=script)).script
        assert back.session_id == script.session_id
        assert back.architecture is script.architecture
        assert back.calls == script.calls

    def test_float_payloads_are_bit_exact(self):
        times = [0.1 + 0.2, 1e-17, 123456.789012345]
        done = ScriptDone(request_id=1, session_id=0, call_sim_ms=times)
        assert self.roundtrip(done).call_sim_ms == times

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(Ping(token=1)))
        frame[:4] = b"XXXX"
        with pytest.raises(WireProtocolError, match="magic"):
            decode_frame(bytes(frame))

    def test_bad_version_rejected(self):
        frame = bytearray(encode_frame(Ping(token=1)))
        frame[4] = 99
        with pytest.raises(WireProtocolError, match="version"):
            decode_frame(bytes(frame))

    def test_unknown_kind_rejected(self):
        frame = bytearray(encode_frame(Ping(token=1)))
        frame[5] = 200
        with pytest.raises(WireProtocolError, match="kind"):
            decode_frame(bytes(frame))

    def test_corrupted_payload_rejected(self):
        frame = bytearray(encode_frame(Ping(token=1)))
        frame[-1] ^= 0xFF
        with pytest.raises(WireProtocolError, match="checksum"):
            decode_frame(bytes(frame))

    def test_truncated_frames_rejected(self):
        frame = encode_frame(Ping(token=1))
        with pytest.raises(WireProtocolError, match="short frame"):
            decode_frame(frame[: HEADER.size - 1])
        with pytest.raises(WireProtocolError, match="length"):
            decode_frame(frame[:-1])

    def test_kind_byte_must_match_payload_type(self):
        frame = bytearray(encode_frame(Shutdown()))
        # Relabel the Shutdown frame as a Ping without touching payload.
        frame[5] = 5
        with pytest.raises(WireProtocolError, match="carries"):
            decode_frame(bytes(frame))

    def test_non_wire_objects_refused(self):
        with pytest.raises(WireProtocolError):
            encode_frame({"not": "a message"})

    def test_magic_is_stable(self):
        # The wire is a compatibility surface: changing the magic or
        # header layout silently would strand respawned workers.
        assert MAGIC == b"FWP1"
        assert HEADER.size == 16

    def test_send_recv_over_a_real_pipe(self):
        parent, child = multiprocessing.Pipe(duplex=True)
        try:
            send_frame(parent, Ping(token=31))
            assert recv_frame(child) == Ping(token=31)
            send_frame(child, Pong(token=31, completed=2))
            assert recv_frame(parent) == Pong(token=31, completed=2)
        finally:
            parent.close()
            child.close()


def handles(*pending, dead=()):
    """Router-side shard handles with the given pending counts."""
    made = []
    for shard_id, count in enumerate(pending):
        handle = _ShardHandle(shard_id)
        handle.alive = shard_id not in dead
        handle.pending = dict.fromkeys(range(count))
        made.append(handle)
    return made


def place(shards, scripts):
    """Shard ids that ``scripts`` submissions in a row are sent to."""
    placed = []
    for _ in range(scripts):
        handle = _least_loaded(shards)
        placed.append(handle.shard_id)
        handle.pending[len(handle.pending)] = None
    return placed


class TestShortestQueueRouting:
    def test_fewest_pending_wins(self):
        assert _least_loaded(handles(3, 1, 2)).shard_id == 1

    def test_ties_go_to_the_lowest_shard_id(self):
        assert _least_loaded(handles(2, 1, 1)).shard_id == 1
        assert _least_loaded(reversed(handles(0, 0, 0))).shard_id == 0

    def test_every_shard_gets_work(self):
        assert place(handles(0, 0, 0, 0), 8) == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_single_shard_takes_everything(self):
        assert set(place(handles(0), 32)) == {0}

    def test_dead_shards_get_no_work(self):
        shards = handles(0, 0, 5, dead=(0,))
        assert place(shards, 6) == [1, 1, 1, 1, 1, 1]
        assert len(shards[0].pending) == 0

    def test_no_live_shard_routes_nowhere(self):
        assert _least_loaded(handles(0, 0, dead=(0, 1))) is None
        assert _least_loaded([]) is None
