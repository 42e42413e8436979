"""Flight recorder ring semantics: ordering, wraparound, shared attach."""

import time

import pytest

from repro.obs.flight import KIND_CODES, KIND_NAMES, FlightRecorder


def _rec(kind, peer, nbytes, tag, extra, t_ns=0):
    """A trace record as a rank's event sink writes it."""
    return (0, kind, peer, nbytes, tag, extra, t_ns, t_ns)


class TestRing:
    def test_tail_is_oldest_first(self):
        rec = FlightRecorder(1, slots=8)
        for i in range(5):
            rec.push(0, _rec("send", peer=1, nbytes=10 * i, tag=i,
                             extra=0))
        tail = rec.tail(0)
        assert [e.tag for e in tail] == [0, 1, 2, 3, 4]
        assert all(e.kind == "send" for e in tail)
        assert rec.pushed(0) == 5

    def test_wraparound_keeps_last_n(self):
        rec = FlightRecorder(1, slots=4)
        for i in range(10):
            rec.push(0, _rec("recv", peer=0, nbytes=0, tag=i, extra=0))
        tail = rec.tail(0)
        assert len(tail) == 4
        assert [e.tag for e in tail] == [6, 7, 8, 9]
        # cursor keeps counting, so the drop count is recoverable
        assert rec.pushed(0) - len(tail) == 6

    def test_negative_peer_and_tag_decode_to_none(self):
        rec = FlightRecorder(1)
        rec.push(0, _rec("frame", peer=None, nbytes=0, tag=None, extra=7))
        ev = rec.tail(0)[0]
        assert ev.peer is None
        assert ev.tag is None
        assert ev.extra == 7

    def test_rows_are_independent_per_rank(self):
        rec = FlightRecorder(3, slots=4)
        rec.push(1, _rec("barrier", None, 0, None, 0))
        assert rec.tail(0) == []
        assert rec.tail(2) == []
        assert [e.kind for e in rec.tail(1)] == ["barrier"]

    def test_timestamps_rebase_against_epoch_plus_shift(self):
        rec = FlightRecorder(1)
        epoch = time.perf_counter_ns()
        rec.push(0, _rec("send", 1, 8, 0, 0, time.perf_counter_ns()))
        ev_raw = rec.tail(0, epoch_ns=epoch)[0]
        ev_shifted = rec.tail(0, epoch_ns=epoch - 100_000_000_000)[0]
        assert ev_shifted.t_s - ev_raw.t_s == pytest.approx(100.0)
        assert 0.0 <= ev_raw.t_s < 5.0

    def test_kind_table_round_trips(self):
        assert KIND_NAMES[0] == ""  # 0 must stay the empty-slot marker
        for name, code in KIND_CODES.items():
            assert KIND_NAMES[code] == name


class TestSharedMemory:
    def test_attach_sees_creator_pushes_and_vice_versa(self):
        rec = FlightRecorder(2, slots=8, shared=True)
        try:
            other = FlightRecorder.attach(rec.name, 2, 8)
            rec.push(0, _rec("send", 1, 64, 5, 0))
            other.push(1, _rec("recv", 0, 64, 5, 0))
            assert [e.kind for e in other.tail(0)] == ["send"]
            assert [e.kind for e in rec.tail(1)] == ["recv"]
            other.close()
        finally:
            rec.close(unlink=True)

    def test_local_recorder_has_no_name(self):
        rec = FlightRecorder(1)
        assert rec.name is None
        rec.close()
