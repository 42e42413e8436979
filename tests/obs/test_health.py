"""Health board, rank telemetry, alerts, live rendering, /metrics."""

import time
import urllib.request

import numpy as np
import pytest

from repro.obs.health import (
    HealthBoard,
    Telemetry,
    health_alerts,
    health_exposition,
    render_health_table,
    serve_metrics,
)
from repro.obs.metrics import MetricsRegistry
from repro.runtime import spmd_run


def _record(view, kind, peer=None, nbytes=0, tag=None, extra=0):
    """Feed *view* one trace record, as the rank's event sink does."""
    t = time.perf_counter_ns()
    view.record((view.rank, kind, peer, nbytes, tag, extra, t, t))


class TestHealthBoard:
    def test_fresh_rows_decode_to_init(self):
        board = HealthBoard(2)
        s = board.sample(0)
        assert s.state == "init"
        assert s.frame is None
        assert s.ckpt_frame is None
        assert s.beat == 0

    def test_rank_telemetry_writes_show_in_samples(self):
        tele = Telemetry(2)
        view = tele.rank_view(1)
        view.start()
        _record(view, "frame", tag=4)
        _record(view, "send", 0, 256, tag=9)
        _record(view, "recv", 0, 128, tag=9, extra=10_000_000)
        _record(view, "checkpoint", tag=4)
        s = tele.samples()[1]
        assert s.state == "compute"
        assert s.frame == 4
        assert s.ckpt_frame == 4
        assert s.sent_bytes == 256 and s.sent_msgs == 1
        assert s.recv_bytes == 128 and s.recv_msgs == 1
        tele.close()

    def test_enter_returns_previous_state(self):
        tele = Telemetry(1)
        view = tele.rank_view(0)
        view.start()
        prev = view.enter(2)  # blocked
        assert prev == 1  # was compute
        assert tele.samples()[0].state == "blocked"
        view.enter(prev)
        assert tele.samples()[0].state == "compute"
        tele.close()

    def test_finish_marks_done_or_failed(self):
        tele = Telemetry(2)
        tele.rank_view(0).finish(True)
        tele.rank_view(1).finish(False)
        states = [s.state for s in tele.samples()]
        assert states == ["done", "failed"]
        assert tele.done()
        tele.close()

    def test_begin_resets_between_attempts(self):
        tele = Telemetry(1)
        view = tele.rank_view(0)
        view.start()
        _record(view, "frame", tag=9)
        _record(view, "send", 0, 100, 0)
        tele.begin()
        s = tele.samples()[0]
        assert s.frame is None and s.sent_bytes == 0
        assert tele.tails() == {0: []}
        tele.close()


class TestSharedTelemetry:
    def test_spec_attach_round_trip(self):
        tele = Telemetry(2, shared=True)
        try:
            spec = tele.spec()
            view = Telemetry.attach(spec, rank=1)
            view.start()
            _record(view, "frame", tag=3)
            view.release()
            assert tele.samples()[1].frame == 3
            world = Telemetry.attach_world(spec)
            assert world.samples()[1].frame == 3
            world.close()
        finally:
            tele.close()

    def test_unshared_spec_is_an_error(self):
        tele = Telemetry(1)
        with pytest.raises(ValueError):
            tele.spec()
        tele.close()


class TestAlerts:
    def _sample(self, rank, state="compute", frame=5, age_s=0.0,
                depth=0):
        from repro.obs.health import HealthSample
        return HealthSample(rank=rank, beat=1, state=state, frame=frame,
                            mailbox_depth=depth, pool_outstanding=0,
                            ckpt_frame=None, sent_bytes=0, recv_bytes=0,
                            sent_msgs=0, recv_msgs=0, t_ns=0,
                            age_s=age_s)

    def test_straggler_flagged_against_frontier(self):
        samples = [self._sample(0, frame=10), self._sample(1, frame=6)]
        alerts = health_alerts(samples, lag=2)
        assert len(alerts) == 1
        assert "rank 1" in alerts[0] and "straggler" in alerts[0]

    def test_blocked_stall_flagged(self):
        samples = [self._sample(0, state="blocked", age_s=5.0, depth=3)]
        alerts = health_alerts(samples, stall_s=1.0)
        assert "blocked" in alerts[0] and "depth 3" in alerts[0]

    def test_failed_rank_flagged(self):
        alerts = health_alerts([self._sample(0, state="failed")])
        assert "FAILED" in alerts[0]

    def test_quiet_world_has_no_alerts(self):
        samples = [self._sample(0, frame=5), self._sample(1, frame=5)]
        assert health_alerts(samples) == []

    def test_table_renders_rows_and_alerts(self):
        samples = [self._sample(0, frame=5),
                   self._sample(1, state="failed", frame=3)]
        text = render_health_table(samples)
        assert "rank" in text.splitlines()[0]
        assert "failed" in text
        assert "! rank 1: FAILED" in text


class TestRuntimeIntegration:
    def test_thread_world_publishes_heartbeats_and_tails(self):
        payload = np.zeros(16, dtype=np.float64)

        def body(comm):
            if comm.rank == 0:
                comm.send(1, payload, tag=3)
                comm.recv(source=1, tag=4)
            else:
                comm.recv(source=0, tag=3)
                comm.send(0, payload, tag=4)
            comm.barrier()

        tele = Telemetry(2)
        spmd_run(2, body, telemetry=tele)
        s0, s1 = tele.samples()
        assert s0.state == "done" and s1.state == "done"
        assert s0.sent_bytes == payload.nbytes
        assert s0.recv_bytes == payload.nbytes
        kinds0 = [e.kind for e in tele.tails()[0]]
        assert "send" in kinds0 and "recv" in kinds0
        assert "barrier" in kinds0
        tele.close()


class TestMetricsServer:
    def test_http_exposition_includes_registry_and_health(self):
        registry = MetricsRegistry()
        registry.counter("demo.count", help="a demo counter").inc(3)
        tele = Telemetry(2)
        tele.rank_view(0).start()
        server = serve_metrics(registry, port=0, telemetry=tele)
        try:
            port = server.server_address[1]
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/metrics", timeout=5) as rsp:
                text = rsp.read().decode()
            assert "acfd_demo_count 3" in text
            assert "# HELP acfd_demo_count a demo counter" in text
            assert 'acfd_health_state{rank="0"} 1' in text
            assert 'acfd_health_state{rank="1"} 0' in text
        finally:
            server.shutdown()
            tele.close()

    def test_health_exposition_has_help_and_type_lines(self):
        tele = Telemetry(1)
        text = health_exposition(tele)
        assert "# HELP acfd_health_beat" in text
        assert "# TYPE acfd_health_beat gauge" in text
        tele.close()
