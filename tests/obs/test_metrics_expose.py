"""Prometheus exposition: HELP lines, escaping, and a round-trip parse.

The parser below is deliberately small but honest about the format: it
un-escapes HELP text and label values, so any escaping bug in
``expose_text`` / ``prom_escape_*`` breaks the round trip.
"""

import re

import pytest

from repro.obs.metrics import (
    MetricsRegistry,
    prom_escape_help,
    prom_escape_label,
)

_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>.*)\})? (?P<value>\S+)$')
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)='
                       r'"(?P<val>(?:\\.|[^"\\])*)"')


def _unescape(text: str) -> str:
    return (text.replace("\\\\", "\x00").replace("\\n", "\n")
            .replace('\\"', '"').replace("\x00", "\\"))


def parse_exposition(text: str) -> dict:
    """Parse Prometheus text format into {name: {...}} metric entries."""
    metrics: dict = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            metrics.setdefault(name, {})["help"] = _unescape(help_text)
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            metrics.setdefault(name, {})["type"] = kind
            continue
        m = _SAMPLE_RE.match(line)
        assert m, f"unparseable sample line: {line!r}"
        labels = {lm.group("key"): _unescape(lm.group("val"))
                  for lm in _LABEL_RE.finditer(m.group("labels") or "")}
        series = m.group("name")
        value = float(m.group("value"))
        entry = metrics.setdefault(series, {})
        entry.setdefault("samples", []).append((labels, value))
    return metrics


class TestHelpLines:
    def test_counter_gauge_histogram_help(self):
        reg = MetricsRegistry()
        reg.counter("c", help="counts things").inc(2)
        reg.gauge("g", help="gauges things").set(1.5)
        reg.histogram("h", help="times things").observe(0.3)
        parsed = parse_exposition(reg.expose_text())
        assert parsed["acfd_c"]["help"] == "counts things"
        assert parsed["acfd_g"]["help"] == "gauges things"
        assert parsed["acfd_h"]["help"] == "times things"
        assert parsed["acfd_c"]["type"] == "counter"
        assert parsed["acfd_h"]["type"] == "histogram"

    def test_help_survives_reregistration(self):
        reg = MetricsRegistry()
        reg.counter("c")  # first touch without help
        reg.counter("c", help="late help").inc()
        assert "# HELP acfd_c late help" in reg.expose_text()

    def test_no_help_no_help_line(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        assert "# HELP" not in reg.expose_text()


class TestEscaping:
    def test_help_escapes_backslash_and_newline(self):
        assert prom_escape_help("a\\b\nc") == "a\\\\b\\nc"

    def test_label_escapes_quote_too(self):
        assert prom_escape_label('say "hi"\\now\n') == \
            'say \\"hi\\"\\\\now\\n'

    def test_hostile_help_round_trips(self):
        hostile = 'path C:\\tmp\nsecond "line"'
        reg = MetricsRegistry()
        reg.counter("evil", help=hostile).inc()
        text = reg.expose_text()
        # the exposition itself stays one-line-per-entry
        assert all(l.count("# HELP") <= 1 for l in text.splitlines())
        parsed = parse_exposition(text)
        assert parsed["acfd_evil"]["help"] == hostile


class TestRoundTrip:
    def test_values_round_trip_through_the_text_format(self):
        reg = MetricsRegistry()
        reg.counter("loops.scanned").inc(41)
        reg.gauge("halo.width").set(2.0)
        h = reg.histogram("recv.wait_s")
        for v in (0.1, 0.2, 0.4, 1.6, 0.0):
            h.observe(v)
        parsed = parse_exposition(reg.expose_text())
        assert parsed["acfd_loops_scanned"]["samples"] == [({}, 41.0)]
        assert parsed["acfd_halo_width"]["samples"] == [({}, 2.0)]
        count = dict(
            (labels.get("le"), v)
            for labels, v in parsed["acfd_recv_wait_s_bucket"]["samples"])
        assert count["+Inf"] == 5.0
        assert count["0"] == 1.0  # the underflow (v <= 0) bucket
        assert parsed["acfd_recv_wait_s_count"]["samples"] == [({}, 5.0)]
        assert parsed["acfd_recv_wait_s_sum"]["samples"][0][1] == \
            pytest.approx(2.3)
        # cumulative buckets are monotone in le order
        numeric = sorted((float(le), v) for le, v in count.items()
                         if le not in ("+Inf",))
        values = [v for _, v in numeric]
        assert values == sorted(values)

    def test_health_exposition_parses_with_labels(self):
        from repro.obs.health import Telemetry, health_exposition
        tele = Telemetry(2)
        tele.rank_view(1).start()
        parsed = parse_exposition(health_exposition(tele))
        samples = dict((labels["rank"], v) for labels, v in
                       parsed["acfd_health_state"]["samples"])
        assert samples == {"0": 0.0, "1": 1.0}
        assert "run-state code" in parsed["acfd_health_state"]["help"]
        tele.close()
