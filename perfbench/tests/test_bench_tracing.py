"""Self time is a span minus its direct children."""

import time

from tracing import Tracer


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    tracer.request = "r"
    with tracer.span("outer"):
        with tracer.span("middle"):
            with tracer.span("inner"):
                time.sleep(0.02)
            time.sleep(0.01)
        time.sleep(0.01)
    own = dict(zip((s[0] for s in tracer.spans), tracer.self_times()))
    duration = {s[0]: (s[2] - s[1]) / 1e9 for s in tracer.spans}
    assert abs(own["outer"] - (duration["outer"] - duration["middle"])) < 1e-9
    assert abs(own["middle"] - (duration["middle"] - duration["inner"])) < 1e-9
    assert own["inner"] == duration["inner"] >= 0.02
    assert [s[3] for s in tracer.spans] == [None, 0, 1]
    assert {s[4] for s in tracer.spans} == {"r"}


def test_counts_only_while_counting():
    tracer = Tracer()
    tracer.add("gates", 3)
    tracer.peak("bytes", 10)
    tracer.counting = False
    tracer.add("gates", 5)
    tracer.peak("bytes", 99)
    assert tracer.counts == {"gates": 3, "bytes": 10}
