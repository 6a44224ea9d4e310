"""Tracer: deterministic ids, nesting, external spans, rollups."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.obs import Tracer, phase_rollup
from repro.obs.trace import Span

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


class FakeClock:
    """Monotonic test clock advancing one unit per read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def make_tracer(**kwargs):
    return Tracer(clock=FakeClock(), **kwargs)


def test_ids_are_sequential_and_start_at_one():
    tracer = make_tracer()
    with tracer.span("a"):
        pass
    with tracer.span("b"):
        pass
    assert [span.span_id for span in tracer.spans] == [1, 2]


def test_nesting_sets_parent_links():
    tracer = make_tracer()
    with tracer.span("outer") as outer:
        assert tracer.current is outer
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
    assert tracer.current is None
    assert outer.parent_id is None
    # Children close (and are retained) before their parents.
    assert [span.name for span in tracer.spans] == ["inner", "outer"]


def test_span_times_the_block():
    tracer = make_tracer()
    with tracer.span("timed") as span:
        pass
    assert span.end == span.start + 1.0
    assert span.seconds == 1.0


def test_span_closed_on_exception():
    tracer = make_tracer()
    try:
        with tracer.span("boom"):
            raise RuntimeError("kaboom")
    except RuntimeError:
        pass
    assert tracer.current is None
    assert tracer.spans[0].end is not None


def test_add_registers_external_interval():
    tracer = make_tracer()
    with tracer.span("batch") as batch:
        shipped = tracer.add("restore", start=10.0, end=10.5,
                             proc="worker-1", phase="restore")
    assert shipped.parent_id == batch.span_id  # defaults to innermost
    assert shipped.seconds == 0.5
    assert shipped.proc == "worker-1"
    explicit = tracer.add("score", start=0.0, end=1.0, parent_id=99)
    assert explicit.parent_id == 99


def test_sink_receives_every_closed_span():
    closed = []
    tracer = Tracer(clock=FakeClock(), sink=closed.append, retain=False)
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    assert [span.name for span in closed] == ["b", "a"]
    assert tracer.spans == []  # retention disabled


def test_record_round_trip():
    span = Span(name="q", span_id=3, parent_id=1, start=1.0, end=2.5,
                proc="worker-0", attrs={"index": 4})
    clone = Span.from_record(span.to_record())
    assert clone == span
    bare = Span(name="open", span_id=1, parent_id=None, start=0.0)
    assert Span.from_record(bare.to_record()) == bare


def test_phase_rollup_accumulates_by_path():
    tracer = make_tracer()
    for _ in range(2):
        with tracer.span("step"):
            with tracer.span("query"):
                pass
    rollup = phase_rollup(tracer.spans)
    assert rollup["step"]["calls"] == 2
    assert rollup["step/query"]["calls"] == 2
    assert rollup["step/query"]["seconds"] == 2.0
    still_open = Span(name="open", span_id=99, parent_id=None, start=0.0)
    assert "open" not in phase_rollup(tracer.spans + [still_open])


def test_spans_open_only_through_traced():
    """Outside ``repro.obs`` every span opens through ``traced(...)``.

    A ``.span(`` call elsewhere in the package would be a second way to
    open a span, with a tracer passed around by hand.
    """
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if PACKAGE / "obs" in path.parents:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "span"):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert found == []
