"""Span arithmetic, patching and the percentile rule."""

import pytest

from spans import Tracer, percentile, tail_percentile


def _tracer(*spans):
    """A tracer holding hand-written ``(name, start, end, parent)`` spans."""
    tracer = Tracer()
    for name, start, end, parent in spans:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.sizes.append(0)
    return tracer


TREE = (
    ("root", 0.0, 10.0, -1),
    ("a", 1.0, 4.0, 0),
    ("b", 2.0, 3.0, 1),
    ("a", 5.0, 9.0, 0),
    ("b", 5.5, 6.0, 3),
    ("b", 7.0, 8.5, 3),
    ("after", 11.0, 12.0, -1),
)


def test_self_time_is_duration_minus_covered_child_time():
    own = _tracer(*TREE).self_times()
    assert own == [3.0, 2.0, 1.0, 2.0, 0.5, 1.5, 1.0]


def test_self_times_of_a_subtree_sum_to_its_root():
    tracer = _tracer(*TREE)
    first, stop = tracer.subtree(0)
    assert (first, stop) == (0, 6)  # "after" starts past the root's end
    layers = tracer.layers(first, stop)
    assert sum(layer.self_s for layer in layers.values()) == pytest.approx(10.0)
    assert layers["a"].calls == 2 and layers["a"].busy_s == 7.0
    assert layers["b"].busy_s == 3.0 and layers["b"].self_s == 3.0
    assert "after" not in layers and "after" in tracer.layers()


def test_wrap_records_nesting_skips_reentry_and_restores():
    class Base:
        def work(self, keys):
            return len(keys)

        def outer(self, keys):
            return self.work(keys) + 1

    class Derived(Base):
        def work(self, keys):
            return super().work(keys)

    tracer = Tracer()
    tracer.wrap(Base, "work", "layer.work", sized=True)
    tracer.wrap(Derived, "work", "layer.work", sized=True)
    tracer.wrap(Base, "outer", "layer.outer")
    assert Derived().outer([1, 2, 3]) == 4
    # Derived.work → Base.work is one span, not two
    assert tracer.names == ["layer.outer", "layer.work"]
    assert tracer.parents == [-1, 0]
    assert tracer.sizes == [0, 3]
    assert tracer.ends[0] >= tracer.ends[1] >= tracer.starts[1]
    tracer.unwrap_all()
    Derived().outer([1])
    assert len(tracer.names) == 2


def test_wrap_closes_the_span_when_the_call_raises():
    class Boom:
        def go(self):
            raise KeyError("x")

    tracer = Tracer()
    tracer.wrap(Boom, "go", "boom")
    with pytest.raises(KeyError):
        Boom().go()
    tracer.unwrap_all()
    assert tracer.ends[0] > 0.0
    with tracer.span("next"):
        pass
    assert tracer.parents[1] == -1


def test_wrap_iterator_spans_each_next():
    class Source:
        def batches(self):
            yield from (1, 2, 3)

    source = Source()
    tracer = Tracer()
    tracer.wrap_iterator(source, "batches", "source")
    with tracer.span("consumer"):
        assert list(source.batches()) == [1, 2, 3]
    # three items plus the exhausted next()
    assert tracer.names.count("source") == 4
    assert set(tracer.parents[1:]) == {0}
    tracer.unwrap_all()
    assert "batches" not in vars(source)


@pytest.mark.parametrize("samples, expected", [
    (0, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(samples,
                                                                expected):
    assert tail_percentile(samples) == expected


def test_percentile_is_nearest_rank():
    ordered = [float(v) for v in range(1, 101)]
    assert percentile(ordered, 50.0) == 50.0
    assert percentile(ordered, 99.0) == 99.0
    assert percentile(ordered, 100.0) == 100.0
    assert percentile([7.0], 99.9) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_chrome_trace_is_microseconds_from_the_first_span():
    events = _tracer(*TREE).to_chrome_trace()["traceEvents"]
    assert events[1] == {
        "name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 1e6, "dur": 3e6,
        "args": {"span": 1, "parent": 0, "size": 0},
    }
