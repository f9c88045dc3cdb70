"""Span arithmetic, the tail-percentile rule, and wrapper restoration."""

import types

import pytest

import metrics
from tracing import Layer, Tracer, layer_stats, nearest_rank, self_times, tail_percentile


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("round", 0.0, 10.0, -1),
        span("client", 1.0, 4.0, 0),
        span("grad", 2.0, 3.0, 1),
        span("client", 5.0, 9.0, 0),
        span("grad", 5.5, 6.0, 3),
        span("grad", 6.0, 8.0, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 0.5, 2.0])
    stats = layer_stats(spans)
    assert stats["client"].calls == 2
    assert stats["grad"].self_s == pytest.approx(3.5)
    # self times of a whole tree add up to the root's duration
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_tracer_records_nesting_with_parents():
    ticks = iter(range(100))
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(mod.inner(x))
    layers = [Layer("m.outer", mod, "outer"), Layer("m.inner", mod, "inner", lambda a, k, r: r)]
    with Tracer(layers, clock=lambda: float(next(ticks))) as t:
        assert mod.outer(1) == 3
    names = [s[0] for s in t.spans]
    assert names == ["m.outer", "m.inner", "m.inner"]
    assert [s[3] for s in t.spans] == [-1, 0, 0]
    assert [s[4] for s in t.spans] == [0, 2, 3]
    # outer 0..5, inner 1..2 and 3..4
    assert self_times(t.spans) == [3.0, 1.0, 1.0]


@pytest.mark.parametrize("n, pct", [(11, 9), (20, 50), (40, 75), (100, 90), (119, 91), (136, 92), (1000, 99)])
def test_tail_percentile_examples(n, pct):
    assert tail_percentile(n) == pct


def test_tail_percentile_is_the_highest_with_ten_samples_beyond():
    for n in range(11, 600):
        values = list(range(n))
        pct = tail_percentile(n)
        assert sum(v > nearest_rank(values, pct) for v in values) >= 10, n
        assert sum(v > nearest_rank(values, pct + 1) for v in values) < 10, n


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile(10)


class _Base:
    def step(self):
        return "base"


class _Child(_Base):
    def other(self):
        return "child"


def test_wrappers_restored_even_when_the_body_raises():
    mod = types.SimpleNamespace(f=lambda: 1)
    original_f = mod.f
    layers = [Layer("m.f", mod, "f"), Layer("c.step", _Base, "step"), Layer("c.other", _Child, "other")]
    tracer = Tracer(layers)
    with pytest.raises(RuntimeError):
        with tracer:
            assert mod.f is not original_f
            assert _Child().step() == "base"
            raise RuntimeError("boom")
    assert tracer.restored()
    assert mod.f is original_f
    assert "step" not in _Child.__dict__  # the inherited method was not copied down
    count = len(tracer.spans)
    mod.f(), _Child().step(), _Child().other()
    assert len(tracer.spans) == count


def test_wrappers_restored_when_entering_fails():
    mod = types.SimpleNamespace(f=lambda: 1)
    original_f = mod.f
    tracer = Tracer([Layer("m.f", mod, "f"), Layer("m.missing", mod, "missing")])
    with pytest.raises(AttributeError):
        with tracer:
            pass
    assert mod.f is original_f


def test_fedsim_layers_restored_after_a_traced_region():
    layers = metrics.traced_layers()
    before = [(l.owner, l.attr, l.owner.__dict__[l.attr] if isinstance(l.owner, type) else getattr(l.owner, l.attr)) for l in layers]
    tracer = Tracer(layers)
    with tracer:
        pass
    assert tracer.restored()
    for owner, attr, original in before:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is original, f"{owner}.{attr}"


def test_every_layer_with_a_metric_is_wrapped():
    wrapped = {l.name for l in metrics.traced_layers()}
    derived = {"data.client_rows"}  # read from the run's partition, not from spans
    assert set(metrics.LAYER_STATS) - derived <= wrapped
