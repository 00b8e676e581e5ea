"""Tests for the benchmark's own arithmetic and its poly-fibonacci check."""

import pytest

import measure
from measure import Span, Tracer


def test_tail_index_leaves_ten_beyond():
    # 491 root sets: the 481st value (p98.0) has exactly 10 above it.
    assert measure.tail_index(491) == 480
    assert 491 - 1 - measure.tail_index(491) == measure.TAIL_BEYOND
    # 103 verified slopes: p90.3.
    assert measure.tail_index(103) == 92
    assert round(measure.tail_percent(103), 1) == 90.3
    # The smallest sample with a tail below the maximum.
    assert measure.tail_index(12) == 1


def test_tail_index_small_samples_fall_back_to_the_maximum():
    for n in range(1, 11):
        assert measure.tail_index(n) == n - 1
    assert measure.tail_index(11) == 0
    assert measure.tail_value([3.0, 1.0, 2.0]) == 3.0
    assert measure.tail_value([5.0]) == 5.0
    with pytest.raises(ValueError):
        measure.tail_index(0)


def test_tail_value_ignores_the_ten_slowest():
    samples = [float(i) for i in range(100)]
    samples[99] = 1e9  # one outlier cannot move the tail
    assert measure.tail_value(samples) == 89.0


def test_item_latencies_take_each_items_median_over_passes():
    passes = [{"a": 3.0, "b": 1.0, "c": 5.0}, {"a": 2.0, "b": 4.0, "c": 0.5}, {"a": 9.0, "b": 2.0}]
    # Medians: a 3.0, b 2.0, c 2.75; three items, so the tail is the maximum.
    assert measure.item_latencies(passes) == (2.75, 3.0, 3)
    # One slow pass out of three moves no item.
    many = [{str(i): float(i) for i in range(103)}] * 2 + [{str(i): 1000.0 for i in range(103)}]
    p50, tail, n = measure.item_latencies(many)
    assert (p50, tail, n) == (51.0, 92.0, 103)


def test_failed_fraction():
    assert measure.failed_fraction(491, 0) == 0.0
    assert measure.failed_fraction(4, 1) == 0.25
    with pytest.raises(ValueError):
        measure.failed_fraction(0, 0)
    with pytest.raises(ValueError):
        measure.failed_fraction(3, 4)


def test_covered_length_merges_and_clips():
    assert measure.covered_length([], 0.0, 1.0) == 0.0
    assert measure.covered_length([(0.1, 0.3), (0.2, 0.5), (0.7, 0.8)], 0.0, 1.0) == pytest.approx(0.5)
    # Parts outside the parent's interval do not count.
    assert measure.covered_length([(-1.0, 0.25), (0.75, 2.0)], 0.0, 1.0) == pytest.approx(0.5)


def test_self_time_subtracts_children():
    tr = Tracer()
    tr.spans = [
        Span("item", 0.0, 10.0, None, "1/2"),
        Span("recursion", 1.0, 3.0, 0, "1/2"),
        Span("pleating", 3.0, 9.0, 0, "1/2"),
        Span("rings", 4.0, 5.0, 2, "1/2"),
        Span("item", 10.0, 12.0, None, "1/3"),
        Span("pleating", 10.5, 11.5, 4, "1/3"),
    ]
    got = tr.self_times()
    assert got["item"] == pytest.approx((10 - 8) + (2 - 1))
    assert got["recursion"] == pytest.approx(2.0)
    assert got["pleating"] == pytest.approx((6 - 1) + 1)
    assert got["rings"] == pytest.approx(1.0)
    # Self times partition the root spans' total.
    assert sum(got.values()) == pytest.approx(12.0)


def test_tracer_records_parents_and_items():
    tr = Tracer()
    with tr.span("item", "3/5"):
        with tr.span("oracle"):
            pass
        with pytest.raises(KeyError):
            with tr.span("recursion"):
                raise KeyError("closed anyway")
    with tr.span("serialize"):
        pass
    names = [(s.name, s.parent, s.item) for s in tr.spans]
    assert names == [("item", None, "3/5"), ("oracle", 0, "3/5"), ("recursion", 0, "3/5"), ("serialize", None, None)]
    assert all(s.end >= s.start for s in tr.spans)
    assert tr._open == []


def test_modular_check_matches_the_oracle():
    from fareyslice import oracle
    from fareyslice.slopes import Slope
    from fareyslice.words import farey_word
    from workloads import poly_mod, word_trace_mod

    for s in (Slope(0, 1), Slope(1, 2), Slope(3, 8), Slope(5, 13)):
        coeffs = oracle.farey_polynomial(s, "parabolic").coeffs
        for z in (-3, -1, 2, 5):
            assert poly_mod(coeffs, z) == word_trace_mod(farey_word(s), z)
        # A wrong polynomial is caught.
        assert poly_mod(coeffs[:-1] + [coeffs[-1] + 1], 2) != word_trace_mod(farey_word(s), 2)


def test_every_workload_pass_checks_clean_on_small_inputs():
    from measure import NoTracer
    from workloads import fibonacci_pass, library, slice_pass, verify_pass

    lib = library()
    slopes = lib.slopes.enumerate_farey(8)
    for tr in (NoTracer(), Tracer()):
        for cone in (None, (3, 4)):
            res = slice_pass(lib, slopes, cone, tr)
            assert res.failures == [] and res.counters["rootsets"] == len(slopes)
        res = verify_pass(lib, slopes, tr)
        assert res.failures == [] and res.counters["verified"] == len(slopes)
        res = fibonacci_pass(lib, (lib.slopes.Slope(8, 13), (2, -3)), tr)
        assert res.failures == [] and res.counters["poly_muls"] > 0
    # The traced pass times every layer it calls.
    assert {"item", "recursion", "bench.check", "words"} <= set(tr.self_times())
