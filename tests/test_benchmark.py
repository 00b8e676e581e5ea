import pytest

from fareyslice import Poly, benchmark
from fareyslice.rings import poly_mul_count


@pytest.mark.parametrize(
    "path, size, recursion_mults, oracle_mults",
    [("fibonacci", 9, 7, 544), ("left", 10, 9, 160)],
)
def test_benchmark_leaves_the_multiplication_count_running(path, size, recursion_mults, oracle_mults):
    # A caller counting products around the benchmark sees its own count
    # keep growing: the benchmark takes deltas and resets nothing.
    Poly([1, 1]) * Poly([1, 1])
    before = poly_mul_count()
    report = benchmark.run_benchmark(path, size)
    after = poly_mul_count()
    assert before > 0
    assert after - before >= report.recursion_mults + report.oracle_mults
    assert (report.recursion_mults, report.oracle_mults) == (recursion_mults, oracle_mults)


@pytest.mark.parametrize("path", ["left", "fibonacci"])
@pytest.mark.parametrize("size", [0, -1, -5])
def test_benchmark_rejects_sizes_below_one(path, size):
    with pytest.raises(ValueError, match=f"size must be >= 1, got {size}"):
        benchmark.run_benchmark(path, size)
