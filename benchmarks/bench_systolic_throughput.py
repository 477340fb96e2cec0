"""Micro-benchmarks of the systolic-array simulator itself.

These are conventional pytest-benchmark measurements (multiple rounds) of the
simulator's hot paths -- fault-free matmul, faulty matmul and convolution --
plus the analytical latency model's estimate of how much slower a
re-execution-based fault-tolerance scheme would be (the overhead the paper's
approach avoids).
"""

import numpy as np

from repro.faults import random_fault_map
from repro.systolic import (
    DEFAULT_ACCUMULATOR_FORMAT,
    LayerWorkload,
    SystolicArray,
    reexecution_overhead,
    schedule_network,
)

FMT = DEFAULT_ACCUMULATOR_FORMAT
RNG = np.random.default_rng(0)
WEIGHT = RNG.normal(size=(64, 128))
INPUTS = (RNG.random((256, 128)) > 0.7).astype(float)


def test_bench_matmul_fault_free(benchmark):
    array = SystolicArray(32, 32)
    result = benchmark(array.matmul, WEIGHT, INPUTS)
    assert np.allclose(result, INPUTS @ WEIGHT.T)


def test_bench_matmul_with_faults(benchmark):
    array = SystolicArray(32, 32)
    array.load_fault_map(random_fault_map(32, 32, 32, bit_position=FMT.magnitude_msb,
                                          seed=1))
    result = benchmark(array.matmul, WEIGHT, INPUTS)
    assert result.shape == (256, 64)


def test_bench_matmul_with_bypass(benchmark):
    array = SystolicArray(32, 32)
    array.load_fault_map(random_fault_map(32, 32, 32, seed=1))
    array.bypass_faulty_pes()
    result = benchmark(array.matmul, WEIGHT, INPUTS)
    assert result.shape == (256, 64)


def test_bench_conv2d_on_array(benchmark):
    array = SystolicArray(32, 32)
    weight = RNG.normal(size=(8, 4, 3, 3))
    images = (RNG.random((8, 4, 16, 16)) > 0.8).astype(float)
    result = benchmark(array.conv2d, weight, images, None, 1, 1)
    assert result.shape == (8, 8, 16, 16)


def test_reexecution_overhead_vs_bypass(benchmark):
    """The latency model's summary the paper's argument rests on: redundant
    re-execution doubles the cycle count, whereas the bypass path adds none."""

    workloads = [
        LayerWorkload("conv1", out_features=8, in_features=72, vectors=1024),
        LayerWorkload("conv2", out_features=8, in_features=72, vectors=256),
        LayerWorkload("fc1", out_features=32, in_features=128, vectors=4),
        LayerWorkload("fc2", out_features=10, in_features=32, vectors=4),
    ]
    summary = benchmark(schedule_network, workloads, 32, 32)
    doubled = reexecution_overhead(summary["total_cycles"], redundancy=2)
    print(f"\nsingle-pass cycles: {summary['total_cycles']}, "
          f"re-execution cycles: {doubled}, "
          f"average utilization: {summary['average_utilization']:.3f}")
    assert doubled == 2 * summary["total_cycles"]
