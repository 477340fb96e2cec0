"""Figure 5c — accuracy vs systolic array size at a fixed number of faulty PEs.

The paper fixes the number of faulty PEs and grows the array from 4x4 to
256x256: small arrays are reused more heavily, so the same faults corrupt a
larger share of the computation and accuracy collapses.  The reproduction
sweeps 4x4 .. 64x64 (its networks are correspondingly smaller).
"""

from conftest import bench_config, emit, run_once
from repro.experiments import run_scenario
import pytest

#: Full figure reproduction: trains baselines for every dataset.
pytestmark = pytest.mark.slow


def test_fig5c_array_sizes(benchmark, dataset_name, dataset_baseline):
    config = bench_config(dataset_name)
    records = run_once(benchmark, run_scenario, "fig5c", config)
    emit(records, name=f"fig5c_{dataset_name}",
         title=f"Fig. 5c ({dataset_name}): accuracy vs systolic array size (4 faulty PEs)",
         table_columns=["dataset", "array_size", "total_pes", "accuracy", "accuracy_std"],
         series=("total_pes", "accuracy", None))

    by_size = {r["array_size"]: r["accuracy"] for r in records}
    # Shape check: the smallest array suffers at least as much as the largest.
    assert by_size[4] <= by_size[64] + 0.05
