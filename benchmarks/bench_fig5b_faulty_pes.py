"""Figure 5b — accuracy vs number of faulty PEs (worst-case high-order-bit faults).

The paper shows that as few as 8 faulty PEs (0.012 % of a 256x256 array)
halve the classification accuracy.  The reproduction uses a scaled-down
array (see EXPERIMENTS.md) and sweeps the same kind of curve: accuracy as a
function of the number of faulty PEs, averaged over several fault maps.
"""

from conftest import bench_config, emit, run_once
from repro.experiments import run_scenario
import pytest

#: Full figure reproduction: trains baselines for every dataset.
pytestmark = pytest.mark.slow


def test_fig5b_faulty_pe_count(benchmark, dataset_name, dataset_baseline):
    config = bench_config(dataset_name)
    records = run_once(benchmark, run_scenario, "fig5b", config)
    emit(records, name=f"fig5b_{dataset_name}",
         title=f"Fig. 5b ({dataset_name}): accuracy vs number of faulty PEs",
         table_columns=["dataset", "num_faulty_pes", "fault_rate", "accuracy",
                        "accuracy_std"],
         series=("num_faulty_pes", "accuracy", None))

    accuracies = {r["num_faulty_pes"]: r["accuracy"] for r in records}
    # Shape checks: fault-free accuracy is the baseline; large fault counts collapse it.
    assert accuracies[0] >= accuracies[64]
    assert accuracies[64] <= accuracies[0] - 0.3
