"""Figure 5a — accuracy vs stuck-at fault bit location (sa0 / sa1).

The paper injects stuck-at-0 and stuck-at-1 faults into individual output
bits of the PE accumulators and shows that faults in the higher-order bits
destroy accuracy while LSB faults are benign.  This benchmark sweeps the
data bits of the reproduction's accumulator format for all three datasets.
"""

from conftest import bench_config, emit, run_once
from repro.experiments import get_scenario, run_scenario
import pytest

#: Full figure reproduction: trains baselines for every dataset.
pytestmark = pytest.mark.slow


def test_fig5a_bit_locations(benchmark, dataset_name, dataset_baseline):
    config = bench_config(dataset_name)
    records = run_once(benchmark, run_scenario, "fig5a", config)
    emit(records, name=f"fig5a_{dataset_name}",
         title=f"Fig. 5a ({dataset_name}): accuracy vs fault bit location",
         table_columns=["dataset", "stuck_type", "bit_position", "accuracy"],
         series=("bit_position", "accuracy", "stuck_type"))

    by_key = {(r["stuck_type"], r["bit_position"]): r["accuracy"] for r in records}
    top_bit = max(get_scenario("fig5a").values)
    # Shape check: high-order sa1 faults hurt far more than LSB faults.
    assert by_key[("sa1", top_bit)] <= by_key[("sa1", 0)]
