"""Headline claims of the paper, computed from the reproduction's own records.

The paper's abstract makes three quantitative claims:

1. Classification accuracy of a systolicSNN drops significantly even at
   extremely low fault rates (8 faulty PEs, 0.012 % of a 256x256 array).
2. FalVolt enables operation at fault rates up to 60 % with a negligible
   accuracy drop (as low as 0.1 %).
3. FalVolt is ~2x faster (in retraining epochs) than FaPIT.

:func:`run_headline_claims` evaluates each claim against the reproduction's
scaled-down setup and reports both the measured numbers and a boolean
"claim holds qualitatively" verdict.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from .config import ExperimentConfig, default_config
from .convergence import convergence_speedup, run_fig8_convergence
from .mitigation import run_fig7_mitigation_comparison
from .scenarios import get_scenario, run_scenario


def run_headline_claims(config: Optional[ExperimentConfig] = None,
                        dataset: str = "mnist",
                        few_faults: int = 8,
                        high_fault_rate: float = 0.60,
                        retraining_epochs: Optional[int] = None) -> List[dict]:
    """Evaluate the paper's three headline claims; returns one record per claim."""

    config = config or default_config(dataset)
    records: List[dict] = []

    # Claim 1: a handful of faulty PEs destroys accuracy.
    vuln = run_scenario(dataclasses.replace(get_scenario("fig5b"),
                                            values=(0, few_faults), trials=3),
                        config)
    clean = next(r for r in vuln if r["num_faulty_pes"] == 0)["accuracy"]
    faulty = next(r for r in vuln if r["num_faulty_pes"] == few_faults)["accuracy"]
    records.append({
        "claim": f"accuracy collapses with only {few_faults} faulty PEs",
        "paper": "99% -> ~50% (MNIST)",
        "measured": f"{clean:.3f} -> {faulty:.3f}",
        "holds": bool(clean - faulty >= 0.2),
    })

    # Claim 2: FalVolt recovers accuracy even at a 60 % fault rate.
    mitigation = run_fig7_mitigation_comparison(
        config, fault_rates=(high_fault_rate,), methods=("fap", "falvolt"),
        retraining_epochs=retraining_epochs)
    fap = next(r for r in mitigation if r["method"] == "FaP")
    falvolt = next(r for r in mitigation if r["method"] == "FalVolt")
    records.append({
        "claim": f"FalVolt operates at {high_fault_rate:.0%} faulty PEs with negligible drop",
        "paper": "drop as low as 0.1%",
        "measured": (f"FalVolt drop {falvolt['accuracy_drop']:.3f} "
                     f"(FaP drop {fap['accuracy_drop']:.3f})"),
        "holds": bool(falvolt["accuracy_drop"] <= 0.10
                      and falvolt["accuracy"] > fap["accuracy"]),
    })

    # Claim 3: FalVolt converges in fewer retraining epochs than FaPIT.
    convergence = run_fig8_convergence(config, fault_rate=0.30,
                                       retraining_epochs=retraining_epochs)
    speedup = convergence_speedup(convergence)
    records.append({
        "claim": "FalVolt needs fewer retraining epochs than FaPIT",
        "paper": "~2x fewer epochs",
        "measured": "not reached within budget" if speedup is None else f"{speedup:.2f}x",
        "holds": bool(speedup is not None and speedup >= 1.0),
    })
    return records
