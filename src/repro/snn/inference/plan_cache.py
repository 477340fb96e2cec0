"""Per-process cache of lowered inference plans, keyed by model token.

A :class:`~repro.snn.inference.engine.FusedFaultEngine` or
:class:`~repro.snn.inference.engine.FusedInferenceEngine` given a model
token fetches its :class:`~repro.snn.inference.plan.InferencePlan` from
the process-wide :func:`default_plan_cache`, so a campaign that evaluates
many work units per process lowers its trained model once:

* **Keyed by content, not identity.**  The cache key is
  :func:`repro.utils.hashing.model_key` -- the model token (a digest of
  every parameter and buffer), the wrapper's ``time_steps`` and the plain
  attributes the lowering reads (neuron kind, a fixed threshold, the reset
  mode, layer geometry), so changing any weight or threshold misses.  The
  on-disk sweep records use the same key.  Callers that already hold the
  token (e.g. :class:`~repro.faults.campaign.CampaignRunner`) pass it to
  skip re-hashing.
* **Per process, fork-friendly.**  Entries are plain Python objects whose
  weight arrays are captured *by reference*, so a cache warmed in the
  orchestrator parent is inherited by every forked worker -- including
  replacement workers spawned after a crash -- through copy-on-write
  memory.  Workers therefore lower the plan zero times.
* **Reference semantics caveat.**  Like the engines themselves, a cached
  plan references the lowering-time weight arrays.  If parameters are
  mutated *in place* (not replaced), drop the cache (:meth:`clear`)
  exactly as you would rebuild an engine.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...utils.hashing import model_key
from .plan import InferencePlan, lower_plan

__all__ = ["PlanCache", "default_plan_cache"]


class PlanCache:
    """Bounded per-process cache of :class:`InferencePlan` objects.

    Parameters
    ----------
    max_entries:
        Entries kept before the oldest is evicted (insertion order).
        Plans hold weight *references*, so the bound limits bookkeeping,
        not tensor memory.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = int(max_entries)
        self._plans: Dict[str, InferencePlan] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        """Drop every cached plan (required after in-place weight mutation)."""

        self._plans.clear()

    def get_plan(self, model, token: Optional[str] = None) -> InferencePlan:
        """The lowered plan of ``model``, lowering at most once per content.

        ``token`` skips the state hashing when the caller already knows the
        model token (it must be the :func:`~repro.utils.hashing.model_token` of
        the *current* state).
        """

        key = model_key(model, token)
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            plan = lower_plan(model)
            if len(self._plans) >= self.max_entries:
                self._plans.pop(next(iter(self._plans)))
            self._plans[key] = plan
        else:
            self.hits += 1
        return plan

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PlanCache({len(self._plans)}/{self.max_entries} entries, "
                f"{self.hits} hits, {self.misses} misses)")


#: Process-wide default instance (forked workers inherit its entries).
_DEFAULT_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide :class:`PlanCache` fused engines read under a token."""

    return _DEFAULT_CACHE
