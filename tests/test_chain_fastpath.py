"""Fault-chain fast path: edge cases, bit-identity properties, plan cache.

The prefix-run chain kernel (:mod:`repro.systolic.chain_kernel`) must be
``tobytes()``-identical to its one reference, the sequential
:meth:`SystolicArray.matmul` oracle, for every chain structure: empty
tables, single-site chains, the all-chains-one-level degenerate case,
ragged multi-level mixes, both gather strategies and the chunked path.
The process-wide :class:`PlanCache` campaign runners read must change
*when* a model is lowered, never the records.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import StuckAtFault, random_fault_map
from repro.snn.inference import PlanCache
from repro.systolic import (
    BatchedSystolicArray,
    DEFAULT_ACCUMULATOR_FORMAT,
    SystolicArray,
    chain_kernel,
)
from repro.systolic import array as systolic_array
from repro.systolic.chain_kernel import StuckAtKernel
from repro.utils.hashing import model_token
from repro.utils.rng import get_rng
from tests.conftest import assert_same_bytes, run_faulty_affine

FMT = DEFAULT_ACCUMULATOR_FORMAT


def run_linear(arrays, weight, inputs, bias=None):
    """Per-map linear output; 2D ``inputs`` are shared by every map."""

    return run_faulty_affine(arrays, weight, inputs, bias,
                             shared=inputs.ndim == 2)


def assert_matches_oracle(arrays, weight, inputs, bias=None):
    """Run one multi-map linear layer and pin every map to the oracle.

    Each map's output must equal its own :meth:`SystolicArray.matmul`
    byte for byte.  Returns the multi-map output.
    """

    result = run_linear(arrays, weight, inputs, bias)
    for f, array in enumerate(arrays):
        x = inputs if inputs.ndim == 2 else inputs[f]
        assert_same_bytes(result[f], array.matmul(weight, x, bias=bias))
    return result


def run_bounds(plan):
    """``(start, end)`` of every run, per level, per tile of ``plan``."""

    return [[[(run.start, run.end) for run in runs] for runs in tile.levels]
            for tile in plan.prefix_tiles]


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------
class TestChainEdgeCases:
    def test_empty_chain_table(self):
        """Fault-free maps build no chain plans; output is the dense GEMM."""

        rng = get_rng(0)
        arrays = [SystolicArray(6, 6) for _ in range(3)]
        batched = BatchedSystolicArray(arrays)
        weight = rng.normal(size=(8, 10))
        prepared = batched.prepare_weight(weight)
        assert prepared.chain_plans == []
        inputs = rng.normal(size=(3, 4, 10))
        result = assert_matches_oracle(arrays, weight, inputs)
        assert result.tobytes() == np.matmul(inputs, weight.T).tobytes()

    def test_faults_outside_output_columns_build_no_chains(self):
        """Faults in columns holding no outputs produce an empty table."""

        array = SystolicArray(4, 8)
        array.inject_fault(1, 5, StuckAtFault(3, "sa1"))  # out_features < 6
        batched = BatchedSystolicArray([array])
        weight = np.ones((3, 4))
        prepared = batched.prepare_weight(weight)
        assert prepared.chain_plans == []
        assert_matches_oracle([array], weight, get_rng(12).normal(size=(1, 2, 4)))

    def test_single_site_chains(self):
        """One fault per column: every chain is one level plus a tail."""

        rng = get_rng(1)
        arrays = []
        for seed in range(4):
            fault_map = random_fault_map(5, 5, 3, bit_position=FMT.magnitude_msb,
                                         stuck_type="sa1", seed=seed)
            array = SystolicArray(5, 5)
            array.load_fault_map(fault_map)
            arrays.append(array)
        weight = rng.normal(size=(10, 12))
        inputs = rng.normal(size=(4, 3, 12))
        assert_matches_oracle(arrays, weight, inputs)

    def test_all_chains_share_one_level_uniform_degenerate(self):
        """Chains sharing one site count form ONE run per level."""

        arrays = []
        for col in range(3):
            array = SystolicArray(4, 4)
            array.inject_fault(2, col, StuckAtFault(FMT.magnitude_msb, "sa1"))
            arrays.append(array)
        batched = BatchedSystolicArray(arrays)
        weight = get_rng(2).normal(size=(4, 4))
        prepared = batched.prepare_weight(weight)
        (plan,) = prepared.chain_plans
        assert run_bounds(plan) == [[[(0, 3)]]]
        (run,) = plan.prefix_tiles[0].levels[0]
        assert run.all_sa1 and run.stuck_one is None

        assert_matches_oracle(arrays, weight, get_rng(3).normal(size=(3, 2, 4)))

    def test_mixed_site_counts_split_into_uniform_groups(self):
        array = SystolicArray(6, 4)
        array.inject_fault(0, 0, StuckAtFault(3, "sa1"))
        array.inject_fault(0, 1, StuckAtFault(3, "sa1"))
        array.inject_fault(4, 1, StuckAtFault(5, "sa0"))
        batched = BatchedSystolicArray([array])
        weight = get_rng(4).normal(size=(4, 6))
        prepared = batched.prepare_weight(weight)
        (plan,) = prepared.chain_plans
        # Descending sort: the two-site chain first, so level 0 covers both
        # chains and level 1 only the first.
        assert run_bounds(plan) == [[[(0, 2)], [(0, 1)]]]
        assert_matches_oracle([array], weight, get_rng(13).normal(size=(1, 3, 6)))

    def test_site_row_beyond_tile_rows_is_tail_only(self):
        """A fault row >= in_features contributes no level, only the tail."""

        array = SystolicArray(6, 3)
        array.inject_fault(4, 0, StuckAtFault(FMT.magnitude_msb, "sa1"))
        weight = get_rng(5).normal(size=(3, 3))      # in_features=3 < row 4
        inputs = get_rng(6).normal(size=(1, 2, 3))
        assert_matches_oracle([array], weight, inputs)

    def test_negative_zero_tail_sums_match_oracle(self, monkeypatch):
        """A tail GEMM that returns -0.0 for zero sums still matches the oracle.

        A BLAS that starts each sum from its first product returns -0.0
        when every product is -0.0; the oracle's zero-initialised
        accumulator returns +0.0.  The kernel's ``0 + tails`` step is what
        collapses the sign, so the chain-only column (its fault row lies
        beyond the 3 input rows) must still come out ``tobytes()``-equal.
        """

        class SignedZeroNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, out=None):
                result = np.matmul(a, b, out=out)
                result[result == 0] = -0.0
                return result

        monkeypatch.setattr(chain_kernel, "np", SignedZeroNumpy())
        array = SystolicArray(6, 3)
        array.inject_fault(4, 0, StuckAtFault(FMT.magnitude_msb, "sa1"))
        weight = get_rng(15).normal(size=(3, 3))
        inputs = np.zeros((1, 2, 3))
        inputs[0, 1] = get_rng(16).normal(size=3)  # one zero row, one not
        result = assert_matches_oracle([array], weight, inputs)
        assert not np.signbit(result[0, 0, 0])

    def test_chunked_fast_path_matches_unchunked(self, monkeypatch):
        rng = get_rng(7)
        arrays = []
        for seed in range(5):
            fault_map = random_fault_map(6, 6, 5, bit_position=None,
                                         stuck_type=seed % 2, seed=seed)
            array = SystolicArray(6, 6)
            array.load_fault_map(fault_map)
            arrays.append(array)
        weight = rng.normal(size=(9, 14))
        inputs = rng.normal(size=(5, 3, 14))
        unchunked = assert_matches_oracle(arrays, weight, inputs)
        monkeypatch.setattr(systolic_array, "_CHAIN_BLOCK_ELEMENTS", 1)
        chunked = assert_matches_oracle(arrays, weight, inputs)
        assert unchunked.tobytes() == chunked.tobytes()

    def test_descending_sort_makes_full_tile_levels_prefixes(self):
        """Full tiles carry one run per level; chains sort by site count."""

        array = SystolicArray(4, 4)
        array.inject_fault(0, 0, StuckAtFault(3, "sa1"))
        array.inject_fault(2, 0, StuckAtFault(4, "sa0"))
        array.inject_fault(1, 1, StuckAtFault(3, "sa1"))
        batched = BatchedSystolicArray([array])
        weight = get_rng(10).normal(size=(4, 9))
        prepared = batched.prepare_weight(weight)
        (plan,) = prepared.chain_plans
        signatures = [
            tuple(sum(run.start <= chain < run.end
                      for runs in tile.levels for run in runs)
                  for tile in plan.prefix_tiles)
            for chain in range(len(plan.map_ids))]
        assert signatures == sorted(signatures, reverse=True)
        assert signatures[0] != signatures[-1]
        # 9 input features on a 4-row array: tiles 0 and 1 are full, tile 2
        # is partial.  Full tiles must expose exactly one (prefix) run per
        # level, starting at chain 0.
        for tile in plan.prefix_tiles[:2]:
            for runs in tile.levels:
                assert len(runs) == 1
                assert runs[0].start == 0
        assert_matches_oracle([array], weight, get_rng(14).normal(size=(1, 3, 9)))

    def test_per_chain_view_strategy_matches_stacked(self, monkeypatch):
        """Forcing the wide-batch strategy on tiny batches changes nothing."""

        rng = get_rng(8)
        arrays = []
        for seed in range(4):
            fault_map = random_fault_map(5, 7, 4, bit_position=None,
                                         stuck_type="sa1", seed=seed)
            array = SystolicArray(5, 7)
            array.load_fault_map(fault_map)
            arrays.append(array)
        weight = rng.normal(size=(12, 11))
        inputs = rng.normal(size=(4, 3, 11))
        monkeypatch.setattr(chain_kernel, "PER_CHAIN_GEMM_BATCH", 10**9)
        stacked = assert_matches_oracle(arrays, weight, inputs)
        monkeypatch.setattr(chain_kernel, "PER_CHAIN_GEMM_BATCH", 1)
        by_view = assert_matches_oracle(arrays, weight, inputs)
        assert stacked.tobytes() == by_view.tobytes()


# ----------------------------------------------------------------------
# Row blocks of the per-map-view strategy
# ----------------------------------------------------------------------
class TestChainRowBlocks:
    """One-output plans run over row blocks; wider plans never do.

    ``CHAIN_ROW_BLOCK`` is shrunk to 64 and the batch is ``3 x 64 + 37``
    rows, so a blocked plan runs three full blocks and a partial one.
    """

    ROWS, COLS = 8, 6
    BATCH = 3 * 64 + 37

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(chain_kernel, "CHAIN_ROW_BLOCK", 64)

    def product_heights(self, monkeypatch, out_features, chunked):
        """Rows of every chain product, and the multi-map output.

        Every map's output must match its oracle byte for byte.
        """

        rng = get_rng(21 + out_features)
        arrays = []
        for seed in range(3):
            fault_map = random_fault_map(self.ROWS, self.COLS, 6,
                                         bit_position=None,
                                         stuck_type=seed % 2, seed=40 + seed)
            array = SystolicArray(self.ROWS, self.COLS)
            array.load_fault_map(fault_map)
            arrays.append(array)
        weight = rng.normal(size=(out_features, 20))
        inputs = rng.normal(size=(3, self.BATCH, 20))
        expected = [array.matmul(weight, inputs[f]) for f, array in enumerate(arrays)]

        heights = []

        class SpyNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, out=None):
                heights.append(a.shape[-2])
                return np.matmul(a, b, out=out)

        if chunked:
            monkeypatch.setattr(systolic_array, "_CHAIN_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(chain_kernel, "np", SpyNumpy())
        result = run_linear(arrays, weight, inputs)
        for f, want in enumerate(expected):
            assert_same_bytes(result[f], want)
        return heights

    @pytest.mark.parametrize("chunked", [False, True])
    def test_one_output_plan_runs_in_row_blocks(self, monkeypatch, chunked):
        heights = self.product_heights(monkeypatch, self.COLS, chunked)
        assert heights and set(heights) == {64, 37}

    @pytest.mark.parametrize("chunked", [False, True])
    def test_two_output_plan_runs_the_whole_batch(self, monkeypatch, chunked):
        heights = self.product_heights(monkeypatch, 2 * self.COLS, chunked)
        assert heights and set(heights) == {self.BATCH}

    def test_one_row_remainder_joins_the_last_block(self):
        """A one-row product is a dot, not a GEMV, so no block has one row."""

        assert chain_kernel._row_blocks(3 * 64 + 1, 64) == [
            (0, 64), (64, 128), (128, 193)]
        assert chain_kernel._row_blocks(3 * 64 + 37, 64)[-1] == (192, 229)
        assert chain_kernel._row_blocks(64, 64) == [(0, 64)]
        assert chain_kernel._row_blocks(0, 64) == []


# ----------------------------------------------------------------------
# Fused stuck-at kernel
# ----------------------------------------------------------------------
class TestStuckAtKernel:
    @given(
        values=st.lists(st.floats(-400.0, 400.0, allow_nan=False), min_size=1,
                        max_size=32),
        bit=st.integers(0, FMT.total_bits - 1),
        stuck=st.integers(0, 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_force_matches_fixed_point_reference(self, values, bit, stuck):
        """The fused kernel equals FixedPointFormat.apply_stuck_at bit for bit."""

        block = np.array(values)[None, :, None].copy()
        expected = FMT.apply_stuck_at(block, bit, stuck)
        kernel = StuckAtKernel(FMT)
        bit_mask = np.left_shift(np.int64(1), np.array([bit]))[:, None, None]
        level = chain_kernel.LevelBlock(
            w_stack=np.zeros((1, 1, 1)), bit_mask=bit_mask,
            inv_mask=np.bitwise_not(bit_mask), stuck_one=None,
            all_sa1=stuck == 1, all_sa0=stuck == 0)
        raw = np.empty(block.shape, dtype=np.int64)
        forced = kernel.force(block, level, slice(0, 1), raw)
        assert forced.tobytes() == expected.tobytes()

    def test_mixed_polarity_level(self):
        """A level mixing sa0/sa1 chains takes the where-select branch."""

        values = np.array([[[5.5]], [[5.5]]])
        kernel = StuckAtKernel(FMT)
        bits = np.array([2, 2])
        bit_mask = np.left_shift(np.int64(1), bits)[:, None, None]
        stuck_one = np.array([True, False])[:, None, None]
        level = chain_kernel.LevelBlock(
            w_stack=np.zeros((2, 1, 1)), bit_mask=bit_mask,
            inv_mask=np.bitwise_not(bit_mask), stuck_one=stuck_one,
            all_sa1=False, all_sa0=False)
        raw = np.empty(values.shape, dtype=np.int64)
        forced = kernel.force(values.copy(), level, slice(0, 2), raw)
        assert forced[0, 0, 0] == FMT.apply_stuck_at(np.array(5.5), 2, 1)
        assert forced[1, 0, 0] == FMT.apply_stuck_at(np.array(5.5), 2, 0)


# ----------------------------------------------------------------------
# Hypothesis property: every map's output == the sequential oracle
# ----------------------------------------------------------------------
@st.composite
def chain_scenarios(draw):
    rows = draw(st.integers(2, 8))
    cols = draw(st.integers(2, 8))
    out_features = draw(st.integers(1, 20))
    in_features = draw(st.integers(1, 24))
    batch = draw(st.integers(1, 4))
    num_maps = draw(st.integers(1, 4))
    shared = draw(st.booleans())
    bypass = draw(st.booleans())
    faults = draw(st.lists(st.integers(0, min(8, rows * cols)),
                           min_size=num_maps, max_size=num_maps))
    seed = draw(st.integers(0, 2**31 - 1))
    by_view = draw(st.booleans())
    chunked = draw(st.booleans())
    return (rows, cols, out_features, in_features, batch, num_maps, shared,
            bypass, faults, seed, by_view, chunked)


class TestChainOracleProperty:
    @given(scenario=chain_scenarios())
    @settings(max_examples=40, deadline=None)
    def test_output_tobytes_matches_sequential_oracle(self, scenario):
        (rows, cols, out_features, in_features, batch, num_maps, shared,
         bypass, faults, seed, by_view, chunked) = scenario
        rng = get_rng(seed)
        arrays = []
        for map_index in range(num_maps):
            fault_map = random_fault_map(
                rows, cols, faults[map_index], bit_position=None,
                stuck_type=int(rng.integers(0, 2)),
                seed=int(rng.integers(0, 2**31)))
            array = SystolicArray(rows, cols)
            array.load_fault_map(fault_map)
            if bypass and map_index % 2:
                array.bypass_faulty_pes()
            arrays.append(array)
        weight = rng.normal(size=(out_features, in_features)) * 2
        shape = (batch, in_features) if shared else (num_maps, batch, in_features)
        inputs = rng.normal(size=shape)
        # Forked inputs take either gather strategy; ``chunked`` runs one
        # chain per chunk.
        with mock.patch.object(chain_kernel, "PER_CHAIN_GEMM_BATCH",
                               1 if by_view else 10**9), \
                mock.patch.object(systolic_array, "_CHAIN_BLOCK_ELEMENTS",
                                  1 if chunked else systolic_array._CHAIN_BLOCK_ELEMENTS):
            assert_matches_oracle(arrays, weight, inputs)


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_lowering_happens_once_per_content(self, trained_tiny_model):
        cache = PlanCache()
        first = cache.get_plan(trained_tiny_model)
        second = cache.get_plan(trained_tiny_model)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_token_shortcut_matches_hashing(self, trained_tiny_model):
        cache = PlanCache()
        token = model_token(trained_tiny_model)
        plan = cache.get_plan(trained_tiny_model, token=token)
        assert cache.get_plan(trained_tiny_model) is plan

    def test_weight_mutation_changes_token_and_misses(self, trained_tiny_model):
        cache = PlanCache()
        cache.get_plan(trained_tiny_model)
        parameter = trained_tiny_model.parameters()[0]
        original = parameter.data.copy()
        try:
            parameter.data += 1.0
            cache.get_plan(trained_tiny_model)
        finally:
            parameter.data[...] = original
        assert cache.misses == 2
        assert len(cache) == 2

    def test_eviction_bound(self, trained_tiny_model):
        cache = PlanCache(max_entries=1)
        cache.get_plan(trained_tiny_model)
        parameter = trained_tiny_model.parameters()[0]
        original = parameter.data.copy()
        try:
            parameter.data += 1.0
            cache.get_plan(trained_tiny_model)
        finally:
            parameter.data[...] = original
        assert len(cache) == 1

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)

    @pytest.fixture()
    def process_cache(self, monkeypatch):
        """A fresh process-wide plan cache (what campaign runners read)."""

        from repro.snn.inference import plan_cache

        cache = PlanCache()
        monkeypatch.setattr(plan_cache, "_DEFAULT_CACHE", cache)
        return cache

    def test_runner_records_identical_with_and_without_cache(
            self, trained_tiny_model, tiny_mnist_loaders, process_cache):
        from repro.faults import CampaignPoint, CampaignRunner

        _, test_loader = tiny_mnist_loaders
        points = [CampaignPoint.for_trials(8, 8, count, trials=2, seed=31 + count)
                  for count in (1, 3)]
        lowered = CampaignRunner(trained_tiny_model, test_loader).run(points)
        # The merged serial pass lowers exactly once.
        assert (process_cache.misses, process_cache.hits) == (1, 0)
        cached = CampaignRunner(trained_tiny_model, test_loader).run(points)
        assert cached == lowered
        assert (process_cache.misses, process_cache.hits) == (1, 1)
        # A later evaluation (the fault-free baseline) hits the same entry.
        CampaignRunner(trained_tiny_model, test_loader).baseline_accuracy()
        assert (process_cache.misses, process_cache.hits) == (1, 2)

    def test_runner_defaults_to_process_cache(self, trained_tiny_model,
                                              tiny_mnist_loaders,
                                              process_cache):
        from repro.faults import CampaignRunner
        from repro.snn.inference import FusedInferenceEngine

        _, test_loader = tiny_mnist_loaders
        CampaignRunner(trained_tiny_model, test_loader).baseline_accuracy()
        assert (len(process_cache), process_cache.misses) == (1, 1)
        # An engine given the model token reads the same cache; one without
        # a token lowers directly.
        token = model_token(trained_tiny_model)
        FusedInferenceEngine(trained_tiny_model, plan_token=token)
        assert (process_cache.misses, process_cache.hits) == (1, 1)
        FusedInferenceEngine(trained_tiny_model)
        assert (process_cache.misses, process_cache.hits) == (1, 1)

    def test_warm_plan_cache_lowers_before_fork(self, trained_tiny_model,
                                                tiny_mnist_loaders,
                                                process_cache):
        from repro.faults import CampaignRunner

        _, test_loader = tiny_mnist_loaders
        runner = CampaignRunner(trained_tiny_model, test_loader)
        runner.warm_plan_cache()
        assert (len(process_cache), process_cache.misses) == (1, 1)
        runner.warm_plan_cache()
        assert process_cache.misses == 1

    @pytest.mark.parametrize("thresholds", [(1.0, 0.3), (0.3, 1.0)])
    def test_frozen_thresholds_get_their_own_plans(self, trained_tiny_model_state,
                                                   tiny_mnist_loaders, process_cache,
                                                   thresholds):
        """Two copies that differ only in a frozen threshold never share a plan.

        The model token digests parameters and buffers only; a frozen
        threshold is a plain attribute the lowering reads.
        """

        from repro.faults import CampaignRunner
        from tests.conftest import build_tiny_mnist_model

        _, test_loader = tiny_mnist_loaders
        accuracies = []
        for threshold in thresholds:
            model, _ = build_tiny_mnist_model()
            model.load_state_dict(trained_tiny_model_state["state"])
            for node in model.spiking_layers():
                node.set_threshold(threshold)
            fused = CampaignRunner(model, test_loader).baseline_accuracy()
            sequential = CampaignRunner(model, test_loader,
                                        engine="sequential").baseline_accuracy()
            assert fused == sequential, threshold
            accuracies.append(fused)
        assert accuracies[0] != accuracies[1]
        assert process_cache.misses == 2

    def test_orchestrated_units_reuse_warmed_plan(self, trained_tiny_model,
                                                  tiny_mnist_loaders, tmp_path,
                                                  process_cache, monkeypatch):
        """The passes of a chunked sweep share one lowered plan."""

        from repro.faults import CampaignPoint, CampaignRunner

        # Two-map passes: each trial-chunk unit is a pass of its own.
        monkeypatch.setattr("repro.faults.campaign.MAX_MAPS_PER_PASS", 2)
        _, test_loader = tiny_mnist_loaders
        points = [CampaignPoint.for_trials(8, 8, 2, trials=4, seed=77)]
        records = CampaignRunner(trained_tiny_model, test_loader,
                                 trial_chunk=2,
                                 cache_dir=tmp_path).run(points)
        # Lowered once by the first pass, never re-lowered by the second.
        assert (process_cache.misses, process_cache.hits) == (1, 1)
        plain = CampaignRunner(trained_tiny_model, test_loader).run(points)
        assert records == plain
