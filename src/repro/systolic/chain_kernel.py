"""Bit-safe fault-chain fast path of the fused fault engine.

Fault-chain application -- the per-level segment GEMMs plus stuck-at
quantisation that replace a faulty column's dense product with its
corrupted accumulation chain -- is the dominant cold cost of campaign
sweeps.  This module holds the one fast implementation, which the fused
inference engine's :class:`~repro.snn.inference.faulty_gemm
.FaultyAffineRunner` drives:

* **Prefix-level runs.**  At *prepare time* chains are sorted by their
  per-tile active-site signature (the number of stuck-at breakpoint levels
  a chain has in each weight tile), in *descending* order.  A chain's
  non-last tiles all share one site count (the same physical PE-row faults
  repeat in every full weight tile), so signatures have the form
  ``(full, ..., full, last)`` and the chains active at any breakpoint
  level form a **prefix** of the permuted chain axis on full tiles -- and
  a handful of contiguous runs on the (possibly partial) last tile.
  :func:`build_uniform_plan` writes each run's segment stack and each
  tile's tail stack once, already in that order.  The per-call path issues
  one stacked segment GEMM and one fused force per *(level, run)* and a
  single whole-chunk tail GEMM per tile, with **no** per-level ``active``
  masks, no ``np.where`` selects and no zero-filled accumulators for
  not-yet-applied chains.  It makes one activation gather per chunk and
  tile and one scatter per chunk; all per-run work happens on views.

* **Fused stuck-at kernel.**  :class:`StuckAtKernel` performs the
  quantise -> force-bit -> dequantise sequence as one in-place pass over
  the chain block: the float buffer is divided, rounded and clipped in
  place, cast into a reusable ``int64`` scratch, bit-forced with
  precomputed (per-chain) masks, sign-extended with the two's-complement
  ``xor``/``sub`` identity instead of a ``np.where`` select, and written
  back into the same float buffer.  No per-level temporaries survive the
  call.

Bit-identity rules (why this is safe):

* A stacked ``(G, batch, k) @ (G, k, n)`` matmul evaluates each leading
  slice as an independent 2D GEMM, so permuting chains along the stack
  axis cannot change any chain's result.
* Every arithmetic step keeps the exact operand geometry of the
  sequential oracle: per-chain segment GEMMs of shape
  ``(batch, tile_rows) @ (tile_rows, n_out)``, the same quantise / force /
  dequantise order, and the same ``0 +`` normalisation of the *unquantised*
  tail sums (negative zeros produced by a tail GEMM must collapse to
  ``+0.0`` exactly as they do when the oracle accumulates into a
  zero-initialised buffer).  Skipping the ``0 +`` before the *first
  quantised* level is safe because quantisation maps ``-0.0`` and ``+0.0``
  to the same code.
* The in-place sign extension ``raw ^= S; raw -= S`` (with ``S`` the sign
  bit) equals ``where(raw & S, raw - 2S, raw)`` for every value in
  ``[0, 2S)`` -- exact int64 arithmetic, no rounding anywhere.
* Chains scatter to disjoint (map, column) output slices, so neither the
  permutation nor the run processing order can affect the result.

The reference is the sequential oracle,
:meth:`~repro.systolic.array.SystolicArray.matmul`: the property and
edge-case tests compare every map's output to it by ``tobytes()``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "LevelBlock",
    "LevelRun",
    "PrefixTile",
    "StuckAtKernel",
    "UniformChainPlan",
    "apply_chain_plan",
    "build_uniform_plan",
]

class StuckAtKernel:
    """Fused vectorised stuck-at forcing for one fixed-point format.

    One :meth:`force` call performs the whole quantise -> force-bit ->
    dequantise sequence of :meth:`FixedPointFormat.apply_stuck_at` over a
    ``(chains, batch, n_out)`` block, in place, broadcasting per-chain bit
    positions and polarities.  The arithmetic is step-for-step identical to
    the scalar path (same division, same round-half-to-even, same clip,
    same two's-complement bit logic), so results are bit-identical; only
    the number of temporaries changes.
    """

    __slots__ = ("scale", "min_code", "max_code", "word_mask", "sign_mask")

    def __init__(self, fmt) -> None:
        self.scale = fmt.scale
        self.min_code = fmt.min_code
        self.max_code = fmt.max_code
        self.word_mask = (1 << fmt.total_bits) - 1
        self.sign_mask = 1 << (fmt.total_bits - 1)

    def force(self, values: np.ndarray, level: "LevelBlock", chunk: slice,
              raw: np.ndarray) -> np.ndarray:
        """Force ``level``'s stuck bits into ``values`` (overwritten), in place.

        ``values`` must be an owned float64 buffer of shape
        ``(size, batch, n_out)``; ``raw`` an int64 scratch of the same
        shape, reused across levels and tiles of one chunk.  ``chunk``
        selects the run-local chain range of the per-chain masks.
        """

        np.divide(values, self.scale, out=values)
        # rint == round(decimals=0) bitwise (both round half to even) and
        # minimum(maximum(.)) == clip bitwise (incl. NaN propagation); the
        # raw ufuncs skip the fromnumeric wrapper overhead on this hot path.
        np.rint(values, out=values)
        np.maximum(values, self.min_code, out=values)
        np.minimum(values, self.max_code, out=values)
        # Exact: post-clip values are integers in [min_code, max_code].
        np.copyto(raw, values, casting="unsafe")
        raw &= self.word_mask
        if level.all_sa1:
            raw |= level.bit_mask[chunk]
        elif level.all_sa0:
            raw &= level.inv_mask[chunk]
        else:
            np.copyto(raw, np.where(level.stuck_one[chunk],
                                    raw | level.bit_mask[chunk],
                                    raw & level.inv_mask[chunk]))
        # Two's-complement sign extension without a where-select.
        raw ^= self.sign_mask
        raw -= self.sign_mask
        return np.multiply(raw, self.scale, out=values)


@dataclasses.dataclass
class LevelBlock:
    """One stuck-at breakpoint level of a chain block, with fused masks."""

    w_stack: np.ndarray             # (chains, tile_rows, n_out) segment weights
    bit_mask: np.ndarray            # (chains, 1, 1) int64
    inv_mask: np.ndarray            # (chains, 1, 1) int64, ~bit_mask
    stuck_one: Optional[np.ndarray]  # (chains, 1, 1) bool; None when uniform
    all_sa1: bool
    all_sa0: bool


@dataclasses.dataclass
class LevelRun(LevelBlock):
    """One maximal contiguous run of chains active at one breakpoint level.

    ``start``/``end`` locate the run on the permuted chain axis.  With the
    descending-signature sort a full tile has exactly one run per level (a
    prefix of the axis); the last, possibly partial, tile may split into a
    few runs.
    """

    start: int = 0
    end: int = 0


@dataclasses.dataclass
class PrefixTile:
    """One weight tile laid out for prefix-level application.

    ``levels[k]`` lists the contiguous runs of chains whose site count in
    this tile exceeds ``k``; ``tail_stack`` covers the *whole* permuted
    chain axis (every chain has a tail segment in every tile), so the tail
    GEMM runs once per (chunk, tile).
    """

    levels: List[List[LevelRun]]
    tail_stack: np.ndarray          # (chains, tile_rows, n_out)


@dataclasses.dataclass
class UniformChainPlan:
    """One chain table permuted into prefix-level runs."""

    map_ids: np.ndarray             # (chains,) fault-map index, permuted
    map_sel: np.ndarray             # (chains, 1, 1) scatter index
    out_sel: np.ndarray             # (chains, 1, n_out) scatter index
    n_out: int
    tile_bounds: List[Tuple[int, int]]  # (lo, hi) input rows per weight tile
    has_levels: bool
    prefix_tiles: List[PrefixTile]
    run_starts: np.ndarray          # (map_runs,) whole-axis same-map runs
    run_ends: np.ndarray            # (map_runs,)
    run_maps: np.ndarray            # (map_runs,) fault-map index per run


def _active_runs(sites: List[int], level: int) -> List[Tuple[int, int]]:
    """Maximal ``(start, end)`` spans of positions whose site count exceeds ``level``."""

    runs: List[Tuple[int, int]] = []
    run_start = None
    for position, count in enumerate(sites):
        if count > level:
            if run_start is None:
                run_start = position
        elif run_start is not None:
            runs.append((run_start, position))
            run_start = None
    if run_start is not None:
        runs.append((run_start, len(sites)))
    return runs


def build_uniform_plan(table, w_rows: List[np.ndarray],
                       tile_bounds: List[Tuple[int, int]],
                       tile_sites: List[np.ndarray]) -> UniformChainPlan:
    """Lay a chain table out as prefix-level runs (prepare time).

    ``table`` is a :class:`~repro.systolic.array._ChainTable`; ``w_rows[c]``
    holds the ``(n_out, in_features)`` effective weight rows of its chain
    ``c``, ``tile_bounds`` the ``(lo, hi)`` input rows of every weight tile
    and ``tile_sites[t]`` the ``(chains,)`` active-site counts in tile
    ``t``.  Chains are sorted by *descending* per-tile site-count signature
    first, so each level's active chains form contiguous runs (a single
    prefix on full tiles); every run's segment stack and every tile's tail
    stack is then written once, in permuted order.  A segment holds the
    chain's weight rows between two breakpoints with the rest of the tile
    zeroed -- the operand of the sequential oracle's segment GEMM.  The
    bit/polarity masks are precomputed, so the per-call path does no mask
    derivation.  The sort is deterministic, and chains scatter to disjoint
    output columns, so neither the permutation nor the application order
    can affect results.
    """

    n_chains = len(table.map_ids)
    n_out = table.n_out
    # Plain-int lists: the per-chain bookkeeping below is scalar Python.
    signatures = np.stack([np.asarray(sites, dtype=np.int64) for sites in tile_sites],
                          axis=1).tolist()

    # Descending signature order (stable, so equal signatures keep chain
    # order).  Non-last tiles all carry the chain's full-tile site count, so
    # signatures are (full, ..., full, last) and the lexicographic sort
    # orders by full count first: every full tile's level-k active set
    # becomes the prefix of chains with full > k.
    order = sorted(range(n_chains), key=signatures.__getitem__, reverse=True)
    perm = np.asarray(order, dtype=np.int64)
    map_ids = table.map_ids[perm]
    chain_rows = [w_rows[c] for c in order]
    fault_rows = table.rows2d[perm].tolist()

    # The masks are per level over the permuted chain axis, shared by every
    # tile's runs (slices of a contiguous axis stay contiguous).
    stuck_levels = np.ascontiguousarray((table.stuck2d[perm] == 1).T)
    stuck_lists = stuck_levels.tolist()
    bit_levels = np.ascontiguousarray(
        np.left_shift(np.int64(1), table.bits2d[perm]).T)[:, :, None, None]
    inv_levels = np.bitwise_not(bit_levels)
    prefix_tiles: List[PrefixTile] = []
    has_levels = False
    for (lo, hi), tile_counts in zip(tile_bounds, tile_sites):
        tile_rows = hi - lo
        sites = np.asarray(tile_counts, dtype=np.int64)[perm].tolist()
        # Per chain, the first tile row of its next segment.
        starts = [0] * n_chains
        level_runs: List[List[LevelRun]] = []
        for level in range(max(sites, default=0)):
            has_levels = True
            runs: List[LevelRun] = []
            for run_start, run_end in _active_runs(sites, level):
                w_stack = np.zeros((run_end - run_start, tile_rows, n_out))
                for c in range(run_start, run_end):
                    stop = fault_rows[c][level] + 1
                    w_stack[c - run_start, starts[c]:stop] = \
                        chain_rows[c][:, lo + starts[c]:lo + stop].T
                    starts[c] = stop
                stuck = stuck_lists[level][run_start:run_end]
                all_sa1 = all(stuck)
                all_sa0 = not any(stuck)
                runs.append(LevelRun(
                    w_stack=w_stack,
                    bit_mask=bit_levels[level, run_start:run_end],
                    inv_mask=inv_levels[level, run_start:run_end],
                    stuck_one=(None if all_sa1 or all_sa0
                               else stuck_levels[level, run_start:run_end, None, None]),
                    all_sa1=all_sa1,
                    all_sa0=all_sa0,
                    start=run_start,
                    end=run_end))
            level_runs.append(runs)
        tail_stack = np.zeros((n_chains, tile_rows, n_out))
        for c in range(n_chains):
            tail_stack[c, starts[c]:] = chain_rows[c][:, lo + starts[c]:hi].T
        prefix_tiles.append(PrefixTile(levels=level_runs, tail_stack=tail_stack))

    # Whole-axis same-map runs for the broadcast-GEMM strategy.
    if n_chains:
        edges = np.flatnonzero(np.diff(map_ids)) + 1
        run_starts = np.concatenate(([0], edges)).astype(np.int64)
        run_ends = np.concatenate((edges, [n_chains])).astype(np.int64)
        run_maps = map_ids[run_starts]
    else:
        run_starts = run_ends = run_maps = np.zeros(0, dtype=np.int64)

    return UniformChainPlan(
        map_ids=map_ids,
        map_sel=map_ids[:, None, None],
        out_sel=table.out_idx2d[perm][:, None, :],
        n_out=n_out,
        tile_bounds=list(tile_bounds),
        has_levels=has_levels,
        prefix_tiles=prefix_tiles,
        run_starts=run_starts,
        run_ends=run_ends,
        run_maps=run_maps)


#: Batch size from which the non-shared path switches from one gathered
#: activation copy per (chunk, tile) to per-chain 2D GEMMs on input views.
#: The gather costs ``chains x batch x tile_rows`` bytes of traffic, the
#: view loop ``~(levels + 1) x chains`` numpy dispatches; wide folded
#: convolution batches are gather-bound, tiny streaming batches
#: dispatch-bound.  Both strategies run the exact per-chain GEMM geometry
#: of the sequential oracle (a 2D product on a strided view IS what the
#: oracle executes), so the choice cannot affect results.
PER_CHAIN_GEMM_BATCH = 64

#: Cache of ``arange(batch)[None, :, None]`` scatter indices per batch size.
_BATCH_IDX_CACHE: Dict[int, np.ndarray] = {}


def _batch_idx(batch: int) -> np.ndarray:
    cached = _BATCH_IDX_CACHE.get(batch)
    if cached is None:
        if len(_BATCH_IDX_CACHE) > 64:
            _BATCH_IDX_CACHE.clear()
        cached = _BATCH_IDX_CACHE[batch] = np.arange(batch)[None, :, None]
    return cached


def apply_chain_plan(plan: UniformChainPlan, inputs: np.ndarray,
                     output: np.ndarray, shared: bool, kernel: StuckAtKernel,
                     rows: int, block_elements: int) -> None:
    """Replace the faulty columns of ``output`` with their chain values.

    ``inputs`` is ``(batch, in_features)`` when ``shared`` (identical
    activations for every map) or ``(F, batch, in_features)`` otherwise;
    ``output`` is the dense ``(F, batch, out_features)`` product, corrected
    in place.  Chain chunks are bounded by ``block_elements`` so wide
    (folded convolution) batches stay within the memory envelope.

    Per chain the arithmetic is step-for-step the sequential oracle's: the
    level-0 segment GEMM writes straight into the chunk accumulator, level
    ``k >= 1`` adds ``acc + segment`` in the oracle's operand order, every
    level forces in place, and the tail adds ``acc + tails``.  Only the
    *stacking* of independent per-chain GEMMs into one product per
    (level, run) differs -- per-slice results of a stacked matmul are
    independent 2D products, so it cannot change bits.
    """

    batch = inputs.shape[-2]
    batch_idx = _batch_idx(batch)
    n_chains = plan.map_ids.shape[0]
    n_out = plan.n_out
    map_ids = plan.map_ids
    by_view = not shared and batch >= PER_CHAIN_GEMM_BATCH
    if by_view:
        # One slice view per (map, tile), hoisted out of the chain loops.
        tile_views = [
            [inputs[m, :, lo:hi] for m in range(inputs.shape[0])]
            for lo, hi in plan.tile_bounds
        ]
        run_starts, run_ends, run_maps = (plan.run_starts, plan.run_ends,
                                          plan.run_maps)
    block = max(1, block_elements // max(1, batch * max(rows, n_out)))
    for start in range(0, n_chains, block):
        stop = min(start + block, n_chains)
        size = stop - start
        col_out = np.empty((size, batch, n_out))
        acc = np.empty((size, batch, n_out)) if plan.has_levels else None
        raw = (np.empty((size, batch, n_out), dtype=np.int64)
               if plan.has_levels else None)
        for tile_index, (lo, hi) in enumerate(plan.tile_bounds):
            tile = plan.prefix_tiles[tile_index]
            if shared:
                x_chunk = inputs[:, lo:hi]
            elif by_view:
                x_chunk = None     # per-map-run views below, no gather
            else:
                # One gather per (chunk, tile); runs below take views.
                x_chunk = inputs[map_ids[start:stop], :, lo:hi]

            def product(w_stack, lo_c, hi_c, out=None):
                # ``w_stack`` is already sliced to the chunk-active span
                # [lo_c, hi_c) of the permuted chain axis.
                if shared:
                    return np.matmul(x_chunk, w_stack, out=out)
                if not by_view:
                    return np.matmul(x_chunk[lo_c - start:hi_c - start],
                                     w_stack, out=out)
                # One broadcast GEMM per same-map chain run (the whole-axis
                # runs, intersected with this span): per-slice 2D GEMMs on
                # activation views, exactly the sequential oracle's operands.
                result = (np.empty((hi_c - lo_c, batch, n_out))
                          if out is None else out)
                views = tile_views[tile_index]
                r = int(np.searchsorted(run_starts, lo_c, side="right")) - 1
                while r < run_starts.shape[0] and run_starts[r] < hi_c:
                    s = max(int(run_starts[r]), lo_c)
                    e = min(int(run_ends[r]), hi_c)
                    if s < e:
                        np.matmul(views[int(run_maps[r])],
                                  w_stack[s - lo_c:e - lo_c],
                                  out=result[s - lo_c:e - lo_c])
                    r += 1
                return result

            for level_index, runs in enumerate(tile.levels):
                for run in runs:
                    lo_c = max(run.start, start)
                    hi_c = min(run.end, stop)
                    if lo_c >= hi_c:
                        continue
                    local = slice(lo_c - start, hi_c - start)
                    member = slice(lo_c - run.start, hi_c - run.start)
                    if level_index == 0:
                        product(run.w_stack[member], lo_c, hi_c,
                                out=acc[local])
                    else:
                        segment = product(run.w_stack[member], lo_c, hi_c)
                        # In-place accumulate; 0 + segment is skipped at the
                        # first level because quantisation maps the zero
                        # signs to the same codes.
                        np.add(acc[local], segment, out=acc[local])
                    kernel.force(acc[local], run, member, raw[local])
            tails = product(tile.tail_stack[start:stop], start, stop)
            if tile.levels:
                # Chains with any level in this tile are exactly the level-0
                # runs; the rest contribute their tail alone.
                for run in tile.levels[0]:
                    lo_c = max(run.start, start)
                    hi_c = min(run.end, stop)
                    if lo_c >= hi_c:
                        continue
                    local = slice(lo_c - start, hi_c - start)
                    np.add(acc[local], tails[local], out=tails[local])
            if tile_index == 0:
                # 0 + tails: collapse any -0.0 the (unquantised) tail GEMM
                # produced, exactly as the oracle's zero-initialised
                # accumulator does.
                np.add(tails, 0.0, out=col_out)
            else:
                np.add(col_out, tails, out=col_out)
        output[plan.map_sel[start:stop], batch_idx,
               plan.out_sel[start:stop]] = col_out
