"""Functional simulator of an NxN systolic-array SNN accelerator.

The simulator reproduces, in vectorised numpy, the arithmetic a
weight-stationary systolic array performs when a spiking layer is executed:

* The layer's 2D weight matrix is tiled over the ``R x C`` PE grid
  (see :mod:`repro.systolic.mapping`).
* Inside one tile, partial sums flow down a column: PE ``(r, c)`` adds its
  stored weight (gated by the input spike) onto the partial sum coming from
  PE ``(r-1, c)``.
* A stuck-at fault in the accumulator output of PE ``(r, c)`` corrupts the
  partial sum at that position of the chain, and the corrupted value
  propagates through the rest of the column (prefix-sum fault model).
* Tile outputs are accumulated off-array, so a fault affects every tile that
  passes through the faulty PE -- the reuse effect responsible for the
  catastrophic accuracy drops in the paper's Fig. 5.
* A *bypassed* PE (mitigated design, Fig. 3b) forwards the incoming partial
  sum unchanged: its weight contribution is skipped and its fault is masked.

Two pieces are provided:

* :meth:`SystolicArray.matmul` -- the sequential reference oracle: one array,
  one fault map, one matmul.
* :class:`BatchedSystolicArray` -- the fault-structure snapshot of ``F``
  arrays and the weight preparation behind the fused engine's
  :class:`~repro.snn.inference.faulty_gemm.FaultyAffineRunner`: the
  prefix-sum fault chains of every (map, column) pair are laid out as
  prefix-level chain plans
  (:class:`~repro.systolic.chain_kernel.UniformChainPlan`), so ``F`` maps
  are simulated in one vectorised pass by
  :func:`~repro.systolic.chain_kernel.apply_chain_plan`.  The arithmetic is
  ordered exactly as in the sequential path, so per-map results are
  **bit-identical** to ``F`` separate :meth:`SystolicArray.matmul` calls,
  the one reference the equivalence tests compare against by ``tobytes()``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd.functional import im2col
from .chain_kernel import UniformChainPlan, build_uniform_plan
from .fixed_point import DEFAULT_ACCUMULATOR_FORMAT, FixedPointFormat
from .mapping import as_weight_matrix, tile_counts


@dataclasses.dataclass(frozen=True)
class FaultSite:
    """A fault attached to a PE: grid coordinates plus the stuck-at fault object."""

    row: int
    col: int
    fault: object  # StuckAtFault (duck-typed: needs .apply(values, fmt))


def apply_weight_faults(weight_matrix: np.ndarray, sites: Sequence[FaultSite],
                        rows: int, cols: int,
                        fmt: FixedPointFormat) -> np.ndarray:
    """Corrupt the weight elements stored in weight-SRAM-faulty PEs.

    Every weight element mapped to a faulty PE (weight-stationary mapping:
    element ``(o, i)`` lives in PE ``(i % rows, o % cols)``) is quantised
    to ``fmt``, has the fault's bit forced, and is dequantised -- once,
    before the GEMM.  Sites are applied in ``(row, col)`` order; their
    element masks are disjoint (one PE per site), so the order cannot
    change the result, but pinning it keeps every execution path
    byte-identical by construction.  This single function is the one
    implementation shared by the sequential oracle and the fused engine.
    """

    if not sites:
        return weight_matrix
    from .mapping import faulty_weight_mask

    effective = weight_matrix
    for site in sorted(sites, key=lambda s: (s.row, s.col)):
        mask = faulty_weight_mask({(site.row, site.col)}, weight_matrix.shape,
                                  rows, cols)
        if mask.any():
            effective = np.where(mask, site.fault.apply(effective, fmt), effective)
    return effective


class SystolicArray:
    """A weight-stationary ``rows x cols`` systolic array with optional faults.

    Parameters
    ----------
    rows, cols:
        Grid dimensions (the paper uses 256x256; vulnerability experiments
        sweep 4x4 .. 256x256).
    fmt:
        Fixed-point format of the PE accumulators.
    """

    def __init__(self, rows: int, cols: int,
                 fmt: FixedPointFormat = DEFAULT_ACCUMULATOR_FORMAT) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("array dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.fmt = fmt
        self._fault_sites: List[FaultSite] = []
        self._bypassed: set[Tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Fault / bypass management
    # ------------------------------------------------------------------
    def clear_faults(self) -> None:
        self._fault_sites = []
        self._bypassed = set()

    def inject_fault(self, row: int, col: int, fault) -> None:
        """Attach a stuck-at fault to the accumulator output of PE ``(row, col)``."""

        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"PE coordinate {(row, col)} outside {self.rows}x{self.cols} array")
        self._fault_sites.append(FaultSite(row, col, fault))

    def load_fault_map(self, fault_map) -> None:
        """Load all faults from a :class:`repro.faults.fault_map.FaultMap`-like object.

        The object must provide ``items()`` yielding ``((row, col), fault)``.
        """

        self.clear_faults()
        for (row, col), fault in fault_map.items():
            self.inject_fault(row, col, fault)

    def bypass_faulty_pes(self) -> None:
        """Enable the bypass multiplexer of every faulty PE (mitigated mode)."""

        self._bypassed = {(site.row, site.col) for site in self._fault_sites}

    def set_bypass(self, coordinates: Iterable[Tuple[int, int]]) -> None:
        """Explicitly set the collection of bypassed PEs."""

        self._bypassed = {(int(r), int(c)) for r, c in coordinates}

    @property
    def bypassed_coordinates(self) -> set:
        return set(self._bypassed)

    # ------------------------------------------------------------------
    # Faulty linear algebra
    # ------------------------------------------------------------------
    def _active_faults_by_column(self) -> Dict[int, List[FaultSite]]:
        """Active *datapath* faults, grouped by column, sorted by row.

        Bypassed PEs are masked, and weight-SRAM faults are excluded: they
        corrupt the stored weights ahead of the GEMM (see
        :meth:`weight_fault_sites`), not the accumulation chains.
        """

        by_col: Dict[int, List[FaultSite]] = {}
        for site in self._fault_sites:
            if (site.row, site.col) in self._bypassed:
                continue
            if getattr(site.fault, "corrupts_weights", False):
                continue
            by_col.setdefault(site.col, []).append(site)
        for sites in by_col.values():
            sites.sort(key=lambda s: s.row)
        return by_col

    def weight_fault_sites(self) -> List[FaultSite]:
        """Active weight-SRAM fault sites (bypass masks them), sorted by PE."""

        sites = [site for site in self._fault_sites
                 if getattr(site.fault, "corrupts_weights", False)
                 and (site.row, site.col) not in self._bypassed]
        return sorted(sites, key=lambda s: (s.row, s.col))

    def _bypass_mask_for_weight(self, weight_matrix: np.ndarray) -> Optional[np.ndarray]:
        """Mask of weight elements whose PE is bypassed (contribution skipped)."""

        if not self._bypassed:
            return None
        from .mapping import faulty_weight_mask

        return faulty_weight_mask(self._bypassed, weight_matrix.shape, self.rows, self.cols)

    def matmul(self, weight: np.ndarray, inputs: np.ndarray,
               bias: Optional[np.ndarray] = None) -> np.ndarray:
        """Compute ``inputs @ weight.T + bias`` with the array's fault semantics.

        Parameters
        ----------
        weight:
            Layer weight of shape ``(out_features, in_features)`` (or a 4D
            convolution weight, reshaped internally).
        inputs:
            Activations of shape ``(batch, in_features)``.
        bias:
            Optional bias added off-array (the bias unit is not part of the
            PE grid and is assumed fault-free).
        """

        weight_matrix = as_weight_matrix(weight).astype(np.float64)
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim != 2:
            raise ValueError("inputs must be 2D (batch, in_features)")
        out_features, in_features = weight_matrix.shape
        if inputs.shape[1] != in_features:
            raise ValueError(
                f"input feature mismatch: weight expects {in_features}, got {inputs.shape[1]}")

        # Weight-SRAM corruption first (stored weights are corrupted before
        # anything flows through the array), then bypass zeroing on top.
        effective_weight = apply_weight_faults(weight_matrix,
                                               self.weight_fault_sites(),
                                               self.rows, self.cols, self.fmt)
        bypass_mask = self._bypass_mask_for_weight(weight_matrix)
        if bypass_mask is not None:
            effective_weight = np.where(bypass_mask, 0.0, effective_weight)

        faults_by_col = self._active_faults_by_column()
        if not faults_by_col:
            output = inputs @ effective_weight.T
        else:
            output = self._faulty_matmul(effective_weight, inputs, faults_by_col)

        if bias is not None:
            output = output + np.asarray(bias, dtype=np.float64)
        return output

    def _faulty_matmul(self, weight: np.ndarray, inputs: np.ndarray,
                       faults_by_col: Dict[int, List[FaultSite]]) -> np.ndarray:
        """Matmul applying stuck-at corruption inside column accumulation chains.

        Fault-free columns are untouched by the fault model, so the output
        starts as one dense matmul and only the faulty columns are replaced
        by their corrupted chain values.  Inside a chain, the partial sum
        entering a fault site equals the dense product of the segment
        accumulated since the previous fault, so each (tile, column) chain is
        ``k + 1`` segment matmuls with the stuck-at bit forced at every
        breakpoint -- the prefix-sum fault model without materialising
        per-row products.
        """

        out_features, in_features = weight.shape
        rows, cols = self.rows, self.cols
        tiles_in, _ = tile_counts(weight.shape, rows, cols)
        output = inputs @ weight.T

        out_cols = np.arange(out_features) % cols
        for col in sorted(faults_by_col):
            out_idx = np.nonzero(out_cols == col)[0]
            if out_idx.size == 0:
                continue
            sites = faults_by_col[col]
            col_out = np.zeros((inputs.shape[0], out_idx.size))
            for tile in range(tiles_in):
                lo = tile * rows
                hi = min(lo + rows, in_features)
                tile_rows = hi - lo
                x_tile = inputs[:, lo:hi]        # (batch, tile_rows)
                w_sel = weight[out_idx, lo:hi]   # (n_out, tile_rows)
                acc = np.zeros_like(col_out)
                start = 0
                applied_any = False
                for site in sites:
                    if site.row >= tile_rows:
                        continue
                    stop = site.row + 1
                    # Segment selected by zeroing the complement: every
                    # segment product keeps the full (batch, tile_rows) GEMM
                    # geometry, so the fused engine can evaluate stacked
                    # chains with one matmul and stay bit-identical.
                    w_segment = np.zeros((tile_rows, out_idx.size))
                    w_segment[start:stop] = w_sel[:, start:stop].T
                    acc = acc + x_tile @ w_segment
                    acc = site.fault.apply(acc, self.fmt)
                    start = stop
                    applied_any = True
                w_segment = np.zeros((tile_rows, out_idx.size))
                w_segment[start:] = w_sel[:, start:].T
                if applied_any:
                    col_out += acc + x_tile @ w_segment
                else:
                    # No fault fell inside this tile: the tail covers the
                    # whole tile.  A contiguous copy (not a transposed view)
                    # keeps the GEMM layout identical to the stacked chains.
                    col_out += x_tile @ w_segment
            output[:, out_idx] = col_out
        return output

    # ------------------------------------------------------------------
    # Convolution via im2col on the faulty array
    # ------------------------------------------------------------------
    def conv2d(self, weight: np.ndarray, x: np.ndarray,
               bias: Optional[np.ndarray] = None,
               stride: int = 1, padding: int = 0) -> np.ndarray:
        """Convolve ``x`` with ``weight`` on the (possibly faulty) array.

        ``x`` has shape ``(batch, in_channels, H, W)``; the result has shape
        ``(batch, out_channels, H_out, W_out)``.
        """

        weight = np.asarray(weight, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        out_channels, in_channels, kh, kw = weight.shape
        cols = im2col(x, (kh, kw), stride, padding)
        batch, out_h, out_w, k = cols.shape
        flat_inputs = cols.reshape(batch * out_h * out_w, k)
        flat_out = self.matmul(weight.reshape(out_channels, -1), flat_inputs, bias=bias)
        return flat_out.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SystolicArray({self.rows}x{self.cols}, faults={len(self._fault_sites)}, "
                f"bypassed={len(self._bypassed)})")


# ----------------------------------------------------------------------
# Multi-fault-map chain structure (the fused engine's faulty GEMMs)
# ----------------------------------------------------------------------
#: Soft cap on the float64 elements of each ``(chains, batch, max(rows,
#: n_out))`` buffer :func:`~repro.systolic.chain_kernel.apply_chain_plan`
#: allocates; chain blocks larger than this run in chunks.
_CHAIN_BLOCK_ELEMENTS = 4_000_000


@dataclasses.dataclass
class _FaultChain:
    """One (fault map, array column) accumulation chain with >= 1 active fault."""

    map_index: int
    out_idx: np.ndarray     # output features living in this column
    rows: np.ndarray        # fault rows, sorted ascending
    bits: np.ndarray        # bit position per fault
    stuck: np.ndarray       # stuck value (0/1) per fault


@dataclasses.dataclass
class _ChainTable:
    """A group of chains sharing one ``n_out`` (outputs per column) value.

    Grouping by ``n_out`` keeps every stacked GEMM free of padding columns,
    so each slice has exactly the geometry of its sequential counterpart.
    """

    chains: List[_FaultChain]
    map_ids: np.ndarray     # (chains,) fault-map index per chain
    rows2d: np.ndarray      # (chains, max_sites) fault rows, padded with 0
    bits2d: np.ndarray      # (chains, max_sites) bit positions, padded with 0
    stuck2d: np.ndarray     # (chains, max_sites) stuck values, padded with 0
    out_idx2d: np.ndarray   # (chains, n_out) output features per chain
    n_out: int


@dataclasses.dataclass
class _PreparedWeight:
    """Output of :meth:`BatchedSystolicArray.prepare_weight`."""

    weight_matrix: np.ndarray               # float64 (out, in)
    stacked_weights: Optional[np.ndarray]   # (F, in, out) when bypass differs per map
    chain_plans: List[UniformChainPlan]


class BatchedSystolicArray:
    """Fault-structure snapshot and weight preparation for ``F`` arrays.

    This is what the fused engine's
    :class:`~repro.snn.inference.faulty_gemm.FaultyAffineRunner` executes
    against.  :meth:`prepare_weight` turns a layer weight into the per-map
    effective weights (weight-SRAM corruption, bypass zeroing) and the
    masked segment/tail stacks of every fault chain -- one per (map, faulty
    column) pair, stacked along a leading chain axis -- so the runner can
    corrupt all maps' chains together.  Each step keeps the exact
    arithmetic of the sequential :meth:`SystolicArray.matmul` path, so
    per-map results match ``F`` separate :meth:`SystolicArray.matmul` calls
    bit for bit.

    Fault and bypass state is *snapshotted at construction*: later mutations
    of the underlying :class:`SystolicArray` objects are not reflected.

    Parameters
    ----------
    arrays:
        The per-fault-map arrays.  All must share grid dimensions and
        accumulator format.
    """

    def __init__(self, arrays: Sequence[SystolicArray]) -> None:
        arrays = list(arrays)
        if not arrays:
            raise ValueError("BatchedSystolicArray needs at least one array")
        first = arrays[0]
        for array in arrays[1:]:
            if (array.rows, array.cols) != (first.rows, first.cols):
                raise ValueError("all arrays must share the same grid dimensions")
            if array.fmt != first.fmt:
                raise ValueError("all arrays must share the same accumulator format")
        self.arrays = arrays
        self.rows = first.rows
        self.cols = first.cols
        self.fmt = first.fmt
        # Immutable snapshot of each map's active (non-bypassed) faults.
        self._faults_by_col = [array._active_faults_by_column() for array in arrays]
        self._bypassed = [array.bypassed_coordinates for array in arrays]
        self._weight_faults = [array.weight_fault_sites() for array in arrays]
        self._any_bypass = any(self._bypassed)
        self._any_weight_faults = any(self._weight_faults)
        self._any_faults = any(self._faults_by_col)
        # Shape-keyed caches of the static chain structure.
        self._chain_cache: Dict[int, Optional[_ChainTable]] = {}
        self._site_count_cache: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}
        self._bypass_mask_cache: Dict[Tuple[int, Tuple[int, int]], Optional[np.ndarray]] = {}

    @property
    def num_maps(self) -> int:
        return len(self.arrays)

    # ------------------------------------------------------------------
    # Static structure caches
    # ------------------------------------------------------------------
    def _chain_tables(self, out_features: int) -> List[_ChainTable]:
        """All maps' fault chains for a layer, grouped by outputs-per-column."""

        if out_features in self._chain_cache:
            return self._chain_cache[out_features]
        chains: List[_FaultChain] = []
        for map_index, faults_by_col in enumerate(self._faults_by_col):
            for col in sorted(faults_by_col):
                # Output features living in this column.
                out_idx = np.arange(col, out_features, self.cols)
                if out_idx.size == 0:
                    continue
                sites = faults_by_col[col]
                chains.append(_FaultChain(
                    map_index=map_index,
                    out_idx=out_idx,
                    rows=np.array([site.row for site in sites], dtype=np.int64),
                    bits=np.array([site.fault.bit_position for site in sites],
                                  dtype=np.int64),
                    stuck=np.array([site.fault.stuck_value for site in sites],
                                   dtype=np.int64),
                ))
        tables: List[_ChainTable] = []
        for n_out in sorted({chain.out_idx.size for chain in chains}):
            group = [chain for chain in chains if chain.out_idx.size == n_out]
            max_sites = max(chain.rows.size for chain in group)
            rows2d = np.zeros((len(group), max_sites), dtype=np.int64)
            bits2d = np.zeros_like(rows2d)
            stuck2d = np.zeros_like(rows2d)
            for c, chain in enumerate(group):
                rows2d[c, :chain.rows.size] = chain.rows
                bits2d[c, :chain.rows.size] = chain.bits
                stuck2d[c, :chain.rows.size] = chain.stuck
            tables.append(_ChainTable(
                chains=group,
                map_ids=np.array([chain.map_index for chain in group], dtype=np.int64),
                rows2d=rows2d, bits2d=bits2d, stuck2d=stuck2d,
                out_idx2d=np.stack([chain.out_idx for chain in group]),
                n_out=n_out))
        self._chain_cache[out_features] = tables
        return tables

    def _site_counts(self, out_features: int, in_features: int
                     ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-group (full-tile, last-tile) active-site counts per chain.

        A site is active in a tile when its row index falls inside the tile
        (mirrors the sequential skip of ``site.row >= tile_rows``); only the
        last, possibly partial, tile can exclude sites.
        """

        key = (out_features, in_features)
        cached = self._site_count_cache.get(key)
        if cached is None:
            last_rows = in_features - ((in_features - 1) // self.rows) * self.rows
            cached = []
            for table in self._chain_tables(out_features):
                full = np.array([chain.rows.size for chain in table.chains],
                                dtype=np.int64)
                last = np.array([np.count_nonzero(chain.rows < last_rows)
                                 for chain in table.chains], dtype=np.int64)
                cached.append((full, last))
            self._site_count_cache[key] = cached
        return cached

    def _bypass_mask(self, map_index: int, shape: Tuple[int, int]) -> Optional[np.ndarray]:
        """Bypassed-weight mask of one map for a given 2D weight shape (cached)."""

        key = (map_index, shape)
        if key not in self._bypass_mask_cache:
            if not self._bypassed[map_index]:
                mask = None
            else:
                from .mapping import faulty_weight_mask

                mask = faulty_weight_mask(self._bypassed[map_index], shape,
                                          self.rows, self.cols)
            self._bypass_mask_cache[key] = mask
        return self._bypass_mask_cache[key]

    # ------------------------------------------------------------------
    # Weight preparation
    # ------------------------------------------------------------------
    def prepare_weight(self, weight: np.ndarray) -> "_PreparedWeight":
        """Precompute everything about ``weight`` the multi-map pass reuses.

        The masked segment/tail weight stacks of every chain are functions of
        the weight and the fault structure only -- not of the activations --
        so an evaluation that calls the same layer repeatedly (time steps x
        batches) can build them once.  Returns the handle a
        :class:`~repro.snn.inference.faulty_gemm.FaultyAffineRunner` runs.

        ``weight`` is only read.  A float64 one is kept by reference, not
        copied: the fused engine passes the float64 matrix its clean kernel
        already holds, so every runner of a layer shares that one matrix.
        """

        weight_matrix = np.asarray(as_weight_matrix(weight), dtype=np.float64)
        out_features, in_features = weight_matrix.shape

        if self._any_bypass or self._any_weight_faults:
            effective_weights = []
            for index in range(self.num_maps):
                # Same order as the sequential oracle: weight-SRAM
                # corruption first, bypass zeroing on top.
                effective = apply_weight_faults(weight_matrix,
                                                self._weight_faults[index],
                                                self.rows, self.cols, self.fmt)
                mask = self._bypass_mask(index, weight_matrix.shape)
                effective_weights.append(
                    effective if mask is None else np.where(mask, 0.0, effective))
            # Kept as a transposed view: the GEMM's B operand must have the
            # same memory order as the sequential ``inputs @ w.T`` for the
            # per-slice results to be bit-identical.
            stacked_weights = np.stack(effective_weights).transpose(0, 2, 1)
        else:
            effective_weights = None
            stacked_weights = None

        chain_plans: List[UniformChainPlan] = []
        if self._any_faults:
            counts = self._site_counts(out_features, in_features)
            tile_bounds = [(lo, min(lo + self.rows, in_features))
                           for lo in range(0, in_features, self.rows)]
            for table, (full_counts, last_counts) in zip(self._chain_tables(out_features),
                                                         counts):
                w_rows = [
                    (weight_matrix if effective_weights is None
                     else effective_weights[chain.map_index])[chain.out_idx]
                    for chain in table.chains
                ]
                tile_sites = [full_counts] * (len(tile_bounds) - 1) + [last_counts]
                chain_plans.append(build_uniform_plan(table, w_rows, tile_bounds,
                                                      tile_sites))

        return _PreparedWeight(weight_matrix, stacked_weights, chain_plans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BatchedSystolicArray({self.num_maps} maps, "
                f"{self.rows}x{self.cols})")
