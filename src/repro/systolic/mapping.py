"""Mapping of layer weights onto the PE grid (weight-stationary dataflow).

A layer's weight tensor is viewed as a 2D matrix of shape
``(out_features, in_features)`` -- convolutional weights are reshaped to
``(out_channels, in_channels * kh * kw)`` -- and tiled over the ``R x C``
array with the *input* dimension along rows and the *output* dimension along
columns: weight element ``(o, i)`` is pre-stored in PE ``(i mod R, o mod C)``.

Because the array is reused for every tile (and for every layer), a single
faulty PE touches many weight elements; this reuse is what makes small
arrays more vulnerable (paper, Fig. 5c) and what forces fault-aware pruning
to zero out several weights per faulty PE (paper, Section IV).
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np


def as_weight_matrix(weight: np.ndarray) -> np.ndarray:
    """View a layer weight tensor as a 2D (out_features, in_features) matrix.

    Linear weights pass through; 4D convolutional weights are reshaped so the
    output-channel dimension maps to array columns.
    """

    weight = np.asarray(weight)
    if weight.ndim == 2:
        return weight
    if weight.ndim == 4:
        return weight.reshape(weight.shape[0], -1)
    raise ValueError(f"unsupported weight rank {weight.ndim}; expected 2 or 4")


def pe_coordinates(weight_shape: Tuple[int, int], rows: int, cols: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Return (row, col) PE coordinates for every element of a 2D weight matrix.

    The returned arrays have the same shape as the weight matrix.
    """

    if rows <= 0 or cols <= 0:
        raise ValueError("array dimensions must be positive")
    out_features, in_features = weight_shape
    in_index = np.arange(in_features)
    out_index = np.arange(out_features)
    row_map = np.broadcast_to(in_index % rows, (out_features, in_features))
    col_map = np.broadcast_to((out_index % cols)[:, None], (out_features, in_features))
    return row_map, col_map


def faulty_weight_mask(fault_coords: Iterable[Tuple[int, int]],
                       weight_shape: Tuple[int, int],
                       rows: int, cols: int) -> np.ndarray:
    """Boolean mask of weight elements that map onto any faulty PE.

    ``fault_coords`` is an iterable of (row, col) PE coordinates.  The mask
    has the shape of the 2D weight matrix; ``True`` marks weights that must be
    pruned (set to zero) when the corresponding PE is bypassed.
    """

    coords = list(fault_coords)
    mask = np.zeros(weight_shape, dtype=bool)
    if not coords:
        return mask
    row_map, col_map = pe_coordinates(weight_shape, rows, cols)
    faulty_grid = np.zeros((rows, cols), dtype=bool)
    for row, col in coords:
        if not (0 <= row < rows and 0 <= col < cols):
            raise ValueError(f"fault coordinate {(row, col)} outside {rows}x{cols} array")
        faulty_grid[row, col] = True
    return faulty_grid[row_map, col_map]


def faulty_mask_for_layer_weight(weight: np.ndarray,
                                 fault_coords: Iterable[Tuple[int, int]],
                                 rows: int, cols: int) -> np.ndarray:
    """Like :func:`faulty_weight_mask` but accepts 2D or 4D weights and
    returns a mask with the weight's original shape."""

    matrix = as_weight_matrix(weight)
    mask = faulty_weight_mask(fault_coords, matrix.shape, rows, cols)
    return mask.reshape(np.asarray(weight).shape)


def tile_counts(weight_shape: Tuple[int, int], rows: int, cols: int) -> Tuple[int, int]:
    """Number of (input, output) tiles needed to map a weight matrix on the array."""

    out_features, in_features = weight_shape
    tiles_in = int(np.ceil(in_features / rows))
    tiles_out = int(np.ceil(out_features / cols))
    return tiles_in, tiles_out
