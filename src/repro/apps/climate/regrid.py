"""Regridding between the atmosphere and ocean grids.

Production couplers interpolate exchanged fields between component
grids; the paper's Millenia model coupled a (coarse) spectral atmosphere
to a different-resolution ocean.  This module provides the bilinear
regridding our coupler applies when the two bands differ in shape —
with a mean-preserving correction, since the coupler's fields (fluxes,
SST) must not gain or lose their large-scale magnitude in transit.
"""

from __future__ import annotations

import numpy as np


def _resample_axis(field: np.ndarray, n_out: int, axis: int) -> np.ndarray:
    """Linear interpolation along ``axis`` onto ``n_out`` cells.

    Cells are pixels covering the domain: output cell ``o``'s centre
    sits at source position ``(o + 0.5) * n_in / n_out - 0.5``, clamped
    to the first and last source cells (edge values extend outward).
    """
    n_in = field.shape[axis]
    pos = np.clip((np.arange(n_out) + 0.5) * n_in / n_out - 0.5,
                  0.0, n_in - 1)
    lo = np.floor(pos).astype(int)
    hi = np.minimum(lo + 1, n_in - 1)
    weight = pos - lo
    shape = [1, 1]
    shape[axis] = n_out
    weight = weight.reshape(shape)
    return (np.take(field, lo, axis=axis) * (1.0 - weight)
            + np.take(field, hi, axis=axis) * weight)


def regrid(field: np.ndarray, shape: tuple[int, int], *,
           preserve_mean: bool = True) -> np.ndarray:
    """Bilinearly resample a 2-D band onto ``shape``.

    Cells are treated as pixels covering the domain, so the result
    samples the same physical region at the new resolution.
    With ``preserve_mean`` the output is shifted so its mean equals the
    input's exactly (bilinear sampling is only approximately
    mean-preserving on coarse bands).
    """
    field = np.asarray(field, dtype=float)
    if field.ndim != 2:
        raise ValueError(f"regrid expects a 2-D band, got {field.ndim}-D")
    if field.shape == tuple(shape):
        return field.copy()
    out = _resample_axis(_resample_axis(field, shape[0], 0), shape[1], 1)
    if preserve_mean:
        out += field.mean() - out.mean()
    return out
