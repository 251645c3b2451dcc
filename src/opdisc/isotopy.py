"""A path of orthogonal maps that no finite truncation can follow.

On the sequence space there is a continuous path of linear isometries that
starts at the identity and ends at a single-coordinate reflection.  The path
sweeps an infinite cascade of 2x2 rotation blocks: block ``i`` turns from I to
-I while the sweep parameter ``u = 1/(1 - t)`` crosses the window ``[i, i+1]``,
so every finite stretch of coordinates has finished rotating long before
``t = 1``, yet at each fixed ``t`` the map is orthogonal.  Gluing a second,
reflected cascade onto the first connects the identity to ``diag(-1, I)``
through invertible maps — something the determinant forbids in any fixed
finite dimension.

This module builds the finite m-dimensional shadows of that path.  Truncating
to a prefix that cuts a rotation block in half leaves a lone cosine on the
diagonal, and the determinant of the truncated map must cross zero; truncating
on a block boundary keeps the determinant at +-1 but forces it to jump at the
gluing point.  Either way the finite picture breaks: continuous-but-singular,
or invertible-but-discontinuous.  ``truncated_det_scan`` sweeps the cut
truncation with :func:`opdisc.spectral.path_scan`, and
``aligned_truncation_matrix`` gives the block-aligned one, whose
determinants the ``nogo-isotopy`` report lists next to the cut column.
"""

from __future__ import annotations

import math

import numpy as np

from .decompose import quintic_smoothstep
from .spectral import PathScan, _unit_parameters, path_scan

__all__ = [
    "aligned_dets",
    "aligned_truncation_matrix",
    "block_angle",
    "glued_truncation_matrix",
    "reflected_rotation_cascade",
    "rotation_cascade",
    "truncated_det_scan",
]


def block_angle(u, index):
    """Rotation angle of block ``index`` at sweep parameter ``u``.

    The angle ramps from 0 to pi while ``u`` crosses ``[index, index + 1]``,
    following the clamped quintic step, so each block flips to -I in turn.
    """
    return quintic_smoothstep(u - index) * math.pi


def rotation_cascade(t, m: int) -> np.ndarray:
    """The m-dim block of the rotation cascade at path parameter ``t``.

    ``m`` must be even so the prefix holds whole 2x2 blocks.  At ``t = 0``
    every block is still the identity; at ``t = 1`` the sweep has passed every
    block and the matrix is exactly -I.  Orthogonal for every ``t``, and its
    determinant is +1 throughout: rotations cannot change orientation.  A
    scalar ``t`` gives one matrix, an array of k parameters the (k, m, m)
    stack; so do the reflected cascade and the aligned truncation.
    """
    ts = _unit_parameters(t)
    if m < 2 or m % 2 != 0:
        raise ValueError(
            f"the rotation cascade needs an even dimension (whole 2x2 blocks), got m={m}"
        )
    done = ts == 1.0
    theta = block_angle(1.0 / (1.0 - ts[~done, None]), np.arange(1, m // 2 + 1))
    # a finished block is exactly -I, signed zeros included; sin(pi) in
    # floats leaves a 1e-16 residue
    finished = theta == math.pi
    cos = np.where(finished, -1.0, np.cos(theta))
    sin = np.sin(theta)
    upper = np.where(finished, -0.0, sin)
    lower = np.where(finished, -0.0, -sin)
    mats = np.zeros((ts.size, m, m))
    mats[done] = -np.eye(m)
    live = np.flatnonzero(~done)[:, None]
    first = 2 * np.arange(m // 2)
    mats[live, first, first] = mats[live, first + 1, first + 1] = cos
    mats[live, first, first + 1] = upper
    mats[live, first + 1, first] = lower
    return mats if np.ndim(t) else mats[0]


def reflected_rotation_cascade(t, m: int) -> np.ndarray:
    """The cascade with one extra frozen -1 coordinate in front.

    ``m`` must be odd: coordinate one carries the reflection, the remaining
    even-dimensional tail carries the rotation cascade.  Ends at exactly -I
    when ``t = 1``, so it meets :func:`rotation_cascade` there; at ``t = 0``
    it is the single-coordinate reflection ``diag(-1, I)``.
    """
    if m < 3 or m % 2 != 1:
        raise ValueError(
            f"the reflected cascade needs an odd dimension (a -1 plus whole blocks), got m={m}"
        )
    tail = rotation_cascade(np.reshape(t, -1), m - 1)
    mats = np.zeros((tail.shape[0], m, m))
    mats[:, 0, 0] = -1.0
    mats[:, 1:, 1:] = tail
    return mats if np.ndim(t) else mats[0]


def glued_truncation_matrix(t, m: int) -> np.ndarray:
    """Leading m-by-m corners of the glued path at the parameters ``t``, as
    a (k, m, m) stack, for an odd ``m`` of at least 3.

    The glued path runs the rotation cascade forward on ``t <= 1/2`` (at
    doubled speed) and the reflected cascade backward on ``t > 1/2``; both
    halves equal -I at the seam.  On the first half the corner is cut from
    the (m + 1)-dimensional cascade, so it keeps only the ``cos`` entry of
    the block that dimension m cuts; on the second half the reflected
    cascade of dimension m holds whole blocks.
    """
    ts = _unit_parameters(t)
    if m < 3 or m % 2 != 1:
        raise ValueError(f"need an odd truncation of at least 3, got m={m}")
    first = ts <= 0.5
    mats = np.empty((ts.size, m, m))
    mats[first] = rotation_cascade(2.0 * ts[first], m + 1)[:, :m, :m]
    if not first.all():
        mats[~first] = reflected_rotation_cascade(2.0 - 2.0 * ts[~first], m)
    return mats


def aligned_truncation_matrix(t, m: int) -> np.ndarray:
    """The block-aligned truncation of the glued path at ``t``, for an odd ``m``.

    First half: one extra coordinate completes the block that dimension m
    cuts, so the matrix is the (m + 1)-dimensional rotation cascade.  Second
    half: dimension m is already aligned (the -1 plus whole blocks).  Both
    are orthogonal, so the determinant stays at +-1 and must jump from +1 to
    -1 at the seam.  The halves differ in dimension, so a stack of
    parameters must lie within one of them.
    """
    t = np.asarray(t, dtype=float)
    first = _unit_parameters(t) <= 0.5
    if first.all():
        return rotation_cascade(2.0 * t, m + 1)
    if not first.any():
        return reflected_rotation_cascade(2.0 - 2.0 * t, m)
    raise ValueError("a stack of aligned truncations must lie within one half of the path")


def aligned_dets(ts: np.ndarray, m: int) -> list[float]:
    """det of :func:`aligned_truncation_matrix` at each of the ascending
    parameters ``ts``: one stacked det per half of the path."""
    ts = np.asarray(ts, dtype=float)
    first = ts <= 0.5
    dets = [np.linalg.det(aligned_truncation_matrix(half, m)) for half in (ts[first], ts[~first])]
    return np.concatenate(dets).tolist()


def truncated_det_scan(m: int, t_grid: int, bisect_tol: float) -> PathScan:
    """Scan det and least singular value of the m-truncated glued path.

    ``m`` must be odd and at least 3 so that the first half of the path cuts a
    rotation block.  The scan records ``t_grid`` equispaced points of [0, 1]
    and bisects every sign change of the determinant to ``bisect_tol``; the
    endpoints are the identity (det +1) and the single-coordinate reflection
    (det -1), so at least one crossing always exists.
    """
    if m < 3 or m % 2 != 1:
        raise ValueError(f"need an odd truncation of at least 3 to cut a block, got m={m}")
    return path_scan(lambda ts: glued_truncation_matrix(ts, m), t_grid, bisect_tol)
