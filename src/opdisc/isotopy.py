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
from .spectral import PathScan, path_scan

__all__ = [
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


def _rotation(theta: float) -> np.ndarray:
    if theta == math.pi:
        # a finished block is exactly -I; sin(pi) in floats leaves a 1e-16 residue
        return -np.eye(2)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def rotation_cascade(t: float, m: int) -> np.ndarray:
    """The m-dim block of the rotation cascade at path parameter ``t``.

    ``m`` must be even so the prefix holds whole 2x2 blocks.  At ``t = 0``
    every block is still the identity; at ``t = 1`` the sweep has passed every
    block and the matrix is exactly -I.  Orthogonal for every ``t``, and its
    determinant is +1 throughout: rotations cannot change orientation.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"path parameter must lie in [0, 1], got {t}")
    if m < 2 or m % 2 != 0:
        raise ValueError(
            f"the rotation cascade needs an even dimension (whole 2x2 blocks), got m={m}"
        )
    if t == 1.0:
        return -np.eye(m)
    u = 1.0 / (1.0 - t)
    mat = np.zeros((m, m))
    for i in range(1, m // 2 + 1):
        block = _rotation(block_angle(u, i))
        mat[2 * i - 2 : 2 * i, 2 * i - 2 : 2 * i] = block
    return mat


def reflected_rotation_cascade(t: float, m: int) -> np.ndarray:
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
    mat = np.zeros((m, m))
    mat[0, 0] = -1.0
    mat[1:, 1:] = rotation_cascade(t, m - 1)
    return mat


def glued_truncation_matrix(t: float, m: int) -> np.ndarray:
    """Leading m-by-m corner of the glued path at parameter ``t``.

    The glued path runs the rotation cascade forward on ``t <= 1/2`` (at
    doubled speed) and the reflected cascade backward on ``t > 1/2``; both
    halves equal -I at the seam.  The corner is extracted from an ambient
    matrix large enough to hold every whole block, so a prefix that ends
    mid-block keeps only the ``cos`` entry of the block it cuts.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"path parameter must lie in [0, 1], got {t}")
    if m < 1:
        raise ValueError("need at least one coordinate")
    if t <= 0.5:
        ambient = m if m % 2 == 0 else m + 1
        full = rotation_cascade(2.0 * t, ambient)
    else:
        ambient = m if m % 2 == 1 else m + 1
        full = reflected_rotation_cascade(2.0 - 2.0 * t, ambient)
    return np.ascontiguousarray(full[:m, :m])


def aligned_truncation_matrix(t: float, m: int) -> np.ndarray:
    """The block-aligned truncation of the glued path at ``t``, for an odd ``m``.

    First half: one extra coordinate completes the block that dimension m
    cuts, so the matrix is the (m + 1)-dimensional rotation cascade.  Second
    half: dimension m is already aligned (the -1 plus whole blocks).  Both
    are orthogonal, so the determinant stays at +-1 and must jump from +1 to
    -1 at the seam.
    """
    if t <= 0.5:
        return rotation_cascade(2.0 * t, m + 1)
    return reflected_rotation_cascade(2.0 - 2.0 * t, m)


def truncated_det_scan(
    m: int, t_grid: int = 101, bisect_tol: float = 1e-12
) -> PathScan:
    """Scan det and least singular value of the m-truncated glued path.

    ``m`` must be odd and at least 3 so that the first half of the path cuts a
    rotation block.  The scan records ``t_grid`` equispaced points of [0, 1]
    and bisects every sign change of the determinant to ``bisect_tol``; the
    endpoints are the identity (det +1) and the single-coordinate reflection
    (det -1), so at least one crossing always exists.
    """
    if m < 3 or m % 2 != 1:
        raise ValueError(f"need an odd truncation of at least 3 to cut a block, got m={m}")
    return path_scan(lambda t: glued_truncation_matrix(t, m), t_grid, bisect_tol)
