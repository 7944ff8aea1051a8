"""Multi-scalar multiplication (multi-exponentiation).

Computing a Pedersen vector commitment is one big multi-exponentiation
``∏ h_i^{v_i}``; its cost dominates the verifiability overhead the paper
measures in Fig. 3, and the paper names multi-exponentiation algorithms
[27, 28] as the standard optimization.  We implement both classics:

- **Straus** (interleaved wNAF) — best for a handful of terms,
- **Pippenger** (bucket method) — asymptotically optimal for the
  thousands-to-millions of terms a model-sized commitment needs,

plus an auto-dispatching :func:`multi_scalar_mult`.

Both first lift every scalar to its centred representative in
``(-n/2, n/2)``: a term ``s·P`` with ``s > n/2`` becomes ``(n - s)·(-P)``,
which is exact because ``n·P`` is the identity, and negating an affine
point only flips ``y``.  Gradients reach the commitment through
:class:`~repro.crypto.encoding.FixedPointCodec`, which embeds a negative
coordinate as ``n - |x|``: about half the scalars of a commitment are
256-bit numbers whose centred magnitude is a few fractional bits plus
the gradient's integer part, ~20 bits.  The doubling chain, and
Pippenger's window count, follow the largest centred magnitude.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .curves import CurveParams
from .group import (
    Point,
    _JAC_IDENTITY,
    _jac_add,
    _jac_add_mixed,
    _jac_double,
    wnaf,
)

__all__ = ["multi_scalar_mult", "straus", "pippenger", "pippenger_window"]


def _validate(scalars: Sequence[int], points: Sequence[Point]) -> CurveParams:
    if len(scalars) != len(points):
        raise ValueError(
            f"{len(scalars)} scalars vs {len(points)} points"
        )
    if not points:
        raise ValueError("empty multi-exponentiation; handle upstream")
    curve = points[0].curve
    for point in points:
        if point.curve.name != curve.name:
            raise ValueError("all points must live on the same curve")
    return curve


def _centred_terms(scalars: Sequence[int], points: Sequence[Point],
                   curve: CurveParams) -> List[Tuple[int, Point]]:
    """The nonzero terms as ``(|s|, ±P)`` with ``|s| <= n/2``."""
    order = curve.n
    half = order >> 1
    terms = []
    for scalar, point in zip(scalars, points):
        scalar %= order
        if scalar == 0 or point.is_identity:
            continue
        if scalar > half:
            terms.append((order - scalar, -point))
        else:
            terms.append((scalar, point))
    return terms


def straus(scalars: Sequence[int], points: Sequence[Point],
           width: int = 4) -> Point:
    """Interleaved wNAF: shared doublings across all terms.

    Efficient for small batches (tens of points), e.g. re-checking a
    handful of accumulated commitments.
    """
    curve = _validate(scalars, points)

    precomp: List[List] = []
    naf_digits: List[List[int]] = []
    for scalar, point in _centred_terms(scalars, points, curve):
        base = point.to_jacobian()
        table = [base]
        twice = _jac_double(curve, base)
        for _ in range((1 << (width - 2)) - 1):
            table.append(_jac_add(curve, table[-1], twice))
        precomp.append(table)
        naf_digits.append(wnaf(scalar, width))

    length = max((len(d) for d in naf_digits), default=0)
    accumulator = _JAC_IDENTITY
    for position in range(length - 1, -1, -1):
        accumulator = _jac_double(curve, accumulator)
        for digits, table in zip(naf_digits, precomp):
            if position >= len(digits):
                continue
            digit = digits[position]
            if digit > 0:
                accumulator = _jac_add(curve, accumulator, table[digit >> 1])
            elif digit < 0:
                x, y, z = table[(-digit) >> 1]
                accumulator = _jac_add(
                    curve, accumulator, (x, (-y) % curve.p, z)
                )
    return Point.from_jacobian(curve, accumulator)


def pippenger_window(count: int) -> int:
    """Bucket width (bits) minimizing adds for ``count`` terms."""
    if count < 4:
        return 1
    # Rule of thumb: c ≈ log2(n) - 2, clamped to a practical range.
    return max(2, min(16, count.bit_length() - 2))


def pippenger(scalars: Sequence[int], points: Sequence[Point],
              window: int = 0) -> Point:
    """Bucket-method multi-exponentiation.

    Cost ≈ ``(bits/c) · (n + 2^c)`` point additions and ``bits`` doublings
    for n terms and bucket width c, versus ``n · bits/2`` for naive
    per-term wNAF — the difference between minutes and hours at model
    scale.  ``bits`` is the bit length of the largest *centred* scalar,
    so a fixed-point gradient commitment runs ~20 bits of windows
    instead of the group order's 256.
    """
    curve = _validate(scalars, points)
    pairs = _centred_terms(scalars, points, curve)
    if not pairs:
        return Point.identity(curve)
    c = window or pippenger_window(len(pairs))
    total_bits = max(scalar for scalar, _ in pairs).bit_length()
    num_windows = -(-total_bits // c)
    mask = (1 << c) - 1

    accumulator = _JAC_IDENTITY
    for window_index in range(num_windows - 1, -1, -1):
        if accumulator != _JAC_IDENTITY:
            for _ in range(c):
                accumulator = _jac_double(curve, accumulator)
        shift = window_index * c
        buckets: List = [None] * ((1 << c) - 1)
        for scalar, point in pairs:
            digit = (scalar >> shift) & mask
            if digit == 0:
                continue
            slot = digit - 1
            if buckets[slot] is None:
                buckets[slot] = point.to_jacobian()
            else:
                buckets[slot] = _jac_add_mixed(
                    curve, buckets[slot], point.x, point.y
                )
        running = _JAC_IDENTITY
        window_sum = _JAC_IDENTITY
        for bucket in reversed(buckets):
            if bucket is not None:
                running = _jac_add(curve, running, bucket)
            window_sum = _jac_add(curve, window_sum, running)
        accumulator = _jac_add(curve, accumulator, window_sum)
    return Point.from_jacobian(curve, accumulator)


def multi_scalar_mult(scalars: Sequence[int],
                      points: Sequence[Point]) -> Point:
    """Auto-dispatching ``∑ scalar_i · point_i`` (``∏ h_i^{v_i}``)."""
    if len(scalars) != len(points):
        raise ValueError(
            f"{len(scalars)} scalars vs {len(points)} points"
        )
    if not points:
        raise ValueError("cannot infer curve from an empty input")
    if len(points) == 1:
        return scalars[0] * points[0]
    if len(points) <= 16:
        return straus(scalars, points)
    return pippenger(scalars, points)
