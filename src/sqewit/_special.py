"""Log-gamma for x > 0: a port of cephes `lgam`, scipy.special.gammaln's real route.

Each operation of cephes is repeated in its order with `math.log` (numpy's
vectorized log rounds differently), so every value is bitwise scipy's
`gammaln` and the comb weights built from it do not move.
"""

from __future__ import annotations

import math

from .errors import ContractViolationError

# Stirling's series in 1/x², for 13 <= x < 1000.
_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
# The rational approximation B(x)/C(x) of lnΓ(2 + x) on 0 < x < 1; C is monic.
_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_C = (
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # ln sqrt(2 pi)
_MAXLGM = 2.556348e305


def _polevl(x: float, coef: tuple[float, ...], ans: float) -> float:
    # Horner's rule from a given leading term: cephes polevl starts at
    # coef[0], p1evl (monic) at x + coef[0].
    for c in coef:
        ans = ans * x + c
    return ans


def lgam(x: float) -> float:
    """ln Γ(x) for finite x > 0, bitwise scipy.special.gammaln."""
    if not 0.0 < x < math.inf:
        raise ContractViolationError(f"lgam needs a finite x > 0, got {x}")
    x = float(x)
    if x < 13.0:
        # Shift x into [2, 3) by the recurrence, collecting the product in z.
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        p = x * _polevl(x, _B[1:], _B[0]) / _polevl(x, _C[1:], x + _C[0])
        return math.log(z) + p
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333) / x
    return q + _polevl(p, _A[1:], _A[0]) / x
