"""Reference constructions that only the tests use.

The pipeline never forms a lone slot variable or a power of a whole
polynomial; the tests build their expected polynomials from these, on the
reference ring ``TPoly``.
"""

from hbarkp.rational import Rational
from hbarkp.tpoly import CapError, TPoly


def var_zeta(ctx, weight_cap, slot: int, z_cap, nslots, power: int = 1,
             degree_cap=None) -> TPoly:
    """zeta_slot^power, the slot variable standing for z_slot^{-1}."""
    if not (0 <= slot < nslots):
        raise ValueError("slot out of range")
    if power > z_cap:
        raise CapError("zeta power exceeds z cap")
    zexp = (0,) * slot + (power,)
    return TPoly(ctx, weight_cap, z_cap, nslots, {((), zexp): Rational(1)},
                 degree_cap=degree_cap)


def pow_int(poly: TPoly, n: int) -> TPoly:
    """poly^n, multiplied in one factor at a time from the constant 1."""
    out = poly._constant_like(Rational(1))
    for _ in range(n):
        out = out * poly
    return out
