"""Cryptography: elliptic curves, multi-exponentiation, Pedersen commitments.

Everything is implemented from first principles (prime-field arithmetic up)
— the stand-in for the paper's Bouncy Castle dependency.

Public surface:

- :data:`SECP256K1` / :data:`SECP256R1` — the paper's two curves.
- :class:`Point`, :func:`generator`, :func:`scalar_mult` — group ops.
- :func:`multi_scalar_mult` (Straus / Pippenger dispatch).
- :class:`PedersenParams` / :class:`Commitment` — vector commitments.
- :class:`FixedPointCodec` — gradient <-> scalar encoding.
- :func:`hash_to_curve`, :func:`derive_generators`, :func:`sha256`.
"""

from .curves import CurveParams, SECP256K1, SECP256R1, curve_by_name
from .encoding import FixedPointCodec
from .field import inverse_mod, is_quadratic_residue, legendre_symbol, sqrt_mod
from .group import Point, generator, scalar_mult, wnaf
from .hashing import derive_generators, hash_to_curve, sha256
from .multiexp import multi_scalar_mult, pippenger, straus
from .pedersen import Commitment, PedersenParams

__all__ = [
    "Commitment",
    "CurveParams",
    "FixedPointCodec",
    "PedersenParams",
    "Point",
    "SECP256K1",
    "SECP256R1",
    "curve_by_name",
    "derive_generators",
    "generator",
    "hash_to_curve",
    "inverse_mod",
    "is_quadratic_residue",
    "legendre_symbol",
    "multi_scalar_mult",
    "pippenger",
    "scalar_mult",
    "sha256",
    "sqrt_mod",
    "straus",
    "wnaf",
]
