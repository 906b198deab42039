"""Shamir secret sharing over Z_q with Lagrange reconstruction.

Reconstruction comes in two flavours: plain (over scalars) and in-exponent
(over group elements), the latter used when only C1^{f(j)} values are public.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .groups import multi_exp


class ShamirError(Exception):
    pass


class InvalidIndexError(ShamirError):
    pass


class InvalidThresholdError(ShamirError):
    pass


class InsufficientSharesError(ShamirError):
    pass


@dataclass(frozen=True)
class Polynomial:
    """Coefficients a_0..a_{t-1}; a_0 is the shared secret."""

    coefficients: tuple
    modulus: int

    @property
    def threshold(self) -> int:
        return len(self.coefficients)

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = (acc * x + c) % self.modulus
        return acc


@dataclass(frozen=True)
class Share:
    index: int
    value: int


def _checked_indices(indices, q) -> list:
    """`indices` listed; InvalidIndexError unless distinct and in [1, q): i >= q is i mod q."""
    indices = list(indices)
    if len(set(indices)) != len(indices):
        raise InvalidIndexError("duplicate share indices")
    for i in indices:
        if not 1 <= i < q:
            raise InvalidIndexError(f"index {i} outside [1, {q}); index 0 is the secret")
    return indices


def share_secret(secret, t, indices, rng, q):
    """Split `secret` with a fresh random degree-(t-1) polynomial.

    Returns (shares, polynomial); dealers need the polynomial afterwards to
    publish coefficient commitments.
    """
    if t < 1:
        raise InvalidThresholdError(f"threshold must be >= 1, got {t}")
    indices = _checked_indices(indices, q)
    if len(indices) < t:
        raise InvalidThresholdError("need at least t share indices")
    coeffs = (secret % q,) + tuple(rng.randrange(q) for _ in range(t - 1))
    poly = Polynomial(coeffs, q)
    return [Share(i, poly.evaluate(i)) for i in indices], poly


def lagrange_coefficients(indices: Iterable[int], q: int) -> dict:
    """lambda_j = prod_{m != j} m / (m - j) mod q, which interpolate f(0)."""
    indices = _checked_indices(indices, q)
    coeffs = {}
    for j in indices:
        num, den = 1, 1
        for m in indices:
            if m == j:
                continue
            num = num * -m % q
            den = den * (j - m) % q
        coeffs[j] = num * pow(den, -1, q) % q
    return coeffs


def reconstruct(shares, t, q) -> int:
    """Interpolate f(0) from at least t shares with distinct indices."""
    if len(shares) < t:
        raise InsufficientSharesError(f"need {t} shares, got {len(shares)}")
    lam = lagrange_coefficients([s.index for s in shares], q)
    return sum(lam[s.index] * s.value for s in shares) % q


def reconstruct_in_exponent(points: Mapping[int, object], group):
    """Compute prod_j points[j]^{lambda_j}; equals B^{f(0)} for points B^{f(j)}."""
    if not points:
        raise InsufficientSharesError("no points to interpolate")
    lam = lagrange_coefficients(points.keys(), group.order)
    return multi_exp(group, [(point, lam[j]) for j, point in points.items()])
