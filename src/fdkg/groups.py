"""Prime-order group abstraction.

Two interchangeable backends:

- MultiplicativeGroup: subgroup of Z_p* of prime order q.  A small instance
  (TEST_GROUP) keeps exhaustive tests and brute-force oracles feasible.
- CurveGroup: prime-order elliptic-curve subgroup (secp256k1 by default),
  the production configuration.  Its elements are canonical affine tuples
  (x, y), or None for infinity, at every method boundary.  Inside `exp` the
  arithmetic runs in Jacobian coordinates, (X, Y, Z) standing for
  (X/Z^2, Y/Z^3), with a fixed 4-bit window, so a scalar multiplication
  makes one field inversion (at the end) instead of one per step.
  `base_exp`, and `exp` on the generator, use a Lim-Lee comb: 8 teeth 32
  bits apart over 255 affine multiples of G, built on first use and cached
  on the group instance, i.e. 32 doublings and at most 32 mixed additions.

Scalars are plain Python ints reduced mod the group order q.  Every group
exposes a coordinate map chi(element) -> scalar used by the PKE layer; the
only requirement on chi is determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class GroupError(Exception):
    """Invalid group element or parameter."""


def scalar_byte_width(q: int) -> int:
    return (q.bit_length() + 7) // 8


def scalar_to_bytes(value: int, q: int) -> bytes:
    return (value % q).to_bytes(scalar_byte_width(q), "big")


class Group:
    """Interface shared by all group backends.

    Elements are opaque values; use only the methods below to combine them.
    Canonical encodings are injective and stable across versions: they feed
    Fiat-Shamir transcripts and on-disk ceremony transcripts.
    """

    name: str
    order: int  # prime q

    def generator(self):
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def exp(self, a, e: int):
        raise NotImplementedError

    def encode(self, a) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes):
        raise NotImplementedError

    def chi(self, a) -> int:
        """Deterministic coordinate map GroupElement -> Z_q."""
        raise NotImplementedError

    def scalar_bytes(self, value: int) -> bytes:
        return scalar_to_bytes(value, self.order)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def base_exp(self, e: int):
        return self.exp(self.generator(), e)


@dataclass(frozen=True)
class MultiplicativeGroup(Group):
    """Order-q subgroup of Z_p*, elements stored as canonical ints in [1, p)."""

    p: int
    q: int
    g: int
    name: str = "modp"

    def __post_init__(self):
        if pow(self.g, self.q, self.p) != 1 or self.g == 1:
            raise GroupError("generator does not have order q")

    @property
    def order(self) -> int:
        return self.q

    def generator(self) -> int:
        return self.g

    def identity(self) -> int:
        return 1

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def exp(self, a: int, e: int) -> int:
        return pow(a, e % self.q, self.p)

    def encode(self, a: int) -> bytes:
        width = (self.p.bit_length() + 7) // 8
        return a.to_bytes(width, "big")

    def decode(self, data: bytes) -> int:
        if len(data) != (self.p.bit_length() + 7) // 8:
            raise GroupError("bad element encoding length")
        a = int.from_bytes(data, "big")
        if not 1 <= a < self.p or pow(a, self.q, self.p) != 1:
            raise GroupError("not a subgroup element")
        return a

    def chi(self, a: int) -> int:
        return a % self.q


# Affine point; None is the point at infinity.
Point = "tuple[int, int] | None"

# Jacobian point (X, Y, Z) standing for the affine (X/Z^2, Y/Z^3); None is
# infinity here too.  The helpers below take and return finite points or None.

COMB_TEETH = 8
WINDOW_BITS = 4


def _jac_double(P, a: int, p: int):
    """EFD dbl-2009-l, keeping the a*Z^4 term of a general short curve.
    D = 2*((X1+B)^2-A-C) is computed as the equal, cheaper 4*X1*B."""
    if P is None:
        return None
    X1, Y1, Z1 = P
    if not Y1:
        return None
    B = Y1 * Y1 % p
    D = 4 * X1 * B % p
    E = 3 * X1 * X1
    if a:
        ZZ = Z1 * Z1 % p
        E += a * ZZ * ZZ
    E %= p
    X3 = (E * E - 2 * D) % p
    return X3, (E * (D - X3) - 8 * B * B) % p, 2 * Y1 * Z1 % p


def _jac_add(P, Q, a: int, p: int):
    """EFD add-2007-bl; Z3 = 2*Z1*Z2*H is that formula's Z3 before expansion."""
    if P is None:
        return Q
    if Q is None:
        return P
    X1, Y1, Z1 = P
    X2, Y2, Z2 = Q
    Z1Z1 = Z1 * Z1 % p
    Z2Z2 = Z2 * Z2 % p
    U1 = X1 * Z2Z2 % p
    S1 = Y1 * Z2 * Z2Z2 % p
    H = (X2 * Z1Z1 - U1) % p
    r = 2 * (Y2 * Z1 * Z1Z1 - S1) % p
    if not H:
        return _jac_double(P, a, p) if not r else None
    I = 4 * H * H % p
    J = H * I % p
    V = U1 * I % p
    X3 = (r * r - J - 2 * V) % p
    return X3, (r * (V - X3) - 2 * S1 * J) % p, 2 * Z1 * Z2 * H % p


def _jac_add_affine(P, x2: int, y2: int, a: int, p: int):
    """EFD madd-2007-bl: Jacobian P plus the affine point (x2, y2)."""
    if P is None:
        return x2, y2, 1
    X1, Y1, Z1 = P
    Z1Z1 = Z1 * Z1 % p
    H = (x2 * Z1Z1 - X1) % p
    r = 2 * (y2 * Z1 * Z1Z1 - Y1) % p
    if not H:
        return _jac_double(P, a, p) if not r else None
    I = 4 * H * H % p
    J = H * I % p
    V = X1 * I % p
    X3 = (r * r - J - 2 * V) % p
    return X3, (r * (V - X3) - 2 * Y1 * J) % p, 2 * Z1 * H % p


def _to_affine(points, p: int) -> list:
    """Affine forms of Jacobian points (or None) with one inversion in all
    (Montgomery's trick)."""
    prefix = []
    acc = 1
    for P in points:
        prefix.append(acc)
        if P is not None:
            acc = acc * P[2] % p
    inv = pow(acc, -1, p)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        if points[i] is None:
            continue
        X, Y, Z = points[i]
        zi = inv * prefix[i] % p
        inv = inv * Z % p
        zi2 = zi * zi % p
        out[i] = (X * zi2 % p, Y * zi2 * zi % p)
    return out


@dataclass(frozen=True)
class CurveGroup(Group):
    """Short-Weierstrass curve y^2 = x^3 + ax + b over F_p with prime order q."""

    p: int
    a: int
    b: int
    q: int
    gx: int
    gy: int
    name: str = "curve"

    @property
    def order(self) -> int:
        return self.q

    def generator(self):
        return (self.gx, self.gy)

    def identity(self):
        return None

    def mul(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        p = self.p
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2:
            if (y1 + y2) % p == 0:
                return None
            lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        y3 = (lam * (x1 - x3) - y1) % p
        return (x3, y3)

    def inv(self, P):
        if P is None:
            return None
        x, y = P
        return (x, (-y) % self.p)

    def exp(self, P, e: int):
        e %= self.q
        if P is None or not e:
            return None
        if P == (self.gx, self.gy):
            return self.base_exp(e)
        a, p = self.a, self.p
        x, y = P
        # table[w] = w*P for every window value w
        table = [None, (x, y, 1), _jac_double((x, y, 1), a, p)]
        for _ in range(3, 1 << WINDOW_BITS):
            table.append(_jac_add_affine(table[-1], x, y, a, p))
        mask = (1 << WINDOW_BITS) - 1
        top = (e.bit_length() - 1) // WINDOW_BITS * WINDOW_BITS
        acc = None
        for shift in range(top, -1, -WINDOW_BITS):
            for _ in range(WINDOW_BITS):
                acc = _jac_double(acc, a, p)
            acc = _jac_add(acc, table[(e >> shift) & mask], a, p)
        return _to_affine([acc], p)[0]

    @property
    def _comb_spacing(self) -> int:
        return -(-self.q.bit_length() // COMB_TEETH)

    @cached_property
    def _comb(self) -> list:
        """_comb[m] = sum of 2^(spacing*j) * G over the set bits j of m,
        affine, for m in 1 .. 2^COMB_TEETH - 1."""
        a, p = self.a, self.p
        teeth = [(self.gx, self.gy, 1)]
        while len(teeth) < COMB_TEETH:
            T = teeth[-1]
            for _ in range(self._comb_spacing):
                T = _jac_double(T, a, p)
            teeth.append(T)
        jac = [None]
        for m in range(1, 1 << COMB_TEETH):
            high = m.bit_length() - 1
            jac.append(_jac_add(jac[m ^ (1 << high)], teeth[high], a, p))
        return _to_affine(jac, p)

    def base_exp(self, e: int):
        e %= self.q
        if not e:
            return None
        a, p = self.a, self.p
        comb = self._comb
        spacing = self._comb_spacing
        low = (1 << spacing) - 1
        rows = [(e >> (spacing * j)) & low for j in range(COMB_TEETH)]
        acc = None
        for i in range(spacing - 1, -1, -1):
            acc = _jac_double(acc, a, p)
            m = 0
            for j, row in enumerate(rows):
                m |= ((row >> i) & 1) << j
            if m:
                acc = _jac_add_affine(acc, *comb[m], a, p)
        return _to_affine([acc], p)[0]

    def encode(self, P) -> bytes:
        width = (self.p.bit_length() + 7) // 8
        if P is None:
            return b"\x00" * (width + 1)
        x, y = P
        prefix = b"\x03" if y & 1 else b"\x02"
        return prefix + x.to_bytes(width, "big")

    def decode(self, data: bytes):
        width = (self.p.bit_length() + 7) // 8
        if len(data) != width + 1:
            raise GroupError("bad point encoding length")
        if data[0] == 0:
            if any(data):
                raise GroupError("bad infinity encoding")
            return None
        if data[0] not in (2, 3):
            raise GroupError("bad point prefix")
        x = int.from_bytes(data[1:], "big")
        p = self.p
        if x >= p:
            raise GroupError("x not reduced mod p")
        rhs = (x * x * x + self.a * x + self.b) % p
        y = pow(rhs, (p + 1) // 4, p)  # p = 3 mod 4 for supported curves
        if y * y % p != rhs:
            raise GroupError("x not on curve")
        if (y & 1) != (data[0] & 1):
            y = p - y
        return (x, y)

    def chi(self, P) -> int:
        if P is None:
            return 0
        return P[0] % self.q


# Small safe-prime subgroup: p = 2q + 1, generator 4 = 2^2 has order q.
TEST_GROUP = MultiplicativeGroup(p=2027, q=1013, g=4, name="modp-2027")

SECP256K1 = CurveGroup(
    p=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F,
    a=0,
    b=7,
    q=0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
    gx=0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
    gy=0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8,
    name="secp256k1",
)

GROUPS = {g.name: g for g in (TEST_GROUP, SECP256K1)}
