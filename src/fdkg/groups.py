"""Prime-order group abstraction.

Two interchangeable backends:

- MultiplicativeGroup: subgroup of Z_p* of prime order q.  A small instance
  (TEST_GROUP) keeps exhaustive tests and brute-force oracles feasible.
- CurveGroup: prime-order elliptic-curve subgroup (secp256k1 by default),
  the production configuration.  Its elements are canonical affine tuples
  (x, y), or None for infinity, at every method boundary.  Inside the
  arithmetic, points are Jacobian, (X, Y, Z) standing for (X/Z^2, Y/Z^3),
  so an operation makes one field inversion at its end instead of one per
  step.  All scalar multiplication is one kernel, `multi_exps`: one point
  per product prod P_i^e_i, each a Straus loop (`_straus`) with shared
  doublings, signed-window (wNAF) digits over affine odd multiples of
  every base, and signed Lim-Lee combs for G, cached on first use, and
  for a base fixed by `fixed_base` while its block is open.  A comb has 8
  teeth d bits apart and 128 affine points per base, T[u] = 2^(7d)·P ±
  2^(6d)·P ± .. ± P, one per sign pattern of the lower 7 teeth (the
  all-nonzero signed comb of Hedabou, Pinel and Bénéteau): every column
  of an odd scalar reads ±T[u], and an even scalar k is taken as k - 1
  plus a parity point P in the lowest row.  The products of one call
  share their tables, their comb scalars' splits and transpositions, each
  level of row sums and one final `_to_affine`, so a call makes one
  inversion per table round, one per level and one at its end, however
  many products it holds; a prover computes all its points in one call.
  `multi_exp`, `exp` and `base_exp` are its one-product cases.  On a curve with a GLV
  endomorphism (secp256k1: λ·(x, y) = (β·x, y)), an exponent over 128 bits
  is split as k1 + k2·λ with both halves below 2^128, halving the doubling
  chain, and every comb scalar is split so: its teeth are 16 bits apart
  over each half, k2's columns read from the β-image of the one table, so
  a comb term takes 16 doublings and a table's teeth 112.  On any other
  curve a comb scalar stays whole, with teeth ⌈log2 q / 8⌉ bits apart.
  Affine additions are batched: `_affine_sums` adds many pairs of
  points with one inversion for all their slopes (Montgomery's trick).  It
  builds the odd multiples of all fresh bases of a call in rounds
  (`_odd_multiples`), all comb tables a `fixed_base` block adds, T[0] in
  3 rounds and the rest in 7 doubling rounds (`_comb_tables`), and sums
  the points of each Straus row in pairs before the loop adds what is
  left; `muls` adds a list of pairs, and `mul` is its one-pair case.

`multi_exp(group, pairs)` and `multi_exps(group, products)` are the entry
points the provers and verification equations use: they run a group's own
kernel (native `pow` on MultiplicativeGroup) or, for any object offering
only the Group methods, the generic fold of `exp` and `mul` per product.
`muls(group, pairs)`, the batched `mul` a discrete-log search uses, falls
back to one `mul` per pair the same way.

Scalars are plain Python ints reduced mod the group order q.  Every group
exposes a coordinate map chi(element) -> scalar, deterministic; no program
path calls it (see `Group`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, cached_property
from operator import itemgetter


class GroupError(Exception):
    """Invalid group element or parameter."""


class Group:
    """Interface shared by all group backends: each defines `generator()`,
    `identity()`, `mul(a, b)`, `inv(a)`, `exp(a, e)`, `encode(a) -> bytes`,
    `decode(data)` and `chi(a) -> int`, a deterministic coordinate map to
    Z_q, and `multi_exps(products)`, one `multi_exp` per product; the
    methods below derive from those.  `chi` has no caller in the program
    since shares are encrypted with a hashed pad (`pke`); it stays because
    the benchmark's counting group proxy (`perfbench/spans.py`,
    `CountingGroup`) wraps it by name.

    Elements are opaque values; use only these methods to combine them.
    Canonical encodings are injective and stable across versions: they feed
    Fiat-Shamir transcripts and on-disk ceremony transcripts.
    """

    name: str
    order: int  # prime q

    def scalar_bytes(self, value: int) -> bytes:
        return (value % self.order).to_bytes((self.order.bit_length() + 7) // 8, "big")

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def base_exp(self, e: int):
        return self.exp(self.generator(), e)

    def muls(self, pairs) -> list:
        """`mul` of each (a, b) pair."""
        return [self.mul(a, b) for a, b in pairs]

    def multi_exp(self, pairs):
        """prod base^e over the (base, e) pairs, as a fold of `exp`
        (`base_exp` on the generator) and `mul`."""
        g = self.generator()
        acc = self.identity()
        for base, e in pairs:
            acc = self.mul(acc, self.base_exp(e) if base == g else self.exp(base, e))
        return acc


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

    def multi_exp(self, pairs) -> int:
        p, q = self.p, self.q
        acc = 1
        for a, e in pairs:
            acc = acc * pow(a, e % q, p) % p
        return acc

    def multi_exps(self, products) -> list:
        """`multi_exp` of each product; a one-term product, as most of a
        prover's are, is one `pow`."""
        p, q = self.p, self.q
        out = []
        for pairs in products:
            if len(pairs) == 1:
                ((a, e),) = pairs
                out.append(pow(a, e % q, p))
            else:
                out.append(self.multi_exp(pairs))
        return out

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


# An affine point is a tuple (x, y); a Jacobian point (X, Y, Z) stands for the
# affine (X/Z^2, Y/Z^3).  None is infinity in both forms; the helpers below
# take and return finite points or None.

COMB_TEETH = 8
# `multi_exp` sums a level of its rows' points only if the level has at least
# ROW_PAIRS pairs: on secp256k1 the level's inversion costs about what 11
# pairs save.  A level's pairs go through one `_affine_sums` call.
ROW_PAIRS = 12


def _wnaf(e: int, width: int) -> list:
    """Width-`width` NAF of a signed e as (position, digit) pairs of its
    nonzero digits, least significant first: the sum of d * 2^position is e,
    every d is odd with |d| < 2^(width-1), and positions are >= width apart."""
    digits = []
    pos = 0
    while e:
        zeros = (e & -e).bit_length() - 1  # skip the run of zero digits
        e >>= zeros
        pos += zeros
        d = e & ((1 << width) - 1)
        if d >> (width - 1):
            d -= 1 << width
        digits.append((pos, d))
        e = (e - d) >> width
        pos += width
    return digits


def _comb_columns(e: int, spacing: int) -> bytes:
    """Byte i is the comb index of column i of e: its bit j is bit
    spacing*j + i of e.  e is written out one bit a character, most
    significant first, and `_column_slices` reads each column's bits, top
    tooth first, highest column first, so the joined string is the columns
    as one number.  ValueError for an e the comb cannot hold, negative or
    of more than COMB_TEETH * spacing bits."""
    if e < 0 or e >> (COMB_TEETH * spacing):
        raise ValueError(f"{e.bit_length()}-bit comb scalar over {COMB_TEETH}x{spacing} bits")
    bits = format(e, f"0{COMB_TEETH * spacing}b")
    return int("".join(_column_slices(spacing)(bits)), 2).to_bytes(spacing, "little")


@cache
def _column_slices(spacing: int):
    return itemgetter(*(slice(m, None, spacing) for m in range(spacing)))


# A signed comb column (see `_signed_columns`) as a byte of digit bits, bit
# t set for digit +1 at tooth t: its table index and whether it reads the
# entry's inverse.  A column whose top digit is -1 is minus the column of
# its complement.
_COLUMN_INDEX = bytes(m & 0x7F if m & 0x80 else 0x7F - m for m in range(256))
_COLUMN_NEGATIVE = bytes(0 if m & 0x80 else 1 for m in range(256))


def _signed_columns(k: int, spacing: int) -> tuple:
    """(indices, negative, parity) of a nonzero comb half k, |k| below
    2^n, n = COMB_TEETH*spacing: an odd k is the sum of d_i·2^i over n
    digits d_i = ±1, the bits b_i of (k + 2^n - 1) / 2 read as
    d_i = 2·b_i - 1.  Column i (the digits i, spacing + i, ..) is then
    ±T[u], u from the column's lower COMB_TEETH - 1 digits: byte i of
    `indices` is u and byte i of `negative` 1 for the minus.  An even k
    is written as k - 1, with parity 1: the term adds P to row 0."""
    parity = 1 - (k & 1)
    cols = _comb_columns((k - parity + (1 << COMB_TEETH * spacing) - 1) >> 1, spacing)
    return cols.translate(_COLUMN_INDEX), cols.translate(_COLUMN_NEGATIVE), parity


def _jac_double(P, a: int, p: int):
    """EFD dbl-2009-l, keeping the a*Z^4 term of a general short curve.
    D = 2*((X1+B)^2-A-C) is computed as the equal, cheaper 4*X1*B."""
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


def _inverses(values, p: int) -> list:
    """1/v mod p of each v, and 0 for v = 0, with one inversion in all
    (Montgomery's trick)."""
    out = []
    acc = 1
    for v in values:
        out.append(acc)  # the product of the nonzero values before v
        if v:
            acc = acc * v % p
    inv = pow(acc, -1, p)
    for i in range(len(values) - 1, -1, -1):
        if values[i]:
            out[i], inv = inv * out[i] % p, inv * values[i] % p
        else:
            out[i] = 0
    return out


def _affine_sums(pairs, a: int, p: int) -> list:
    """P + Q of each pair of affine points or None (infinity), with one
    inversion for all the slopes: P == Q is a doubling, and P == -Q gives
    None.  No point of the prime-order curves here has y = 0."""
    dens = [0 if P is None or Q is None else 2 * P[1] if P == Q else Q[0] - P[0]
            for P, Q in pairs]
    out = []
    for (P, Q), inv in zip(pairs, _inverses(dens, p)):
        if not inv:  # a summand is infinity, or P == -Q
            out.append(None if P and Q else P or Q)
            continue
        (x1, y1), (x2, y2) = P, Q
        lam = (3 * x1 * x1 + a if P == Q else y2 - y1) * inv % p
        x3 = (lam * lam - x1 - x2) % p
        out.append((x3, (lam * (x1 - x3) - y1) % p))
    return out


def _to_affine(points, p: int) -> list:
    """Affine forms of Jacobian points, None for Z = 0 (infinity), with one
    inversion for all."""
    out = []
    for (X, Y, Z), zi in zip(points, _inverses([P[2] for P in points], p)):
        zi2 = zi * zi % p
        out.append((X * zi2 % p, Y * zi2 * zi % p) if zi else None)
    return out


def _odd_multiples(bases, sizes, a: int, p: int) -> list:
    """[P, 3P, .., (2s-1)P] of each affine base P with its table size s, all
    affine and built together in rounds of `_affine_sums`.  Round 1 doubles
    each base; each later round adds the base's current power 2^m·P to every
    odd multiple below it, and doubles that power while the table still needs
    it.  So s = 8 takes 4 rounds and s = 4 takes 3."""
    tables = [[P] for P in bases]
    powers = [[P] for P in bases]  # P, 2P, 4P, .. of each base
    span = 1  # 2^m
    while any(len(table) < s for table, s in zip(tables, sizes)):
        jobs = []  # (list the sum joins, P1, P2)
        for table, power, s in zip(tables, powers, sizes):
            jobs += [(table, P, power[-1]) for P in table[:min(span >> 1, s - len(table))]]
            if span < s:
                jobs.append((power, power[-1], power[-1]))
        for (out, _, _), S in zip(jobs, _affine_sums([job[1:] for job in jobs], a, p)):
            out.append(S)
        span <<= 1
    return tables


def _straus(rows, a: int, p: int) -> tuple:
    """The sum of 2^i times the affine points of rows[i] over all i, as a
    Jacobian (X, Y, Z): one doubling (`_jac_double`) per row, highest
    first, and one mixed addition (EFD madd-2007-bl) per point, written
    inline.  Z = 0 stands for infinity, which a doubling of infinity (Y = 0)
    or of a point of order 2 gives."""
    X = Y = Z = 0  # Z = 0: infinity
    for row in reversed(rows):
        X, Y, Z = _jac_double((X, Y, Z), a, p) or (0, 0, 0)
        for x2, y2 in row:
            if not Z:
                X, Y, Z = x2, y2, 1
                continue
            ZZ = Z * Z % p
            H = (x2 * ZZ - X) % p
            r = 2 * (y2 * Z * ZZ - Y) % p
            if not H:  # the point is acc (a doubling) or -acc (infinity)
                X, Y, Z = (not r and _jac_double((X, Y, Z), a, p)) or (0, 0, 0)
                continue
            I = 4 * H * H % p
            J = H * I % p
            V = X * I % p
            X3 = (r * r - J - 2 * V) % p
            Y, Z = (r * (V - X3) - 2 * Y * J) % p, 2 * Z * H % p
            X = X3
    return X, Y, Z


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
    # (β, a1, b1, a2, b2) of a GLV endomorphism λ·(x, y) = (β·x, y), with the
    # reduced basis a_i + b_i·λ ≡ 0 (mod q); empty for a curve without one
    glv: tuple = ()

    @property
    def order(self) -> int:
        return self.q

    def generator(self):
        return (self.gx, self.gy)

    def identity(self):
        return None

    def mul(self, P, Q):
        return _affine_sums([(P, Q)], self.a, self.p)[0]

    def muls(self, pairs) -> list:
        return _affine_sums(pairs, self.a, self.p)

    def inv(self, P):
        if P is None:
            return None
        x, y = P
        return (x, (-y) % self.p)

    def exp(self, P, e: int):
        return self.multi_exps([[(P, e)]])[0]

    def multi_exp(self, pairs):
        return self.multi_exps([pairs])[0]

    def multi_exps(self, products) -> list:
        """prod P^e over the (P, e) pairs of each product: one point per
        product, all from one pass.

        In a product, equal bases, and P with -P, are merged into one term.
        A term whose exponent exceeds q/2 is taken as P^-(q - e).  With
        `glv` set, an exponent still over 128 bits is split into halves
        k1 + k2·λ below 2^128 (a shorter one, such as a batch weight, stays
        whole).  Each is written in width-w NAF: odd signed digits below
        2^(w-1) in absolute value, at least w positions apart.  The affine
        odd multiples P, 3P, .. of every fresh base of the call are built in
        one `_odd_multiples` call, one table per base, as wide as its widest
        term needs; k2's digits index their β-images (β·x, y), λ times them
        at no group operation.  Terms on ±G, and on ±a base fixed by
        `fixed_base`, are summed into one comb scalar per base and product,
        whose rows join the same loop at its lowest `_comb_spacing` bits.
        With `glv`, every comb scalar is split too: k1's columns index the
        base's table and k2's the β-images of its entries.  A half is
        written in signed digits (`_signed_columns`), so each of its
        columns is an entry or the entry's inverse (x, -y), and an even
        half adds P (λ·P for k2) to row 0.  A comb scalar is split and
        transposed once per call, however many bases and products use it.
        Before the loop, the points of each row are summed in pairs, a level
        at a time across every product's rows while a level has at least
        ROW_PAIRS pairs; each product's Straus loop adds what is left with
        mixed additions, and one `_to_affine` makes every result affine.  So
        a call makes one inversion per table round, one per level and one
        at its end, however many products it holds.
        """
        a, p, q = self.a, self.p, self.q
        fixed, glv, spacing = self._fixed, self.glv, self._comb_spacing
        sizes = {}  # fresh base (x, y) with 2y < p -> the size of its table
        columns = {}  # comb scalar -> (is the λ-half, *`_signed_columns`) of its nonzero halves
        parsed = []  # per product: (its comb terms, its chains)
        for pairs in products:
            comb_e = {}  # the comb bases these terms name
            terms = {}
            for P, e in pairs:
                if P is None:
                    continue
                x, y = P
                if x in fixed:  # P is a comb base or its inverse
                    comb_e[x] = comb_e.get(x, 0) + (e if y == fixed[x][0] else -e)
                    continue
                if 2 * y > p:
                    y, e = p - y, -e
                terms[x, y] = terms.get((x, y), 0) + e
            chains = []  # (digits, base, is the λ-half)
            for base, e in terms.items():
                e %= q
                if not e:
                    continue
                sign = 1
                if 2 * e > q:  # P^e = P^-(q - e): q - e's digits, negated
                    sign, e = -1, q - e
                e, k2 = self._split(e) if glv and e.bit_length() > 128 else (e, 0)
                bits = abs(e).bit_length() + abs(k2).bit_length()  # digits the table serves
                width = 5 if bits > 128 else 4 if bits > 16 else 2
                sizes[base] = max(sizes.get(base, 0), 1 << (width - 2))
                chains.append((_wnaf(sign * e, width), base, False))
                if k2:
                    chains.append((_wnaf(sign * k2, width), base, True))
            combs = []  # (table, base, halves)
            for x, e in comb_e.items():
                e %= q
                if e not in columns:
                    halves = self._split(e) if glv else (e,)
                    columns[e] = [(image, *_signed_columns(k, spacing))
                                  for image, k in enumerate(halves) if k]
                combs.append((fixed[x][1] or self._comb, (x, fixed[x][0]), columns[e]))
            parsed.append((combs, chains))
        tables = dict(zip(sizes, _odd_multiples(list(sizes), list(sizes.values()), a, p)))
        images = {}  # base -> the β-images (β·x, y) of its table

        everyone = []  # the rows of every product
        for combs, chains in parsed:
            top = [ds[-1][0] + 1 for ds, _, _ in chains if ds]
            rows = [[] for _ in range(max([spacing if combs else 0] + top))]
            for comb, (x, y), halves in combs:
                for image, indices, negative, parity in halves:
                    if parity:
                        rows[0].append((glv[0] * x % p if image else x, y))
                    if image:  # k2's columns index the β-images; no entry is None with `glv`
                        beta = glv[0]
                        for row, u, minus in zip(rows, indices, negative):
                            S = comb[u]
                            row.append((beta * S[0] % p, p - S[1] if minus else S[1]))
                    else:
                        for row, u, minus in zip(rows, indices, negative):
                            S = comb[u]
                            if S:  # None only where a small curve's entry is infinity
                                row.append((S[0], p - S[1]) if minus else S)
            for ds, base, image in chains:
                if image and base not in images:
                    images[base] = [(glv[0] * x % p, y) for x, y in tables[base]]
                table = images[base] if image else tables[base]
                for pos, d in ds:
                    x, y = table[abs(d) >> 1]
                    rows[pos].append((x, y) if d > 0 else (x, p - y))
            everyone.append(rows)
        while True:  # a level of row sums
            full = [row for rows in everyone for row in rows if len(row) > 1]
            if sum(len(row) >> 1 for row in full) < ROW_PAIRS:
                return _to_affine([_straus(rows, a, p) for rows in everyone], p)
            sums = iter(_affine_sums([pair for row in full
                                      for pair in zip(row[::2], row[1::2])], a, p))
            for row in full:  # its sums, and its odd point if it has one
                row[:] = [S for _, S in zip(row[1::2], sums) if S] + row[len(row) & ~1:]

    def _split(self, e: int) -> tuple:
        """(k1, k2) with k1 + k2·λ ≡ e (mod q) and |k1|, |k2| < 2^128: e
        rounded (Babai) against the reduced basis of `glv`."""
        _, a1, b1, a2, b2 = self.glv
        q = self.q
        c1, c2 = (b2 * e + q // 2) // q, (-b1 * e + q // 2) // q
        return e - c1 * a1 - c2 * a2, -c1 * b1 - c2 * b2

    @property
    def _comb_spacing(self) -> int:
        """Bits between teeth: a comb scalar is a GLV half, below 2^128, on
        a curve with `glv`, and below q on any other."""
        return -(-(128 if self.glv else self.q.bit_length()) // COMB_TEETH)

    @cached_property
    def _comb(self) -> list:
        return self._comb_tables([(self.gx, self.gy)])[0]

    @cached_property
    def _fixed(self) -> dict:
        """x -> (y, comb table) of each comb base; G's table is `_comb`."""
        return {self.gx: (self.gy, None)}

    def _comb_tables(self, points) -> list:
        """The signed comb table of each affine point P, built together:
        T[u] = 2^(7d)·P + sum over t < 7 of (2·u_t - 1)·2^(td)·P, affine or
        None, for u in 0 .. 127 with bits u_t, d the spacing of the teeth.
        Every point's teeth 2^(td)·P and their doubles are doubled in
        Jacobian form and made affine in one `_to_affine`; three rounds of
        `_affine_sums` sum T[0] = 2^(7d)·P - sum of the lower teeth, and
        then round t adds twice tooth t to every entry below 2^t, so the
        tables take 7 + 127 additions each and COMB_TEETH + 3 inversions
        in all."""
        a, p = self.a, self.p
        jacobian = []  # per point: each tooth 2^(td)·P, and the double of each but the top
        for x, y in points:
            T = (x, y, 1)
            jacobian.append(T)
            for _ in range(COMB_TEETH - 1):
                T = _jac_double(T, a, p)
                jacobian.append(T)
                for _ in range(self._comb_spacing - 1):
                    T = _jac_double(T, a, p)
                jacobian.append(T)
        width = 2 * COMB_TEETH - 1
        affine = _to_affine(jacobian, p)
        teeth = [affine[width * i:width * (i + 1)] for i in range(len(points))]
        tables = [[ts[-1]] + [(x, p - y) for x, y in ts[:-1:2]] for ts in teeth]  # T[0]'s terms
        for _ in range(COMB_TEETH.bit_length() - 1):  # a level of T[0]'s sum
            sums = iter(_affine_sums([pair for terms in tables
                                      for pair in zip(terms[::2], terms[1::2])], a, p))
            tables = [[next(sums) for _ in terms[::2]] for terms in tables]
        for t in range(COMB_TEETH - 1):  # round t adds twice tooth t to every entry below 2^t
            sums = iter(_affine_sums([(S, ts[2 * t + 1]) for ts, table in zip(teeth, tables)
                                      for S in table], a, p))
            for table in tables:
                table += [next(sums) for _ in table]
        return tables

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


def multi_exp(group, pairs):
    """prod base^exponent over the (base, exponent) pairs: the group's own
    kernel, or the Group fold for an object that offers only the other
    Group methods."""
    if isinstance(group, Group):
        return group.multi_exp(pairs)
    return Group.multi_exp(group, pairs)


def multi_exps(group, products) -> list:
    """`multi_exp` of each product, a list of (base, exponent) pairs: one
    call of the group's own kernel, or the Group fold of each product for
    an object that offers only the other Group methods."""
    if isinstance(group, Group):
        return group.multi_exps(products)
    return [Group.multi_exp(group, pairs) for pairs in products]


def muls(group, pairs) -> list:
    """`mul` of each (a, b) pair: on a CurveGroup one `_affine_sums` call,
    one inversion for all, and for an object that offers only the Group
    methods one `mul` per pair."""
    if isinstance(group, Group):
        return group.muls(pairs)
    return Group.muls(group, pairs)


@contextmanager
def fixed_base(group, *points):
    """While the block is open, `CurveGroup.multi_exps` makes terms on ±P,
    for each P of `points`, comb terms, as G's are; a no-op on any other
    group, the identity or a base already fixed.  The new bases' tables are
    built together (`_comb_tables`).  Single-threaded, as G's cached table
    is."""
    added = []
    try:
        if isinstance(group, CurveGroup):
            new = {}  # x -> P, the first of ±P
            for P in points:
                if P is not None and P[0] not in group._fixed:
                    new.setdefault(P[0], P)
            for (x, y), table in zip(new.values(), group._comb_tables(list(new.values()))):
                group._fixed[x] = (y, table)
                added.append(x)
        yield
    finally:
        for x in added:
            del group._fixed[x]


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
    glv=(0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE,
         0x3086D221A7D46BCDE86C90E49284EB15, -0xE4437ED6010E88286F547FA90ABFE4C3,
         0x114CA50F7A8E2F3F657C1108D9D44CFD8, 0x3086D221A7D46BCDE86C90E49284EB15),
)

GROUPS = {g.name: g for g in (TEST_GROUP, SECP256K1)}
