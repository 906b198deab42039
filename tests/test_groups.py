"""Group backends against a plain affine double-and-add reference, the
Straus multi_exp against the exp/mul fold, and the canonical-encoding
contract of both decoders."""

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdkg import groups, nizk
from fdkg.groups import (SECP256K1, TEST_GROUP, CurveGroup, GroupError, MultiplicativeGroup,
                         _wnaf, multi_exp)

# Prime-order curve with a != 0 (y^2 = x^3 + 2x + 18 over F_1019, 1013
# points), small enough to check every scalar and to hit the coincident-point
# branches of the Jacobian formulas while the comb table is built.
TOY_CURVE = CurveGroup(p=1019, a=2, b=18, q=1013, gx=3, gy=207, name="toy")
# Another (y^2 = x^3 + 2x + 2 over F_467, 463 points), whose comb teeth
# 4^j·P have subset sums that collide: building a comb table there doubles
# one point and reaches infinity once.  TOY_CURVE's comb sums never collide.
COMB_TOY = CurveGroup(p=467, a=2, b=2, q=463, gx=4, gy=169, name="comb-toy")

Q = SECP256K1.q
EDGE_SCALARS = [0, 1, 2, 15, 16, 17, Q - 1, Q, Q + 1, 2 * Q, -1, -2, -Q, -Q - 1,
                2**255, 2**256 - 1]

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def ref_add(group, P, Q):
    """Textbook affine chord-and-tangent addition, one inversion a call,
    written apart from the kernel's `_affine_sums`."""
    if P is None or Q is None:
        return Q if P is None else P
    p = group.p
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + group.a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def ref_exp(group, P, e):
    """Affine double-and-add with one inversion per step."""
    e %= group.q
    result = None
    addend = P
    while e:
        if e & 1:
            result = ref_add(group, result, addend)
        addend = ref_add(group, addend, addend)
        e >>= 1
    return result


def on_curve(group, P):
    x, y = P
    return (y * y - x * x * x - group.a * x - group.b) % group.p == 0


scalars = st.one_of(st.integers(min_value=-(2**257), max_value=2**257),
                    st.sampled_from(EDGE_SCALARS))


class TestToyCurve:
    def test_curve_has_prime_order(self):
        p = TOY_CURVE.p
        points = 1  # infinity
        for x in range(p):
            rhs = (x * x * x + TOY_CURVE.a * x + TOY_CURVE.b) % p
            if rhs == 0:
                points += 1
            elif pow(rhs, (p - 1) // 2, p) == 1:
                points += 2
        assert points == TOY_CURVE.q
        assert on_curve(TOY_CURVE, TOY_CURVE.generator())

    def test_every_scalar_matches_reference(self):
        g = TOY_CURVE.generator()
        bases = [ref_exp(TOY_CURVE, g, k) for k in (1, 2, 3, 500, TOY_CURVE.q - 1)]
        for e in range(-TOY_CURVE.q - 2, 2 * TOY_CURVE.q + 2):
            assert TOY_CURVE.base_exp(e) == ref_exp(TOY_CURVE, g, e), e
            for P in bases:
                assert TOY_CURVE.exp(P, e) == ref_exp(TOY_CURVE, P, e), (P, e)


class TestSecp256k1Arithmetic:
    @pytest.mark.parametrize("e", EDGE_SCALARS)
    def test_edge_scalars(self, e):
        g = SECP256K1.generator()
        P = ref_exp(SECP256K1, g, 0xC0FFEE)
        assert SECP256K1.base_exp(e) == ref_exp(SECP256K1, g, e)
        assert SECP256K1.exp(g, e) == ref_exp(SECP256K1, g, e)
        assert SECP256K1.exp(P, e) == ref_exp(SECP256K1, P, e)

    @PROPERTY
    @given(e=scalars, k=st.integers(min_value=1, max_value=Q - 1))
    def test_exp_matches_reference(self, e, k):
        P = SECP256K1.base_exp(k)
        result = SECP256K1.exp(P, e)
        assert result == ref_exp(SECP256K1, P, e)
        assert result is None or on_curve(SECP256K1, result)

    @PROPERTY
    @given(e=scalars)
    def test_base_exp_matches_reference(self, e):
        expected = ref_exp(SECP256K1, SECP256K1.generator(), e)
        assert SECP256K1.base_exp(e) == expected
        assert SECP256K1.exp(SECP256K1.generator(), e) == expected

    @PROPERTY
    @given(e=scalars)
    def test_identity_input(self, e):
        assert SECP256K1.exp(SECP256K1.identity(), e) is None

    def test_order_annihilates(self):
        assert SECP256K1.base_exp(Q) is None
        assert SECP256K1.mul(SECP256K1.base_exp(Q - 1), SECP256K1.generator()) is None

    def test_comb_is_built_once_per_instance(self):
        group = CurveGroup(SECP256K1.p, SECP256K1.a, SECP256K1.b, SECP256K1.q,
                           SECP256K1.gx, SECP256K1.gy, name="fresh")
        assert "_comb" not in vars(group)
        group.base_exp(5)
        table = group._comb
        group.exp(group.generator(), 7)
        assert group._comb is table
        assert len(table) == 256 and table[0] is None
        assert all(on_curve(group, P) for P in table[1:])


def fold(group, pairs):
    """prod base^e by `mul` of single powers, the curve's from ref_exp and
    ref_add."""
    curve = isinstance(group, CurveGroup)
    power, mul = (ref_exp, ref_add) if curve else (type(group).exp, type(group).mul)
    acc = group.identity()
    for base, e in pairs:
        acc = mul(group, acc, power(group, base, e))
    return acc


def multi_exp_pairs(group):
    """(base, exponent) lists over random and edge exponents, with identity
    bases, the generator and its inverse, repeated bases and P next to -P."""
    q = group.order
    exponents = st.one_of(st.integers(min_value=-2 * q, max_value=2 * q),
                          st.sampled_from([0, 1, q - 1, q, q + 1, -1, -q - 1]))
    pick = st.integers(min_value=1, max_value=q - 1).map(group.base_exp)
    point = st.one_of(pick, st.just(group.identity()), st.just(group.generator()),
                      st.just(group.inv(group.generator())))

    def spread(items):
        # repeat the first base, then its inverse with the same exponent
        if items:
            items.append((items[0][0], items[-1][1]))
            items.append((group.inv(items[-1][0]), items[-1][1]))
        return items

    return st.lists(st.tuples(point, exponents), max_size=6).map(spread)


class TestMultiExp:
    @PROPERTY
    @given(data=st.data())
    @pytest.mark.parametrize("group", [SECP256K1, TEST_GROUP], ids=lambda g: g.name)
    def test_matches_fold(self, group, data):
        pairs = data.draw(multi_exp_pairs(group))
        assert multi_exp(group, pairs) == fold(group, pairs)

    @pytest.mark.parametrize("group", [SECP256K1, TEST_GROUP], ids=lambda g: g.name)
    def test_empty_and_zero_give_identity(self, group):
        g = group.generator()
        assert multi_exp(group, []) == group.identity()
        assert multi_exp(group, [(g, 0), (g, group.order)]) == group.identity()
        assert multi_exp(group, [(group.identity(), 5)]) == group.identity()

    def test_point_and_its_inverse_cancel(self):
        P = SECP256K1.base_exp(0xC0FFEE)
        assert multi_exp(SECP256K1, [(P, 7), (SECP256K1.inv(P), 7)]) is None
        assert multi_exp(SECP256K1, [(P, 7), (P, Q - 7)]) is None
        g = SECP256K1.generator()
        assert multi_exp(SECP256K1, [(g, 3), (SECP256K1.inv(g), 3)]) is None

    def test_every_scalar_on_toy_curve(self):
        g = TOY_CURVE.generator()
        P = ref_exp(TOY_CURVE, g, 500)
        for e in range(TOY_CURVE.q):
            expected = ref_add(TOY_CURVE, ref_exp(TOY_CURVE, P, e), ref_exp(TOY_CURVE, g, 3 * e))
            assert multi_exp(TOY_CURVE, [(P, e), (g, 3 * e)]) == expected, e
            assert multi_exp(TOY_CURVE, [(P, e), (TOY_CURVE.inv(P), 2 * e)]) == \
                ref_exp(TOY_CURVE, P, -e), e


def multi_exps_products(group):
    """Lists of products for one `multi_exps` call: products as
    `multi_exp_pairs` draws them, an empty product, an identity term, and a
    product that reuses the bases of the others (a base shared by several
    products); every other product also has a term on `fixed`, a base the
    test fixes."""
    fixed = group.base_exp(0xFEEDFACE % group.order)

    def spread(products):
        bases = [P for pairs in products for P, _ in pairs]
        shared = [(P, -i - 1) for i, P in enumerate(bases[:4])]
        products += [[], [(group.identity(), 3)], shared]
        return [pairs + [(fixed, e)] if i % 2 else pairs
                for i, pairs in enumerate(products) for e in [len(pairs) - 2]]

    return st.lists(multi_exp_pairs(group), max_size=4).map(spread), fixed


class TestMultiExps:
    """`multi_exps`: one call, one point per product, each the affine
    reference's product; the products share the call's tables, comb
    scalars, row-sum levels and final inversion, and sharing moves only the
    inversions and the split between row sums and Straus additions."""

    @PROPERTY
    @given(data=st.data())
    @pytest.mark.parametrize("group", [SECP256K1, TOY_CURVE, TEST_GROUP], ids=lambda g: g.name)
    def test_matches_reference(self, group, data):
        strategy, fixed = multi_exps_products(group)
        products = data.draw(strategy)
        expected = [fold(group, pairs) for pairs in products]
        assert groups.multi_exps(group, products) == expected
        with groups.fixed_base(group, fixed):
            assert groups.multi_exps(group, products) == expected
        assert groups.multi_exps(GroupMethodsOnly(group), products) == expected

    def test_edge_products(self):
        """Exponents 0, 1, q-1, q, q+1 and negatives on G, a fixed base and
        a fresh one, mixed in products, P beside -P, and the empty call."""
        g, q = SECP256K1.generator(), Q
        fresh, fixed = SECP256K1.base_exp(0xC0FFEE), SECP256K1.base_exp(0xFEED)
        products = [[(base, e)] for base in (g, fixed, fresh) for e in (0, 1, q - 1, q, q + 1, -1, -q - 1)]
        products += [[(g, 5), (fixed, q - 1), (fresh, -3)], [(fresh, 7), (SECP256K1.inv(fresh), 7)],
                     [(fixed, 2), (SECP256K1.inv(fixed), 2)], [(fresh, q + 2), (g, -q)]]
        expected = [fold(SECP256K1, pairs) for pairs in products]
        with groups.fixed_base(SECP256K1, fixed):
            assert SECP256K1.multi_exps(products) == expected
        assert SECP256K1.multi_exps(products) == expected
        assert SECP256K1.multi_exps([]) == [] and TEST_GROUP.multi_exps([]) == []

    def test_sharing_moves_only_inversions_and_the_row_split(self, counts):
        """Eight products on distinct fresh bases and on G, in one call and
        one call each: the same doublings, tables, comb and `mul` additions
        and additions in all (row sums plus Straus additions); the one call
        makes 7 inversions (4 table rounds, 2 row-sum levels and 1 final),
        where the separate calls make 48 (6 each).  A base shared by two
        products gets one table."""
        SECP256K1.base_exp(1)
        rng = random.Random(30)
        products = [[(SECP256K1.base_exp(rng.randrange(1, Q)), rng.randrange(Q)),
                     (SECP256K1.generator(), rng.randrange(Q))] for _ in range(8)]
        keys = ("double", "table", "comb", "mul")

        def measure(calls):
            counts.update(dict.fromkeys(counts, 0))
            points = [point for call in calls for point in SECP256K1.multi_exps(call)]
            return points, {k: counts[k] for k in keys}, counts["add"] + counts["row"], \
                counts["inversion"]

        together = measure([products])
        apart = measure([[pairs] for pairs in products])
        assert together[:3] == apart[:3]
        assert (together[3], apart[3]) == (7, 48)
        shared = [products[0], [(products[0][0][0], 5)]]
        counts.update(dict.fromkeys(counts, 0))
        assert SECP256K1.multi_exps(shared) == [fold(SECP256K1, pairs) for pairs in shared]
        assert counts["table"] == 10  # one width-5 table: 3 doublings, 7 additions


class TestEncoding:
    @PROPERTY
    @given(k=st.integers(min_value=0, max_value=Q - 1))
    def test_curve_roundtrip(self, k):
        P = SECP256K1.base_exp(k)
        data = SECP256K1.encode(P)
        assert len(data) == 33
        assert SECP256K1.decode(data) == P

    def test_modp_roundtrip_every_element(self):
        g = TEST_GROUP
        for k in range(g.q):
            a = g.base_exp(k)
            assert g.decode(g.encode(a)) == a

    def test_curve_infinity_must_be_all_zero(self):
        with pytest.raises(GroupError):
            SECP256K1.decode(b"\x00" + b"\x01" * 32)

    def test_curve_x_must_be_below_p(self):
        with pytest.raises(GroupError):
            SECP256K1.decode(b"\x02" + (SECP256K1.p + 1).to_bytes(32, "big"))

    def test_modp_width_must_match_encode(self):
        assert len(TEST_GROUP.encode(4)) == 2
        with pytest.raises(GroupError):
            TEST_GROUP.decode(b"\x00\x00\x00\x04")

    @pytest.mark.parametrize("prefix", [1, 4, 0xFF])
    def test_curve_rejects_bad_prefix(self, prefix):
        data = SECP256K1.encode(SECP256K1.generator())
        with pytest.raises(GroupError, match="prefix"):
            SECP256K1.decode(bytes([prefix]) + data[1:])

    @pytest.mark.parametrize("prefix", [2, 3])
    def test_curve_rejects_x_off_the_curve(self, prefix):
        # 5^3 + 7 is not a square mod p
        with pytest.raises(GroupError, match="not on curve"):
            SECP256K1.decode(bytes([prefix]) + (5).to_bytes(32, "big"))

    def test_curve_chi_of_identity(self):
        """A hostile mask can be the identity; chi maps it to 0."""
        assert SECP256K1.chi(SECP256K1.identity()) == 0

    @pytest.mark.parametrize("g", [1, 2], ids=["identity", "non-residue"])
    def test_modp_generator_must_have_order_q(self, g):
        with pytest.raises(GroupError, match="order q"):
            MultiplicativeGroup(TEST_GROUP.p, TEST_GROUP.q, g)

    @PROPERTY
    @given(tail=st.binary(min_size=32, max_size=32).filter(any))
    def test_curve_rejects_junk_infinity(self, tail):
        with pytest.raises(GroupError):
            SECP256K1.decode(b"\x00" + tail)

    @PROPERTY
    @given(prefix=st.sampled_from([2, 3]),
           x=st.integers(min_value=SECP256K1.p, max_value=2**256 - 1))
    def test_curve_rejects_unreduced_x(self, prefix, x):
        with pytest.raises(GroupError):
            SECP256K1.decode(bytes([prefix]) + x.to_bytes(32, "big"))

    @PROPERTY
    @given(k=st.integers(min_value=0, max_value=TEST_GROUP.q - 1),
           width=st.integers(min_value=0, max_value=8).filter(lambda w: w != 2))
    def test_modp_rejects_other_widths(self, k, width):
        a = TEST_GROUP.base_exp(k)
        with pytest.raises(GroupError):
            TEST_GROUP.decode(a.to_bytes(8, "big")[8 - width:])

    @PROPERTY
    @given(length=st.integers(min_value=0, max_value=40).filter(lambda n: n != 33))
    def test_curve_rejects_other_lengths(self, length):
        data = SECP256K1.encode(SECP256K1.generator())
        with pytest.raises(GroupError):
            SECP256K1.decode((data * 2)[:length])


class TestWnaf:
    """The sparse signed-digit form: (position, digit) pairs of the nonzero
    digits only, for any signed integer."""

    @staticmethod
    def check(e, width):
        digits = _wnaf(e, width)
        assert sum(d << pos for pos, d in digits) == e
        assert all(d % 2 and abs(d) < 1 << (width - 1) for _, d in digits)
        positions = [pos for pos, _ in digits]
        assert all(b - a >= width for a, b in zip(positions, positions[1:]))
        assert positions == sorted(positions)

    @PROPERTY
    @given(e=st.one_of(st.integers(min_value=-(2**300), max_value=2**300),
                       st.sampled_from(EDGE_SCALARS)))
    @pytest.mark.parametrize("width", [2, 4, 5])
    def test_random_and_edge(self, e, width):
        self.check(e, width)

    @pytest.mark.parametrize("width", [2, 4, 5])
    def test_powers_of_two_and_neighbours(self, width):
        for k in range(260):
            for e in (2**k - 1, 2**k, 2**k + 1):
                self.check(e, width)
                self.check(-e, width)
        assert _wnaf(0, width) == []


LAMBDA = -SECP256K1.glv[1] * pow(SECP256K1.glv[2], -1, Q) % Q  # a1 + b1*λ ≡ 0
GENERIC = dataclasses.replace(SECP256K1, glv=())  # the same curve without the split


def lambda_image(P):
    return (SECP256K1.glv[0] * P[0] % SECP256K1.p, P[1])


def rounding_boundary():
    """Scalars e with b*e mod q within a few units of q/2 for each rounding
    coefficient b of the split, where Babai rounding changes its mind."""
    _, _, b1, _, b2 = SECP256K1.glv
    return [(Q // 2 + delta) * pow(b, -1, Q) % Q for b in (b2, -b1) for delta in range(-3, 4)]


GLV_SCALARS = [2**128 - 1, 2**128, 2**128 + 1, LAMBDA, Q - LAMBDA, (Q - 1) // 2, (Q + 1) // 2,
               *rounding_boundary()]


class TestGlv:
    """secp256k1's endomorphism λ·(x, y) = (β·x, y): its constants, the
    split of an exponent into two halves below 2^128, and the kernel with
    the split against the reference and against the same curve without it."""

    def test_constants(self):
        beta, a1, b1, a2, b2 = SECP256K1.glv
        p, g = SECP256K1.p, SECP256K1.generator()
        assert beta != 1 and pow(beta, 3, p) == 1
        assert LAMBDA != 1 and pow(LAMBDA, 3, Q) == 1
        assert ref_exp(SECP256K1, g, LAMBDA) == lambda_image(g)
        assert (a1 + b1 * LAMBDA) % Q == 0 and (a2 + b2 * LAMBDA) % Q == 0
        assert TOY_CURVE.glv == () and GENERIC.glv == ()
        assert CurveGroup(p, SECP256K1.a, SECP256K1.b, Q, *g).glv == ()  # empty by default

    @PROPERTY
    @given(e=st.one_of(st.sampled_from(EDGE_SCALARS + GLV_SCALARS),
                       st.integers(min_value=0, max_value=Q - 1)))
    def test_split(self, e):
        k1, k2 = SECP256K1._split(e % Q)
        assert (k1 + k2 * LAMBDA - e) % Q == 0
        assert max(abs(k1), abs(k2)) < 2**128

    def test_split_on_every_listed_and_2000_random_scalars(self):
        rng = random.Random(2001)
        for e in EDGE_SCALARS + GLV_SCALARS + [rng.randrange(Q) for _ in range(2000)]:
            k1, k2 = SECP256K1._split(e % Q)
            assert (k1 + k2 * LAMBDA - e) % Q == 0
            assert max(abs(k1), abs(k2)) < 2**128

    @pytest.mark.parametrize("e", GLV_SCALARS)
    def test_exp_and_multi_exp_at_split_scalars(self, e):
        P = ref_exp(SECP256K1, SECP256K1.generator(), 0xC0FFEE)
        Q2 = ref_exp(SECP256K1, SECP256K1.generator(), 0xBEEF)
        assert SECP256K1.exp(P, e) == ref_exp(SECP256K1, P, e)
        assert SECP256K1.exp(P, -e) == ref_exp(SECP256K1, P, -e)
        pairs = [(P, e), (Q2, Q - e), (SECP256K1.generator(), e), (lambda_image(P), e)]
        assert multi_exp(SECP256K1, pairs) == fold(SECP256K1, pairs)
        assert multi_exp(SECP256K1, pairs) == multi_exp(GENERIC, pairs)

    def test_point_and_its_image_as_separate_terms(self):
        P = ref_exp(SECP256K1, SECP256K1.generator(), 0xC0FFEE)
        image = lambda_image(P)
        assert SECP256K1.exp(P, LAMBDA) == image
        assert multi_exp(SECP256K1, [(P, LAMBDA), (image, -1)]) is None
        assert multi_exp(SECP256K1, [(P, Q - LAMBDA), (image, 1)]) is None
        for e1, e2 in [(LAMBDA, 1), (2**200 + 3, 2**130 + 1), (Q - 5, LAMBDA), (7, Q - LAMBDA)]:
            pairs = [(P, e1), (image, e2), (SECP256K1.inv(image), e1)]
            assert multi_exp(SECP256K1, pairs) == fold(SECP256K1, pairs)
            assert multi_exp(SECP256K1, pairs) == multi_exp(GENERIC, pairs)

    @PROPERTY
    @given(data=st.data())
    def test_split_and_generic_kernels_agree(self, data):
        pairs = data.draw(multi_exp_pairs(SECP256K1))
        extra = [(lambda_image(P), e) for P, e in pairs if P is not None]
        assert multi_exp(SECP256K1, pairs + extra) == multi_exp(GENERIC, pairs + extra)
        assert multi_exp(SECP256K1, pairs + extra) == fold(SECP256K1, pairs + extra)


class TestOperationCounts:
    """Group operations of the kernel, which do not depend on the host: the
    split halves the doubling chain of every long exponent and of every
    comb term (`TestGlvCombs`), and an exponent of 128 bits or fewer (a
    batch weight of `nizk.holds`) stays whole, so a batch pays no extra
    additions.
    The parent figures are those of the kernel before the split.  A point
    is added once, in the row sums before the Straus loop or by the loop,
    so `measure`'s additions are the two together."""

    @staticmethod
    def measure(counts, fn, *args):
        counts.update(dict.fromkeys(counts, 0))
        fn(*args)
        return counts["double"], counts["add"] + counts["row"]

    def test_fixture_sees_a_fresh_base_exp(self, counts):
        """The fixture counts the kernel's work: an exp on a fresh base makes
        doublings and additions in the Straus loop, and its table."""
        SECP256K1.base_exp(1)
        P = SECP256K1.base_exp(0xC0FFEE)
        counts.update(dict.fromkeys(counts, 0))
        SECP256K1.exp(P, Q // 3)
        assert counts["double"] > 0 and counts["add"] > 0 and counts["table"] > 0

    def test_exp_doublings(self, counts):
        rng = random.Random(9)
        P = SECP256K1.base_exp(rng.randrange(1, Q))
        for _ in range(8):
            e = rng.randrange(2**254, Q)
            # 132 when the count took in the one doubling of P's Jacobian table
            assert self.measure(counts, SECP256K1.exp, P, e)[0] <= 131  # about 256 before
            assert counts["table"] == 10  # P's width-5 table: 3 doublings, 7 additions
            assert self.measure(counts, GENERIC.exp, P, e)[0] >= 240

    def test_base_exp_doublings(self, counts):
        SECP256K1.base_exp(1)  # the comb is built once, outside the count
        rng = random.Random(9)
        for _ in range(8):
            # 32 columns of one 256-bit scalar before the GLV combs
            assert self.measure(counts, SECP256K1.base_exp, rng.randrange(Q))[0] <= 16

    @staticmethod
    def dl_equations(count):
        """The verification equations G^z = R * X^c of `count` Schnorr proofs
        of knowledge of x in X = G^x, with nonce w, R = G^w and z = w + c*x."""
        rng = random.Random(9)
        out = []
        for _ in range(count):
            x = rng.randrange(1, Q)
            X = SECP256K1.base_exp(x)
            w = rng.randrange(Q)
            R = SECP256K1.base_exp(w)
            c = nizk._challenge(SECP256K1, "dl", b"ctx", X, R)
            out.append([(SECP256K1.generator(), (w + c * x) % Q), (R, -1), (X, -c)])
        return out

    def test_verify_dl_equation(self, counts):
        SECP256K1.base_exp(1)
        doublings, additions, tables = zip(*(
            self.measure(counts, multi_exp, SECP256K1, eq) + (counts["table"],)
            for eq in self.dl_equations(3)))
        assert tables == (10, 10, 10)  # X's width-5 table alone
        # 132 when the count took in the one doubling of X's Jacobian table
        # (R's exponent, -1, needs no table)
        assert max(doublings) <= 131  # 257, 257 and 255 before
        # Two wNAF chains for the split exponent are on average 0.3 digits
        # longer than one (spread -8 .. +9 over 20,000 random exponents), so
        # the bound is the kernel's before the split on these inputs.
        assert sum(additions) <= 77 + 78 + 79

    def test_batch_with_short_weights(self, counts):
        SECP256K1.base_exp(1)
        equations = self.dl_equations(6)
        doublings, additions = self.measure(counts, nizk.holds, SECP256K1, b"ctx", [equations])
        # 132 + 12 when the count took in the doublings of the Jacobian
        # tables, 11 on these inputs
        assert doublings <= 132  # 267 before the split
        assert counts["table"] == 6 * 10 + 5 * 5  # 6 width-5 and 5 width-4 tables
        assert additions <= 421
        # 421 split; 295 and 126 when G's comb took 32 columns of one
        # 256-bit scalar, not 16 of each GLV half (the same points, in
        # other rows)
        assert counts["row"] == 296 and counts["add"] == 125
        # the batch's short terms alone, each a commitment to its weight:
        # whole, exactly as before.  The 6 table doublings of the pin
        # (135, 158) taken before the tables were affine are now among the
        # 5 table operations (2 doublings, 3 additions) of each width-4 table.
        rng = random.Random(9)
        short = [(eq[1][0], -(1 + rng.randrange(2**128 - 1))) for eq in equations]
        assert self.measure(counts, multi_exp, SECP256K1, short) == (129, 158)
        assert counts["table"] == 6 * 5
        assert counts["row"] == 66 and counts["add"] == 92  # 158 split


FIXED = SECP256K1.base_exp(0xFEEDFACE)
FIXED_EXPONENTS = [0, 1, Q - 1, Q, Q + 1, -1, -2, -Q, -Q - 1, 2**255, 2**256 - 1]


class GroupMethodsOnly:
    """A stand-in that offers only the Group methods, as a counting proxy
    does: `fixed_base` must leave it and the group behind it alone."""

    def __init__(self, inner):
        self.inner = inner
        self.name, self.order = inner.name, inner.order
        for op in ("generator", "identity", "mul", "inv", "exp", "base_exp", "div",
                   "encode", "decode", "chi", "scalar_bytes"):
            setattr(self, op, getattr(inner, op))


def fresh_curve():
    return dataclasses.replace(SECP256K1, name="fresh")


class TestFixedBase:
    """`groups.fixed_base`: inside the block, terms on ±P are comb terms and
    multi_exp still equals the affine reference; the block leaves the group
    as it found it, however it exits; and it is a no-op where there is
    nothing to fix."""

    @PROPERTY
    @given(e=st.one_of(st.sampled_from(FIXED_EXPONENTS), st.integers(-(2**257), 2**257)),
           f=st.one_of(st.sampled_from(FIXED_EXPONENTS), st.integers(-(2**257), 2**257)))
    def test_matches_reference(self, e, f):
        g, fresh = SECP256K1.generator(), SECP256K1.base_exp(0xABCDEF)
        cases = [[(FIXED, e)], [(SECP256K1.inv(FIXED), e)], [(FIXED, e), (FIXED, f)],
                 [(FIXED, e), (g, f), (fresh, e - f)],
                 [(FIXED, e), (SECP256K1.inv(FIXED), f), (g, e)]]
        with groups.fixed_base(SECP256K1, FIXED):
            got = [multi_exp(SECP256K1, pairs) for pairs in cases]
        assert got == [fold(SECP256K1, pairs) for pairs in cases]

    def test_every_scalar_on_toy_curve(self):
        g = TOY_CURVE.generator()
        P = ref_exp(TOY_CURVE, g, 500)
        with groups.fixed_base(TOY_CURVE, P):
            for e in range(TOY_CURVE.q):
                expected = ref_add(TOY_CURVE, ref_exp(TOY_CURVE, P, e),
                                   ref_exp(TOY_CURVE, g, 3 * e))
                assert multi_exp(TOY_CURVE, [(P, e), (g, 3 * e)]) == expected, e
                assert multi_exp(TOY_CURVE, [(TOY_CURVE.inv(P), e)]) == \
                    ref_exp(TOY_CURVE, P, -e), e

    def test_terms_on_p_are_comb_terms(self, counts):
        SECP256K1.base_exp(1)
        e = 2**256 - 1
        with groups.fixed_base(SECP256K1, FIXED):  # the table is built here
            counts.update(dict.fromkeys(counts, 0))
            multi_exp(SECP256K1, [(FIXED, e), (SECP256K1.generator(), e)])
            # 16 columns of each GLV half; 32 of the whole scalar before
            assert counts["double"] <= 16 and counts["table"] == 0
        counts.update(dict.fromkeys(counts, 0))
        multi_exp(SECP256K1, [(FIXED, e)])
        assert counts["double"] > 100 and counts["table"] > 0  # the table is gone

    def test_state_after_normal_exit_and_exception(self):
        group = fresh_curve()
        group.base_exp(1)
        before = dict(vars(group))
        fixed_before = dict(group._fixed)
        with groups.fixed_base(group, FIXED):
            assert set(group._fixed) == {group.gx, FIXED[0]}
        assert vars(group) == before and group._fixed == fixed_before
        with pytest.raises(RuntimeError):
            with groups.fixed_base(group, FIXED):
                raise RuntimeError
        assert vars(group) == before and group._fixed == fixed_before
        assert group.exp(FIXED, 5) == ref_exp(group, FIXED, 5)

    def test_unused_bases_cost_nothing(self):
        """A multi_exp reads only the comb bases its terms name: inside a
        block of 20 bases it does not use, a base_exp splits its one comb
        scalar, as outside the block."""
        group = fresh_curve()
        unused = [group.base_exp(1000 + i) for i in range(20)]
        with mock.patch.object(CurveGroup, "_split", autospec=True,
                               side_effect=CurveGroup._split) as split:
            expected = group.base_exp(Q // 3)
            assert split.call_count == 1
            with groups.fixed_base(group, *unused):
                split.reset_mock()
                assert group.base_exp(Q // 3) == expected
                assert split.call_count == 1

    def test_tables_built_together(self, counts):
        """A block on three new points, -P of one of them, G and the
        identity builds the three tables in one pass: COMB_TEETH + 1
        inversions and 255 additions a table, each table the reference's."""
        group = fresh_curve()
        group.base_exp(1)
        points = [group.base_exp(k) for k in (0xFEED, 0xFACE, 0xBEEF)]
        counts.update(dict.fromkeys(counts, 0))
        with groups.fixed_base(group, *points, group.inv(points[1]), group.generator(), None):
            assert counts["inversion"] == groups.COMB_TEETH + 1
            assert counts["comb"] == 3 * 255
            assert {x: table for x, (_, table) in group._fixed.items() if table} == {
                P[0]: ref_comb_table(group, P) for P in points}
            assert group._fixed[points[1][0]][0] == points[1][1]  # the first of ±P
        assert group._fixed == {group.gx: (group.gy, None)}

    @pytest.mark.parametrize("base", ["inner", "G", "-G", "identity"])
    def test_no_op_bases(self, base, counts):
        """A nested block on the same P, and a block on G, -G or the
        identity, change nothing, and the generator's comb survives it."""
        group = fresh_curve()
        group.base_exp(1)
        comb = group._comb
        point = {"inner": FIXED, "G": group.generator(),
                 "-G": group.inv(group.generator()), "identity": None}[base]
        with groups.fixed_base(group, FIXED):
            fixed = dict(group._fixed)
            with groups.fixed_base(group, point):
                assert group._fixed == fixed
            assert group._fixed == fixed  # the inner exit dropped nothing
            counts.update(dict.fromkeys(counts, 0))
            # an exponent long enough that a fresh base would need a table
            assert group.exp(FIXED, Q // 3) == ref_exp(group, FIXED, Q // 3)
            assert counts["table"] == 0
        assert group._fixed == {group.gx: (group.gy, None)} and group._comb is comb
        assert group.base_exp(Q - 3) == ref_exp(group, group.generator(), -3)

    @pytest.mark.parametrize("stand_in", ["modp", "methods-only"])
    def test_no_op_groups(self, stand_in):
        group = TEST_GROUP if stand_in == "modp" else GroupMethodsOnly(SECP256K1)
        P = group.base_exp(5)
        before, inner = dict(vars(group)), dict(SECP256K1._fixed)
        pairs = [(P, 3), (group.generator(), 4)]
        with groups.fixed_base(group, P):
            assert vars(group) == before and SECP256K1._fixed == inner
            assert multi_exp(group, pairs) == group.base_exp(19)
        assert vars(group) == before and SECP256K1._fixed == inner


def split_scalar(k1, k2):
    """The scalar e = k1 + k2·λ mod q, asserting that `_split` gives back
    (k1, k2)."""
    e = (k1 + k2 * LAMBDA) % Q
    assert SECP256K1._split(e) == (k1, k2)
    return e


_HALF = random.Random(16)
K1, K2 = _HALF.getrandbits(124) | 1 << 123, _HALF.getrandbits(124) | 1 << 123
SPLIT_HALVES = {  # (k1, k2) by the signs of the halves
    "0,+": (0, K2), "+,0": (K1, 0), "0,-": (0, -K2), "-,0": (-K1, 0), "1,0": (1, 0),
    "0,1": (0, 1), "+,+": (K1, K2), "+,-": (K1, -K2), "-,+": (-K1, K2), "-,-": (-K1, -K2),
    "wide": (2**127 - 1, 2**125 - 1),  # every column of k1 but its last is 255
}


class TestGlvCombs:
    """On secp256k1 a comb scalar is split as k1 + k2·λ: k1's 16 columns
    index the base's table, k2's the β-images of its entries, and a
    negative half takes each entry's inverse.  Checked on G and on a base
    fixed by `fixed_base`, at a zero half, at each sign pair, and at comb
    scalars summed from several terms, as `nizk.holds` sums them."""

    @pytest.mark.parametrize("k1, k2", SPLIT_HALVES.values(), ids=SPLIT_HALVES)
    def test_split_halves_match_reference(self, k1, k2, counts):
        e = split_scalar(k1, k2)
        g = SECP256K1.generator()
        SECP256K1.base_exp(1)
        counts.update(dict.fromkeys(counts, 0))
        assert SECP256K1.base_exp(e) == ref_exp(SECP256K1, g, e)
        assert counts["double"] == 16 and counts["table"] == 0
        assert SECP256K1.exp(SECP256K1.inv(g), e) == ref_exp(SECP256K1, g, -e)
        with groups.fixed_base(SECP256K1, FIXED):
            counts.update(dict.fromkeys(counts, 0))
            assert SECP256K1.exp(FIXED, e) == ref_exp(SECP256K1, FIXED, e)
            assert counts["double"] == 16 and counts["table"] == 0
            assert SECP256K1.exp(SECP256K1.inv(FIXED), e) == ref_exp(SECP256K1, FIXED, -e)
            pairs = [(FIXED, e), (g, split_scalar(-k1, k2)), (SECP256K1.inv(g), 3)]
            assert multi_exp(SECP256K1, pairs) == fold(SECP256K1, pairs)

    def test_without_glv_a_comb_term_takes_32_doublings(self, counts):
        GENERIC.base_exp(1)
        counts.update(dict.fromkeys(counts, 0))
        assert GENERIC.base_exp(Q // 3) == ref_exp(GENERIC, GENERIC.generator(), Q // 3)
        assert counts["double"] == 32 and GENERIC._comb_spacing == 32

    def test_comb_scalar_summed_from_terms(self):
        """Six equations with terms on G, ±FIXED and a fresh base, each
        times a 128-bit weight: one unreduced comb scalar per comb base."""
        rng = random.Random(11)
        g = SECP256K1.generator()
        fresh = ref_exp(SECP256K1, g, 0xABCDEF)
        pairs = []
        for _ in range(6):
            w = 1 + rng.getrandbits(128)
            pairs += [(g, w * rng.randrange(Q)), (FIXED, -w * rng.randrange(Q)),
                      (SECP256K1.inv(FIXED), w * rng.randrange(Q)), (fresh, w)]
        with groups.fixed_base(SECP256K1, FIXED):
            assert multi_exp(SECP256K1, pairs) == fold(SECP256K1, pairs)
            for k1, k2 in SPLIT_HALVES.values():  # sums that reduce to each split
                e = split_scalar(k1, k2)
                summed = [(FIXED, e + 5 * Q), (FIXED, -2 * Q), (SECP256K1.inv(FIXED), Q),
                          (g, e), (g, e), (SECP256K1.inv(g), e)]
                assert multi_exp(SECP256K1, summed) == ref_add(
                    SECP256K1, ref_exp(SECP256K1, FIXED, e), ref_exp(SECP256K1, g, e))
                assert multi_exp(SECP256K1, [(FIXED, e), (SECP256K1.inv(FIXED), e)]) is None

    def test_dleq_over_a_fixed_base_holds(self):
        """DLEQs between (G, G^x) and (FIXED, FIXED^x), proved inside the
        block and checked in one `nizk.holds` batch, inside and outside it;
        a wrong FIXED^x sinks the batch either way."""
        rng = random.Random(12)
        g = SECP256K1.generator()
        claims = []
        with groups.fixed_base(SECP256K1, FIXED):
            for _ in range(2):
                x = rng.randrange(1, Q)
                out1 = SECP256K1.base_exp(x)
                ((out2, proof),) = nizk.prove_dleqs(SECP256K1, x, g, out1, [FIXED], b"ctx", rng)
                assert out2 == ref_exp(SECP256K1, FIXED, x)
                claims.append(nizk.dleq_equations(SECP256K1, g, out1, FIXED, out2, proof, b"ctx"))
            # the last proof against FIXED^(x+1)
            wrong = nizk.dleq_equations(SECP256K1, g, out1, FIXED, SECP256K1.mul(out2, FIXED),
                                        proof, b"ctx")
            assert nizk.holds(SECP256K1, b"ctx", claims)
            assert not nizk.holds(SECP256K1, b"ctx", [claims[0], wrong])
        assert nizk.holds(SECP256K1, b"ctx", claims)
        assert not nizk.holds(SECP256K1, b"ctx", [claims[0], wrong])

    def test_comb_columns_refuse_an_over_wide_scalar(self):
        assert groups._comb_columns(2**128 - 1, 16) == b"\xff" * 16
        assert groups._comb_columns(0, 16) == bytes(16)
        for e, spacing in [(2**128, 16), (2**256 - 1, 16), (-1, 16), (2**256, 32),
                           (2**16, TOY_CURVE._comb_spacing)]:
            with pytest.raises(ValueError):
                groups._comb_columns(e, spacing)


class TestOddMultiples:
    """`groups._odd_multiples` builds the affine tables of several bases in
    shared rounds; multi_exp over many fresh bases, which all go through it
    at once, still equals the fold."""

    @pytest.mark.parametrize("curve", [SECP256K1, TOY_CURVE], ids=lambda g: g.name)
    def test_matches_reference(self, curve):
        g = curve.generator()
        bases = [ref_exp(curve, g, k) for k in (1, 2, 3, 500, curve.q - 1, 0xC0FFEE)]
        for sizes in ([1] * 6, [4] * 6, [8] * 6, [1, 4, 8, 8, 4, 1], [8]):
            tables = groups._odd_multiples(bases[:len(sizes)], sizes, curve.a, curve.p)
            assert tables == [[ref_exp(curve, P, 2 * j + 1) for j in range(s)]
                              for P, s in zip(bases, sizes)], sizes
        assert groups._odd_multiples([], [], curve.a, curve.p) == []

    @PROPERTY
    @given(data=st.data())
    @pytest.mark.parametrize("curve", [SECP256K1, TOY_CURVE], ids=lambda g: g.name)
    def test_many_fresh_bases_match_fold(self, curve, data):
        q = curve.q
        exponents = st.one_of(st.integers(-2 * q, 2 * q), st.integers(-(2**20), 2**20),
                              st.integers(-(2**128), 2**128),
                              st.sampled_from([0, 1, -1, q - 1, q + 1]))
        point = st.integers(1, q - 1).map(lambda k: ref_exp(curve, curve.generator(), k))
        pairs = data.draw(st.lists(st.tuples(point, exponents), min_size=1, max_size=20))
        g_e, fixed_e = data.draw(st.tuples(st.none() | exponents, st.none() | exponents))
        if g_e is not None:
            pairs.append((curve.generator(), g_e))
        if fixed_e is None:
            assert multi_exp(curve, pairs) == fold(curve, pairs)
            return
        P = ref_exp(curve, curve.generator(), 0xFEEDFACE)
        pairs.append((P, fixed_e))
        with groups.fixed_base(curve, P):
            assert multi_exp(curve, pairs) == fold(curve, pairs)


class TestAffineSums:
    """`groups._affine_sums`, the one affine-addition formula: many pairs
    with one shared inversion, doublings, inverses and infinity included."""

    @pytest.mark.parametrize("curve", [SECP256K1, TOY_CURVE], ids=lambda g: g.name)
    def test_special_cases(self, curve):
        g = curve.generator()
        P, R = ref_exp(curve, g, 5), ref_exp(curve, g, 500)
        minus = curve.inv(P)
        pairs = [(P, R), (P, P), (P, minus), (minus, P), (None, P), (P, None),
                 (None, None), (R, R), (R, P)]
        expected = [ref_add(curve, *pair) for pair in pairs]
        assert expected[1] == ref_exp(curve, g, 10) and expected[2] is None
        assert groups._affine_sums(pairs, curve.a, curve.p) == expected
        for pair, total in zip(pairs, expected):  # alone, and as `mul`
            assert groups._affine_sums([pair], curve.a, curve.p) == [total]
            assert curve.mul(*pair) == total
        assert groups._affine_sums([], curve.a, curve.p) == []

    def test_whole_group_on_toy_curve(self):
        """k·G + l·G for every l and a few k, in one call."""
        q = TOY_CURVE.q
        points = [ref_exp(TOY_CURVE, TOY_CURVE.generator(), k) for k in range(q)]
        ks = (0, 1, 2, 500, q - 2, q - 1)
        pairs = [(points[k], points[l]) for k in ks for l in range(q)]
        sums = groups._affine_sums(pairs, TOY_CURVE.a, TOY_CURVE.p)
        assert sums == [points[(k + l) % q] for k in ks for l in range(q)]


class TestRowSums:
    """`multi_exp` sums the points of each Straus row in pairs before the
    loop, a level at a time, in runs of rows of at least ROW_RUN pairs.
    Rows that hold a point twice, or a point beside its inverse, take the
    doubling and the infinity case of `_affine_sums`."""

    @staticmethod
    def twins(units):
        """For each (k, shift, opposite): P = k·G with exponent 3·2^shift,
        whose one wNAF digit 3 puts 3P in row `shift`, and ±3P with exponent
        2^shift, which puts ±3P in that row too."""
        pairs = []
        for k, shift, opposite in units:
            P = ref_exp(SECP256K1, SECP256K1.generator(), k)
            pairs += [(P, 3 << shift), (ref_exp(SECP256K1, P, -3 if opposite else 3), 1 << shift)]
        return pairs

    @PROPERTY
    @given(units=st.lists(st.tuples(st.integers(2, Q - 1), st.integers(17, 120), st.booleans()),
                          min_size=1, max_size=24),
           one_row=st.booleans(), cutoff=st.sampled_from([1, groups.ROW_PAIRS]),
           run=st.sampled_from([1, 3, groups.ROW_RUN]))
    def test_equal_and_opposite_points_match_fold(self, units, one_row, cutoff, run):
        """Also with every level summed, and with a level's pairs split over
        several `_affine_sums` calls."""
        if one_row:
            units = [(k, units[0][1], opposite) for k, _, opposite in units]
        pairs = self.twins(units)
        with mock.patch.object(groups, "ROW_PAIRS", cutoff), \
                mock.patch.object(groups, "ROW_RUN", run):
            assert multi_exp(SECP256K1, pairs) == fold(SECP256K1, pairs)

    def test_twins_in_one_row_are_summed(self, counts):
        rng = random.Random(4)
        units = [(rng.randrange(2, Q), 40, i % 2 == 1) for i in range(16)]
        pairs = self.twins(units)
        counts.update(dict.fromkeys(counts, 0))
        assert multi_exp(SECP256K1, pairs) == fold(SECP256K1, pairs)
        # row 40 holds 32 points: 16 pairs make 8 doublings and 8 infinities,
        # then the 4 pairs of the next level are too few, so 8 points are left
        assert counts["row"] == 16 and counts["add"] == 8
        assert counts["table"] == 32 * 5  # 32 width-4 tables of 2 doublings, 3 additions

    def test_comb_twins_on_toy_curve(self):
        """A base equal to ±comb[m], where m is column i of G's exponent e,
        with exponent 2^i puts its twin in row i beside comb[m]; every level
        is summed."""
        g, spacing = TOY_CURVE.generator(), TOY_CURVE._comb_spacing
        with mock.patch.object(groups, "ROW_PAIRS", 1):
            for e in range(1, TOY_CURVE.q):
                pairs = [(g, e)]
                for i, m in enumerate(groups._comb_columns(e, spacing)):
                    c = sum(1 << (spacing * j) for j in range(groups.COMB_TEETH) if m >> j & 1)
                    pairs.append((ref_exp(TOY_CURVE, g, c if (e >> i) & 2 else -c), 1 << i))
                assert multi_exp(TOY_CURVE, pairs) == fold(TOY_CURVE, pairs), e


def ref_comb_table(curve, P):
    """P's comb table from the affine reference: the subset sums of its
    teeth 2^(spacing*j)·P."""
    teeth = [ref_exp(curve, P, 1 << (curve._comb_spacing * j)) for j in range(groups.COMB_TEETH)]
    expected = [None]
    for T in teeth:
        expected += [ref_add(curve, S, T) for S in expected]
    return expected


class TestCombTable:
    """`CurveGroup._comb_tables` builds the 255 subset sums of every table
    together, in COMB_TEETH rounds of `_affine_sums`."""

    @pytest.mark.parametrize("curve", [SECP256K1, TOY_CURVE, COMB_TOY], ids=lambda g: g.name)
    def test_matches_reference(self, curve):
        P = ref_exp(curve, curve.generator(), 0xFEEDFACE)
        assert curve._comb_tables([P]) == [ref_comb_table(curve, P)]

    @pytest.mark.parametrize("curve", [SECP256K1, TOY_CURVE, COMB_TOY], ids=lambda g: g.name)
    def test_batched_tables_match_reference(self, curve, counts):
        """Five tables built together, P and -P among them, equal each
        point's reference table, with COMB_TEETH + 1 inversions in all and
        the additions and doublings of five tables built one by one."""
        g = curve.generator()
        points = [ref_exp(curve, g, k) for k in (1, 2, 0xFEEDFACE, 77)]
        points.append(curve.inv(points[-1]))
        counts.update(dict.fromkeys(counts, 0))
        assert curve._comb_tables(points) == [ref_comb_table(curve, P) for P in points]
        assert counts["inversion"] == groups.COMB_TEETH + 1
        assert counts["comb"] == 5 * 255
        assert counts["double"] == 5 * (groups.COMB_TEETH - 1) * curve._comb_spacing
        assert curve._comb_tables([]) == []

    def test_colliding_sums_on_comb_toy(self):
        """COMB_TOY's build doubles a point and reaches infinity (at a column
        that no exponent below q selects); its exponentiations still match
        the reference for every scalar."""
        g = COMB_TOY.generator()
        assert ref_exp(COMB_TOY, g, COMB_TOY.q) is None
        teeth = [ref_exp(COMB_TOY, g, 1 << (COMB_TOY._comb_spacing * j))
                 for j in range(groups.COMB_TEETH)]
        (table,) = COMB_TOY._comb_tables([g])
        lower = [(table[m ^ 1 << (m.bit_length() - 1)], teeth[m.bit_length() - 1])
                 for m in range(1, 256)]
        assert any(S == T for S, T in lower) and any(S == COMB_TOY.inv(T) for S, T in lower)
        assert table.count(None) == 2  # [0], and the sum that is infinity
        P = ref_exp(COMB_TOY, g, 77)
        for e in range(COMB_TOY.q):
            assert COMB_TOY.base_exp(e) == ref_exp(COMB_TOY, g, e), e
            assert multi_exp(COMB_TOY, [(g, e), (P, e)]) == ref_exp(COMB_TOY, g, 78 * e), e
