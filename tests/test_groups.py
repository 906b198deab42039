"""Group backends against a plain affine double-and-add reference, the
Straus multi_exp against the exp/mul fold, and the canonical-encoding
contract of both decoders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdkg.groups import SECP256K1, TEST_GROUP, CurveGroup, GroupError, multi_exp

# Prime-order curve with a != 0 (y^2 = x^3 + 2x + 18 over F_1019, 1013
# points), small enough to check every scalar and to hit the coincident-point
# branches of the Jacobian formulas while the comb table is built.
TOY_CURVE = CurveGroup(p=1019, a=2, b=18, q=1013, gx=3, gy=207, name="toy")

Q = SECP256K1.q
EDGE_SCALARS = [0, 1, 2, 15, 16, 17, Q - 1, Q, Q + 1, 2 * Q, -1, -2, -Q, -Q - 1,
                2**255, 2**256 - 1]

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def ref_exp(group, P, e):
    """Affine double-and-add with one inversion per step."""
    e %= group.q
    result = None
    addend = P
    while e:
        if e & 1:
            result = group.mul(result, addend)
        addend = group.mul(addend, addend)
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
    """prod base^e by `mul` of single powers, the curve's from ref_exp."""
    power = ref_exp if isinstance(group, CurveGroup) else type(group).exp
    acc = group.identity()
    for base, e in pairs:
        acc = group.mul(acc, power(group, base, e))
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
            expected = TOY_CURVE.mul(ref_exp(TOY_CURVE, P, e), ref_exp(TOY_CURVE, g, 3 * e))
            assert multi_exp(TOY_CURVE, [(P, e), (g, 3 * e)]) == expected, e
            assert multi_exp(TOY_CURVE, [(P, e), (TOY_CURVE.inv(P), 2 * e)]) == \
                ref_exp(TOY_CURVE, P, -e), e


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
