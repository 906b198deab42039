import hashlib
import random

from fdkg import pke, protocol
from fdkg.groups import TEST_GROUP, multi_exps


def encrypt_oracle(group, pk, m, k):
    # line-by-line reimplementation over the plain integers of the test group
    p, q, g = group.p, group.q, group.g
    c1 = pow(g, k, p)
    key = pow(pk, k, p).to_bytes(2, "big")  # modp-2027's element width
    pad = int.from_bytes(hashlib.sha256(b"fdkg/v1/pke-pad" + key).digest(), "big") % q
    return c1, (m + pad) % q


def draw_kappa(group, rng) -> int:
    """kappa, never zero, as `round1_deal` draws it."""
    return rng.randrange(1, group.order)


def encrypt(group, keys, messages, kappa) -> tuple:
    """`pke_encrypt` of messages[j] to keys[j], from the points of its
    `encryption_products`."""
    return pke.pke_encrypt(group, messages, multi_exps(
        group, pke.encryption_products(group, keys, kappa)))


def encrypt_one(group, pk, m, kappa) -> pke.PkeCiphertext:
    """The one-key call of `pke_encrypt`, as its recipient decrypts it."""
    c1, (c,) = encrypt(group, [pk], [m], kappa)
    return pke.PkeCiphertext(c1, c)


def test_keygen_forced_sk(group):
    assert pke.PkeKeyPair(1, group.base_exp(1)).pk == group.generator()
    assert pke.PkeKeyPair(2, group.base_exp(2)).pk == group.mul(
        group.generator(), group.generator())


def test_keygen_pk_matches_sk(group, rng):
    for _ in range(100):
        kp = pke.pke_keygen(group, rng)
        assert kp.pk == group.base_exp(kp.sk)
        assert 1 <= kp.sk < group.order


def test_encrypt_trivial_substitution(group, rng):
    """kappa = 1 makes C1 = G and the pad's key pk itself."""
    kp = pke.pke_keygen(group, rng)
    ct = encrypt_one(group, kp.pk, 0, 1)
    assert ct.c1 == group.generator()
    assert ct.c == pke.pad(group, kp.pk)


def test_roundtrip_many(group, rng):
    for _ in range(1000):
        kp = pke.pke_keygen(group, rng)
        m = rng.randrange(group.order)
        kappa = draw_kappa(group, rng)
        assert pke.pke_decrypt(group, kp.sk, encrypt_one(group, kp.pk, m, kappa)) == m


def test_matches_algorithm_oracle(group, rng):
    for _ in range(200):
        kp = pke.pke_keygen(group, rng)
        m = rng.randrange(group.order)
        kappa = draw_kappa(group, rng)
        ct = encrypt_one(group, kp.pk, m, kappa)
        assert (ct.c1, ct.c) == encrypt_oracle(group, kp.pk, m, kappa)
        assert pke.pke_decrypt(group, kp.sk, ct) == m


def test_multi_recipient_is_one_key_calls_with_one_c1(group, rng):
    """An encryption to k keys is the k one-key encryptions under the same
    kappa; each recipient decrypts its own message with the shared C1."""
    for k in (1, 2, 5):
        keypairs = [pke.pke_keygen(group, rng) for _ in range(k)]
        messages = [rng.randrange(group.order) for _ in range(k)]
        kappa = draw_kappa(group, rng)
        c1, parts = encrypt(group, [kp.pk for kp in keypairs], messages, kappa)
        assert len(parts) == k
        for kp, m, c in zip(keypairs, messages, parts):
            ct = encrypt_one(group, kp.pk, m, kappa)
            assert ct == pke.PkeCiphertext(c1, c)
            assert pke.pke_decrypt(group, kp.sk, ct) == m


def test_encrypt_makes_no_group_operation(group, rng):
    """`pke_encrypt` only hashes the points it is given: no `mul`, `div`,
    `inv` or `exp` of the group."""
    keys = [pke.pke_keygen(group, rng).pk for _ in range(3)]
    points = multi_exps(group, pke.encryption_products(group, keys, draw_kappa(group, rng)))

    class EncodeOnly:
        order = group.order

        def encode(self, a):
            return group.encode(a)

    assert pke.pke_encrypt(EncodeOnly(), [1, 2, 3], points) == \
        pke.pke_encrypt(group, [1, 2, 3], points)


def test_wrong_key_garbles(group, rng):
    hits = 0
    for _ in range(200):
        kp = pke.pke_keygen(group, rng)
        wrong = (kp.sk + 1) % group.order or 1
        m = rng.randrange(group.order)
        ct = encrypt_one(group, kp.pk, m, draw_kappa(group, rng))
        if pke.pke_decrypt(group, wrong, ct) == m:
            hits += 1
    assert hits <= 3  # chance collisions only, q = 1013


def test_deterministic_ciphertext_bytes(group, rng):
    kp = pke.pke_keygen(group, rng)

    def encoded(ct):
        return group.encode(ct.c1) + group.scalar_bytes(ct.c)

    assert encoded(encrypt_one(group, kp.pk, 99, 17)) == encoded(encrypt_one(group, kp.pk, 99, 17))


def test_randomness_sampler_never_zero():
    """A deal's kappa is drawn from [1, q).  On modp-2027 one draw from
    [0, q) in 1013 is 0, which shows as C1 at the identity, and so every
    key K_j = C1^sk_j; 1000 deals make 1000 draws."""
    group, rng = TEST_GROUP, random.Random(1)
    params = protocol.Params(6, 2, 5)
    keypairs = {j: pke.pke_keygen(group, rng) for j in range(2, 7)}
    keys = {j: kp.pk for j, kp in keypairs.items()}
    guardians = protocol.GuardianSet.create(1, keys, params)
    identity = group.identity()
    for _ in range(1000):
        msg, _ = protocol.round1_deal(1, params, guardians, keys, group, rng)
        assert msg.c1 != identity
