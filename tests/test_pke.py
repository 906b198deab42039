import random

from fdkg import pke, protocol
from fdkg.groups import TEST_GROUP, multi_exps


def encrypt_oracle(group, pk, m, k, r):
    # line-by-line reimplementation over the plain integers of the test group
    p, q, g = group.p, group.q, group.g
    c1 = pow(g, k, p)
    mask = pow(g, r, p)
    c2 = pow(pk, k, p) * mask % p
    delta = (mask % q - m) % q
    return c1, c2, delta


def randomness(group, rng, recipients: int) -> tuple:
    """(kappa, [r_1..r_k]), none of them zero, as `round1_deal` draws them."""
    return rng.randrange(1, group.order), [rng.randrange(1, group.order)
                                           for _ in range(recipients)]


def encrypt(group, keys, messages, kappa, masks) -> tuple:
    """`pke_encrypt` of messages[j] to keys[j], from the points of its
    `encryption_products`."""
    return pke.pke_encrypt(group, messages, multi_exps(
        group, pke.encryption_products(group, keys, kappa, masks)))


def encrypt_one(group, pk, m, kappa, r) -> pke.PkeCiphertext:
    """The one-key call of `pke_encrypt`, as its recipient decrypts it."""
    c1, (part,) = encrypt(group, [pk], [m], kappa, [r])
    return pke.PkeCiphertext(c1, part.c2, part.delta)


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
    kp = pke.pke_keygen(group, rng)
    ct = encrypt_one(group, kp.pk, 0, 1, 1)
    g = group.generator()
    assert ct.c1 == g
    assert ct.c2 == group.mul(kp.pk, g)
    assert ct.delta == group.chi(g)


def test_roundtrip_many(group, rng):
    for _ in range(1000):
        kp = pke.pke_keygen(group, rng)
        m = rng.randrange(group.order)
        kappa, (r,) = randomness(group, rng, 1)
        assert pke.pke_decrypt(group, kp.sk, encrypt_one(group, kp.pk, m, kappa, r)) == m


def test_matches_algorithm_oracle(group, rng):
    for _ in range(200):
        kp = pke.pke_keygen(group, rng)
        m = rng.randrange(group.order)
        kappa, (r,) = randomness(group, rng, 1)
        ct = encrypt_one(group, kp.pk, m, kappa, r)
        assert (ct.c1, ct.c2, ct.delta) == encrypt_oracle(group, kp.pk, m, kappa, r)
        assert pke.pke_decrypt(group, kp.sk, ct) == m


def test_multi_recipient_is_one_key_calls_with_one_c1(group, rng):
    """An encryption to k keys is the k one-key encryptions under the same
    kappa and each recipient's own mask; each recipient decrypts its own
    message with the shared C1."""
    for k in (1, 2, 5):
        keypairs = [pke.pke_keygen(group, rng) for _ in range(k)]
        messages = [rng.randrange(group.order) for _ in range(k)]
        kappa, masks = randomness(group, rng, k)
        c1, parts = encrypt(group, [kp.pk for kp in keypairs], messages, kappa, masks)
        assert len(parts) == k
        for kp, m, r, part in zip(keypairs, messages, masks, parts):
            ct = encrypt_one(group, kp.pk, m, kappa, r)
            assert ct == pke.PkeCiphertext(c1, part.c2, part.delta)
            assert pke.pke_decrypt(group, kp.sk, ct) == m


def test_wrong_key_garbles(group, rng):
    hits = 0
    for _ in range(200):
        kp = pke.pke_keygen(group, rng)
        wrong = (kp.sk + 1) % group.order or 1
        m = rng.randrange(group.order)
        kappa, (r,) = randomness(group, rng, 1)
        ct = encrypt_one(group, kp.pk, m, kappa, r)
        if pke.pke_decrypt(group, wrong, ct) == m:
            hits += 1
    assert hits <= 3  # chance collisions only, q = 1013


def test_deterministic_ciphertext_bytes(group, rng):
    kp = pke.pke_keygen(group, rng)

    def encoded(ct):
        return group.encode(ct.c1) + group.encode(ct.c2) + group.scalar_bytes(ct.delta)

    assert encoded(encrypt_one(group, kp.pk, 99, 17, 23)) == \
        encoded(encrypt_one(group, kp.pk, 99, 17, 23))


def test_randomness_sampler_never_zero():
    """A deal's kappa and each r_j are drawn from [1, q).  On modp-2027 one
    draw from [0, q) in 1013 is 0, which shows as C1 or a mask M_j at the
    identity; 1000 deals to 5 guardians make 6000 draws."""
    group, rng = TEST_GROUP, random.Random(1)
    params = protocol.Params(6, 2, 5)
    keypairs = {j: pke.pke_keygen(group, rng) for j in range(2, 7)}
    keys = {j: kp.pk for j, kp in keypairs.items()}
    guardians = protocol.GuardianSet.create(1, keys, params)
    identity = group.identity()
    for _ in range(1000):
        msg, _ = protocol.round1_deal(1, params, guardians, keys, group, rng)
        assert msg.c1 != identity
        for j, kp in keypairs.items():
            ct = msg.ciphertexts[j]
            assert group.div(ct.c2, group.exp(ct.c1, kp.sk)) != identity
