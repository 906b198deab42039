"""Top-level acceptance suite.

One test per headline guarantee; the terminal summary prints a PASS/FAIL
line per criterion.  Tolerances and budgets are pinned in the constants
below so regressions fail loudly rather than drifting.
"""

import itertools
import math
import random
import time

import pytest

from fdkg import nizk, pke, protocol, shamir, simulate, voting
from fdkg.board import (ABSENT_ROUND2, BYZANTINE_SILENT, Behavior, HonestActivation,
                        deal_round, generate_pki, ideal_functionality_run, run_ceremony)
from fdkg.costmodel import ScenarioSpec, deal_message_bytes, estimate, size_table_lookup
from fdkg.election import run_election
from fdkg.groups import SECP256K1, TEST_GROUP, GroupError, multi_exp, multi_exps
from fdkg.protocol import GuardianSet, Params

GROUP = TEST_GROUP
CTX = b"fdkg/round2"


# --- 1. worked-example replay -------------------------------------------------

def test_c1_worked_example_replay():
    """n=10, t=2, k=3 with dealers {1,3,5,7,9} and only {3,5,7} present in
    round 2: reconstruction succeeds, dealer 1 via guardians {3,5} and
    dealer 9 via {5,7}, with G^d equal to the published global key."""
    budget_s = 1.0
    start = time.perf_counter()
    params = Params(10, 2, 3)
    sets = {1: frozenset({2, 3, 5}), 3: frozenset({4, 5, 7}),
            5: frozenset({3, 6, 7}), 7: frozenset({3, 5, 8}),
            9: frozenset({2, 5, 7})}
    behaviors = {i: Behavior(ABSENT_ROUND2 if i in (1, 9) else
                             "honest" if i in (3, 5, 7) else BYZANTINE_SILENT)
                 for i in range(1, 11)}
    result = run_ceremony(params, behaviors, GROUP, seed=4, guardian_sets=sets)
    assert result.public_state.participants == (1, 3, 5, 7, 9)
    out = result.outcome
    assert out.success
    assert out.recovered[1] == ("shares", (3, 5))
    assert out.recovered[9] == ("shares", (5, 7))
    assert all(out.recovered[i] == ("direct",) for i in (3, 5, 7))
    assert GROUP.base_exp(out.global_secret) == result.public_state.global_pk
    assert time.perf_counter() - start < budget_s


# --- 2. predicate-execution equivalence ---------------------------------------

def _adversary_recovers_all(corrupted, public, states, decrypted, t):
    """Reconstruct every partial secret from the coalition's view only:
    its own dealer states plus the shares its members' keys decrypt, read
    from `decrypted`, (dealer, guardian) -> share."""
    for dealer in public.participants:
        if dealer in corrupted:
            continue
        record = public.deals[dealer]
        known = sorted(record.guardians.members & corrupted)
        if len(known) < t:
            return False
        shares = [shamir.Share(j, decrypted[dealer, j]) for j in known[:t]]
        candidate = shamir.reconstruct(shares, t, GROUP.order)
        assert candidate == states[dealer].partial_secret
    return True


def test_c2_predicate_execution_equivalence():
    """Exhaustive over n <= 5, k <= 3, every guardian topology and every
    corruption set of withhold-everything adversaries: executed ceremony
    success must equal the liveness predicate, and coalition-view
    reconstruction must equal the privacy predicate."""
    budget_s = 300.0
    start = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    for n in (3, 4, 5):
        parties = tuple(range(1, n + 1))
        pki = {i: pke.pke_keygen(GROUP, rng) for i in parties}
        pub = {i: kp.pk for i, kp in pki.items()}
        corruption_sets = [frozenset(c) for size in range(n + 1)
                           for c in itertools.combinations(parties, size)]
        for k in range(1, min(3, n - 1) + 1):
            per_party = {i: list(itertools.combinations(
                [j for j in parties if j != i], k)) for i in parties}
            for t in range(1, k + 1):
                params = Params(n, t, k)
                for combo in itertools.product(*(per_party[i] for i in parties)):
                    gsets = {i: frozenset(c) for i, c in zip(parties, combo)}
                    messages, states = [], {}
                    for i in parties:
                        gs = GuardianSet.create(i, gsets[i], params)
                        m, st = protocol.round1_deal(i, params, gs, pub, GROUP, rng)
                        messages.append(m)
                        states[i] = st
                    public = protocol.process_round1(messages, params, pub, GROUP)
                    assert public.participants == parties
                    reveals = []
                    for i in parties:
                        reveals.append(protocol.round2_reveal_secret(
                            i, states[i], public, CTX, GROUP, rng))
                        reveals.extend(protocol.round2_reveal_shares(
                            i, pki[i].sk, public, CTX, GROUP, rng))
                    decrypted = {(i, j): pke.pke_decrypt(GROUP, pki[j].sk, ct)
                                 for i in parties
                                 for j, ct in public.deals[i].ciphertexts.items()}
                    for corrupted in corruption_sets:
                        live = [m for m in reveals if m.sender not in corrupted]
                        outcome = protocol.offline_reconstruct(
                            public, live, params, GROUP, CTX)
                        assert outcome.success == protocol.liveness_holds(
                            corrupted, parties, gsets, params), (n, k, t, gsets, corrupted)
                        assert _adversary_recovers_all(
                            corrupted, public, states, decrypted, t) == \
                            protocol.privacy_breached(corrupted, parties, gsets, t), \
                            (n, k, t, gsets, corrupted)
                        checked += 1
    assert checked > 100_000
    assert time.perf_counter() - start < budget_s


# --- 2b. privacy against what the board shows ----------------------------------

BOARD_PARAMS = Params(5, 2, 3)


class PrivacyMismatch(Exception):
    """Whether a coalition learns the key differs from `privacy_breached`."""


def _board_topologies():
    """8 seeded guardian topologies of n=5, k=3, as (seed, guardian sets)."""
    rng = random.Random(14)
    parties = range(1, BOARD_PARAMS.n + 1)
    return [(seed, {i: frozenset(rng.sample([j for j in parties if j != i], BOARD_PARAMS.k))
                    for i in parties})
            for seed in range(8)]


def _board_shares(entries) -> dict:
    """(dealer, index) -> every scalar share the entries carry: a revealed
    guardian share at its guardian's index, a revealed secret at 0."""
    shares = {}
    for e in entries:
        msg = e.message
        if isinstance(msg, protocol.ShareReveal):
            shares[msg.dealer, msg.sender] = msg.value
        elif isinstance(msg, protocol.SecretReveal):
            shares[msg.sender, 0] = msg.value
    return shares


def _view_learns_key(coalition, public, states, pki, board_shares, t) -> bool:
    """c2's view-attacker, reading the board too: the coalition's own dealer
    states, the shares its members' keys decrypt and every scalar share on
    the board.  It learns the key iff it recovers every participant's
    partial secret; the sum must then be the key of `global_pk`."""
    known = dict(board_shares)
    known.update({(i, j): pke.pke_decrypt(GROUP, pki[j].sk, ct)
                  for i in public.participants
                  for j, ct in public.deals[i].ciphertexts.items() if j in coalition})
    d = 0
    for dealer in public.participants:
        if dealer in coalition:
            d += states[dealer].partial_secret
        elif (dealer, 0) in known:
            d += known[dealer, 0]
        else:
            held = sorted(j for i, j in known if i == dealer)
            if len(held) < t:
                return False
            d += shamir.reconstruct([shamir.Share(j, known[dealer, j]) for j in held[:t]],
                                    t, GROUP.order)
    assert GROUP.base_exp(d % GROUP.order) == public.global_pk
    return True


def _board_privacy_mismatches(election: bool) -> tuple:
    """(cases checked, mismatches) of the view-attacker against
    `privacy_breached` over the 8 topologies and all 32 coalitions, with the
    board cut after round 1 of a ceremony, or after round 3 of an election
    with every dealer present."""
    params = BOARD_PARAMS
    parties = tuple(range(1, params.n + 1))
    behaviors = {i: Behavior() for i in parties}
    coalitions = [frozenset(c) for size in range(params.n + 1)
                  for c in itertools.combinations(parties, size)]
    checked, mismatches = 0, []
    for seed, gsets in _board_topologies():
        board, pki, states, public = deal_round(params, behaviors, GROUP, seed, gsets)
        if election:
            result = run_election(params, behaviors, {1: 1, 2: 2, 3: 1}, 2, GROUP, seed,
                                  guardian_sets=gsets)
            assert result.success and result.public_state.global_pk == public.global_pk
            board = result.board
        cut = 3 if election else 1
        shares = _board_shares(e for e in board.entries() if e.round <= cut)
        for coalition in coalitions:
            learns = _view_learns_key(coalition, public, states, pki, shares, params.t)
            if learns != protocol.privacy_breached(coalition, parties, gsets, params.t):
                mismatches.append((seed, sorted(coalition), learns))
            checked += 1
    return checked, mismatches


def test_c2b_board_privacy_ceremony_cut():
    """After round 1 of a ceremony (modp-2027, n=5, t=2, k=3, 8 seeded
    topologies, all 32 coalitions), a coalition reading the board as well
    as its own view learns the key iff `privacy_breached` says so."""
    checked, mismatches = _board_privacy_mismatches(election=False)
    assert checked == 256
    assert mismatches == []


@pytest.mark.xfail(
    strict=True, raises=PrivacyMismatch,
    reason="ROADMAP item 1: an election's round 3 posts every guardian's share "
           "scalar of every dealer, present dealers included, so any coalition "
           "reading the board learns every partial secret")
def test_c2b_board_privacy_election_cut():
    """The same check with the board cut after round 3 of an election in
    which every dealer is present."""
    checked, mismatches = _board_privacy_mismatches(election=True)
    assert checked == 256
    if mismatches:
        raise PrivacyMismatch(f"{len(mismatches)} of {checked} cases, e.g. {mismatches[0]}")


def _rogue_deal(deals, dealer, guardians, keys, x, rng):
    """A rushing dealer's deal after reading `deals`: A_0 = G^x / prod of
    their A_0, so the global key is G^x, with junk shares it cannot compute
    and a `DealProof` it can make, as it knows kappa."""
    q, indices = GROUP.order, sorted(guardians)
    a_0 = multi_exp(GROUP, [(GROUP.generator(), x)] + [(d.partial_pk, -1) for d in deals])
    commitments = (a_0, GROUP.base_exp(rng.randrange(q)))
    kappa, a = rng.randrange(1, q), rng.randrange(q)
    guardian_keys = [keys[j] for j in indices]
    c1, parts = pke.pke_encrypt(GROUP, [rng.randrange(q) for _ in indices], multi_exps(
        GROUP, pke.encryption_products(GROUP, guardian_keys, kappa)))
    t1 = GROUP.base_exp(a)
    context = nizk.deal_context(GROUP, dealer, commitments, indices)
    e = nizk._deal_challenge(GROUP, context, guardian_keys, c1, parts, t1)
    return protocol.DealMessage(dealer, c1, dict(zip(indices, parts)), commitments,
                                nizk.DealProof(t1, (a + e * kappa) % q))


@pytest.mark.xfail(
    strict=True, raises=PrivacyMismatch,
    reason="ROADMAP item 13: no dealer proves knowledge of its partial secret, "
           "so a rushing dealer sets the global key to one it chose")
def test_c2b_board_privacy_rogue_dealer():
    """Dealer 5 alone, a one-member coalition, reads dealers 1-4's deals
    and posts a rogue-key deal.  Its deal is ACCEPTED, so this records that
    item 13 is open; and it must not learn the key, since
    `privacy_breached` is False for it."""
    params = BOARD_PARAMS
    parties = tuple(range(1, params.n + 1))
    for seed, gsets in _board_topologies():
        rng = random.Random(seed)
        keys = {i: kp.pk for i, kp in generate_pki(params, GROUP, seed).items()}
        honest = [protocol.round1_deal(i, params, GuardianSet.create(i, gsets[i], params), keys,
                                       GROUP, rng)[0] for i in parties[:-1]]
        x = rng.randrange(GROUP.order)
        rogue = _rogue_deal(honest, 5, gsets[5], keys, x, rng)
        assert protocol.judge_deal(rogue, params, keys, GROUP) is protocol.Verdict.ACCEPTED
        public = protocol.process_round1(honest + [rogue], params, keys, GROUP)
        assert public.participants == parties
        learns = GROUP.base_exp(x) == public.global_pk  # x is in the rogue's view
        if learns != protocol.privacy_breached({5}, parties, gsets, params.t):
            raise PrivacyMismatch(f"seed {seed}: dealer 5 alone knows the key")


# --- 3. ideal-functionality oracle equivalence --------------------------------

def test_c3_ideal_oracle_equivalence():
    """100 seed-matched honest executions: the real ceremony and the
    trusted-party oracle agree on participants, global key, every partial
    secret and every guardian share."""
    runs = 100
    params = Params(6, 2, 3)
    behaviors = {i: Behavior() for i in range(1, 7)}
    for seed in range(runs):
        real = run_ceremony(params, behaviors, GROUP, seed=seed)
        gsets = real.public_state.guardian_sets()
        acts = [HonestActivation(i, frozenset(gsets[i]))
                for i in real.public_state.participants]
        ideal = ideal_functionality_run(params, acts, GROUP, seed=seed)
        assert ideal.participants == real.public_state.participants
        assert ideal.global_pk == real.public_state.global_pk
        revealed_secrets = {m.message.sender: m.message.value
                           for m in real.board.entries(2)
                           if isinstance(m.message, protocol.SecretReveal)}
        assert revealed_secrets == ideal.partial_secrets
        revealed_shares = {(m.message.dealer, m.message.sender): m.message.value
                          for m in real.board.entries(2)
                          if isinstance(m.message, protocol.ShareReveal)}
        assert revealed_shares == ideal.shares


# --- 4. liveness bands --------------------------------------------------------

def _band_rate(n, p, r, k, t, seed):
    cfg = simulate.SweepConfig(n_values=(n,), p_values=(p,), r_values=(r,),
                               k_values=(k,), t_values=(t,), trials=100,
                               seed=seed)
    (rate,) = simulate.run_sweep(cfg)
    return rate.rate


def test_c4a_liveness_bands_high_retention():
    """ER topology at n=100, p=0.8, k=20, 100 trials per cell: at r=0.9 the
    success rate stays >= 0.95 through t = 14 and drops to <= 0.5 at
    t = 20.  The n=3, k=1, t=1 cell must match exact enumeration within a
    99% binomial CI."""
    budget_s = 600.0
    start = time.perf_counter()
    for t in range(1, 15):
        assert _band_rate(100, 0.8, 0.9, 20, t, seed=40) >= 0.95, t
    assert _band_rate(100, 0.8, 0.9, 20, 20, seed=40) <= 0.5

    n, trials = 3, 10_000
    for r in (0.0, 1 / 3, 2 / 3, 1.0):
        t_size = simulate.round_half_up(r * n)
        total = hits = 0
        for combo in itertools.product(*([[j for j in (1, 2, 3) if j != i]
                                          for i in (1, 2, 3)])):
            gsets = {i: {g} for i, g in zip((1, 2, 3), combo)}
            for present in itertools.combinations((1, 2, 3), t_size):
                total += 1
                if simulate.trial_success((1, 2, 3), set(present), gsets, 1):
                    hits += 1
        exact = hits / total
        cfg = simulate.SweepConfig(n_values=(3,), p_values=(1.0,), r_values=(r,),
                                   k_values=(1,), t_values=(1,), trials=trials,
                                   seed=42)
        (rate,) = simulate.run_sweep(cfg)
        half_width = 2.576 * math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
        assert abs(rate.rate - exact) <= max(half_width, 1e-9), (r, exact, rate.rate)
    assert time.perf_counter() - start < budget_s


@pytest.mark.xfail(
    strict=True,
    reason="the t <= 0.4k half-retention band is unattainable under the "
           "all-or-nothing success predicate: ~40 absent dealers each need 8 "
           "of 20 guardians inside a random half-size present set, so the "
           "joint rate collapses (measured 0.01 at t=8; the actual 0.95 "
           "boundary sits near t = 0.2k)")
def test_c4b_liveness_band_half_retention():
    """At r=0.5 the rate is claimed to stay >= 0.95 through t = 8; the
    all-dealers success predicate cannot meet that band, so this criterion
    is recorded as an honest failure rather than relaxed."""
    for t in range(1, 9):
        assert _band_rate(100, 0.8, 0.5, 20, t, seed=41) >= 0.95, t


# --- 5. topology skew ---------------------------------------------------------

def test_c5_topology_skew():
    """Preferential attachment concentrates guardianship: at n=200, k=5 the
    max/median in-degree ratio is strictly larger than the ER ratio for at
    least 18 of 20 seed-paired runs."""
    import statistics

    n, k, reps = 200, 5, 20
    wins = 0
    for rep in range(reps):
        ba = simulate.select_guardians_ba(n, k, random.Random(rep))
        er = {i: simulate.select_guardians_er(
            n, k, i, random.Random(10_000 + rep * 1000 + i))
            for i in range(1, n + 1)}
        ratios = []
        for sets in (ba, er):
            deg = {j: 0 for j in range(1, n + 1)}
            for members in sets.values():
                for j in members:
                    deg[j] += 1
            ratios.append(max(deg.values()) / max(statistics.median(deg.values()), 1))
        if ratios[0] > ratios[1]:
            wins += 1
    assert wins >= 18, wins


# --- 6. cost model exactness --------------------------------------------------

def test_c6_cost_model_exactness():
    small = ScenarioSpec(n=100, dealers=50, k=40, voters=50,
                         direct_revealers=40, shares_revealed=1600)
    assert estimate(small).total_bytes == 880_000
    large = ScenarioSpec(n=5000, dealers=2500, k=40, voters=2500,
                         direct_revealers=2000, shares_revealed=80_000)
    assert estimate(large).total_bytes == 44_000_000
    assert deal_message_bytes(10) == 1920
    assert deal_message_bytes(30) == 5120
    assert deal_message_bytes(100) == 16320
    assert size_table_lookup("ballot") == 384
    assert size_table_lookup("pdecrypt") == 320
    assert size_table_lookup("pdecrypt-share") == 320


# --- 7. election end-to-end ---------------------------------------------------

def _expected_counts(votes, candidates):
    counts = [0] * candidates
    for c in votes.values():
        counts[c - 1] += 1
    return tuple(counts)


def test_c7_election_end_to_end():
    """Exact counts for every small vote assignment under behavior patterns
    inside the liveness bound, plus seeded larger assignments up to 50
    voters on the production curve; tampered ballots are always dropped."""
    budget_s = 300.0
    start = time.perf_counter()

    params = Params(5, 2, 3)
    behavior_patterns = [
        {},
        {2: Behavior(ABSENT_ROUND2)},
        {2: Behavior(ABSENT_ROUND2), 4: Behavior(ABSENT_ROUND2)},
    ]
    # exhaustive: every assignment of <= 3 voters over 2 and 3 candidates
    for candidates in (2, 3):
        for v in range(0, 4):
            for assignment in itertools.product(range(1, candidates + 1), repeat=v):
                votes = {i + 1: c for i, c in enumerate(assignment)}
                for overrides in behavior_patterns:
                    behaviors = {i: Behavior() for i in range(1, 6)}
                    behaviors.update(overrides)
                    result = run_election(params, behaviors, votes, candidates,
                                          GROUP, seed=len(votes) * 7 + candidates)
                    assert result.success, (votes, overrides)
                    assert result.tally.counts == _expected_counts(votes, candidates)

    # sampled larger assignments on secp256k1, up to the 50-voter bound
    rng = random.Random(70)
    curve_params = Params(6, 2, 3)
    behaviors = {i: Behavior() for i in range(1, 7)}
    behaviors[3] = Behavior(ABSENT_ROUND2)
    for voters in (20, 50):
        votes = {v: rng.randrange(1, 3) for v in range(1, voters + 1)}
        result = run_election(curve_params, behaviors, votes, 2, SECP256K1,
                              seed=voters, n_bound=voters)
        assert result.success
        assert result.tally.counts == _expected_counts(votes, 2)
        assert result.tally.total == voters

    # tamper rejection: a modified ballot is excluded, the rest tally exactly
    enc = voting.derive_encoding(5, 2, GROUP.order)
    ceremony = run_ceremony(params, {i: Behavior() for i in range(1, 6)},
                            GROUP, seed=71)
    pk = ceremony.public_state.global_pk
    cast_rng = random.Random(72)
    ballots = [voting.cast_ballot(GROUP, enc, pk, v, 1 + v % 2, cast_rng)
               for v in range(1, 6)]
    b = ballots[0]
    ballots[0] = voting.Ballot(b.voter, b.a, GROUP.mul(b.b, GROUP.generator()),
                               b.proof)
    agg, accepted = voting.aggregate_ballots(GROUP, enc, pk, ballots)
    assert accepted == (2, 3, 4, 5)
    d = ceremony.outcome.global_secret
    tally = voting.tally_finalize(GROUP, agg, {0: GROUP.exp(agg.c1, d)},
                                  len(accepted), enc)
    assert tally.counts == _expected_counts({v: 1 + v % 2 for v in (2, 3, 4, 5)}, 2)
    assert time.perf_counter() - start < budget_s


# --- 8. extraction scaling shape ----------------------------------------------

class _IntGroup:
    """Mod-p arithmetic with a Mersenne prime, large enough to exercise
    2^22 exponents without wrapping."""

    order = 1 << 61
    p = (1 << 61) - 1

    def generator(self):
        return 37

    def identity(self):
        return 1

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def exp(self, a, e):
        return pow(a, e, self.p)

    def base_exp(self, e):
        return pow(37, e, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def encode(self, a):
        return a.to_bytes(8, "big")


def test_c8_extraction_scaling_shape():
    """BSGS timing across bounds 2^10..2^22 is monotone increasing and far
    below linear growth; every recovered exponent is exact."""
    g = _IntGroup()
    rng = random.Random(80)
    timings = []
    for bits in (10, 14, 18, 22):
        bound = 1 << bits
        reps = 3
        best = float("inf")
        for _ in range(3):  # best-of to damp scheduler noise
            start = time.perf_counter()
            for _ in range(reps):
                e = rng.randrange(bound)
                assert voting.bsgs_dlog(g, g.base_exp(e), g.generator(), bound) == e
            best = min(best, (time.perf_counter() - start) / reps)
        timings.append(best)
    assert timings == sorted(timings), timings
    # bound grows 4096x from 2^10 to 2^22; sqrt predicts 64x growth
    assert timings[-1] < timings[0] * 1000, timings


# --- 9. crypto property suites ------------------------------------------------

_SCALAR_WIDTH = len(GROUP.scalar_bytes(0))
_ELEM_WIDTH = len(GROUP.encode(GROUP.generator()))
MUTATIONS_PER_RELATION = 500


def _pack(fields):
    blob = bytearray()
    for kind, value in fields:
        blob += GROUP.encode(value) if kind == "elem" else GROUP.scalar_bytes(value)
    return bytes(blob)


def _unpack(blob, template):
    out = []
    offset = 0
    for kind, _ in template:
        width = _ELEM_WIDTH if kind == "elem" else _SCALAR_WIDTH
        chunk = blob[offset:offset + width]
        offset += width
        if kind == "elem":
            out.append(GROUP.decode(chunk))
        else:
            out.append(int.from_bytes(chunk, "big"))
    return out


def _mutation_rejected(fields, rebuild_and_verify, rng):
    """Flip one byte of the packed proof.  Returns True when the mutation is
    detected (parse failure or verification failure), None for a no-op
    mutation (same values modulo q) that should not count."""
    blob = bytearray(_pack(fields))
    index = rng.randrange(len(blob))
    blob[index] ^= rng.randrange(1, 256)
    try:
        values = _unpack(bytes(blob), fields)
    except GroupError:
        return True
    q = GROUP.order
    unchanged = all(
        (v == orig if kind == "elem" else v % q == orig % q)
        for v, (kind, orig) in zip(values, fields))
    if unchanged:
        return None
    return not rebuild_and_verify(values)


def _fuzz_relation(make_case, rng):
    detected = attempted = 0
    while detected < MUTATIONS_PER_RELATION:
        fields, rebuild_and_verify = make_case()
        assert rebuild_and_verify([v for _, v in fields])  # completeness
        for _ in range(25):
            outcome = _mutation_rejected(fields, rebuild_and_verify, rng)
            if outcome is None:
                continue
            attempted += 1
            assert outcome, "mutated proof accepted"
            detected += 1
            if detected >= MUTATIONS_PER_RELATION:
                break
    assert attempted >= MUTATIONS_PER_RELATION


def _dleq_case(rng):
    q = GROUP.order
    w = rng.randrange(q)
    b1 = GROUP.base_exp(rng.randrange(1, q))
    b2 = GROUP.base_exp(rng.randrange(1, q))
    o1 = GROUP.exp(b1, w)
    ((o2, proof),) = nizk.prove_dleqs(GROUP, w, b1, o1, [b2], CTX, rng)
    fields = [("elem", proof.commitment_1), ("elem", proof.commitment_2),
              ("scalar", proof.response)]

    def verify(values):
        return nizk.holds(GROUP, CTX, [nizk.dleq_equations(GROUP, b1, o1, b2, o2,
                                                       nizk.DleqProof(*values), CTX)])
    return fields, verify


def _encrypt_one(rng):
    """(key pair, plaintext, ciphertext) of a one-key `pke_encrypt`."""
    kp = pke.pke_keygen(GROUP, rng)
    m = rng.randrange(GROUP.order)
    c1, (c,) = pke.pke_encrypt(GROUP, [m], multi_exps(
        GROUP, pke.encryption_products(GROUP, [kp.pk], rng.randrange(1, GROUP.order))))
    return kp, m, pke.PkeCiphertext(c1, c)


def _share_decryption_case(rng):
    kp, _, ct = _encrypt_one(rng)
    ((share, proof),) = nizk.prove_share_decryption(GROUP, kp.sk, kp.pk, [ct], CTX, rng)
    fields = [("elem", proof.key), ("elem", proof.dleq.commitment_1),
              ("elem", proof.dleq.commitment_2), ("scalar", proof.dleq.response),
              ("scalar", share)]

    def verify(values):
        rebuilt = nizk.ShareDecryptionProof(
            values[0], nizk.DleqProof(values[1], values[2], values[3]))
        return nizk.holds(GROUP, CTX, [nizk.share_decryption_equations(
            GROUP, kp.pk, ct, values[4], rebuilt, CTX)])
    return fields, verify


def _deal_case(rng, k=3):
    """A deal's encryption to k keys and its proof: C1, each guardian's
    c_j, T1 and z."""
    keys = [pke.pke_keygen(GROUP, rng).pk for _ in range(k)]
    indices = list(range(2, k + 2))
    c1, parts, commitments, proof = nizk.prove_deal(
        GROUP, 1, indices, keys, [rng.randrange(GROUP.order) for _ in keys],
        (rng.randrange(GROUP.order),), rng)
    context = nizk.deal_context(GROUP, 1, commitments, indices)
    fields = [("elem", c1), *(("scalar", c) for c in parts),
              ("elem", proof.commitment_1), ("scalar", proof.response)]

    def verify(values):
        c1, *parts, t1, z = values
        return nizk.holds(GROUP, context, [nizk.deal_equations(
            GROUP, keys, c1, parts, nizk.DealProof(t1, z), context)])
    return fields, verify


def _ballot_case(rng):
    q = GROUP.order
    allowed = [1, 32]
    global_pk = GROUP.base_exp(rng.randrange(1, q))
    blinding = rng.randrange(q)
    exponent = allowed[rng.randrange(2)]
    (a, b), proof = nizk.prove_ballot(GROUP, global_pk, blinding, exponent, allowed, CTX, rng)
    fields = []
    for br in proof:
        fields += [("elem", br.commitment_1), ("elem", br.commitment_2),
                   ("scalar", br.challenge), ("scalar", br.response)]

    def verify(values):
        branches = tuple(
            nizk.BallotBranch(*values[i:i + 4]) for i in range(0, len(values), 4))
        return nizk.holds(GROUP, CTX, [nizk.ballot_equations(
            GROUP, global_pk, (a, b), allowed, branches, CTX)])
    return fields, verify


def test_c9_crypto_property_suites():
    """Encryption roundtrips, exhaustive small-field secret sharing, and
    per-relation single-byte mutation fuzzing with >= 500 detected
    mutations each."""
    budget_s = 120.0
    start = time.perf_counter()
    rng = random.Random(90)

    for _ in range(1000):
        kp, m, ct = _encrypt_one(rng)
        assert pke.pke_decrypt(GROUP, kp.sk, ct) == m

    q = 97
    for n in range(2, 7):
        for t in range(1, n + 1):
            secret = rng.randrange(q)
            shares, _ = shamir.share_secret(secret, t, range(1, n + 1), rng, q)
            for subset in itertools.combinations(shares, t):
                assert shamir.reconstruct(list(subset), t, q) == secret

    for case in (_dleq_case, _share_decryption_case, _deal_case, _ballot_case):
        _fuzz_relation(lambda: case(rng), rng)
    assert time.perf_counter() - start < budget_s
