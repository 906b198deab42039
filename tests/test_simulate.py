import hashlib
import io
import itertools
import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdkg import simulate
from fdkg.simulate import (SweepConfig, SweepConfigError, exact_rate_er,
                           round_half_up, run_sweep, sample_round_sets,
                           select_guardians_ba, select_guardians_er,
                           trial_success, write_csv)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# The samplers as first written, O(n) per ER owner and per BA pick.  The fast
# samplers must draw the same sets with the same RNG calls.

def reference_select_guardians_er(n: int, k: int, owner: int, rng: random.Random) -> frozenset:
    """Uniform k-subset of the other parties."""
    if k > n - 1:
        raise SweepConfigError(f"k={k} exceeds n-1={n - 1}")
    candidates = [j for j in range(1, n + 1) if j != owner]
    return frozenset(rng.sample(candidates, k))


def reference_select_guardians_ba(n: int, k: int, rng: random.Random) -> dict:
    """Preferential attachment: owners pick in index order; a candidate's
    weight is 1 plus the number of times earlier owners already chose it."""
    if k > n - 1:
        raise SweepConfigError(f"k={k} exceeds n-1={n - 1}")
    in_degree = {j: 0 for j in range(1, n + 1)}
    sets = {}
    for owner in range(1, n + 1):
        chosen = set()
        for _ in range(k):
            candidates = [j for j in range(1, n + 1) if j != owner and j not in chosen]
            weights = [1 + in_degree[j] for j in candidates]
            pick = rng.choices(candidates, weights=weights)[0]
            chosen.add(pick)
        for j in chosen:
            in_degree[j] += 1
        sets[owner] = frozenset(chosen)
    return sets


def er_topology(sampler, n, k, rng):
    return {i: sampler(n, k, i, rng) for i in range(1, n + 1)}


class TestRounding:
    @pytest.mark.parametrize("x,expected", [(0.0, 0), (0.4, 0), (0.5, 1),
                                            (1.5, 2), (2.4, 2), (30.0, 30)])
    def test_half_up(self, x, expected):
        assert round_half_up(x) == expected


class TestSweepConfig:
    def base(self, **kw):
        defaults = dict(n_values=(10,), p_values=(1.0,), r_values=(1.0,),
                        k_values=(3,), t_values=(2,))
        defaults.update(kw)
        return SweepConfig(**defaults)

    def test_valid(self):
        self.base()

    def test_zero_trials_rejected(self):
        with pytest.raises(SweepConfigError):
            self.base(trials=0)

    def test_unknown_topology_rejected(self):
        with pytest.raises(SweepConfigError):
            self.base(topology="ring")

    def test_both_t_rules_rejected(self):
        with pytest.raises(SweepConfigError):
            self.base(t_values=(2,), t_ratios=(0.5,))

    def test_neither_t_rule_rejected(self):
        with pytest.raises(SweepConfigError):
            self.base(t_values=())

    @pytest.mark.parametrize("field", ["p_values", "r_values"])
    @pytest.mark.parametrize("value", [1.5, -0.2, 1.0000001, math.nan, math.inf, -math.inf])
    def test_rate_outside_unit_interval_rejected(self, field, value):
        with pytest.raises(SweepConfigError, match="must lie in"):
            self.base(**{field: (0.5, value)})

    def test_rate_bounds_accepted(self):
        self.base(p_values=(0.0, 1.0), r_values=(0.0, 1.0))

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf, -1.0, -1e-9])
    def test_non_finite_or_negative_ratio_rejected(self, ratio):
        with pytest.raises(SweepConfigError, match="t-ratio"):
            self.base(t_values=(), t_ratios=(0.5, ratio))

    def test_ratio_zero_accepted(self):
        assert self.base(t_values=(), t_ratios=(0.0,)).thresholds(5) == (1,)

    def test_ratio_one_accepted(self):
        assert self.base(t_values=(), t_ratios=(1.0,)).thresholds(5) == (5,)

    @pytest.mark.parametrize("ratio", [1.0000001, 1e308])
    def test_ratio_above_one_rejected(self, ratio):
        # t = ratio * k exceeds k; 1e308 * k used to overflow in `thresholds`
        with pytest.raises(SweepConfigError, match=r"t-ratio=.* must be <= 1"):
            self.base(t_values=(), t_ratios=(0.5, ratio))

    @pytest.mark.parametrize("seed", [2 ** 127, -2 ** 127 - 1, 10 ** 41])
    def test_seed_outside_16_signed_bytes_rejected(self, seed):
        with pytest.raises(SweepConfigError, match="seed"):
            self.base(seed=seed)

    @pytest.mark.parametrize("seed", [2 ** 127 - 1, -2 ** 127])
    def test_seed_range_ends_run(self, seed):
        (rate,) = simulate.run_sweep(self.base(seed=seed, trials=2))
        assert rate.trials == 2

    def test_ratio_thresholds(self):
        cfg = self.base(t_values=(), t_ratios=(0.2, 0.7))
        assert cfg.thresholds(20) == (4, 14)
        assert cfg.thresholds(1) == (1, 1)  # floor at 1


class TestGuardianSelectionEr:
    def test_forced_set(self):
        rng = random.Random(0)
        for _ in range(20):
            assert select_guardians_er(3, 2, 1, rng) == frozenset({2, 3})

    def test_owner_never_included(self):
        rng = random.Random(1)
        for _ in range(200):
            assert 4 not in select_guardians_er(10, 3, 4, rng)

    def test_uniform_frequency(self):
        # each of the 9 candidates should appear with frequency 3/9
        rng = random.Random(2)
        draws = 10_000
        counts = {j: 0 for j in range(2, 11)}
        for _ in range(draws):
            for j in select_guardians_er(10, 3, 1, rng):
                counts[j] += 1
        p = 3 / 9
        sigma = math.sqrt(p * (1 - p) / draws)
        for j, c in counts.items():
            assert abs(c / draws - p) < 3 * sigma, j

    def test_oversized_k_rejected(self):
        with pytest.raises(SweepConfigError):
            select_guardians_er(3, 3, 1, random.Random(0))


class TestGuardianSelectionBa:
    def test_oversized_k_rejected(self):
        with pytest.raises(SweepConfigError, match="exceeds"):
            select_guardians_ba(3, 3, random.Random(0))

    def test_forced_small_case(self):
        sets = select_guardians_ba(3, 2, random.Random(0))
        assert sets == {1: frozenset({2, 3}), 2: frozenset({1, 3}),
                        3: frozenset({1, 2})}

    def test_sets_have_size_k_without_owner(self):
        sets = select_guardians_ba(20, 4, random.Random(3))
        for owner, members in sets.items():
            assert len(members) == 4 and owner not in members

    def test_weight_ratio_after_first_pick(self):
        # n=4: after owner 1 picks {g}, owner 2's first pick weights are
        # 2 on g and 1 on each other candidate
        draws = 10_000
        hits = 0
        relevant = 0
        for i in range(draws):
            rng = random.Random(1000 + i)
            in_degree = {j: 0 for j in range(1, 5)}
            first = rng.choices([2, 3, 4], weights=[1, 1, 1])[0]
            in_degree[first] += 1
            if first == 2:
                continue  # owner 2 cannot pick itself; keep clean cases
            relevant += 1
            candidates = [1, 3, 4]
            weights = [1 + in_degree[j] for j in candidates]
            pick = rng.choices(candidates, weights=weights)[0]
            if pick == first:
                hits += 1
        p = 2 / 4  # weight 2 over total weight 1+2+1
        sigma = math.sqrt(p * (1 - p) / relevant)
        assert abs(hits / relevant - p) < 3 * sigma

    def test_ba_more_skewed_than_er(self):
        # max/median in-degree ratio should exceed the matched ER ratio
        wins = 0
        reps = 10
        for rep in range(reps):
            ba = select_guardians_ba(100, 5, random.Random(rep))
            er = {i: select_guardians_er(100, 5, i, random.Random(1_000_000 + rep * 100 + i))
                  for i in range(1, 101)}
            ratios = []
            for sets in (ba, er):
                deg = {j: 0 for j in range(1, 101)}
                for members in sets.values():
                    for j in members:
                        deg[j] += 1
                ratios.append(max(deg.values()) / max(statistics.median(deg.values()), 1))
            if ratios[0] > ratios[1]:
                wins += 1
        assert wins >= 8


class TestSampleRoundSets:
    def test_full_participation(self):
        dealers, _ = sample_round_sets(10, 1.0, 0.5, random.Random(0))
        assert dealers == frozenset(range(1, 11))

    def test_zero_retention(self):
        _, present = sample_round_sets(10, 0.5, 0.0, random.Random(0))
        assert present == frozenset()

    def test_fixed_sizes(self):
        rng = random.Random(4)
        for _ in range(50):
            dealers, present = sample_round_sets(100, 0.3, 0.77, rng)
            assert len(dealers) == 30
            assert len(present) == 77

    def test_present_not_restricted_to_dealers(self):
        rng = random.Random(5)
        seen_outside = False
        for _ in range(50):
            dealers, present = sample_round_sets(10, 0.3, 0.5, rng)
            if present - dealers:
                seen_outside = True
        assert seen_outside


class TestTrialSuccess:
    EXAMPLE_SETS = {1: {2, 3, 5}, 3: {4, 5, 7}, 5: {3, 6, 7}, 7: {3, 5, 8},
                    9: {2, 5, 7}}

    def test_present_superset_of_dealers(self):
        gsets = {i: {j for j in range(1, 5) if j != i} for i in range(1, 5)}
        assert trial_success({1, 2}, {1, 2, 3, 4}, gsets, 3)

    def test_example_sets(self):
        assert trial_success({1, 3, 5, 7, 9}, {3, 5, 7}, self.EXAMPLE_SETS, 2)

    def test_exhaustive_n4_matches_bruteforce(self):
        parties = (1, 2, 3, 4)
        for k in (1, 2):
            member_choices = {
                i: list(itertools.combinations([j for j in parties if j != i], k))
                for i in parties}
            for combo in itertools.product(*(member_choices[i] for i in parties)):
                gsets = {i: set(c) for i, c in zip(parties, combo)}
                for t in range(1, k + 1):
                    for d_size in range(5):
                        for dealers in itertools.combinations(parties, d_size):
                            for t_size in range(5):
                                for present in itertools.combinations(parties, t_size):
                                    ps = set(present)
                                    expected = all(
                                        i in ps or len(ps & gsets[i]) >= t
                                        for i in dealers)
                                    assert trial_success(
                                        dealers, ps, gsets, t) == expected

    def test_monotone_in_present_set(self):
        rng = random.Random(6)
        for _ in range(100):
            gsets = {i: select_guardians_er(8, 3, i, rng) for i in range(1, 9)}
            dealers = frozenset(rng.sample(range(1, 9), 5))
            present = set(rng.sample(range(1, 9), 3))
            ok = trial_success(dealers, present, gsets, 2)
            present.add(rng.randrange(1, 9))
            grown = trial_success(dealers, present, gsets, 2)
            assert grown or not ok  # adding members never flips success off

    def test_monotone_in_threshold(self):
        rng = random.Random(7)
        for _ in range(100):
            gsets = {i: select_guardians_er(8, 4, i, rng) for i in range(1, 9)}
            dealers = frozenset(rng.sample(range(1, 9), 5))
            present = frozenset(rng.sample(range(1, 9), 4))
            results = [trial_success(dealers, present, gsets, t) for t in (1, 2, 3, 4)]
            for lo, hi in zip(results, results[1:]):
                assert lo or not hi  # success at t implies success below t


class TestRunSweep:
    def test_full_retention_rate_one(self):
        cfg = SweepConfig(n_values=(12,), p_values=(0.5,), r_values=(1.0,),
                          k_values=(3,), t_values=(2,), trials=50, seed=1)
        (rate,) = run_sweep(cfg)
        assert rate.rate == 1.0

    def test_invalid_cells_skipped(self):
        cfg = SweepConfig(n_values=(4,), p_values=(1.0,), r_values=(1.0,),
                          k_values=(2, 5), t_values=(1, 3), trials=5, seed=0)
        rates = run_sweep(cfg)
        assert [(s.k, s.t) for s in rates] == [(2, 1)]

    def test_deterministic_csv_bytes(self):
        cfg = SweepConfig(n_values=(10, 15), p_values=(0.8,), r_values=(0.5, 0.9),
                          k_values=(3,), t_values=(1, 2), trials=40, seed=9)
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            write_csv(run_sweep(cfg), buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        header = outputs[0].splitlines()[0]
        assert header == "n,p,r,k,t,topology,trials,successes,rate"

    def test_rate_decreases_with_threshold(self):
        cfg = SweepConfig(n_values=(30,), p_values=(0.8,), r_values=(0.5,),
                          k_values=(6,), t_values=(1, 3, 6), trials=200, seed=5)
        r1, r3, r6 = [s.rate for s in run_sweep(cfg)]
        assert r1 >= r3 >= r6

    def test_rate_increases_with_retention(self):
        cfg = SweepConfig(n_values=(30,), p_values=(0.8,), r_values=(0.3, 0.6, 0.9),
                          k_values=(6,), t_values=(3,), trials=200, seed=5)
        rates = [s.rate for s in run_sweep(cfg)]
        assert rates == sorted(rates)

    def test_analytic_cross_check_n3(self):
        # n=3, k=1, t=1, p=1: success iff every party is present or its one
        # guardian is; exact probability by enumerating guardians and T sets
        n, trials = 3, 10_000
        for r in (0.0, 1 / 3, 2 / 3, 1.0):
            t_size = round_half_up(r * n)
            guardian_options = [[j for j in range(1, 4) if j != i] for i in (1, 2, 3)]
            total = hits = 0
            for combo in itertools.product(*guardian_options):
                gsets = {i: {g} for i, g in zip((1, 2, 3), combo)}
                for present in itertools.combinations(range(1, 4), t_size):
                    total += 1
                    if trial_success((1, 2, 3), set(present), gsets, 1):
                        hits += 1
            exact = hits / total
            cfg = SweepConfig(n_values=(3,), p_values=(1.0,), r_values=(r,),
                              k_values=(1,), t_values=(1,), trials=trials, seed=17)
            (rate,) = run_sweep(cfg)
            half_width = 2.576 * math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
            assert abs(rate.rate - exact) <= max(half_width, 1e-9), (r, exact, rate.rate)

    # Digests taken with the reference samplers.  Most cells of this grid
    # succeed in neither all nor none of their trials, so changed draws
    # show up as changed counts.
    CSV_SHA256 = {
        "er": "4a81c24a2c8e8022c869d461c1b4310b8c4449f84eb995aecea8f98de25a6f88",
        "ba": "f208f5c048877eab6133cd57406b4ea20d62eb996b917e84a3d2fa2a1d0e571c",
    }

    @pytest.mark.parametrize("topology", ["er", "ba"])
    def test_pinned_csv_bytes(self, topology):
        cfg = SweepConfig(n_values=(40, 60), p_values=(0.8,), r_values=(0.6, 0.7),
                          k_values=(6,), t_values=(2, 3), trials=30,
                          topology=topology, seed=5)
        buf = io.StringIO()
        write_csv(run_sweep(cfg), buf)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == self.CSV_SHA256[topology]


@st.composite
def sampler_cases(draw):
    n = draw(st.integers(2, 80))
    return (n, draw(st.integers(1, n - 1)), draw(st.integers(1, n)),
            draw(st.integers(0, 2**64)))


class TestSamplersMatchReference:
    """Same sets and the same final RNG state as the reference samplers."""

    @staticmethod
    def assert_same_draws(fast, reference, seed, *args):
        fast_rng, reference_rng = random.Random(seed), random.Random(seed)
        assert fast(*args, fast_rng) == reference(*args, reference_rng)
        assert fast_rng.getstate() == reference_rng.getstate()

    @PROPERTY
    @given(sampler_cases())
    def test_er_property(self, case):
        n, k, owner, seed = case
        self.assert_same_draws(select_guardians_er, reference_select_guardians_er,
                               seed, n, k, owner)

    @PROPERTY
    @given(sampler_cases())
    def test_ba_property(self, case):
        n, k, _, seed = case
        self.assert_same_draws(select_guardians_ba, reference_select_guardians_ba,
                               seed, n, k)

    @pytest.mark.parametrize("n,k", [(300, 20), (200, 5)])
    def test_ba_fixed(self, n, k):
        self.assert_same_draws(select_guardians_ba, reference_select_guardians_ba, 11, n, k)

    def test_er_fixed_topology(self):
        fast_rng, reference_rng = random.Random(12), random.Random(12)
        assert (er_topology(select_guardians_er, 1000, 40, fast_rng)
                == er_topology(reference_select_guardians_er, 1000, 40, reference_rng))
        assert fast_rng.getstate() == reference_rng.getstate()


class ScriptedRandom(random.Random):
    """A Random whose `random()` cycles through fixed values (`sample` then
    draws through `random()` too).  Its `choices` counts the draws whose
    scaled value `x` falls exactly on an integer prefix sum or reaches the
    total, where `bisect` clamps to the last candidate."""

    def __init__(self, values):
        super().__init__(0)
        self.values = values
        self.calls = 0
        self.on_prefix = 0
        self.clamped = 0

    def random(self):
        value = self.values[self.calls % len(self.values)]
        self.calls += 1
        return value

    def choices(self, population, weights):
        cum = list(itertools.accumulate(weights))
        x = self.values[self.calls % len(self.values)] * float(cum[-1])
        self.on_prefix += x in cum
        self.clamped += x >= cum[-1]
        return super().choices(population, weights=weights)


class TestScriptedDraws:
    """Boundary draws that random seeds almost never produce.  1 - 2**-53 is
    the largest `random()`; times an integer total below 2**53 it stays
    below the total, so only a `random()` of 1.0 (a subclass may return it)
    reaches `choices`' clamp to the last candidate."""

    SCRIPTS = [
        (0.0, 0.5, 1 / 3, 1 - 2**-53, 0.25, 2 / 3, 1.0, 0.75),
        (1.0, 1 - 2**-53, 0.0, 0.5, 0.125, 0.6, 1 / 3),
    ]

    def test_exact_prefix_pick(self):
        # owner 1 of n=5: weights 1,1,1,1 on parties 2..5, so x = 0.5 * 4 = 2
        # is the second prefix sum and bisect_right takes the third, party 4;
        # then x = 1/3 * 3 = 1 on parties 2, 3, 5 takes the second, party 3
        sets = select_guardians_ba(5, 2, ScriptedRandom((0.5, 1 / 3)))
        assert sets[1] == frozenset({3, 4})

    @pytest.mark.parametrize("script", SCRIPTS)
    def test_ba_matches_reference(self, script):
        on_prefix = clamped = 0
        for n in range(2, 13):
            for k in range(1, n):
                fast, reference = ScriptedRandom(script), ScriptedRandom(script)
                assert select_guardians_ba(n, k, fast) == reference_select_guardians_ba(
                    n, k, reference), (n, k)
                assert fast.calls == reference.calls
                on_prefix += reference.on_prefix
                clamped += reference.clamped
        assert on_prefix > 0 and clamped > 0  # both boundaries were exercised

    @pytest.mark.parametrize("script", SCRIPTS)
    def test_er_matches_reference(self, script):
        # n <= 21 keeps `sample` in its pool branch, which never redraws; in
        # its set branch a short cycle of values could redraw forever
        for n in range(2, 13):
            for k in range(1, n):
                fast, reference = ScriptedRandom(script), ScriptedRandom(script)
                assert (er_topology(select_guardians_er, n, k, fast)
                        == er_topology(reference_select_guardians_er, n, k, reference))
                assert fast.calls == reference.calls


class DelegatingRandom(random.Random):
    """Overrides only `random()`, delegating to a real generator, so `sample`
    draws through `random()` instead of `getrandbits`."""

    def __init__(self, seed):
        super().__init__(seed)
        self.inner = random.Random(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.inner.random()


class CountingRandom(random.Random):
    """Counts the `getrandbits` words it hands out."""

    words = 0

    def getrandbits(self, k):
        self.words += 1
        return super().getrandbits(k)


class TestErSetBranch:
    """`select_guardians_er` draws `sample`'s set branch inline; it must give
    the reference sets and leave the generator in the reference state."""

    # the largest population `sample` shuffles as a pool:
    # 21 + 4**ceil(log(3k, 4)), or 21 for k <= 5
    POOL_LIMIT = {1: 21, 5: 21, 6: 85, 40: 277}

    @staticmethod
    def assert_matches_reference(n, k, seed=7):
        fast, reference = random.Random(seed), random.Random(seed)
        for owner in (1, 2, n // 2, n - 1, n):
            assert (select_guardians_er(n, k, owner, fast)
                    == reference_select_guardians_er(n, k, owner, reference)), (n, k, owner)
        assert fast.getstate() == reference.getstate()

    @pytest.mark.parametrize("n,k", [(1025, 40), (1025, 5), (1024, 40), (1024, 1),
                                     (257, 6), (256, 6)])
    def test_power_of_two_boundaries(self, n, k):
        # m = n-1 = 2**b takes b+1 bits and rejects about half the words;
        # m = 2**b - 1 takes b bits and rejects one word in 2**b
        self.assert_matches_reference(n, k)

    @pytest.mark.parametrize("k", sorted(POOL_LIMIT))
    @pytest.mark.parametrize("above", [0, 1])
    def test_pool_limit(self, k, above):
        n = self.POOL_LIMIT[k] + 1 + above  # m at the limit, then one above it
        for seed in range(5):
            self.assert_matches_reference(n, k, seed)

    @pytest.mark.parametrize("n,k", [(30, 3), (300, 20), (1000, 40)])
    def test_random_only_subclass(self, n, k):
        # n > 21 keeps `sample` in its set branch; the delegate never cycles
        fast, reference = DelegatingRandom(5), DelegatingRandom(5)
        assert (er_topology(select_guardians_er, n, k, fast)
                == er_topology(reference_select_guardians_er, n, k, reference))
        assert fast.calls == reference.calls > 0
        assert fast.inner.getstate() == reference.inner.getstate()
        assert fast.getstate() == reference.getstate()

    @pytest.mark.parametrize("n,k", [(30, 3), (1025, 40)])
    def test_getrandbits_subclass(self, n, k):
        fast, reference, plain = CountingRandom(6), CountingRandom(6), random.Random(6)
        assert (er_topology(select_guardians_er, n, k, fast)
                == er_topology(reference_select_guardians_er, n, k, reference)
                == er_topology(select_guardians_er, n, k, plain))
        assert fast.words == reference.words >= n * k
        assert fast.getstate() == reference.getstate() == plain.getstate()


def refuse_sample(*args, **kwargs):
    raise AssertionError("Random.sample called")


class TestFastBranchTaken:
    """The identity tests stay green if `select_guardians_er` falls back to
    `sample` everywhere; these do not."""

    @pytest.mark.parametrize("n,k", [(1000, 40)] + [
        (limit + 2, k) for k, limit in sorted(TestErSetBranch.POOL_LIMIT.items())])
    def test_no_sample_call(self, monkeypatch, n, k):
        # the sweep's size, and one population above each pool limit
        reference = random.Random(12)
        expected = er_topology(reference_select_guardians_er, n, k, reference)
        monkeypatch.setattr(random.Random, "sample", refuse_sample)
        fast = random.Random(12)
        assert er_topology(select_guardians_er, n, k, fast) == expected
        assert fast.getstate() == reference.getstate()


class TestExactRateEr:
    @pytest.mark.parametrize("t,expected", list(zip(
        range(1, 9), [1.0, 0.9999, 0.9986, 0.9868, 0.9182, 0.6714, 0.2417, 0.0179])))
    def test_half_retention(self, t, expected):
        assert round(exact_rate_er(100, 0.8, 0.5, 20, t), 4) == expected

    @pytest.mark.parametrize("t,expected", [(14, 0.9989), (16, 0.8836)])
    def test_high_retention(self, t, expected):
        assert round(exact_rate_er(100, 0.8, 0.9, 20, t), 4) == expected

    def test_monte_carlo_within_binomial_ci(self):
        n, p, r, k, t, trials = 30, 0.8, 0.5, 6, 2, 1000
        exact = exact_rate_er(n, p, r, k, t)
        assert 0.2 < exact < 0.8  # a cell far from 0 and 1
        cfg = SweepConfig(n_values=(n,), p_values=(p,), r_values=(r,), k_values=(k,),
                          t_values=(t,), trials=trials, seed=3)
        (rate,) = run_sweep(cfg)
        half_width = 2.576 * math.sqrt(exact * (1 - exact) / trials)
        assert abs(rate.rate - exact) <= half_width, (rate.rate, exact)

    def test_oversized_k_rejected(self):
        with pytest.raises(SweepConfigError):
            exact_rate_er(5, 0.8, 0.5, 5, 1)
