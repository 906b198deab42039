"""The four workloads. Each is a closed loop in one thread: `step` runs one
unit of work through fdkg's public entry points, times only the program's
calls, then checks every output outside the timed region. Every step of a
workload does the same amount of work on fresh inputs.

Inputs come from the workload seed alone. The secp256k1 workloads keep one
fixed ceremony shape (a circulant guardian topology with faults at fixed
positions) and draw the party labels, the master seed and the votes from
the workload seed, so every step costs about the same and a run's median
does not swing with topology luck.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from array import array
from collections import defaultdict
from contextlib import nullcontext
import checks
from hostspeed import OFF, Timing


class Stats:
    """Timings (seconds and, under a probe, costs) per named metric,
    operations attempted and failed, and a digest of the outputs
    (transcript lines) that the traced run compares."""

    def __init__(self):
        # compact arrays and a running digest, so peak RSS does not grow
        # with the number of steps a faster program fits into a run
        self.samples = defaultdict(lambda: array("d"))
        self.costs = defaultdict(lambda: array("d"))
        self.totals = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.transcripts = 0
        self.transcript_bytes = 0

    def record(self, metric: str, timing, per: int = 1) -> None:
        """A Timing of `per` operations, recorded per operation."""
        self.samples[metric].append(timing.seconds / per)
        if timing.cost is not None:
            self.costs[metric].append(timing.cost / per)

    def checked(self, what: str, reasons, ops: int = 1) -> None:
        self.attempted += ops
        if reasons:
            self.fail(what, reasons, ops)

    def fail(self, what: str, reasons, ops: int) -> None:
        self.failed += ops
        for reason in reasons:
            print(f"check failed: {what}: {reason}", file=sys.stderr)

    def transcript(self, fd, board, group) -> None:
        """Digest of the transcript lines, and their size as the cost model
        measures it."""
        self.record_output("\n".join(fd.transcripts.export_lines(board, group)))
        self.transcript_bytes += fd.costmodel.measured_transcript_bytes(board, group)

    def record_output(self, text: str) -> None:
        self.digest.update(text.encode() + b"\0")
        self.transcripts += 1


class Workload:
    name = ""
    primary = ""  # name of the timing reported as primary_cost
    secondary = ""  # and as secondary_cost
    trace_steps = 1  # fixed work of the traced run
    group = None  # the group the workload runs on, if any

    def __init__(self, fd, seed: int):
        self.fd = fd
        self.rng = random.Random(seed)
        self.rec = None  # SpanRecorder in the traced run
        self.probe = OFF  # hostspeed.Probe in the timed run

    def quiet(self):
        """Checks run here, so the traced run does not count them."""
        return self.rec.pause() if self.rec is not None else nullcontext()

    def phase(self, name: str):
        return self.rec.in_phase(name) if self.rec is not None else nullcontext()

    def step(self, group, stats: Stats) -> float:
        """One unit of work; returns the seconds spent in the program."""
        raise NotImplementedError

    def finish(self, stats: Stats) -> None:
        """Checks over the whole run."""

    def named_metrics(self, stats: Stats) -> dict:
        """Throughputs under the names the notes use; timings are reported
        from stats.samples."""
        return {}


def _circulant(labels, k: int) -> dict:
    n = len(labels)
    return {labels[i]: frozenset(labels[(i + j) % n] for j in range(1, k + 1))
            for i in range(n)}


class CeremonySecp(Workload):
    """run_ceremony at n=8, t=2, k=4 with guardian sets i+1..i+4 (mod 8) by
    position. Positions 0 and 4 are absent in round 2, 1 withholds its
    share for dealer 0, 2 malforms its deal. Dealer 0 then has exactly t
    guardian shares to be recovered from, dealer 4 has three, and the
    malformed deal is rejected in round 1. An observer then audits the
    transcript lines."""

    name = "ceremony-secp256k1"
    primary, secondary = "ceremony_s", "audit_s"
    N, T, K = 8, 2, 4

    def __init__(self, fd, seed):
        super().__init__(fd, seed)
        self.group = fd.groups.SECP256K1
        self.params = fd.protocol.Params(self.N, self.T, self.K)

    def _instance(self):
        b = self.fd.board
        labels = list(range(1, self.N + 1))
        self.rng.shuffle(labels)
        behaviors = {i: b.Behavior() for i in labels}
        behaviors[labels[0]] = b.Behavior(b.ABSENT_ROUND2)
        behaviors[labels[4]] = b.Behavior(b.ABSENT_ROUND2)
        behaviors[labels[1]] = b.Behavior(b.WITHHOLD_SHARES, frozenset({labels[0]}))
        behaviors[labels[2]] = b.Behavior(b.MALFORM_DEAL)
        participants = tuple(sorted(set(labels) - {labels[2]}))
        recovery = {d: "shares" if d in (labels[0], labels[4]) else "direct"
                    for d in participants}
        return (self.rng.randrange(2 ** 32), behaviors, _circulant(labels, self.K),
                participants, recovery)

    def step(self, group, stats):
        fd, params = self.fd, self.params
        seed, behaviors, gsets, participants, recovery = self._instance()

        with self.probe.timed() as ceremony:
            result = fd.board.run_ceremony(params, behaviors, group, seed, guardian_sets=gsets)

        with self.phase("audit"), self.probe.timed() as audit:
            lines = fd.transcripts.export_lines(result.board, group)
            replay = fd.transcripts.import_lines(lines, group)
            state = fd.protocol.process_round1(
                [e.message for e in replay.entries(1)], params,
                result.public_state.pki, group)
            outcome = fd.protocol.offline_reconstruct(
                state, [e.message for e in replay.entries(2)], params, group,
                fd.board.REVEAL_CONTEXT)

        stats.record("ceremony_s", ceremony)
        stats.record("audit_s", audit)
        with self.quiet():
            raw = self.group
            ideal = fd.board.ideal_functionality_run(
                params, [fd.board.HonestActivation(i, gsets[i]) for i in participants],
                raw, seed)
            stats.checked("ceremony", checks.ceremony(raw, result, participants, recovery, ideal))
            stats.checked("audit", checks.audit(raw, state, outcome, result))
            stats.transcript(fd, result.board, raw)
        return ceremony.seconds + audit.seconds


class ElectionSecp(Workload):
    """run_election at n=6, t=2, k=3 (circulant guardians), 3 candidates and
    20 voters with n_bound = 20. The dealer at position 0 is absent in the
    tally, so its decryption factor is interpolated in the exponent from
    guardian shares. An observer then re-derives the tally from the
    transcript lines."""

    name = "election-secp256k1"
    primary, secondary = "election_s", "audit_s"
    N, T, K = 6, 2, 3
    CANDIDATES, VOTERS = 3, 20

    def __init__(self, fd, seed):
        super().__init__(fd, seed)
        self.group = fd.groups.SECP256K1
        self.params = fd.protocol.Params(self.N, self.T, self.K)

    def step(self, group, stats):
        fd, params = self.fd, self.params
        labels = list(range(1, self.N + 1))
        self.rng.shuffle(labels)
        behaviors = {i: fd.board.Behavior() for i in labels}
        behaviors[labels[0]] = fd.board.Behavior(fd.board.ABSENT_ROUND2)
        votes = {v: self.rng.randint(1, self.CANDIDATES) for v in range(1, self.VOTERS + 1)}
        seed = self.rng.randrange(2 ** 32)

        with self.probe.timed() as election:
            result = fd.election.run_election(
                params, behaviors, votes, self.CANDIDATES, group, seed,
                n_bound=self.VOTERS, guardian_sets=_circulant(labels, self.K))

        v = fd.voting
        with self.phase("audit"), self.probe.timed() as audit:
            lines = fd.transcripts.export_lines(result.board, group)
            replay = fd.transcripts.import_lines(lines, group)
            state = fd.protocol.process_round1(
                [e.message for e in replay.entries(1)], params,
                result.public_state.pki, group)
            encoding = v.derive_encoding(self.VOTERS, self.CANDIDATES, group.order)
            aggregate, accepted = v.aggregate_ballots(
                group, encoding, state.global_pk, [e.message for e in replay.entries(2)])
            round3 = [e.message for e in replay.entries(3)]
            values = v.collect_decryption_values(
                group, state, aggregate.c1,
                [m for m in round3 if isinstance(m, v.PartialDecryption)],
                [m for m in round3 if isinstance(m, fd.protocol.ShareReveal)],
                v.TALLY_CONTEXT, params.t)
            audited = v.tally_finalize(group, aggregate, values, len(accepted), encoding)

        stats.record("election_s", election)
        stats.record("audit_s", audit)
        with self.quiet():
            stats.checked("election", checks.election(result, votes, self.CANDIDATES))
            stats.checked("election audit",
                          checks.election_audit(state, accepted, audited.counts, result))
            stats.transcript(fd, result.board, self.group)
        return election.seconds + audit.seconds


class ExhaustiveModp(Workload):
    """The shape of acceptance test c2 on TEST_GROUP: n=5, k=3, t=2 and a
    seeded sample of 8 guardian topologies. Each step deals afresh once per
    topology, then reconstructs for all 32 corruption sets (withhold-
    everything adversaries) and compares each outcome with liveness_holds.
    Every step does the same work with fresh randomness. Its timings are
    summed over the step before they are recorded, since one topology's
    (1–4 ms) is shorter than the host-speed probe's interval."""

    name = "exhaustive-modp-2027"
    primary, secondary = "check_s", "deal_s"
    N, T, K = 5, 2, 3
    TOPOLOGIES = 8
    CONTEXT = b"fdkg/round2"
    trace_steps = 2

    def __init__(self, fd, seed):
        super().__init__(fd, seed)
        self.group = fd.groups.TEST_GROUP
        self.params = fd.protocol.Params(self.N, self.T, self.K)
        self.parties = tuple(range(1, self.N + 1))
        self.pki = {i: fd.pke.pke_keygen(self.group, self.rng) for i in self.parties}
        self.pub = {i: kp.pk for i, kp in self.pki.items()}
        self.corruption_sets = [frozenset(c) for size in range(self.N + 1)
                                for c in itertools.combinations(self.parties, size)]
        self.topologies = [
            {i: frozenset(self.rng.sample([j for j in self.parties if j != i], self.K))
             for i in self.parties}
            for _ in range(self.TOPOLOGIES)]

    def _topology(self, group, gsets, rng, stats):
        p = self.fd.protocol
        params, parties = self.params, self.parties

        with self.probe.timed() as deal:
            messages, states = [], {}
            for i in parties:
                gs = p.GuardianSet.create(i, gsets[i], params)
                msg, states[i] = p.round1_deal(i, params, gs, self.pub, group, rng)
                messages.append(msg)
            public = p.process_round1(messages, params, self.pub, group)
            reveals = []
            for i in parties:
                reveals.append(p.round2_reveal_secret(i, states[i], public, self.CONTEXT,
                                                      group, rng))
                reveals.extend(p.round2_reveal_shares(i, self.pki[i].sk, public,
                                                      self.CONTEXT, group, rng))

        with self.probe.timed() as reconstruct:
            results = []
            for corrupted in self.corruption_sets:
                live = [m for m in reveals if m.sender not in corrupted]
                outcome = p.offline_reconstruct(public, live, params, group, self.CONTEXT)
                results.append((outcome.success, outcome.global_secret,
                                p.liveness_holds(corrupted, parties, gsets, params)))

        with self.quiet():
            true_secret = sum(s.partial_secret for s in states.values()) % self.group.order
            for corrupted, (success, secret, predicate) in zip(self.corruption_sets, results):
                stats.checked(f"corruption set {sorted(corrupted)} of {gsets}",
                              checks.reconstruction(success, secret, predicate, true_secret))
            board = self.fd.board.BroadcastBoard()
            for msg in messages:
                board.append(msg.dealer, 1, msg)
            for msg in reveals:
                board.append(msg.sender, 2, msg)
            stats.transcript(self.fd, board, self.group)
        return deal, reconstruct

    def step(self, group, stats):
        rng = random.Random(self.rng.randrange(2 ** 64))
        deal = reconstruct = Timing()
        for gsets in self.topologies:
            d, r = self._topology(group, gsets, rng, stats)
            deal, reconstruct = deal + d, reconstruct + r
        checks = len(self.topologies) * len(self.corruption_sets)
        stats.record("deal_s", deal, per=len(self.topologies))
        stats.record("check_s", deal + reconstruct, per=checks)
        stats.totals["checks"] += checks
        stats.totals["checks_time"] += deal.seconds + reconstruct.seconds
        return deal.seconds + reconstruct.seconds

    def named_metrics(self, stats):
        return {"reconstructions_per_s": (stats.totals["checks"] / stats.totals["checks_time"],
                                          "1/s")}


class LivenessSweep(Workload):
    """Alternating run_sweep calls: the ER grid at n=1000, k=40, p=0.8,
    r=0.5, t in {8, 10, 12} (closed-form rates 0.994, 0.902, 0.344,
    straddling 0.95), one call of one trial per cell, each timed on its
    own; then one BA cell at n=300, k=20, same p and r, with t cycling
    through {4, 5, 6}, one trial. No group operations.

    Each ER cell is timed alone, so that an er_trial_s sample is one trial,
    like a ba_trial_s sample."""

    name = "liveness-sweep"
    primary, secondary = "er_trial_s", "ba_trial_s"
    ER = dict(n=1000, p=0.8, r=0.5, k=40, t_values=(8, 10, 12))
    BA = dict(n=300, p=0.8, r=0.5, k=20, t_values=(4, 5, 6))
    trace_steps = 3  # every BA threshold once

    def __init__(self, fd, seed):
        super().__init__(fd, seed)
        self.steps = 0
        self.er_successes = defaultdict(int)
        self.er_trials = defaultdict(int)
        self.exact = {t: checks.exact_er_rate(self.ER["n"], self.ER["p"], self.ER["r"],
                                              self.ER["k"], t)
                      for t in self.ER["t_values"]}

    def _sweep(self, grid, t_values, topology, stats, metric):
        s = self.fd.simulate
        config = s.SweepConfig(
            n_values=(grid["n"],), p_values=(grid["p"],), r_values=(grid["r"],),
            k_values=(grid["k"],), t_values=t_values, trials=1,
            topology=topology, seed=self.rng.randrange(2 ** 32))
        with self.probe.timed() as timing:
            rates = s.run_sweep(config)
        trials = len(t_values)
        stats.record(metric, timing, per=trials)
        stats.totals[f"{topology}_trials"] += trials
        stats.totals[f"{topology}_time"] += timing.seconds
        with self.quiet():
            stats.checked(f"{topology} sweep", checks.sweep_cells(
                rates, grid["n"], grid["p"], grid["r"], grid["k"], t_values,
                topology, 1), trials)
            stats.record_output(repr([(r.t, r.trials, r.successes) for r in rates]))
        return rates, timing.seconds

    def step(self, group, stats):
        er_s = 0.0
        for t in self.ER["t_values"]:
            er, elapsed = self._sweep(self.ER, (t,), "er", stats, "er_trial_s")
            for cell in er:
                self.er_successes[cell.t] += cell.successes
                self.er_trials[cell.t] += cell.trials
            er_s += elapsed
        ba_t = self.BA["t_values"][self.steps % len(self.BA["t_values"])]
        self.steps += 1
        _, ba_s = self._sweep(self.BA, (ba_t,), "ba", stats, "ba_trial_s")
        return er_s + ba_s

    def finish(self, stats):
        for t, exact in self.exact.items():
            reasons = checks.er_rate(self.er_successes[t], self.er_trials[t], exact)
            if reasons:  # the trials were counted as attempted when they ran
                stats.fail(f"ER rate t={t}", reasons, self.er_trials[t])

    def named_metrics(self, stats):
        t = stats.totals
        return {"er_trials_per_s": (t["er_trials"] / t["er_time"], "1/s"),
                "ba_trials_per_s": (t["ba_trials"] / t["ba_time"], "1/s")}


WORKLOADS = {w.name: w for w in (CeremonySecp, ElectionSecp, ExhaustiveModp, LivenessSweep)}
