"""Self-test of the benchmark: each output check counts a deliberately wrong
result as failed, op counts repeat exactly for a seed, the traced run
writes the untraced run's transcript bytes, a timing leaves the
host-speed probe's own time out, BENCHMARK.json names the metrics run.py
prints, and a directory without the program exits 2.

    python3 perfbench/selftest.py            # or
    python3 -m pytest perfbench/selftest.py

Everything runs on the small modp-2027 group, in well under a minute.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
from fdkg_import import ROOT, load_fdkg  # noqa: E402
from metrics import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, CeremonySecp, ExhaustiveModp, Stats  # noqa: E402

FD = load_fdkg()
G = FD.groups.TEST_GROUP


class CeremonyModp(CeremonySecp):
    """The ceremony workload's shape on the small group."""

    def __init__(self, fd, seed):
        super().__init__(fd, seed)
        self.group = fd.groups.TEST_GROUP


def _counted_as_failed(reasons) -> bool:
    stats = Stats()
    with contextlib.redirect_stderr(io.StringIO()):
        stats.checked("injected", reasons)
    return stats.attempted == 1 and stats.failed == 1


def _passes(reasons) -> bool:
    stats = Stats()
    stats.checked("reference", reasons)
    return stats.attempted == 1 and stats.failed == 0


def _ceremony():
    wl = CeremonyModp(FD, 5)
    seed, behaviors, gsets, participants, recovery = wl._instance()
    result = FD.board.run_ceremony(wl.params, behaviors, G, seed, guardian_sets=gsets)
    activations = [FD.board.HonestActivation(i, gsets[i]) for i in participants]
    ideal = FD.board.ideal_functionality_run(wl.params, activations, G, seed)
    return wl, seed, result, participants, recovery, ideal


def test_ceremony_checks_count_wrong_results():
    wl, seed, result, participants, recovery, ideal = _ceremony()
    assert _passes(checks.ceremony(G, result, participants, recovery, ideal))
    outcome = result.outcome
    swapped = dataclasses.replace(result, outcome=dataclasses.replace(
        outcome, global_secret=(outcome.global_secret + 1) % G.order))
    assert _counted_as_failed(checks.ceremony(G, swapped, participants, recovery, ideal))
    other = FD.board.ideal_functionality_run(
        wl.params, [FD.board.HonestActivation(i, set(result.public_state.guardian_sets()[i]))
                    for i in participants], G, seed + 1)
    assert _counted_as_failed(checks.ceremony(G, result, participants, recovery, other))
    flipped = {d: "direct" for d in recovery}
    assert _counted_as_failed(checks.ceremony(G, result, participants, flipped, ideal))


def test_audit_check_counts_wrong_results():
    _, _, result, *_ = _ceremony()
    state, outcome = result.public_state, result.outcome
    assert _passes(checks.audit(G, state, outcome, result))
    recovered = dict(outcome.recovered)
    recovered[min(recovered)] = ("direct",) if recovered[min(recovered)][0] == "shares" \
        else ("shares", (1, 2))
    assert _counted_as_failed(checks.audit(
        G, state, dataclasses.replace(outcome, recovered=recovered), result))
    assert _counted_as_failed(checks.audit(
        G, state, dataclasses.replace(outcome, global_secret=outcome.global_secret + 1), result))
    fewer = dataclasses.replace(state, participants=state.participants[1:])
    assert _counted_as_failed(checks.audit(G, fewer, outcome, result))


def test_tally_checks_count_wrong_results():
    params = FD.protocol.Params(6, 2, 3)
    behaviors = {i: FD.board.Behavior() for i in range(1, 7)}
    behaviors[2] = FD.board.Behavior(FD.board.ABSENT_ROUND2)
    votes = {1: 1, 2: 2, 3: 2}
    result = FD.election.run_election(params, behaviors, votes, 2, G, 9)
    assert _passes(checks.election(result, votes, 2))
    counts = result.tally.counts
    shifted = (counts[0] + 1, counts[1] - 1)
    assert _counted_as_failed(checks.tally(shifted, votes, 2))
    wrong = dataclasses.replace(result, tally=dataclasses.replace(result.tally, counts=shifted))
    assert _counted_as_failed(checks.election(wrong, votes, 2))
    assert _passes(checks.election_audit(result.public_state, result.accepted_voters,
                                         counts, result))
    assert _counted_as_failed(checks.election_audit(
        result.public_state, result.accepted_voters, shifted, result))
    assert _counted_as_failed(checks.election_audit(
        result.public_state, result.accepted_voters[1:], counts, result))


def test_reconstruction_check_counts_flipped_predicate():
    assert _passes(checks.reconstruction(True, 7, True, 7))
    assert _passes(checks.reconstruction(False, None, False, 7))
    assert _counted_as_failed(checks.reconstruction(True, 7, False, 7))
    assert _counted_as_failed(checks.reconstruction(False, None, True, 7))
    assert _counted_as_failed(checks.reconstruction(True, 8, True, 7))


def test_exact_er_rate_and_binomial_check():
    # closed-form values, checked against 2000-trial Monte-Carlo runs
    for args, rate in (((100, 0.8, 0.9, 20, 16), 0.8836), ((100, 0.8, 0.5, 20, 5), 0.9182),
                       ((100, 0.8, 0.5, 20, 8), 0.0179)):
        assert abs(checks.exact_er_rate(*args) - rate) < 5e-5
    exact = checks.exact_er_rate(1000, 0.8, 0.5, 40, 10)
    assert _passes(checks.er_rate(round(exact * 200), 200, exact))
    assert _counted_as_failed(checks.er_rate(round(exact * 200) - 40, 200, exact))
    assert _counted_as_failed(checks.er_rate(200, 200, checks.exact_er_rate(1000, 0.8, 0.5, 40, 12)))


def test_sweep_cell_check_counts_wrong_cells():
    s = FD.simulate
    config = s.SweepConfig((30,), (0.8,), (0.5,), (5,), t_values=(1, 2), trials=2, seed=3)
    rates = s.run_sweep(config)
    assert _passes(checks.sweep_cells(rates, 30, 0.8, 0.5, 5, (1, 2), "er", 2))
    assert _counted_as_failed(checks.sweep_cells(rates, 30, 0.8, 0.5, 5, (1, 3), "er", 2))
    bad = [dataclasses.replace(rates[0], successes=3)] + rates[1:]
    assert _counted_as_failed(checks.sweep_cells(bad, 30, 0.8, 0.5, 5, (1, 2), "er", 2))


def test_step_failures_reach_error_rate():
    """An injected wrong result inside a real step is counted, not passed."""
    wl = ExhaustiveModp(FD, 4)
    original = checks.reconstruction
    checks.reconstruction = lambda success, secret, predicate, true: original(
        not success, secret, predicate, true)
    try:
        stats = Stats()
        with contextlib.redirect_stderr(io.StringIO()):
            wl.step(G, stats)
    finally:
        checks.reconstruction = original
    assert stats.attempted == stats.failed == 32 * ExhaustiveModp.TOPOLOGIES


def _traced_counts(workload_cls, seed):
    stats, rec, _ = run.run_traced(workload_cls, FD, seed)
    assert stats.failed == 0, "traced transcript bytes differ from the untraced run"
    assert stats.transcripts >= workload_cls.trace_steps
    return dict(rec.op_count), dict(rec.calls())


def test_traced_counts_repeat_and_transcripts_match():
    for workload_cls in (CeremonyModp, ExhaustiveModp):
        first = _traced_counts(workload_cls, 21)
        assert first == _traced_counts(workload_cls, 21)
        assert first[0] and first[1]


def test_timing_leaves_out_the_probe_and_set_up_keeps_modules():
    """A Timing under a running probe holds the probe durations that fell
    inside it and leaves their time out of its seconds; a set-up during a
    run leaves the running fdkg modules in sys.modules."""
    running = sys.modules["fdkg.transcripts"]
    with hostspeed.Probe() as probe:
        with probe.timed() as timing:
            end = time.perf_counter() + 0.1
            while time.perf_counter() < end:
                pass
        run.set_up_again(ExhaustiveModp, 1, probe)
    assert timing.ref_n >= 5
    assert abs(timing.seconds + timing.ref_sum - 0.1) < 0.01
    assert timing.cost == timing.seconds / (timing.ref_sum / timing.ref_n)
    assert sys.modules["fdkg.transcripts"] is running


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["setup_s", "peak_rss_mb", "primary_cost", "secondary_cost"]


def test_exits_2_without_the_program():
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "liveness-sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""


if __name__ == "__main__":
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail the run
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failures else 0)
