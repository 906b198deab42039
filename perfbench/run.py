"""fdkg benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fdkg is imported from its `src/`.
With --trace 0 the workload runs as a closed loop for S seconds and the
last stdout line is a JSON object whose metrics are the end-to-end ones:
setup_s (median of SETUP_REPEATS set-ups spread over the run),
peak_rss_mb, and primary_cost and secondary_cost, the median cost of the
workload's two timed operations in units of hostspeed.reference (see
NOTES.md). With --trace 1 the workload's fixed traced work runs once
untraced and once traced, and the metrics are the per-layer ones. Lines
before the last one name each metric the way NOTES.md does.

Exit code 2 means the program could not be imported or the arguments were
bad, 1 that no step completed, so there is nothing to report. A failed
output check is reported in the JSON, with exit code 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import resource
import statistics
import sys
import traceback
from time import perf_counter

from fdkg_import import ProgramMissing, load_fdkg
from hostspeed import OFF, Probe
from workloads import WORKLOADS, Stats

SETUP_REPEATS = 15
MIN_STEPS = 2  # so a median is never of a single step
TAIL_PERCENTILES = (99.9, 99, 95, 90, 50)


class NoStepCompleted(Exception):
    """Every step raised, so there is no timing to report."""


def set_up(workload_cls, seed: int, probe=OFF):
    """Fresh fdkg import, inputs from the seed and one warm-up call into
    the workload's group; returns the workload and the seconds it took,
    less the probe's own time."""
    with probe.timed() as timing:
        fd = load_fdkg()
        workload = workload_cls(fd, seed)
        if workload.group is not None:
            workload.group.base_exp(random.Random(seed).randrange(1, workload.group.order))
    return workload, timing.seconds


def set_up_again(workload_cls, seed: int, probe) -> float:
    """One more set-up, timed and dropped. The running workload's fdkg
    modules go back into sys.modules, so that the imports fdkg makes inside
    functions keep resolving to the classes its objects were made from."""
    kept = {name: m for name, m in sys.modules.items()
            if name == "fdkg" or name.startswith("fdkg.")}
    try:
        return set_up(workload_cls, seed, probe)[1]
    finally:
        sys.modules.update(kept)


def _step(workload, group, stats: Stats) -> float:
    """A step that raises counts as one failed operation."""
    try:
        return workload.step(group, stats)
    except Exception:
        traceback.print_exc()
        stats.checked(f"{workload.name} step", ["raised"])
        return 0.0


def run_timed(workload, seconds: float, seed: int):
    """Closed loop: the next step starts when the previous one ends. After
    MIN_STEPS steps, a step predicted, from the last one, to end past the
    deadline is not started. Between steps, SETUP_REPEATS - 1 more set-ups
    are spread evenly over the run, so that the set-up median is not taken
    from a single stretch of the host's speed. Returns the stats and those
    set-up times."""
    stats, setups = Stats(), []
    begin = perf_counter()
    deadline = begin + seconds
    with Probe() as workload.probe:
        for steps in itertools.count(1):
            start = perf_counter()
            _step(workload, workload.group, stats)
            while (len(setups) < SETUP_REPEATS - 1 and perf_counter()
                   >= begin + seconds * (len(setups) + 1) / SETUP_REPEATS):
                setups.append(set_up_again(type(workload), seed, workload.probe))
            now = perf_counter()
            if steps >= MIN_STEPS and now + (now - start) > deadline:
                break
        while len(setups) < SETUP_REPEATS - 1:
            setups.append(set_up_again(type(workload), seed, workload.probe))
    workload.finish(stats)
    return stats, setups


def run_traced(workload_cls, fd, seed: int):
    """The workload's fixed traced work, first untraced and then traced on
    identical inputs. Returns the traced stats, the recorder and the ratio
    of traced to untraced time spent in the program."""
    from spans import CountingGroup, SpanRecorder, instrument

    plain, traced = workload_cls(fd, seed), workload_cls(fd, seed)
    group = plain.group
    plain_stats = Stats()
    plain_s = sum(_step(plain, group, plain_stats) for _ in range(plain.trace_steps))
    plain.finish(plain_stats)
    if plain_s == 0:
        raise NoStepCompleted

    rec = SpanRecorder()
    traced.rec = rec
    proxy = CountingGroup(group, rec) if group is not None else None
    restore = instrument(fd, rec)
    try:
        stats = Stats()
        traced_s = sum(_step(traced, proxy, stats) for _ in range(traced.trace_steps))
        traced.finish(stats)
    finally:
        restore()
    if stats.digest.digest() != plain_stats.digest.digest():
        stats.fail("traced run", ["transcript bytes differ from the untraced run"], 1)
    return stats, rec, traced_s / plain_s


def timing_summary(samples) -> dict:
    """Fastest, median, the highest percentile with at least ten samples
    beyond it, and the sample count."""
    out = {"min": min(samples), "median": statistics.median(samples), "n": len(samples)}
    for pct in TAIL_PERCENTILES:
        if len(samples) * (1 - pct / 100) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")
            out[f"p{pct:g}"] = cut[round(pct * 10) - 1]
            break
    return out


def end_to_end(workload, stats: Stats, setup_s: float, peak_rss_mb: float):
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        # seconds over the host's speed: see NOTES.md, "Why cost, not seconds, is gated"
        "primary_cost": {"value": statistics.median(stats.costs[workload.primary]),
                         "unit": "ref"},
        "secondary_cost": {"value": statistics.median(stats.costs[workload.secondary]),
                           "unit": "ref"},
    }
    named = {"setup_s": {"value": setup_s, "unit": "s"},
             "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
             "error_rate": {"value": stats.failed / stats.attempted, "unit": "ratio"}}
    for name in (workload.primary, workload.secondary):
        named[name] = {**timing_summary(stats.samples[name]), "unit": "s",
                       "cost_median_ref": statistics.median(stats.costs[name])}
    for name, (value, unit) in workload.named_metrics(stats).items():
        named[name] = {"value": value, "unit": unit}
    return metrics, named


def per_layer(rec, stats: Stats, overhead: float) -> dict:
    from spans import GROUP_OPS, PHASES
    from metrics import PER_LAYER, SPAN_OF

    calls, self_s = rec.calls(), rec.self_times()
    values = {}
    for op in GROUP_OPS:
        values[f"groups.{op}.count"] = sum(c for (_, o), c in rec.op_count.items() if o == op)
        values[f"groups.{op}.self_s"] = sum(s for (_, o), s in rec.op_time.items() if o == op)
    for phase in PHASES:
        for op in ("exp", "base_exp"):
            values[f"groups.{phase}.{op}.count"] = rec.op_count[(phase, op)]
    values["voting.bsgs_dlog.mul_count"] = rec.op_by_span[("voting.bsgs_dlog", "mul")]
    distinct = len(rec.distinct_shares)
    values["protocol.reverify_ratio"] = rec.share_checks / distinct if distinct else 0.0
    values["transcripts.bytes"] = stats.transcript_bytes
    values["trace.overhead_ratio"] = overhead
    out = {}
    for name, unit in PER_LAYER:
        if name not in values:
            function, _, kind = name.rpartition(".")
            span = SPAN_OF.get(function, function)
            values[name] = calls[span] if kind == "count" else self_s.get(span, 0.0)
        out[name] = {"value": values[name], "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload_cls = WORKLOADS[args.workload]
    try:
        workload, first_setup_s = set_up(workload_cls, args.seed)
    except ProgramMissing as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        try:
            stats, rec, overhead = run_traced(workload_cls, workload.fd, args.seed)
        except NoStepCompleted:
            print("no untraced step completed", file=sys.stderr)
            return 1
        metrics = per_layer(rec, stats, overhead)
        phases = {f"{phase}.{op}": {"count": rec.op_count[(phase, op)],
                                    "self_s": rec.op_time[(phase, op)]}
                  for phase, op in sorted(rec.op_count)}
        print(json.dumps({"workload": args.workload, "group_ops_by_phase": phases}))
    else:
        stats, setups = run_timed(workload, args.seconds, args.seed)
        setup_s = statistics.median([first_setup_s, *setups])
        # read before the summaries below copy the samples
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not (stats.costs[workload.primary] and stats.costs[workload.secondary]):
            print("no step completed", file=sys.stderr)
            return 1
        metrics, named = end_to_end(workload, stats, setup_s, peak_rss_mb)
        for name, value in named.items():
            print(f"{args.workload} {name}: {json.dumps(value)}")
    print(json.dumps({"correct": stats.failed == 0, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
