"""Span recorder and counting group proxy for the traced benchmark run.

Nothing here edits the program. `instrument` rebinds each public function
of the measured modules to a wrapper that records a span, in every module
namespace that refers to it (so names imported with `from x import f` are
wrapped too), and `CountingGroup` is passed in as the `group` argument.
Spans stay in memory until the run ends; group operations are leaves and
are aggregated per (phase, op) instead of stored one by one.
"""

from __future__ import annotations

import functools
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from fdkg_import import LAYERS

GROUP_OPS = ("exp", "base_exp", "mul", "inv", "div", "encode", "decode", "chi")
PHASES = ("round1", "round2", "audit", "ballot", "tally")

# A call into one of these functions sets the phase of the group operations
# beneath it, unless the benchmark already set one (the audit does).
PHASE_OF = {
    "board.generate_pki": "pki",
    "protocol.round1_deal": "round1",
    "protocol.process_round1": "round1",
    "protocol.round2_reveal_secret": "round2",
    "protocol.round2_reveal_shares": "round2",
    "protocol.offline_reconstruct": "round2",
    "voting.cast_ballot": "ballot",
    "voting.aggregate_ballots": "ballot",
    "voting.tally_partial_decrypt": "tally",
    "voting.tally_share_reveal": "tally",
    "voting.collect_decryption_values": "tally",
    "voting.tally_finalize": "tally",
}


class SpanRecorder:
    """Spans as [name, start, end, parent index, time covered by children]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.phase = None
        self.paused = False
        self.op_count = Counter()  # (phase, op) -> calls
        self.op_time = Counter()  # (phase, op) -> seconds
        self.op_by_span = Counter()  # (innermost span name, op) -> calls
        self.share_checks = 0
        self.distinct_shares = set()

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent, 0.0])
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        if span[3] is not None:
            self.spans[span[3]][4] += end - span[1]

    def group_op(self, op: str, seconds: float) -> None:
        key = (self.phase or "other", op)
        self.op_count[key] += 1
        self.op_time[key] += seconds
        if self._stack:
            span = self.spans[self._stack[-1]]
            span[4] += seconds
            self.op_by_span[(span[0], op)] += 1

    @contextmanager
    def pause(self):
        """Let checks run through the wrappers without being recorded."""
        prev, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = prev

    @contextmanager
    def in_phase(self, phase: str):
        prev, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = prev

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def self_times(self) -> dict:
        out = defaultdict(float)
        for name, start, end, _parent, covered in self.spans:
            out[name] += end - start - covered
        return out


def _wrap(name: str, fn, rec: SpanRecorder):
    phase = PHASE_OF.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.paused:
            return fn(*args, **kwargs)
        idx = rec.enter(name)
        prev = rec.phase
        if phase is not None and prev is None:
            rec.phase = phase
        try:
            return fn(*args, **kwargs)
        finally:
            rec.phase = prev
            rec.exit(idx)

    return wrapper


def _wrap_share_check(name: str, fn, rec: SpanRecorder):
    """verify_share_decryption(group, pk, ct, share, proof, context): also
    count distinct (ciphertext, share) pairs for protocol.reverify_ratio."""
    inner = _wrap(name, fn, rec)

    @functools.wraps(fn)
    def wrapper(group, pk, ct, share, *rest, **kwargs):
        if not rec.paused:
            rec.share_checks += 1
            rec.distinct_shares.add((ct, share))
        return inner(group, pk, ct, share, *rest, **kwargs)

    return wrapper


def instrument(fd, rec: SpanRecorder):
    """Wrap every public function of the measured layers; returns a callable
    that puts the original functions back."""
    wrapped = {}
    for layer in LAYERS:
        mod = getattr(fd, layer)
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                make = _wrap_share_check if name == "nizk.verify_share_decryption" else _wrap
                wrapped[obj] = make(name, obj, rec)
    originals = []
    for mod in fd.modules:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                originals.append((mod, attr, obj))
                setattr(mod, attr, wrapped[obj])

    def restore():
        for mod, attr, obj in originals:
            setattr(mod, attr, obj)

    return restore


class CountingGroup:
    """Group proxy that tallies and times each op kind per phase and hands
    back the inner group's elements unchanged. `div` and `base_exp` are ops
    of their own: the inner group's nested `mul`/`exp` calls are not seen."""

    def __init__(self, inner, rec: SpanRecorder):
        self.inner = inner
        self.name = inner.name
        self.order = inner.order
        self._rec = rec
        for op in GROUP_OPS:
            setattr(self, op, self._counted(op, getattr(inner, op)))

    def _counted(self, op, method):
        rec = self._rec

        def call(*args):
            if rec.paused:
                return method(*args)
            start = perf_counter()
            result = method(*args)
            rec.group_op(op, perf_counter() - start)
            return result

        return call

    def generator(self):
        return self.inner.generator()

    def identity(self):
        return self.inner.identity()

    def scalar_bytes(self, value: int) -> bytes:
        return self.inner.scalar_bytes(value)
