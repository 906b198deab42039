"""Import the program under test from the checkout's `src/`, never from an
installed copy, and re-import it from scratch on request so that set-up
time includes whatever the package does at import."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The measured layers, in dependency order. `groups` is measured through
# the counting proxy rather than by wrapping functions; `cli` is argparse
# around run_ceremony/run_election/run_sweep and is not measured.
LAYERS = ("shamir", "pke", "nizk", "protocol", "board", "transcripts",
          "voting", "election", "simulate", "costmodel")


class ProgramMissing(Exception):
    pass


def load_fdkg() -> SimpleNamespace:
    """Fresh import of every fdkg module; returns them as attributes plus
    `modules`, the list of all of them."""
    if not (SRC / "fdkg" / "__init__.py").is_file():
        raise ProgramMissing(f"no fdkg package under {SRC}")
    for name in [m for m in sys.modules if m == "fdkg" or m.startswith("fdkg.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("fdkg")
    if Path(pkg.__file__).resolve().parent != (SRC / "fdkg").resolve():
        raise ProgramMissing(f"fdkg imported from {pkg.__file__}, not {SRC}")
    ns = SimpleNamespace(groups=importlib.import_module("fdkg.groups"))
    for layer in LAYERS:
        setattr(ns, layer, importlib.import_module(f"fdkg.{layer}"))
    ns.modules = [ns.groups] + [getattr(ns, layer) for layer in LAYERS]
    return ns
