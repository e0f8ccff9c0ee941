"""Per-layer tracing for the benchmark's traced runs.

Only `episode.py --trace 1` imports this module; an untraced episode never
loads it, so the end-to-end figures are measured on unwrapped code. It wraps
module attributes that the program calls through, from the outside:

- `vrrw.campaign._batch_walk`, `equilibrium_anchors`, `_nearest` and
  `_detect_from_tail_counts`: time per phase of `run_campaign`;
- `vrrw.dynamics._field_array`, `project_to_simplex` and `lyapunov`: calls
  made by `integrate_flow`;
- `vrrw.rubin.np`, during the trap part only: exponentials drawn by
  `sample_trap_event`.

A target that no longer exists is listed in `missing`, and the metrics built
on it are left out instead of failing the run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

CAMPAIGN_PHASES = {
    "_batch_walk": "walk",
    "equilibrium_anchors": "anchor",
    "_nearest": "nearest",
    "_detect_from_tail_counts": "detect",
}
FLOW_CALLS = {"_field_array": "field", "project_to_simplex": "projection", "lyapunov": "lyapunov"}
_EXPONENTIAL_METHODS = ("standard_exponential", "exponential")


class _CountingGenerator:
    """A numpy Generator that adds the size of every exponential draw to a
    tally; all other methods pass through."""

    def __init__(self, gen, tally):
        self._gen = gen
        self._tally = tally

    def __getattr__(self, name):
        method = getattr(self._gen, name)
        if name not in _EXPONENTIAL_METHODS:
            return method

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            self._tally["exponentials"] = self._tally.get("exponentials", 0) + int(np.size(out))
            return out

        return counted


class _Delegate:
    """Attribute-for-attribute stand-in for a module, with overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Accumulates seconds and calls per wrapped target, split by benchmark
    part, and the number of anchors `equilibrium_anchors` returned."""

    def __init__(self):
        self.seconds = {}
        self.calls = {}
        self.sizes = {}
        self.missing = set()
        self.parts = {}

    def _wrap(self, module, name, key):
        orig = getattr(module, name, None)
        if not callable(orig):
            self.missing.add(key)
            return

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                self.seconds[key] = self.seconds.get(key, 0.0) + time.perf_counter() - t0
                self.calls[key] = self.calls.get(key, 0) + 1
            if key == "anchor":
                self.sizes[key] = len(out)
            return out

        setattr(module, name, traced)

    def install(self):
        import vrrw.campaign
        import vrrw.dynamics

        for name, key in CAMPAIGN_PHASES.items():
            self._wrap(vrrw.campaign, name, key)
        for name, key in FLOW_CALLS.items():
            self._wrap(vrrw.dynamics, name, key)

    @contextmanager
    def part(self, name):
        """Add the seconds and calls spent inside one benchmark part to that
        part's totals; a part may be entered once per round."""
        seconds, calls = dict(self.seconds), dict(self.calls)
        restore = self._count_exponentials() if name == "trap" else None
        try:
            yield
        finally:
            if restore is not None:
                restore()
            totals = self.parts.setdefault(name, {"seconds": {}, "calls": {}})
            for k, v in self.seconds.items():
                totals["seconds"][k] = totals["seconds"].get(k, 0.0) + v - seconds.get(k, 0.0)
            for k, v in self.calls.items():
                totals["calls"][k] = totals["calls"].get(k, 0) + v - calls.get(k, 0)

    def _count_exponentials(self):
        import vrrw.rubin

        real = getattr(vrrw.rubin, "np", None)
        if real is not np:
            self.missing.add("exponentials")
            return None
        tally = self.calls
        tally.setdefault("exponentials", 0)
        random = _Delegate(np.random, Generator=lambda bits: _CountingGenerator(np.random.Generator(bits), tally))
        vrrw.rubin.np = _Delegate(np, random=random)

        def restore():
            vrrw.rubin.np = real

        return restore

    def seconds_in(self, part, key):
        """Seconds in a wrapped target during a part, or None if missing."""
        if key in self.missing or part not in self.parts:
            return None
        return self.parts[part]["seconds"].get(key, 0.0)

    def calls_in(self, part, key):
        """Calls of a wrapped target during a part, or None if missing."""
        if key in self.missing or part not in self.parts:
            return None
        return self.parts[part]["calls"].get(key, 0)
