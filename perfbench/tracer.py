"""Per-layer tracing of `garchmc run`, installed from outside the package.

`install()` replaces functions of the imported `garchmc` modules with
wrappers that keep, per layer, the call count, the total time and the self
time (total minus the time spent in wrapped callees).  Spans are folded
into these counters as they close, so the trace stays small however many
draws the chain makes; it is written out once, when the run ends.

A wrapped name that no longer exists is reported as an absent layer and the
run goes on without it.
"""

from __future__ import annotations

import importlib
import math
from time import perf_counter

# Writers of report files.  `_atomic_write` is only a layer of its own where
# `cli.run` calls it directly (summary.json, summary.txt); inside another
# writer its time belongs to that writer.
WRITERS = (
    "cli._write_samples_csv",
    "cli._write_acf_csv",
    "cli._write_acceptance_csv",
    "cli._write_moments_json",
    "cli.write_news_impact_csv",
)

# (layer, module, attribute path) of every plain wrapper.
LAYERS = (
    ("cli.run", "garchmc.cli", "run"),
    ("data.load", "garchmc.cli", "_load_input"),
    ("sampler.run_adaptive", "garchmc.cli", "run_adaptive"),
    ("sampler.warmup", "garchmc.sampler", "metropolis_warmup"),
    ("sampler.mh_step", "garchmc.sampler", "mh_step"),
    ("proposal.estimate_moments", "garchmc.sampler", "estimate_moments"),
    ("proposal.build_proposal", "garchmc.sampler", "build_proposal"),
    ("proposal.draw", "garchmc.proposal", "StudentTProposal.draw"),
    ("proposal.log_density", "garchmc.proposal", "StudentTProposal.log_density"),
    ("diagnostics.summarize", "garchmc.diagnostics", "summarize"),
    *((name, "garchmc.cli", name.split(".", 1)[1]) for name in WRITERS),
    ("cli._atomic_write", "garchmc.cli", "_atomic_write"),
)


class Tracer:
    """Count / total / self time per layer, plus a few computed counts."""

    def __init__(self):
        self.layers: dict[str, list] = {}  # name -> [count, total_s, self_s]
        self.counts: dict[str, int] = {
            "target_offsupport": 0,
            "mh_accepted": 0,
            "moment_rows": 0,
            "jittered": 0,
            "data_rows": 0,
        }
        self.absent: list[str] = []
        self._stack: list[list] = []  # open spans: [name, time in wrapped callees]

    def wrap(self, name, fn, after=None):
        stats = self.layers.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        nested_only = name == "cli._atomic_write"

        def traced(*args, **kwargs):
            if nested_only and stack and stack[-1][0] in WRITERS:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # Hooks that derive counts from a layer's arguments and result.

    def _after_target(self, args, kwargs, result):
        if result == -math.inf:
            self.counts["target_offsupport"] += 1

    def _after_load(self, args, kwargs, result):
        self.counts["data_rows"] += len(result)

    def _after_mh_step(self, args, kwargs, result):
        self.counts["mh_accepted"] += bool(result[1])

    def _after_moments(self, args, kwargs, result):
        self.counts["moment_rows"] += len(args[0])

    def _after_build(self, args, kwargs, result):
        import numpy as np

        moments = args[0]
        nu = args[1] if len(args) > 1 else kwargs.get("nu", 10.0)
        v = np.asarray(moments.second_central, dtype=float)
        unjittered = (nu - 2.0) / nu * ((v + v.T) / 2.0)
        self.counts["jittered"] += not np.array_equal(result.sigma, unjittered)

    def install(self) -> None:
        """Wrap every layer of the already imported `garchmc` package."""
        hooks = {
            "data.load": self._after_load,
            "sampler.mh_step": self._after_mh_step,
            "proposal.estimate_moments": self._after_moments,
            "proposal.build_proposal": self._after_build,
        }
        for name, module, path in LAYERS:
            self._patch(name, module, path, hooks.get(name))
        self._patch_target()

    def _patch(self, name, module, path, after=None, make=None) -> None:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        setattr(owner, attr, make(fn) if make else self.wrap(name, fn, after))

    def _patch_target(self) -> None:
        # The posterior is a closure built per run; wrap what the factory returns.
        def make(factory):
            def log_posterior_fn(*args, **kwargs):
                return self.wrap("model.target", factory(*args, **kwargs), self._after_target)

            return log_posterior_fn

        self._patch("model.target", "garchmc.model", "log_posterior_fn", make=make)

    def report(self) -> dict:
        return {
            "layers": {k: {"count": c, "total_s": t, "self_s": s} for k, (c, t, s) in self.layers.items()},
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }
