"""Child process of the benchmark: one timed tagsplit run, result as JSON.

  python3 perfbench/invoke.py cluster OUT.json [--trace] -- CLUSTER_ARGS...
  python3 perfbench/invoke.py setup OUT.json [--reps N] -- CLUSTER_ARGS...

Run from the checkout root with PYTHONPATH=src.  ``cluster`` calls
``tagsplit.cli.main(["cluster", *CLUSTER_ARGS])`` and records its time
(total_s), the time inside ``build_pipeline`` (text to BigramStore,
setup_s) and inside ``cluster()`` (cluster_s), the exit code and the
process's peak RSS.  ``setup`` runs only ``build_pipeline`` on the same
arguments, N times (default 1).

The times are host-scaled seconds from a HostClock (see hostclock.py),
with plain seconds beside them as raw_*.  Plain seconds leave out the
HostClock's own samples, and so do the traced self times.

With --trace, timing wrappers are patched over the functions the CLI and
the splitter call (see TRACED); each reports self time (its own time
minus that of traced calls made inside it) and a call count.  Without
--trace only build_pipeline and cluster are wrapped, one call each.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

from hostclock import HostClock
from tagsplit import bigram, cli, splitter

# (owner, attribute, span name); the owner's attribute is replaced by a
# wrapper that looks its callee up at patch time
TRACED = [
    (cli, "tokenize", "corpus.tokenize"),
    (cli, "build_vocabulary", "corpus.build_vocabulary"),
    (cli, "count_bigrams", "bigram.count_bigrams"),
    (cli, "write_tags_tsv", "cli.write_outputs"),
    (cli, "write_stats_csv", "cli.write_outputs"),
    (cli, "write_manifest", "cli.write_outputs"),
    (splitter, "class_matrix", "bigram.class_matrix"),
    (splitter, "acmi", "objective.acmi"),
    (splitter, "delta_acmi", "objective.delta_acmi"),
    (splitter, "pair_before_sum", "objective.pair_before_sum"),
    (splitter, "apply_move", "bigram.apply_move"),
    (splitter, "run_level", "splitter.run_level"),
    (bigram.ContextBank, "__init__", "bigram.context_bank_build"),
    (bigram.ContextBank, "move", "bigram.context_bank_move"),
    (splitter.ClusterState, "__init__", "splitter.state_build"),
    (splitter.ClusterState, "commit", "splitter.commit"),
    (splitter.ClusterState, "retract", "splitter.retract"),
]


class Tracer:
    """Self time and call count per span name; per level for some spans."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.by_level: dict[tuple[str, int], float] = defaultdict(float)
        self.level = 0
        self.bank_bytes = 0
        self.iterations = 0
        self.capped_levels = 0
        self._stack = [0.0]  # traced time spent in children of each open span

    def exclude(self, seconds: float) -> None:
        """Count `seconds` spent inside the open span as nobody's self time."""
        self._stack[-1] += seconds

    def wrap(self, name: str, fn, before=None, after=None, per_level=False):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                own = dt - stack.pop()
                stack[-1] += dt
                self.self_s[name] += own
                self.calls[name] += 1
                if per_level:
                    self.by_level[(name, self.level)] += own
                    self.by_level[(name + ".incl", self.level)] += dt
            if after is not None:
                after(out, args)
            return out

        return traced

    def _enter_level(self, args, kwargs) -> None:
        self.level = int(kwargs["level"] if "level" in kwargs else args[3])

    def _bank_built(self, _out, args) -> None:
        bank = args[0]
        self.bank_bytes = max(self.bank_bytes, bank.left.nbytes + bank.right.nbytes)

    def _level_done(self, stats, _args) -> None:
        self.iterations += stats.iterations
        self.capped_levels += bool(stats.capped)

    def install(self) -> None:
        hooks = {
            "splitter.state_build": {"before": self._enter_level},
            "bigram.context_bank_build": {"after": self._bank_built},
            "splitter.run_level": {"after": self._level_done, "per_level": True},
            "objective.delta_acmi": {"per_level": True},
        }
        for owner, attr, name in TRACED:
            fn = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, fn, **hooks.get(name, {})))


def main(argv: list[str]) -> int:
    mode, out_path = argv[0], Path(argv[1])
    sep = argv.index("--")
    flags = argv[2:sep]
    trace = "--trace" in flags
    reps = int(flags[flags.index("--reps") + 1]) if "--reps" in flags else 1
    cluster_args = ["cluster", *argv[sep + 1 :]]
    result: dict = {}
    clock = HostClock()
    spans: dict[str, tuple[float, float]] = {}

    def timed(key, fn):
        def run(*a, **k):
            t0 = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                spans[key] = (t0, time.perf_counter())

        return run

    if mode == "setup":
        args = cli.build_parser().parse_args(cluster_args)
        boundary = "token" if args.boundary == "token" else "none"
        setup = timed("setup_s", cli.build_pipeline)
        reps_spans = []
        clock.start()
        for _ in range(reps):
            setup([Path(p) for p in args.inputs], args.top_words, args.lowercase, boundary)
            reps_spans.append(spans["setup_s"])
        clock.stop()
        result["setup_s"] = [clock.scaled(*ab) for ab in reps_spans]
        result["raw_setup_s"] = [clock.raw(*ab) for ab in reps_spans]
        result["slowness"] = clock.slowness()
    else:
        tracer = Tracer()
        if trace:
            tracer.install()
            clock.on_sample = tracer.exclude
        cli.build_pipeline = timed("setup_s", cli.build_pipeline)
        if trace:
            cli.cluster = tracer.wrap("splitter.cluster", cli.cluster)
        cli.cluster = timed("cluster_s", cli.cluster)
        clock.start()
        t0 = time.perf_counter()
        rc = cli.main(cluster_args)
        spans["total_s"] = (t0, time.perf_counter())
        clock.stop()
        result["rc"] = rc
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for key, (a, b) in spans.items():
            result[key] = clock.scaled(a, b)
            result["raw_" + key] = clock.raw(a, b)
        result["slowness"] = clock.slowness()
        if trace:
            result["trace"] = {
                "self_s": tracer.self_s,
                "calls": tracer.calls,
                "by_level": {f"{n}.L{lv:02d}": t for (n, lv), t in tracer.by_level.items()},
                "bank_bytes": tracer.bank_bytes,
                "iterations": tracer.iterations,
                "capped_levels": tracer.capped_levels,
            }
    out_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
