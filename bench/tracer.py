"""Spans and counters around quotientlab's public boundaries, installed from outside.

`Tracer.installed()` replaces the names the CLI and library call (module
attributes and class methods) with timing wrappers and restores them on
exit; nothing under `src/` is edited.  Coarse boundaries record a span
each: name, start, end, parent index and op id, kept in memory and written
out by the worker when the run ends.  Hot per-call boundaries are counted
only (`SetFunctionOracle.evaluate`, `union_table` in the profiles module)
or counted and timed in aggregate (`Matroid.rank`), their time charged to
the enclosing span, so self times stay exact without a span per call.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass

now = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    hot: float = 0.0  # time of aggregated hot calls made directly inside

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.rank_s = 0.0
        self.op = -1
        self._stack: list[int] = []
        self._in_rank = False

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, now(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def op_span(self, op: int):
        self.op = op
        return self.span("cli.op")

    def wrap(self, name: str, fn, after=None):
        """Span around every call of fn; after(result, args) may update counts."""

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the boundaries for the duration of the block."""
        from quotientlab import cli, graphs, metric, profiles, serialize
        from quotientlab.matroid import Matroid
        from quotientlab.setfn import SetFunctionOracle

        counts = self.counts
        patches: list[tuple[object, str, object]] = []

        def patch(owner, attr, replacement):
            patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        for builder in ("example51_oracle", "complete_cycle_oracle", "gf_space_oracle",
                        "cutcap_blowup_oracle", "cut_capacity_oracle"):
            patch(cli, builder, self.wrap("sequences.build", getattr(cli, builder)))

        real_profile = cli.profile

        def profile(oracle, k, mode, strategy=profiles.EXACT):
            index = self._open("profiles.profile")
            try:
                if isinstance(strategy, profiles.Exact):
                    with self.span("setfn.fill"):
                        evaluate = oracle.evaluate
                        for mask in range(1 << oracle.size):
                            evaluate(mask)
                result = real_profile(oracle, k, mode, strategy)
            finally:
                self._close(index)
            counts["profiles.points"] += len(result)
            return result

        patch(cli, "profile", profile)

        real_union_table = profiles.union_table

        def union_table(parts):
            counts["profiles.assignments"] += 1
            return real_union_table(parts)

        patch(profiles, "union_table", union_table)

        real_evaluate = SetFunctionOracle.evaluate

        def evaluate(oracle, mask):
            counts["setfn.evals"] += 1
            return real_evaluate(oracle, mask)

        patch(SetFunctionOracle, "evaluate", evaluate)

        real_rank = Matroid.rank

        def rank(matroid, mask):
            counts["matroid.rank_calls"] += 1
            if self._in_rank:  # restrictions call their base matroid's rank
                return real_rank(matroid, mask)
            self._in_rank = True
            started = now()
            try:
                return real_rank(matroid, mask)
            finally:
                elapsed = now() - started
                self._in_rank = False
                self.rank_s += elapsed
                if self._stack:
                    self.spans[self._stack[-1]].hot += elapsed

        patch(Matroid, "rank", rank)

        def after_flats(result, args):
            counts["matroid.flat_count"] += len(result)

        patch(Matroid, "flats", self.wrap("matroid.flats", Matroid.flats, after_flats))

        def after_union(result, args):
            counts["matroid.union_calls"] += 1
            counts["matroid.union_feasible"] += result.bases is not None

        patch(profiles, "disjoint_bases",
              self.wrap("matroid.union", profiles.disjoint_bases, after_union))

        def after_directed(result, args):
            counts["metric.directed_calls"] += 1
            counts["metric.point_pairs"] += len(args[0]) * len(args[1])

        patch(metric, "directed_distance",
              self.wrap("metric.directed", metric.directed_distance, after_directed))
        patch(cli, "cauchy_diagnostic", self.wrap("metric.cauchy", cli.cauchy_diagnostic))

        def after_labeled(result, args):
            counts["graphs.cut_dist_calls"] += 1

        labeled = self.wrap("graphs.cut_dist_labeled", graphs.cut_dist_labeled, after_labeled)
        patch(graphs, "cut_dist_labeled", labeled)
        patch(cli, "cut_dist_labeled", labeled)
        patch(cli, "cut_dist_unlabeled_upper",
              self.wrap("graphs.search", cli.cut_dist_unlabeled_upper))

        def after_dumps(result, args):
            counts["serialize.bytes"] += len(result.encode("utf-8"))

        patch(serialize, "dumps", self.wrap("serialize.emit", serialize.dumps, after_dumps))
        for payload in ("profile_payload", "diagnostic_payload"):
            patch(serialize, payload, self.wrap("serialize.emit", getattr(serialize, payload)))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus what its child spans and hot calls cover."""
        out = [s.duration - s.hot for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced ops, keyed by metric name."""
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        for s, self_s in zip(self.spans, self.self_times()):
            total[s.name] += s.duration
            own[s.name] += self_s
        c = self.counts

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        return {
            "cli.op_s": total["cli.op"],
            "cli.self_s": own["cli.op"],
            "sequences.build_s": total["sequences.build"],
            "setfn.evals": c["setfn.evals"],
            "setfn.fill_s": total["setfn.fill"],
            "setfn.evals_per_s": ratio(c["setfn.evals"], total["profiles.profile"]),
            "matroid.rank_calls": c["matroid.rank_calls"],
            "matroid.rank_s": self.rank_s,
            "matroid.flats_s": total["matroid.flats"],
            "matroid.flat_count": c["matroid.flat_count"],
            "matroid.union_calls": c["matroid.union_calls"],
            "matroid.union_s": total["matroid.union"],
            "matroid.union_feasible_ratio": ratio(c["matroid.union_feasible"],
                                                  c["matroid.union_calls"]),
            "profiles.assignments": c["profiles.assignments"],
            "profiles.points": c["profiles.points"],
            "profiles.distinct_ratio": ratio(c["profiles.points"], c["profiles.assignments"]),
            "profiles.self_s": own["profiles.profile"],
            "profiles.assign_per_s": ratio(c["profiles.assignments"], own["profiles.profile"]),
            "metric.directed_calls": c["metric.directed_calls"],
            "metric.point_pairs": c["metric.point_pairs"],
            "metric.hausdorff_s": total["metric.cauchy"],
            "metric.pairs_per_s": ratio(c["metric.point_pairs"], total["metric.cauchy"]),
            "graphs.cut_dist_calls": c["graphs.cut_dist_calls"],
            "graphs.cut_dist_s": total["graphs.cut_dist_labeled"],
            "graphs.search_self_s": own["graphs.search"],
            "serialize.emit_s": total["serialize.emit"],
            "serialize.bytes": c["serialize.bytes"],
        }

    def span_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op,
             "hot": s.hot}
            for s in self.spans
        ]
