"""Spans and counters recorded around the program's public functions.

The program's modules bind each other's functions with `from .x import y`,
so a function is wrapped at every name a caller looks it up by, not only
where it is defined. Wrappers are installed only inside `Tracer.installed()`
and the originals are put back on exit, so untraced calls run the program
unmodified. Names a future version of the program no longer has are skipped
and listed in `Tracer.missing`.

Spans are kept in memory as (id, parent, root, scenario, name, start_ns,
end_ns) tuples and written out once, at the end of a run. High-frequency
leaf functions are counted, not spanned, to keep the overhead low.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
from collections import defaultdict
from contextlib import contextmanager

from fairselect import baselines, fass, lex_transform, model, oracle, scenario_io

SPAN_FIELDS = ("span_id", "parent_id", "root_id", "scenario", "name", "start_ns", "end_ns")


def _lp_shape(args, kwargs, result):
    lp = args[0]
    slacks = sum(1 for _, relation, _ in lp.rows if relation == "<=")
    lex_costs = kwargs.get("lex_costs")
    cost_rows = 1 if lex_costs is None else lex_costs.shape[0]
    return {
        "rows": lp.num_rows,
        "cols": lp.num_vars,
        "iterations": result.iterations,
        # dense tableau: (rows + cost rows) x (cols + slacks + rhs) float64
        "tableau_bytes": (lp.num_rows + cost_rows) * (lp.num_vars + slacks + 1) * 8,
    }


def _quantize_result(args, kwargs, result):
    return {"doublings": result.doublings, "step": result.step}


def _cost_rows_result(args, kwargs, result):
    return {"levels": result.shape[0]}


def _bnb_result(args, kwargs, result):
    return {"nodes": result.nodes, "branches": result.branches}


def _oracle_result(args, kwargs, result):
    return {"feasible_plans": result.feasible_count}


def _fass_result(args, kwargs, result):
    return {"rounds": len(result.trace.rounds)}


# (module, attribute, span name, observer) for every lookup site
SPANS = [
    (fass, "run_fass", "fass.run_fass", _fass_result),
    (baselines, "revenue_max", "baselines.revenue_max", None),
    (baselines, "ip_iterative", "baselines.ip_iterative", None),
    (baselines, "randomized_mean", "baselines.randomized_mean", None),
    (baselines, "branch_and_bound_lp", "baselines.bnb", _bnb_result),
    (scenario_io, "generate_scenario", "scenario_io.generate_scenario", None),
    (oracle, "brute_force_mmf", "oracle.brute_force_mmf", _oracle_result),
    (model, "saturating_matching", "model.saturating_matching", None),
    (fass, "saturating_matching", "model.saturating_matching", None),
    (baselines, "saturating_matching", "model.saturating_matching", None),
    (fass, "check_feasible", "model.check_feasible", None),
    (lex_transform, "candidate_triples", "lex_transform.candidate_triples", None),
    (fass, "candidate_triples", "lex_transform.candidate_triples", None),
    (baselines, "candidate_triples", "lex_transform.candidate_triples", None),
    (fass, "quantize", "lex_transform.quantize", _quantize_result),
    (baselines, "quantize", "lex_transform.quantize", _quantize_result),
    (fass, "build_reduced_subproblem_lp", "lex_transform.build_lp", None),
    (baselines, "build_reduced_subproblem_lp", "lex_transform.build_lp", None),
    (fass, "assignment_block", "lex_transform.verify", None),
    (fass, "verify_row_partition", "lex_transform.verify", None),
    (
        lex_transform.LambdaLayout,
        "lex_cost_rows",
        "lex_transform.lex_cost_rows",
        _cost_rows_result,
    ),
    (fass, "round_to_plan", "lex_transform.round_to_plan", None),
    (baselines, "round_to_plan", "lex_transform.round_to_plan", None),
    (fass, "solve", "simplex.solve", _lp_shape),
    (baselines, "solve", "simplex.solve", _lp_shape),
]

# (module, attribute, counter name); the counter also records truthy results
COUNTERS = [
    (model, "assignment_payment", "model.assignment_payment"),
    (lex_transform, "assignment_payment", "model.assignment_payment"),
    (baselines, "randomized", "baselines.randomized"),
    (scenario_io, "has_saturating_matching", "scenario_io.authorization_draw"),
]


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        # (name, root name) -> [calls, truthy results]
        self.counts: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        # (name, root name) -> observed per-call values
        self.observed: dict[tuple[str, str], list[dict]] = defaultdict(list)
        self.scenario = -1
        self.missing: list[str] = []
        self._stack: list[tuple[int, int, str]] = []  # (span id, root id, root name)
        self._next_id = 0
        self._patches = []
        for owner, attr, name, observe in SPANS:
            self._add_patch(owner, attr, lambda fn, n=name, o=observe: self._span(n, fn, o))
        for owner, attr, name in COUNTERS:
            self._add_patch(owner, attr, lambda fn, n=name: self._counter(n, fn))

    def _add_patch(self, owner, attr, make_wrapper):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original, make_wrapper(original)))

    @contextmanager
    def installed(self, scenario: int = -1):
        """Route calls through the wrappers; restore the originals on exit."""
        self.scenario = scenario
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)

    def _root_name(self) -> str:
        return self._stack[0][2] if self._stack else "setup"

    def _span(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            if self._stack:
                parent, root = self._stack[-1][:2]
                root_name = self._stack[0][2]
            else:
                parent, root, root_name = -1, span_id, name
            self._stack.append((span_id, root, root_name))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, parent, root, self.scenario, name, start, end))
            if observe is not None:
                self.observed[name, root_name].append(observe(args, kwargs, result))
            return result

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            entry = self.counts[name, self._root_name()]
            entry[0] += 1
            entry[1] += bool(result)
            return result

        return wrapper

    def write(self, path) -> None:
        """Write every span as gzip-compressed CSV."""
        with gzip.open(path, "wt", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(SPAN_FIELDS)
            writer.writerows(self.spans)


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other; the covered time is the sum of their durations.
    """
    own = {span[0]: span[6] - span[5] for span in spans}
    for span in spans:
        if span[1] in own:
            own[span[1]] -= span[6] - span[5]
    return own


class Summary:
    """Totals over a traced run, per span name, optionally under one entry point.

    `root` names the entry-point span a call ran under (e.g. "fass.run_fass");
    None takes every root, including set-up calls.
    """

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._own = self_times(tracer.spans)
        root_name = {s[0]: s[4] for s in tracer.spans if s[1] == -1}
        self._ids: dict[tuple[str, str], list[int]] = defaultdict(list)
        for s in tracer.spans:
            self._ids[s[4], root_name[s[2]]].append(s[0])

    @staticmethod
    def _pick(table, name, root):
        return [v for (n, r), v in table.items() if n == name and root in (None, r)]

    def self_ms(self, name, root=None) -> float:
        """Summed self time of the named spans."""
        return sum(self._own[i] for ids in self._pick(self._ids, name, root) for i in ids) / 1e6

    def calls(self, name, root=None) -> int:
        return sum(len(ids) for ids in self._pick(self._ids, name, root))

    def subtree_ms(self, root) -> float:
        """Summed self time of every span under the named entry point, itself included."""
        return sum(self._own[i] for (_, r), ids in self._ids.items() if r == root for i in ids) / 1e6

    def span_ms(self, name) -> float:
        """Summed duration of the named spans."""
        return sum(s[6] - s[5] for s in self._tracer.spans if s[4] == name) / 1e6

    def values(self, name, field, root=None) -> list:
        """One observed field of every call of the named span."""
        picked = self._pick(self._tracer.observed, name, root)
        return [o[field] for observed in picked for o in observed]

    def counted(self, name, root=None) -> tuple[int, int]:
        """Calls and truthy results of a counted function."""
        entries = self._pick(self._tracer.counts, name, root)
        return sum(e[0] for e in entries), sum(e[1] for e in entries)
