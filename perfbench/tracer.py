"""Spans around the public functions of v2gdispatch, recorded from outside the package.

A traced pass replaces each function under the name its caller looks it up
by (``from .x import y`` binds a module-level name, so
``v2gdispatch.orchestrator.shuffle_round`` is what ``run_optimization``
calls) and each method on its class. Every call records one span: name
index, parent span, start and end, kept in compact arrays in memory. A
layer's self time is its spans' total duration minus the time of their
direct children. Counters that only exist at a boundary (masking exposure,
envelopes per round, bytes exported, oracle calls) are gathered by hooks
that run in a ``trace.bookkeeping`` span, so their cost is not charged to
the caller's self time. All replacements are undone on exit.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from array import array
from collections import defaultdict

import numpy as np

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._bookkeeping = self.name_index(BOOKKEEPING)

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(result, args, kwargs)``
        runs after the span closes, inside a bookkeeping span."""
        name_id = self.name_index(name)
        # begin() and finish() inlined: this wrapper runs ~10^5 times per unit
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                b = self.begin(self._bookkeeping)
                try:
                    after(result, args, kwargs)
                finally:
                    self.finish(b)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms (inclusive) and self ms."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": float(calls[i]), "ms": total[i] * 1e3, "self_ms": own[i] * 1e3}
            for i, name in enumerate(self.names)
        }


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples; restore the old values on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


class EpochLog:
    """Boundary wrapper around ``run_optimization``: one entry per epoch.

    Installed on every name the benchmark and the library call it by, in the
    untraced and the traced pass alike, so both passes see the same epochs.
    It marks the speed clock before and after each call, so an epoch's time
    is corrected by the machine speed measured right next to it.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.epochs: list[tuple[float, float, float, object]] = []  # (raw ms, ms, rate, record)

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            first = self.clock.mark()
            rate, record = fn(*args, **kwargs)
            raw, corrected = self.clock.between(first, self.clock.mark())
            self.epochs.append((raw * 1e3, corrected * 1e3, rate, record))
            return rate, record

        return timed

    def replacements(self, vd):
        return [
            (vd.orchestrator, "run_optimization", self.wrap(vd.orchestrator.run_optimization)),
            (vd.harness, "run_optimization", self.wrap(vd.harness.run_optimization)),
        ]


def instrument(tracer: Tracer, vd, clock):
    """Replacement triples that route every layer boundary through ``tracer``.

    The speed clock's marks become bookkeeping spans too: the epoch log runs
    them inside ``run_scenario`` and ``compare_solvers``, whose self time
    must not include them.
    """
    c = tracer.counters
    last_round = {}

    def on_deliver(inboxes, args, kwargs):
        c["topology.rounds"] += 1
        c["topology.envelopes"] += len(args[0])
        last_round["envelopes"] = args[0]

    def on_shuffle(masked, args, kwargs):
        # a reported value equal to the private one is unmasked; an (agent,
        # candidate) slot no share arrived at reports a fraction of its own value
        values = args[0]
        agents = list(masked)
        private = np.stack([np.asarray(values[a]) for a in agents])
        reported = np.stack([masked[a] for a in agents])
        c["shuffle.unmasked"] += int(np.count_nonzero(reported == private))
        c["shuffle.values"] += private.size
        row = {a: i for i, a in enumerate(agents)}
        received = np.zeros(private.shape, dtype=bool)
        for env in last_round.pop("envelopes", ()):
            received[row[env.recipient], env.payload[0]] = True
        c["topology.in_degree0"] += received.size - int(np.count_nonzero(received))
        c["topology.slots"] += received.size

    def on_epoch(result, args, kwargs):
        _, record = result
        c["costs.oracle_calls"] += record.oracle_calls_ev + record.oracle_calls_agg
        c["orchestrator.iterations"] += len(record.iterations)

    def on_export(result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        c["records.export_run.bytes"] += os.path.getsize(path)

    fitness_wrap = functools.partial(tracer.wrap, "baselines.fitness")

    def make_fitness(fn):
        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return fitness_wrap(fn(*args, **kwargs))

        return factory

    o, s, h, b = vd.orchestrator, vd.shuffle, vd.harness, vd.baselines
    w = tracer.wrap
    table = [
        (vd.config, "build_instance", "config.build_instance", None),
        (vd.costs.CostOracle, "evaluate_many", "costs.evaluate_many", None),
        (vd.costs, "consensus_objective", "costs.consensus_objective", None),
        (h, "consensus_objective", "costs.consensus_objective", None),
        (o, "to_units_array", "shuffle.to_units_array", None),
        (o, "shuffle_round", "shuffle.shuffle_round", on_shuffle),
        (o, "candidate_totals", "shuffle.candidate_totals", None),
        (o, "from_units_array", "shuffle.from_units_array", None),
        (o, "build_topology", "topology.build_topology", None),
        (s, "deliver_round", "topology.deliver_round", on_deliver),
        (o, "init_pool", "dwoa.init_pool", None),
        (o, "advance_pool", "dwoa.advance_pool", None),
        (vd.dwoa.WhalePool, "record_evaluation", "dwoa.record_evaluation", None),
        (o, "ecn_select_best", "orchestrator.ecn_select_best", None),
        (o, "run_optimization", "orchestrator.run_optimization", on_epoch),
        (h, "run_optimization", "orchestrator.run_optimization", on_epoch),
        (o, "run_scenario", "orchestrator.run_scenario", None),
        (o, "apply_discharge", "fleet.apply_discharge", None),
        (o, "available_ids", "fleet.available_ids", None),
        (vd.topology, "available_ids", "fleet.available_ids", None),
        (h, "available_ids", "fleet.available_ids", None),
        (o, "grid_power_kw", "fleet.grid_power_kw", None),
        (vd.records, "export_run", "records.export_run", on_export),
        (vd.records, "import_run", "records.import_run", None),
        (h, "oracle_rate", "harness.oracle_rate", None),
        (h, "compare_solvers", "harness.compare_solvers", None),
        (h, "cwoa_solve", "baselines.cwoa_solve", None),
        (h, "gwo_solve", "baselines.gwo_solve", None),
    ]
    replacements = [(owner, attr, w(name, getattr(owner, attr), hook))
                    for owner, attr, name, hook in table]
    replacements += [
        (clock, "mark", w(BOOKKEEPING, clock.mark)),
        (h, "make_penalized_fitness", make_fitness(h.make_penalized_fitness)),
        (b, "make_penalized_fitness", make_fitness(b.make_penalized_fitness)),
    ]
    return replacements
