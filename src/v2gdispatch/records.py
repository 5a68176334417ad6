"""Run traces and their CSV round-trip.

A RunRecord holds one row per optimization iteration and one row per
simulated time step, stored as columns: iterations in one segment per run of
consecutive iterations of an epoch (selected index, best rate, best total),
steps as time, rate and grid power, plus every EV's SOC (by id) at each
step, held losslessly in ``SocSeries`` (a step's SOC costs bytes only where
the discharge pattern changes). Rows are
``IterationRow`` / ``StepRow`` objects built on access; step rows are built
only by iterating a ``StepLog``, which is written through ``add``. The CSV is
append-ordered, versioned and fully deterministic: floats are written with
repr (shortest exact round-trip), so export -> import -> export reproduces
the file byte for byte; a step without SOC has an empty soc field.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

FORMAT_TAG = "# v2g-run-record v1"
HEADER = (
    "kind,epoch,iteration,selected_index,best_rate_kw,best_total_cost,"
    "available,time_h,rate_kw,grid_power_kw,soc,note"
)
_N_COLS = len(HEADER.split(","))


@dataclass(frozen=True)
class IterationRow:
    """Optimizer state after one protocol iteration."""

    epoch: int
    k: int
    selected_index: int
    best_rate_kw: float
    best_total_cost: float
    n_available: int


@dataclass(frozen=True)
class StepRow:
    """Fleet state at the start of one time step, before discharging.

    ``soc`` holds every EV's SOC by id, or is empty when not recorded.
    """

    time_h: float
    rate_kw: float
    grid_power_kw: float
    soc: tuple[float, ...] = ()


class IterationSegment:
    """Iterations k0, k0 + 1, ... of one epoch at one fleet size, as columns.

    Columns given at construction are copied into exactly sized arrays.
    """

    __slots__ = ("epoch", "n_available", "k0", "selected_index", "best_rate_kw", "best_total_cost")

    def __init__(self, epoch: int, n_available: int, k0: int = 0,
                 selected_index=(), best_rate_kw=(), best_total_cost=()):
        self.epoch, self.n_available, self.k0 = epoch, n_available, k0
        self.selected_index = array("i", selected_index)  # a candidate index
        self.best_rate_kw = array("d", best_rate_kw)
        self.best_total_cost = array("d", best_total_cost)
        if not len(self.selected_index) == len(self.best_rate_kw) == len(self.best_total_cost):
            raise ValueError("iteration columns differ in length")

    def append(self, selected_index: int, best_rate_kw: float, best_total_cost: float) -> None:
        self.selected_index.append(selected_index)
        self.best_rate_kw.append(best_rate_kw)
        self.best_total_cost.append(best_total_cost)

    def __len__(self) -> int:
        return len(self.selected_index)

    def row(self, j: int) -> IterationRow:
        return IterationRow(self.epoch, self.k0 + j, self.selected_index[j],
                            self.best_rate_kw[j], self.best_total_cost[j], self.n_available)

    def copy(self) -> "IterationSegment":
        return IterationSegment(self.epoch, self.n_available, self.k0, self.selected_index,
                                self.best_rate_kw, self.best_total_cost)


def _locate(index, n: int) -> int:
    i = int(index)
    if i < 0:
        i += n
    if not 0 <= i < n:
        raise IndexError(f"row {index} out of range for {n} rows")
    return i


class IterationLog(Sequence):
    """A record's iteration rows: a list of segments, rows built on access."""

    __slots__ = ("segments",)

    def __init__(self):
        self.segments: list[IterationSegment] = []

    def append(self, row: IterationRow) -> None:
        last = self.segments[-1] if self.segments else None
        if (last is None or (last.epoch, last.n_available) != (row.epoch, row.n_available)
                or row.k != last.k0 + len(last)):
            last = IterationSegment(row.epoch, row.n_available, row.k)
            self.segments.append(last)
        last.append(row.selected_index, row.best_rate_kw, row.best_total_cost)

    def extend(self, other: "IterationLog") -> None:
        self.segments.extend(segment.copy() for segment in other.segments)

    def __len__(self) -> int:
        return sum(len(segment) for segment in self.segments)

    def __getitem__(self, index) -> IterationRow:
        i = _locate(index, len(self))
        for segment in self.segments:
            if i < len(segment):
                return segment.row(i)
            i -= len(segment)
        raise AssertionError("unreachable")

    def __iter__(self):
        for segment in self.segments:
            for j in range(len(segment)):
                yield segment.row(j)


class SocSeries:
    """Equal-length per-EV SOC rows of consecutive steps, stored losslessly.

    Each row after the first is kept as the second difference of its
    float64 bit patterns (uint64, wrapping). One discharge rate takes the
    same number of grid units off an SOC every step until the value crosses
    a power of two, so almost every second difference is 0; only the others
    are kept, as (index, value) pairs. Decoding adds them back up, which
    gives every row back bit for bit.
    """

    __slots__ = ("first", "ptr", "ids", "vals", "_last", "_step")

    def __init__(self, row: np.ndarray):
        self.first = row.view(np.uint64)
        self.ptr = array("q", [0])  # row j's pairs: ids/vals[ptr[j - 1]:ptr[j]]
        self.ids = array("i")
        self.vals = array("Q")
        self._last = self.first
        self._step = np.zeros_like(self.first)

    def __len__(self) -> int:
        return len(self.ptr)

    def append(self, row: np.ndarray) -> None:
        bits = row.view(np.uint64)
        step = bits - self._last
        changed = np.flatnonzero(step != self._step)
        self.ids.frombytes(changed.astype(np.int32).tobytes())
        self.vals.frombytes((step[changed] - self._step[changed]).tobytes())
        self.ptr.append(len(self.ids))
        self._last, self._step = bits, step

    def rows(self):
        """Each row in turn, as one float64 array updated in place."""
        ids = np.frombuffer(self.ids, dtype=np.int32)
        vals = np.frombuffer(self.vals, dtype=np.uint64)
        bits = self.first.copy()
        step = np.zeros_like(bits)
        yield bits.view(np.float64)
        for start, stop in zip(self.ptr, self.ptr[1:]):
            step[ids[start:stop]] += vals[start:stop]
            bits += step
            yield bits.view(np.float64)


class StepLog:
    """A record's step rows as columns; per-EV SOC as runs of ``SocSeries``."""

    __slots__ = ("time_h", "rate_kw", "grid_power_kw", "_soc_runs", "_run_steps")

    def __init__(self):
        self.time_h = array("d")
        self.rate_kw = array("d")
        self.grid_power_kw = array("d")
        self._soc_runs: list[SocSeries | None] = []  # None: steps without SOC
        self._run_steps = array("q")

    def add(self, time_h: float, rate_kw: float, grid_power_kw: float, soc=None) -> None:
        """Append one step; ``soc`` is every EV's SOC by id (copied), or None."""
        self.time_h.append(time_h)
        self.rate_kw.append(rate_kw)
        self.grid_power_kw.append(grid_power_kw)
        row = np.array(soc, dtype=float).reshape(-1) if soc is not None and len(soc) else None
        last = self._soc_runs[-1] if self._soc_runs else False
        if row is None and last is None:
            self._run_steps[-1] += 1
        elif row is not None and isinstance(last, SocSeries) and len(last.first) == len(row):
            last.append(row)
            self._run_steps[-1] += 1
        else:
            self._soc_runs.append(None if row is None else SocSeries(row))
            self._run_steps.append(1)

    def extend(self, other: "StepLog") -> None:
        for time_h, rate, power, soc in zip(other.time_h, other.rate_kw, other.grid_power_kw,
                                            other.soc_rows()):
            self.add(time_h, rate, power, soc)

    def __len__(self) -> int:
        return len(self.time_h)

    def soc_rows(self):
        """Every step's SOC in order: a float64 array updated in place, or None."""
        for series, n in zip(self._soc_runs, self._run_steps):
            if series is None:
                yield from (None,) * n
            else:
                yield from series.rows()

    def __iter__(self):
        for time_h, rate, power, soc in zip(self.time_h, self.rate_kw, self.grid_power_kw,
                                            self.soc_rows()):
            yield StepRow(time_h, rate, power, () if soc is None else tuple(soc.tolist()))


@dataclass(slots=True)
class RunRecord:
    """Append-only trace of one run: iterations, time steps, call accounting."""

    iterations: IterationLog = field(default_factory=IterationLog)
    steps: StepLog = field(default_factory=StepLog)
    empty_fleet: bool = False
    oracle_calls_ev: int = 0
    oracle_calls_agg: int = 0

    def extend(self, other: "RunRecord") -> None:
        self.iterations.extend(other.iterations)
        self.steps.extend(other.steps)
        self.oracle_calls_ev += other.oracle_calls_ev
        self.oracle_calls_agg += other.oracle_calls_agg
        self.empty_fleet = self.empty_fleet or other.empty_fleet


def export_run(record: RunRecord, path) -> None:
    """Write the record to a versioned CSV; see module docstring for format.

    Rows are written as they are formatted, so memory stays at one row.
    """
    with open(path, "w", newline="") as fh:
        write = fh.write
        write(f"{FORMAT_TAG}\n{HEADER}\n")
        if record.empty_fleet and not record.iterations and not record.steps:
            write("flag,,,,,,,,,,,empty_fleet\n")
        for seg in record.iterations.segments:
            for k, selected, rate, total in zip(
                range(seg.k0, seg.k0 + len(seg)), seg.selected_index, seg.best_rate_kw,
                seg.best_total_cost,
            ):
                write(f"iter,{seg.epoch},{k},{selected},{rate!r},{total!r},{seg.n_available},,,,,\n")
        steps = record.steps
        for time_h, rate, power, soc in zip(steps.time_h, steps.rate_kw, steps.grid_power_kw,
                                            steps.soc_rows()):
            soc = "" if soc is None else ";".join(map(repr, soc.tolist()))
            write(f"step,,,,,,,{time_h!r},{rate!r},{power!r},{soc},\n")


def import_run(path) -> RunRecord:
    """Parse a CSV written by export_run back into a RunRecord.

    The file is read one line at a time; lines split as ``str.splitlines``
    splits them.
    """
    record = RunRecord()
    with open(path, "r", newline="") as fh:
        lines = (line for chunk in fh for line in chunk.splitlines())
        if next(lines, None) != FORMAT_TAG:
            raise ValueError(f"{path}: not a v2g run record")
        if next(lines, None) != HEADER:
            raise ValueError(f"{path}: unexpected header")
        for lineno, line in enumerate(lines, start=3):
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != _N_COLS:
                raise ValueError(f"{path}:{lineno}: expected {_N_COLS} fields")
            kind = fields[0]
            if kind == "flag":
                if fields[11] == "empty_fleet":
                    record.empty_fleet = True
                else:
                    raise ValueError(f"{path}:{lineno}: unknown flag {fields[11]!r}")
            elif kind == "iter":
                record.iterations.append(
                    IterationRow(
                        epoch=int(fields[1]),
                        k=int(fields[2]),
                        selected_index=int(fields[3]),
                        best_rate_kw=float(fields[4]),
                        best_total_cost=float(fields[5]),
                        n_available=int(fields[6]),
                    )
                )
            elif kind == "step":
                soc = [float(s) for s in fields[10].split(";")] if fields[10] else None
                record.steps.add(float(fields[7]), float(fields[8]), float(fields[9]), soc)
            else:
                raise ValueError(f"{path}:{lineno}: unknown row kind {kind!r}")
    return record
