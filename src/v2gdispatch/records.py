"""Run traces and their CSV round-trip.

A RunRecord holds one row per optimization iteration and one row per
simulated time step, stored as columns. Iterations live in one
``IterationSegment`` per run of consecutive iterations of an epoch (selected
index, best rate, best total), and ``IterationSegment.append`` is the one way
they get there: an epoch fills its segment and hands it over, and
``import_run`` fills segments line by line. Steps are time, rate and grid
power, plus every EV's SOC (by id) at each step, held losslessly in one
``SocSeries`` (a step's SOC costs bytes only where the discharge pattern
changes) whose width the first step fixes; width 0 means no SOC. Rows are
``IterationRow`` / ``StepRow`` read views built on access; step rows are
built only by iterating a ``StepLog``, which is written through ``add``. The
CSV is append-ordered, versioned and fully deterministic: floats are written
with repr (shortest exact round-trip), so export -> import -> export
reproduces the file byte for byte; a step without SOC has an empty soc field.
The row kinds are ``iter`` and ``step``; an epoch with no available EV adds
no row. The v1 header keeps its last column, ``note``, which is always empty.
The export formats only the SOC values that changed since the step before,
compared by their float64 bits (so 0.0 / -0.0 and NaN stay exact), and
reuses the text of the others: an EV that has left keeps its SOC, and its
text, from then on.
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
_COLUMNS = HEADER.split(",")
_N_COLS = len(_COLUMNS)
# the columns each row kind leaves empty: an iter line fills 1-6, a step line 7-10
_EMPTY_COLUMNS = {"iter": (7, 8, 9, 10, 11), "step": (1, 2, 3, 4, 5, 6, 11)}


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
    """Iterations 0, 1, ... of one epoch at one fleet size, as columns.

    Starts empty; ``append`` is the only way an iteration enters a record.
    """

    __slots__ = ("epoch", "n_available", "selected_index", "best_rate_kw", "best_total_cost")

    def __init__(self, epoch: int, n_available: int):
        self.epoch, self.n_available = epoch, n_available
        self.selected_index = array("i")  # a candidate index
        self.best_rate_kw = array("d")
        self.best_total_cost = array("d")

    def append(self, selected_index: int, best_rate_kw: float, best_total_cost: float) -> None:
        self.selected_index.append(selected_index)
        self.best_rate_kw.append(best_rate_kw)
        self.best_total_cost.append(best_total_cost)

    def __len__(self) -> int:
        return len(self.selected_index)

    def row(self, j: int) -> IterationRow:
        return IterationRow(self.epoch, j, self.selected_index[j],
                            self.best_rate_kw[j], self.best_total_cost[j], self.n_available)


class IterationLog(Sequence):
    """A record's iteration rows: a list of segments, rows built on access."""

    __slots__ = ("segments",)

    def __init__(self):
        self.segments: list[IterationSegment] = []

    def __len__(self) -> int:
        return sum(len(segment) for segment in self.segments)

    def __getitem__(self, index) -> IterationRow | list[IterationRow]:
        i = range(len(self))[index]  # IndexError out of range, TypeError for a non-integer
        if isinstance(i, range):  # a slice: its rows as a list
            return [self[j] for j in i]
        for segment in self.segments:
            if i < len(segment):
                return segment.row(i)
            i -= len(segment)

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
    """A record's step rows as columns; per-EV SOC as one ``SocSeries``.

    The first step fixes the SOC width: every later step must give as many
    values, and a log whose steps carry no SOC has width 0.
    """

    __slots__ = ("time_h", "rate_kw", "grid_power_kw", "soc")

    def __init__(self):
        self.time_h = array("d")
        self.rate_kw = array("d")
        self.grid_power_kw = array("d")
        self.soc: SocSeries | None = None  # None until the first step

    def add(self, time_h: float, rate_kw: float, grid_power_kw: float, soc=None) -> None:
        """Append one step; ``soc`` is every EV's SOC by id (copied), or None
        when not recorded. A width other than the first step's raises
        ValueError and leaves the log as it was."""
        row = np.array(() if soc is None else soc, dtype=float).reshape(-1)
        if self.soc is None:
            self.soc = SocSeries(row)
        elif len(row) != len(self.soc.first):
            raise ValueError(f"step has {len(row)} SOC values, earlier steps "
                             f"{len(self.soc.first)}")
        else:
            self.soc.append(row)
        self.time_h.append(time_h)
        self.rate_kw.append(rate_kw)
        self.grid_power_kw.append(grid_power_kw)

    def __len__(self) -> int:
        return len(self.time_h)

    def soc_rows(self):
        """Every step's SOC in order, as one float64 array updated in place."""
        return iter(()) if self.soc is None else self.soc.rows()

    def __iter__(self):
        for time_h, rate, power, soc in zip(self.time_h, self.rate_kw, self.grid_power_kw,
                                            self.soc_rows()):
            yield StepRow(time_h, rate, power, tuple(soc.tolist()))


@dataclass(slots=True)
class RunRecord:
    """Append-only trace of one run: iterations, time steps, call accounting."""

    iterations: IterationLog = field(default_factory=IterationLog)
    steps: StepLog = field(default_factory=StepLog)
    oracle_calls_ev: int = 0
    oracle_calls_agg: int = 0


# repr of each element, as Python floats format themselves; the ufunc's
# ``where`` formats only the elements that need it
_repr = np.frompyfunc(repr, 1, 1)


def export_run(record: RunRecord, path) -> None:
    """Write the record to a versioned CSV; see module docstring for format.

    Rows are written as they are formatted, so memory stays at one row plus
    the text of each EV's SOC as last written, which a step reuses for every
    value whose float64 bits did not change.
    """
    with open(path, "w", newline="") as fh:
        write = fh.write
        write(f"{FORMAT_TAG}\n{HEADER}\n")
        for seg in record.iterations.segments:
            for k, (selected, rate, total) in enumerate(zip(
                    seg.selected_index, seg.best_rate_kw, seg.best_total_cost)):
                write(f"iter,{seg.epoch},{k},{selected},{rate!r},{total!r},{seg.n_available},,,,,\n")
        steps = record.steps
        texts = last = None  # each EV's SOC text as last written, and its float64 bits
        for time_h, rate, power, soc in zip(steps.time_h, steps.rate_kw, steps.grid_power_kw,
                                            steps.soc_rows()):
            bits = soc.view(np.uint64)
            if texts is None:
                # bits that differ from every first-step value: that row is formatted whole
                texts, last = np.empty(len(soc), dtype=object), ~bits
            _repr(soc, out=texts, where=bits != last)
            np.copyto(last, bits)
            write(f"step,,,,,,,{time_h!r},{rate!r},{power!r},{';'.join(texts.tolist())},\n")


def import_run(path) -> RunRecord:
    """Parse a CSV written by export_run back into a RunRecord.

    The file is read one line at a time; lines split as ``str.splitlines``
    splits them. A line that does not parse, a row kind other than ``iter``
    and ``step``, a filled column that is not its kind's (an ``iter`` line
    fills only epoch to available, a ``step`` line only time_h to soc), a
    step whose SOC width differs from the first step's, or an order
    ``export_run`` never writes (an iteration after a step, or an iteration
    k > 0 that is not the next of the row before's epoch and available
    count) raises ValueError naming ``path:lineno``.
    """
    record = RunRecord()
    segment = None  # the segment the next iteration row may continue
    with open(path, "r", newline="") as fh:
        lines = (line for chunk in fh for line in chunk.splitlines())
        if next(lines, None) != FORMAT_TAG:
            raise ValueError(f"{path}: not a v2g run record")
        if next(lines, None) != HEADER:
            raise ValueError(f"{path}: unexpected header")
        for lineno, line in enumerate(lines, start=3):
            if not line:
                continue
            try:
                fields = line.split(",")
                if len(fields) != _N_COLS:
                    raise ValueError(f"expected {_N_COLS} fields")
                kind = fields[0]
                if kind not in _EMPTY_COLUMNS:
                    raise ValueError(f"unknown row kind {kind!r}")
                for j in _EMPTY_COLUMNS[kind]:
                    if fields[j]:
                        raise ValueError(f"{_COLUMNS[j]} must be empty on a {kind} line, "
                                         f"got {fields[j]!r}")
                if kind == "iter":
                    if len(record.steps):
                        raise ValueError("iter line after a step line")
                    epoch, k, n_available = int(fields[1]), int(fields[2]), int(fields[6])
                    if segment is None or (segment.epoch, segment.n_available,
                                           len(segment)) != (epoch, n_available, k):
                        if k:
                            raise ValueError(f"iteration {k} follows no iteration {k - 1}")
                        segment = IterationSegment(epoch, n_available)
                        record.iterations.segments.append(segment)
                    segment.append(int(fields[3]), float(fields[4]), float(fields[5]))
                else:
                    soc = np.array(fields[10].split(";"), dtype=float) if fields[10] else None
                    record.steps.add(float(fields[7]), float(fields[8]), float(fields[9]), soc)
            except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond the column
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return record
