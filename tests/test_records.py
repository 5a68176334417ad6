"""Run-record CSV schema, row counts, and byte-exact round-trips."""

import re

import numpy as np
import pytest

from v2gdispatch.records import (
    FORMAT_TAG,
    HEADER,
    IterationSegment,
    RunRecord,
    StepLog,
    export_run,
    import_run,
)


def _record():
    rec = RunRecord()
    segment = IterationSegment(epoch=0, n_available=100)
    for k in range(150):
        segment.append(k % 3, 4.4 + k * 1e-3, -1.7 + 1.0 / (k + 1))
    rec.iterations.segments.append(segment)
    for s in range(10):
        rec.steps.add(s * 0.1, 4.5, 4.5 * 90.123456789, (0.8 - s * 0.01, 1 / 3, 0.9))
    return rec


def test_export_row_counts(tmp_path):
    path = tmp_path / "run.csv"
    export_run(_record(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == FORMAT_TAG
    assert len(lines) == 2 + 150 + 10
    assert sum(1 for l in lines if l.startswith("iter,")) == 150
    assert sum(1 for l in lines if l.startswith("step,")) == 10


def test_round_trip_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    export_run(_record(), a)
    export_run(import_run(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_round_trip_preserves_values_exactly(tmp_path):
    rec = _record()
    path = tmp_path / "run.csv"
    export_run(rec, path)
    back = import_run(path)
    assert len(back.iterations) == len(rec.iterations)
    for orig, imported in zip(rec.iterations, back.iterations):
        assert imported.best_rate_kw == orig.best_rate_kw
        assert imported.best_total_cost == orig.best_total_cost
        assert imported.selected_index == orig.selected_index
    for orig, imported in zip(rec.steps, back.steps):
        assert imported.soc == orig.soc
        assert imported.grid_power_kw == orig.grid_power_kw


def test_import_rejects_foreign_files(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        import_run(path)
    path.write_text(FORMAT_TAG + "\nwrong,header\n")
    with pytest.raises(ValueError):
        import_run(path)


def test_import_rejects_unknown_row_kind(tmp_path):
    path = tmp_path / "y.csv"
    export_run(RunRecord(), path)
    header = path.read_text()
    for line in ("blob,,,,,,,,,,,", "flag,,,,,,,,,,,empty_fleet"):
        path.write_text(f"{header}{line}\n")
        with pytest.raises(ValueError, match="unknown row kind"):
            import_run(path)


def test_step_soc_is_kept_bit_for_bit():
    # values whose bit patterns wrap when differenced: -0.0, negatives, inf,
    # nan, subnormals; then a discharge ramp that crosses binades and floors at 0
    rng = np.random.default_rng(3)
    odd = np.array([-0.0, -1.5, float("inf"), float("nan"), 5e-324, 1.0])
    rows = [rng.uniform(0.0, 1.0, 6) for _ in range(3)]
    rows += [odd, odd[::-1].copy(), odd, -odd, rng.uniform(0.0, 1.0, 6)]
    ramp = 0.9 - np.arange(40)[:, None] * (
        6.6 * 0.01 / np.array([15.0, 22.0, 30.0, 0.9, 18.0, 25.0]))
    rows += list(np.maximum(ramp, 0.0))
    log = StepLog()
    for t, soc in enumerate(rows):
        log.add(float(t), 0.0, 0.0, soc)
    as_bits = lambda socs: [np.array(s, dtype=float).view(np.uint64).tolist() for s in socs]
    assert as_bits(row.soc for row in log) == as_bits(rows)


def test_step_soc_width_is_fixed_by_the_first_step():
    log = StepLog()
    log.add(0.0, 1.0, 1.0, (0.5, 0.6))
    for soc in ((0.5,), (0.5, 0.6, 0.7), None, ()):
        with pytest.raises(ValueError, match="1 SOC values|3 SOC values|0 SOC values"):
            log.add(1.0, 1.0, 1.0, soc)
    assert len(log) == 1 and [row.soc for row in log] == [(0.5, 0.6)]
    empty = StepLog()
    empty.add(0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="1 SOC values, earlier steps 0"):
        empty.add(1.0, 1.0, 1.0, (0.5,))


def test_steps_without_soc_export_empty_fields_and_round_trip(tmp_path):
    rec = RunRecord()
    for s in range(3):
        rec.steps.add(s * 0.5, 2.0, 1.5, None if s else ())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_run(rec, a)
    assert a.read_text().splitlines()[2:] == [
        f"step,,,,,,,{s * 0.5!r},2.0,1.5,," for s in range(3)
    ]
    back = import_run(a)
    assert [row.soc for row in back.steps] == [()] * 3
    export_run(back, b)
    assert a.read_bytes() == b.read_bytes()


def _soc_cases():
    """Each case: the SOC rows of consecutive steps."""
    ramp = 0.9 - np.arange(12)[:, None] * np.array([0.01, 0.02, 0.015, 0.03, 0.005, 0.025])
    frozen = ramp.copy()
    frozen[4:, [1, 4]] = frozen[4, [1, 4]]  # two EVs leave after step 4 ...
    frozen[8:, 0] = frozen[8, 0]  # ... and one more after step 8
    flips = np.tile([0.5, 0.0, 0.25], (8, 1))
    flips[1::2, 1] = -0.0  # equal to 0.0 as a float, not in its bits
    flips[:, 2] -= np.arange(8) * 0.01
    nan = float("nan")
    nans = [(0.5, 0.7), (nan, 0.69), (nan, 0.68), (0.4, nan), (0.4, 0.66), (nan, nan)]
    rng = np.random.default_rng(7)
    return {
        "frozen after departures": list(frozen),
        "signed zero flips": list(flips),
        "nan comes and goes": nans,
        "width 0": [(), None, ()],
        "single step": [(0.8, 1 / 3, -0.0)],
        "every value changes": [rng.random(50) for _ in range(6)],
    }


@pytest.mark.parametrize("case", list(_soc_cases()))
def test_export_writes_each_step_soc_as_repr_of_every_value(tmp_path, case):
    # the export formats only the values that changed since the step before;
    # its bytes must be those of formatting every value of every step
    rows = _soc_cases()[case]
    rec = RunRecord()
    for t, soc in enumerate(rows):
        rec.steps.add(float(t), 1.0, 1.0, soc)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_run(rec, a)
    expected = [";".join(map(repr, np.array(() if soc is None else soc, dtype=float).tolist()))
                for soc in rows]
    assert [line.split(",")[10] for line in a.read_text().splitlines()[2:]] == expected
    export_run(import_run(a), b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("line", [
    "iter,0,0,1,zz,-1.5,100,,,,,",
    "iter,x,0,1,4.5,-1.5,100,,,,,",
    "iter,0,0,4294967296,4.5,-1.5,100,,,,,",
    "step,,,,,,,0.1,4.5,4.1,0.5;;0.6,",
    "step,,,,,,,0.1,4.5,4.1,0.5,",
    "step,,,,,,,0.1,4.5,4.1,,",
    "step,,,,,,,0.1,4.5,4.1,0.5;0.6;0.7,",
    "step,,,,,,,0.1,4.5,4.1,0.5;0.6",
    "flag,,,,,,,,,,,nonsense",
    "iter,0,0,1,4.5,-1.5,100,9,9,9,9,x",
    "step,,,,,,,0.0,4.5,4.1,0.5;0.6,hello",
])
def test_import_names_the_file_and_line_of_a_bad_line(tmp_path, line):
    # a good line of the bad line's own kind comes first, so the row-order
    # rule cannot refuse the bad line before its own defect is read
    path = tmp_path / "bad.csv"
    good = ITER if line.startswith("iter") else STEP
    path.write_text(f"{FORMAT_TAG}\n{HEADER}\n{good}\n\n{line}\n{good}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: ") as raised:
        import_run(path)
    assert "after a step line" not in str(raised.value)


@pytest.mark.parametrize("line, column", [
    ("iter,0,0,1,4.5,-1.5,100,9,,,,", "time_h"),
    ("iter,0,0,1,4.5,-1.5,100,,,,,x", "note"),
    ("step,0,,,,,,0.0,4.5,4.1,0.5;0.6,", "epoch"),
    ("step,,,,,,100,0.0,4.5,4.1,0.5;0.6,", "available"),
    ("step,,,,,,,0.0,4.5,4.1,0.5;0.6,hello", "note"),
])
def test_import_names_a_filled_column_the_line_kind_does_not_have(tmp_path, line, column):
    # a value export_run never writes there would not come back out
    path = tmp_path / "filled.csv"
    path.write_text(f"{FORMAT_TAG}\n{HEADER}\n{line}\n")
    with pytest.raises(ValueError, match=f":3: {column} must be empty on a {line[:4]} line"):
        import_run(path)


ITER = "iter,0,0,1,4.5,-1.5,100,,,,,"
STEP = "step,,,,,,,0.0,4.5,4.1,0.5;0.6,"


# the ids are the ones these cases had when the table also held flag rows
@pytest.mark.parametrize("rows, bad_line", [
    pytest.param((STEP, ITER), 4, id="rows4-4"),
    pytest.param((ITER, STEP, ITER), 5, id="rows5-5"),
    pytest.param((ITER, "iter,0,1,1,4.5,-1.5,100,,,,,", "iter,0,3,1,4.5,-1.5,100,,,,,"), 5,
                 id="skipped-k"),
    pytest.param(("iter,0,3,1,4.5,-1.5,100,,,,,", "iter,0,7,1,4.5,-1.5,100,,,,,"), 3,
                 id="k-not-from-0"),
    pytest.param((ITER, "iter,1,1,1,4.5,-1.5,90,,,,,"), 4, id="new-epoch-not-from-0"),
])
def test_import_rejects_a_row_order_export_never_writes(tmp_path, rows, bad_line):
    # the export writes every iteration before every step, and each epoch's
    # iterations from k = 0 on; any other order would not come back out the same
    path = tmp_path / "order.csv"
    path.write_text("\n".join((FORMAT_TAG, HEADER) + rows) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{bad_line}: "):
        import_run(path)


def test_steady_discharge_soc_costs_no_bytes_per_step():
    # a constant drop inside one binade repeats the same bit-pattern step, so
    # only the first step's change is stored
    log = StepLog()
    soc = np.full(1000, 0.9)
    for t in range(50):
        log.add(float(t), 1.0, 1.0, soc)
        soc = soc - 1e-4
    assert len(log.soc.ids) == 1000
