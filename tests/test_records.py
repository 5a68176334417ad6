"""Run-record CSV schema, row counts, and byte-exact round-trips."""

import numpy as np
import pytest

from v2gdispatch.records import (
    FORMAT_TAG,
    IterationRow,
    RunRecord,
    StepLog,
    export_run,
    import_run,
)


def _record():
    rec = RunRecord()
    for k in range(150):
        rec.iterations.append(
            IterationRow(
                epoch=0, k=k, selected_index=k % 3,
                best_rate_kw=4.4 + k * 1e-3, best_total_cost=-1.7 + 1.0 / (k + 1),
                n_available=100,
            )
        )
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


def test_empty_fleet_record_is_header_plus_flag(tmp_path):
    rec = RunRecord(empty_fleet=True)
    path = tmp_path / "empty.csv"
    export_run(rec, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("flag,")
    back = import_run(path)
    assert back.empty_fleet and not back.iterations and not back.steps


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
    export_run(RunRecord(empty_fleet=True), path)
    text = path.read_text().replace("flag,", "blob,")
    path.write_text(text)
    with pytest.raises(ValueError):
        import_run(path)


def test_extend_merges_traces():
    a = _record()
    n_iter, n_step = len(a.iterations), len(a.steps)
    b = RunRecord(oracle_calls_ev=7, oracle_calls_agg=3)
    b.iterations.append(
        IterationRow(epoch=1, k=0, selected_index=0, best_rate_kw=5.0,
                     best_total_cost=0.0, n_available=50)
    )
    b.steps.add(1.0, 5.0, 4.5, (0.7, 1 / 3, 0.9))
    a.extend(b)
    assert len(a.iterations) == n_iter + 1
    assert len(a.steps) == n_step + 1
    assert list(a.steps)[-1] == list(b.steps)[0]
    assert a.oracle_calls_ev == 7 and a.oracle_calls_agg == 3


def test_step_soc_is_kept_bit_for_bit():
    # rows of changing width, steps without SOC, and values whose bit
    # patterns wrap when differenced: -0.0, negatives, inf, nan, subnormals
    rng = np.random.default_rng(3)
    odd = np.array([-0.0, -1.5, float("inf"), float("nan"), 5e-324, 1.0])
    rows = [rng.uniform(0.0, 1.0, 4) for _ in range(3)] + [None, None]
    rows += [odd, odd[::-1].copy(), odd, None, rng.uniform(0.0, 1.0, 4)]
    ramp = 0.9 - np.arange(40)[:, None] * (6.6 * 0.01 / np.array([15.0, 22.0, 30.0]))
    rows += list(np.maximum(ramp, 0.0))
    log = StepLog()
    for t, soc in enumerate(rows):
        log.add(float(t), 0.0, 0.0, soc)
    expected = [() if soc is None else tuple(np.asarray(soc).tolist()) for soc in rows]
    as_bits = lambda socs: [np.array(s, dtype=float).view(np.uint64).tolist() for s in socs]
    assert as_bits(row.soc for row in log) == as_bits(expected)
    assert list(log.soc_rows())[3] is None


def test_steady_discharge_soc_costs_no_bytes_per_step():
    # a constant drop inside one binade repeats the same bit-pattern step, so
    # only the first step's change is stored
    log = StepLog()
    soc = np.full(1000, 0.9)
    for t in range(50):
        log.add(float(t), 1.0, 1.0, soc)
        soc = soc - 1e-4
    (series,) = log._soc_runs
    assert len(series.ids) == 1000
