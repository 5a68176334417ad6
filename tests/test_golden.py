"""Behaviour gates: a checked-in run trace and a checked-in masked share matrix.

Both were produced by the per-agent reference implementation of the protocol
(one cost oracle and one envelope per agent). Any refactor that keeps the
algorithm must reproduce them exactly: the trace byte for byte, the matrix
integer for integer.
"""

import json
from pathlib import Path

import numpy as np

from v2gdispatch.cli import main
from v2gdispatch.fleet import sample_fleet
from v2gdispatch.shuffle import shuffle_round, to_units_array
from v2gdispatch.topology import AGGREGATOR_ID, build_topology, ev_agent

GOLDEN_TRACE = Path(__file__).parent / "data" / "golden_run.csv"

# default scenario for one hour; EVs 50-99 leave at 0.5 h, so two epochs
GOLDEN_CONFIG = {
    "horizon_h": 1.0,
    "departures": [{"time_h": 0.5, "ids": list(range(50, 100))}],
}

# rows: aggregator, EV 0, EV 1, EV 2; columns: four candidates
PRIVATE_VALUES = [
    [0.52, 0.47, 0.61, 0.55],
    [-0.031, 0.012, -0.007, 0.024],
    [0.018, -0.026, 0.009, -0.013],
    [-0.011, 0.035, -0.042, 0.003],
]
GOLDEN_MASKED = np.array(
    [
        [363141334385, 110609785830, 211474344586, 499167278283],
        [-14721982926, 22969582719, 459258162149, 126406699486],
        [11652258841, -17632862872, 1042855023, -8086362294],
        [185286157077, 423913703561, -45053733926, 2636942591],
    ],
    dtype=np.int64,
)


def test_default_scenario_trace_is_byte_identical(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(GOLDEN_CONFIG))
    out = tmp_path / "run.csv"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_TRACE.read_bytes()


def test_masked_matrix_is_reproduced_exactly():
    topology = build_topology(sample_fleet(3, 11), "one-random-neighbor", 5)
    agents = [AGGREGATOR_ID] + [ev_agent(i) for i in range(3)]
    values = {a: to_units_array(np.array(v)) for a, v in zip(agents, PRIVATE_VALUES)}
    masked = shuffle_round(values, topology, rng=2024)
    assert np.array_equal(np.stack([masked[a] for a in agents]), GOLDEN_MASKED)
