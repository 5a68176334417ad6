"""Fair, privacy-aware V2G discharge dispatch: simulator and benchmark harness."""

from .baselines import (
    PenaltyConfig,
    cwoa_solve,
    gwo_solve,
    make_penalized_fitness,
)
from .config import (
    ConfigError,
    Instance,
    ScenarioConfig,
    build_instance,
    load_config,
    parse_config,
    resolve_departures,
)
from .costs import (
    AggCostParams,
    CostOracle,
    CostSet,
    agg_consensus_cost,
    consensus_objective,
    grid_search_rate,
    sample_ev_cost_params,
)
from .dwoa import (
    WhalePool,
    advance_pool,
    alpha_schedule,
    init_pool,
)
from .fleet import (
    EvState,
    Fleet,
    FleetDistributions,
    apply_discharge,
    available_ids,
    distance_histogram,
    distance_home_km,
    grid_power_kw,
    sample_fleet,
)
from .harness import (
    CompareRow,
    StatsRow,
    compare_solvers,
    export_comparison,
    export_stats,
    oracle_rate,
    run_seed,
    stats_harness,
)
from .orchestrator import (
    DepartureEvent,
    ecn_select_best,
    run_optimization,
    run_scenario,
)
from .records import IterationRow, RunRecord, StepRow, export_run, import_run
from .shuffle import ProtocolError, candidate_totals, shuffle_round
from .topology import (
    AGGREGATOR_ID,
    AgentId,
    AgentKind,
    Envelope,
    NeighborMap,
    TopologyError,
    build_topology,
    deliver_round,
    ev_agent,
)

__version__ = "0.1.0"
