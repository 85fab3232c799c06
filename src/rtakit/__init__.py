"""rtakit: multi-agent safety scenarios with pluggable runtime-assurance
switching logics and performance evaluation."""

from .agents import (
    AccAgent,
    AccParams,
    AgentModel,
    DubinsCarAgent,
    DubinsCarParams,
    DubinsPlaneAgent,
    DubinsPlaneParams,
    Mode,
    View,
)
from .config import ConfigError, config_from_dict, parse_scenario_config
from .evaluation import (
    Collector,
    EvalReport,
    ScenarioMetadata,
    build_report,
    computation_time_stats,
    controller_usage,
    distance_series,
    ttc,
)
from .geometry import (
    Ball,
    DimensionMismatch,
    GeometryError,
    Hyperrectangle,
    PointSet,
    Polytope,
    RelativeSetSpec,
    SetDef,
    box_distance,
    box_intersects,
    set_from_payload,
    update_relative,
)
from .rta import (
    ReachRta,
    RtaBinding,
    RtaError,
    RtaLogic,
    SimRta,
    forward_simulate,
)
from .scenario import (
    AgentSpec,
    Scenario,
    ScenarioConfig,
    ScenarioError,
    ScenarioRuntimeError,
    SimState,
    StaticSetSpec,
    build_scenario,
    execute,
    predict,
    snapshot,
)
from .trace import ExecutionTrace, TraceSchemaError, validate_trace_dict

__version__ = "0.1.0"
