"""epsim: workload modeling, energy accounting and schedule simulation for
multi-member ensemble forecasting suites."""

from .model import (
    ClusterSpec,
    DependencyEdge,
    EdgeScope,
    EnergyTerm,
    EnsembleConfig,
    JobCategory,
    JobProfile,
    MemberPath,
    MemberRole,
    QueueSpec,
    RepetitionSpec,
    SuiteModel,
    expand_instances,
    load_suite_model,
    save_suite_model,
    validate_suite,
)
from .energy import (
    affine_total,
    category_breakdown,
    job_energy,
    power_scatter,
    suite_total,
    wallclock_breakdown,
)
from .simulate import critical_path, simulate, utilization
from .whatif import Scenario, apply_scenario, energy_savings, max_speedup
from .profiles import (
    IoMode,
    UnifiedJobProfile,
    ingest_measurements,
    merge_profiles,
    parse_io_profile,
    parse_mpi_profile,
)
from .executor import (
    ScheduleDocument,
    execute,
    generate_schedule,
    topo_order,
)
from .datafiles import load_bundled_model

__version__ = "0.1.0"
