"""Memory-based coherent optical conversion in EIT media with Zeeman degeneracy.

The package models a write/store/read protocol in which a weak probe pulse is
stored as a ground-state coherence by switching off a write control, then
retrieved on a different transition by a read control, converting the pulse
between optical channels.  Degenerate Zeeman states make the medium a set of
parallel lambda subsystems weighted by the ground-state populations.

Layers:

- ``atoms``: Clebsch-Gordan tables, population distributions, conversion
  schemes (which transitions play probe/write/converted/read).
- ``theory``: closed-form channel parameters, broadening factors, converted
  spectra, and conversion efficiencies.
- ``spectral``: frequency-domain propagation of the exact linearized
  transfer functions.
- ``mb``: time-domain Maxwell-Bloch integration of the full protocol.
- ``pumping``: optical-pumping rate dynamics preparing the initial Zeeman
  populations.
- ``figures`` / ``cli``: canned scenario runners and the command line front
  end.
"""

from .atoms import (
    Direction,
    CGTable,
    PopulationDistribution,
    ConversionScheme,
    build_cesium_d1_scheme,
    single_lambda_scheme,
    effective_depth_factor,
    coherence_mismatch,
    ZEEMAN_M,
)
from .cg import clebsch_gordan
from .errors import (
    SchemeError,
    DegenerateSchemeError,
    GridError,
    GridBudgetError,
    AliasingError,
    StiffnessError,
    MissingCompanionError,
    ConfigValidationError,
    ValidityWarning,
)
from .theory import (
    LN2,
    WriteChannelParams,
    ReadChannelParams,
    StoredCoherenceProfile,
    ConvertedSpectrum,
    EfficiencyReport,
    pulse_bandwidth,
    pulse_energy,
    control_for_eta,
    write_channel,
    read_channel,
    beta_w_simple,
    beta_r_simple,
    xi1_simple,
    stored_coherence_profile,
    converted_spectrum,
    converted_bandwidth,
    total_efficiency,
    relative_efficiency_single,
    relative_efficiency_multi,
)
from .units import UnitSystem
from .fields import CoherenceField
from .arrayio import read_csv, write_csv
from .spectral import (
    SpectralGrid,
    TransferFunctions,
    ConvertedFieldResult,
    TransmittedFieldResult,
    spectrum_from_time,
    time_from_spectrum,
    gaussian_probe_spectrum,
    probe_transfer,
    read_transfer,
    stored_coherence_exact,
    converted_field_exact,
    transmitted_probe,
)
from .mb import (
    GaussianPulse,
    ControlTimeline,
    SimulationRecord,
    ConversionEfficiency,
    timeline_for_protocol,
    run_protocol,
    run_original_readout,
    efficiency_from_record,
    leakage_energy,
)
from .pumping import (
    PumpConfig,
    DensityMatrix14,
    PumpTrajectory,
    pump_couplings,
    build_pump_generator,
    evolve_pumping,
    steady_state,
)
__version__ = "0.1.0"

from .config import (
    ENGINES,
    ScenarioConfig,
    SweepSpec,
    PumpSpec,
    load_scenario,
    load_sweep,
    load_pump,
)
from .runner import (
    EngineOutput,
    run_engine,
    run_scenario,
    run_sweep,
    run_pump,
    compare_outputs,
)
from .figures import FIGURES, run_figure

__all__ = [
    "Direction",
    "CGTable",
    "PopulationDistribution",
    "ConversionScheme",
    "build_cesium_d1_scheme",
    "single_lambda_scheme",
    "effective_depth_factor",
    "coherence_mismatch",
    "ZEEMAN_M",
    "clebsch_gordan",
    "SchemeError",
    "DegenerateSchemeError",
    "GridError",
    "GridBudgetError",
    "AliasingError",
    "StiffnessError",
    "MissingCompanionError",
    "ConfigValidationError",
    "ValidityWarning",
    "LN2",
    "WriteChannelParams",
    "ReadChannelParams",
    "StoredCoherenceProfile",
    "ConvertedSpectrum",
    "EfficiencyReport",
    "pulse_bandwidth",
    "pulse_energy",
    "control_for_eta",
    "write_channel",
    "read_channel",
    "beta_w_simple",
    "beta_r_simple",
    "xi1_simple",
    "stored_coherence_profile",
    "converted_spectrum",
    "converted_bandwidth",
    "total_efficiency",
    "relative_efficiency_single",
    "relative_efficiency_multi",
    "UnitSystem",
    "CoherenceField",
    "read_csv",
    "write_csv",
    "SpectralGrid",
    "TransferFunctions",
    "ConvertedFieldResult",
    "TransmittedFieldResult",
    "spectrum_from_time",
    "time_from_spectrum",
    "gaussian_probe_spectrum",
    "probe_transfer",
    "read_transfer",
    "stored_coherence_exact",
    "converted_field_exact",
    "transmitted_probe",
    "GaussianPulse",
    "ControlTimeline",
    "SimulationRecord",
    "ConversionEfficiency",
    "timeline_for_protocol",
    "run_protocol",
    "run_original_readout",
    "efficiency_from_record",
    "leakage_energy",
    "PumpConfig",
    "DensityMatrix14",
    "PumpTrajectory",
    "pump_couplings",
    "build_pump_generator",
    "evolve_pumping",
    "steady_state",
    "ENGINES",
    "ScenarioConfig",
    "SweepSpec",
    "PumpSpec",
    "load_scenario",
    "load_sweep",
    "load_pump",
    "EngineOutput",
    "run_engine",
    "run_scenario",
    "run_sweep",
    "run_pump",
    "compare_outputs",
    "FIGURES",
    "run_figure",
    "__version__",
]
