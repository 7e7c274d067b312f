"""joulemark: shunt-resistor energy measurement at desk scale.

Simulates the relay- and trigger-based measurement circuits and their
acquisition device, recovers measurement windows from captured traces,
turns their samples into joules by sample and hold (``integrate_energy``
by the trapezoidal rule), and summarizes repeated measurement campaigns
with t-based confidence intervals.
"""

from .acquisition import (
    AcquisitionConfig,
    ChannelMismatchError,
    StreamSource,
    channel_rate,
    open_source,
    read_all,
)
from .energy import (
    DegenerateWindowError,
    EnergyResult,
    ResolutionComparison,
    compare_resolution,
    integrate_energy,
    integrate_full,
    window_energies,
)
from .instrument import (
    ACTIVATE,
    DEACTIVATE,
    KNOWN_PINS,
    AlternationError,
    DanglingWindowError,
    GpioCommand,
    GpioCommandLog,
    GpioFileBackend,
    PortOwnershipError,
    PortRegistry,
    RecordingBackend,
    StaleTokenError,
    ToggleToken,
    UnknownPortError,
)
from .segment import (
    HitMissReport,
    SegmentationParams,
    SessionReport,
    WrongModeError,
    analyze,
    match_toggles,
    segment_relay,
    segment_trigger,
)
from .simulate import (
    RELAY,
    TRIGGER,
    ConstantPower,
    GroundTruth,
    NoiseModel,
    RampPower,
    Scenario,
    ScenarioError,
    SpikyPower,
    SwitchingModel,
    WorkloadProfile,
    WorkloadSegment,
    hit_probability,
    instructions_to_duration,
    load_scenario,
    repeated_toggle_scenario,
    save_scenario,
    simulate_session,
)
from .stats import (
    CampaignSummary,
    InsufficientSamplesError,
    UndefinedVariationError,
    summarize_campaign,
    t_critical,
    variation_pct,
)
from .trace import (
    MeasurementWindow,
    PowerTrace,
    ShuntConfig,
    TraceFormatError,
    TraceValidation,
    Windows,
    downsample,
    index_at_or_after,
    power_to_shunt_volts,
    read_trace_csv,
    sample_to_power,
    validate_trace,
    write_trace_csv,
)

__version__ = "0.1.0"
