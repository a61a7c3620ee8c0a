"""traincap: packet-train probing of available path capacity.

Subpackage map:

- ``wire``      probe packet byte layout and 32.32 timestamp conversion
- ``pacing``    spin/hybrid deadline waits and paced send loops
- ``train``     schedules, first/last-timestamp rate estimators, validation
- ``transport`` loopback and UDP datagram endpoints with timestamping
- ``simnet``    deterministic path model of timestamping artifacts
- ``session``   sender/receiver/reflector roles, stats, experiment sets
- ``cli``       the ``traincap`` command
"""

from .pacing import HYBRID, PURE_SPIN, PacerConfig, SlackReport, pace_send, wait_until
from .session import (
    ApcReport,
    RateStats,
    ReflectionRecord,
    SessionParams,
    aggregate_stats,
    apc_report,
    run_experiment,
    run_loopback_session,
    run_paired,
    run_receiver,
    run_reflector,
    run_sender,
)
from .simnet import (
    PRESET_NAMES,
    SimConfig,
    SimTrace,
    ethernet_max_rate,
    preset,
    simulate_rates,
    simulate_train,
    sweep,
    sweep_study_config,
)
from .train import (
    DegenerateDurationError,
    InvalidTrainError,
    TrainRecord,
    TrainSchedule,
    TrainSpec,
    TrainStatus,
    build_schedule,
    estimate_receive_rate,
    estimate_send_rate,
    validate_train,
)
from .transport import (
    BackendDescriptor,
    TransportError,
    loopback_pair,
    open_endpoint,
)
from .wire import (
    HEADER_SIZE,
    FrameGeometry,
    NtpTimestamp,
    ProbePacket,
    decode_probe,
    encode_probe,
    ns_to_ntp,
    ntp_to_ns,
)

__version__ = "0.1.0"
