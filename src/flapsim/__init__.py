"""Flight-dynamics simulator and flight-control library for a four-winged
flapping-wing micro aerial vehicle."""

from .aero import (
    ActuatorCommand,
    WingConfig,
    Wrench,
    allocate,
    cycle_avg_damping,
    cycle_avg_lift,
    mix,
    yaw_damping_coefficient,
)
from .config import (
    ConfigError,
    SimConfig,
    bundled_config_path,
    config_from_dict,
    load_config,
)
from .control import (
    AttitudeGains,
    FlightController,
    PIDGains,
    Setpoint,
    attitude_torque,
    desired_attitude,
    thrust_magnitude,
)
from .dynamics import (
    InertialConfig,
    VehicleState,
    step,
    vibration_torque,
)
from .estimation import Estimator, FilterConfig, MocapSample, MocapSensor
from .scenarios import (
    RunRecord,
    compare_variants,
    metrics_from_rows,
    read_csv,
    run_scenario,
)
from .spatial import Quaternion, quat_error, rotmat_to_quat, sign

__version__ = "0.1.0"
