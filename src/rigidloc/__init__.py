"""Wireless rigid body localization toolkit.

Simulates range/angle measurements between fixed anchors and the sensor
nodes of rigid bodies, and estimates body pose, relative pose and velocity
from them. Includes Euclidean distance matrix completion for missing
measurements, anchor placement optimization and a Monte-Carlo experiment
harness with a CLI front end.
"""

from .geometry import (
    BodyMotion,
    Conformation,
    PlacedBody,
    Pose,
    apply_pose,
    body_velocities,
    compose,
    cross_matrix,
    geometric_center,
    inverse,
    random_rotation,
    rotation_2d,
    rotation_about_axis,
    rotation_angle,
    rotation_geodesic_error,
)
from .measurement import (
    AngleMeasurements,
    AnchorSet,
    HullOcclusion,
    MaskedRangeMatrix,
    PartialEdm,
    assemble_partial_edm,
    line_of_sight_blocked,
    simulate_aoa,
    simulate_range_rates,
    simulate_ranges,
    wrap_angle,
)
from .estimators import (
    DegenerateGeometryError,
    InsufficientMeasurementsError,
    MotionEstimate,
    PointFix,
    PoseEstimate,
    RelativePoseEstimate,
    estimate_motion,
    fit_pose_procrustes,
    localize_point_hybrid,
    multilaterate,
    rbl_two_stage,
    relative_pose_anchorless,
)
from .completion import (
    CompletionResult,
    NonEuclideanMatrixError,
    complete_edm,
    edm_to_points,
)
from .placement import (
    PlacementEvaluation,
    PlacementProblem,
    PlacementResult,
    evaluate_placement,
    frame_potential,
    optimize_placement,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    ResultTable,
    box_vehicle_conformation,
    cube_anchor_layout,
    emit_results,
    load_config,
    run_experiment,
)

__version__ = "0.1.0"
