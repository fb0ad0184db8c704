"""Temporal error concealment toolkit for block-based video.

Recovers the motion vectors of damaged macroblocks with boundary matching
(classic and additional-boundary criteria, combined adaptively per side),
schedules concealment by neighbor availability, and ships the motion
estimation, loss simulation and PSNR harness needed to evaluate it.
"""

from .core import (
    MB,
    SIDES,
    BoundarySide,
    Frame,
    MbAddress,
    MbState,
    MbStatusMap,
    MotionVector,
    ZERO_MV,
    extract_col,
    extract_row,
    neighbor_of,
    sad,
)
from .engine import (
    MODES,
    AuditRecord,
    BoundaryDistortion,
    CandidateSet,
    ConcealedFrame,
    NeighborContext,
    PrioritySchedule,
    SideNeighbor,
    bmc_total,
    build_candidates,
    conceal_frame,
    mean_mv,
    median_mv,
    neighbor_context,
    select_mv,
)
from .experiment import (
    ExperimentReport,
    ExperimentSpec,
    SequenceSpec,
    TrialResult,
    aggregate,
    build_context,
    load_spec_file,
    run_experiment,
    run_trial,
)
from .loss import LossMask, TrialConfig, apply_mask, make_mask
from .metrics import PSNR_CAP_DB, PsnrSample, psnr
from .motion import MvField, SearchParams, estimate_field
from .yuv_io import (
    SequenceHeader,
    YuvFrameRecord,
    open_sequence,
    read_frame,
    write_pgm,
    write_yuv_frame,
)

__version__ = "0.1.0"
