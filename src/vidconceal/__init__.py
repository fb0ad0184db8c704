"""Temporal error concealment toolkit for block-based video.

Recovers the motion vectors of damaged macroblocks with boundary matching
(classic and additional-boundary criteria, combined adaptively per side),
schedules concealment by neighbor availability, and ships the motion
estimation, loss simulation and PSNR harness needed to evaluate it.
"""

__version__ = "0.1.0"
