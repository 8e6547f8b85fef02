"""Fully-streaming NeRF rendering (the paper's Sec. IV-A)."""

from .hierarchical import streaming_execution_order
from .mvoxel import MVoxelLayout
from .rit import RIT_ENTRY_BYTES, RayIndexTable
from .scheduler import FullyStreamingScheduler, GroupStreamingReport, StreamingReport

__all__ = [
    "streaming_execution_order",
    "MVoxelLayout",
    "RIT_ENTRY_BYTES",
    "RayIndexTable",
    "FullyStreamingScheduler",
    "GroupStreamingReport",
    "StreamingReport",
]
