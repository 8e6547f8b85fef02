"""SoC performance/energy models: GPU, NPU, GU, remote, rival accelerators."""

from .gpu import GPUConfig, GPUModel, StageBreakdown
from .gu import GatheringUnitModel, GUConfig, GUCost
from .npu import NPUConfig, NPUModel
from .pipeline import TimelineResult, overlapped_timeline, serialized_timeline
from .remote import RemoteConfig, RemoteScenario
from .rivals import NGPCModel, NeuRexModel
from .soc import VARIANTS, FrameCost, SoCModel, SparwWorkloads
from .workload import FrameWorkload, GatherTraffic, workload_from_stats

__all__ = [
    "GPUConfig",
    "GPUModel",
    "StageBreakdown",
    "GatheringUnitModel",
    "GUConfig",
    "GUCost",
    "NPUConfig",
    "NPUModel",
    "TimelineResult",
    "overlapped_timeline",
    "serialized_timeline",
    "RemoteConfig",
    "RemoteScenario",
    "NGPCModel",
    "NeuRexModel",
    "VARIANTS",
    "FrameCost",
    "SoCModel",
    "SparwWorkloads",
    "FrameWorkload",
    "GatherTraffic",
    "workload_from_stats",
]
