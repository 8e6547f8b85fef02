"""Bank conflict-free SRAM interleaving (the paper's Sec. IV-B)."""

from .sram_layout import ChannelMajorLayout, FeatureMajorLayout

__all__ = [
    "ChannelMajorLayout",
    "FeatureMajorLayout",
]
