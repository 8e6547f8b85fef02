"""NeRF substrate: fields, sampling, volume rendering, and the renderer."""

from .baking import bake_vertex_features, vertex_grid_positions
from .encoding import sh_basis_deg1
from .fields import (
    CORE_FEATURE_DIM,
    GatherGroup,
    HashGridField,
    RadianceField,
    SHDecoder,
    TensorFactorField,
    VoxelGridField,
)
from .mlp import MLP, identity_affine_mlp
from .renderer import NeRFRenderer, RenderStats
from .sampling import OccupancyGrid, RaySamples, UniformSampler
from .volume_render import CompositeResult, composite

__all__ = [
    "bake_vertex_features",
    "vertex_grid_positions",
    "sh_basis_deg1",
    "CORE_FEATURE_DIM",
    "GatherGroup",
    "HashGridField",
    "RadianceField",
    "SHDecoder",
    "TensorFactorField",
    "VoxelGridField",
    "MLP",
    "identity_affine_mlp",
    "NeRFRenderer",
    "RenderStats",
    "OccupancyGrid",
    "RaySamples",
    "UniformSampler",
    "CompositeResult",
    "composite",
]
