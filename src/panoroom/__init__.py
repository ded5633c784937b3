"""Room-geometry toolkit for panoramic depth estimation pipelines."""

from .bgdepth import (
    CEILING,
    FLOOR,
    WALL,
    DepthMap,
    classify_regions,
    resolve_background_depth,
    resolve_camera_heights,
)
from .denoise import denoise_depth, shell_outside_distance
from .equirect import GridSpec
from .fusion import SegMap, derive_seg_labels, fuse_depth
from .layout import (
    CameraHeights,
    LayoutMap,
    ManhattanRoom,
    extract_corners,
    layout_to_room,
    room_to_layout,
)
from .metrics import FocalParams, LossWeights, MetricsReport, eval_metrics, focal_loss, total_loss
from .synth import (
    NoiseSpec,
    SceneConfig,
    SceneSpec,
    corrupt_depth,
    generate_scene,
    gt_background_mask,
    raycast_depth,
    render_scene,
)

__version__ = "0.1.0"
