"""Coefficient-free pattern recognition by inverted posting lists.

Integer feature vectors are classified by voting over per-dimension
posting lists, learned instantly by appending classes on classification
failure, stacked into levels through thresholded class histograms, and
used to predict scalar parameters by histogram accumulation.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DataError,
    FormatError,
    InvpatError,
    LevelError,
    NoEvidenceError,
    ValidationError,
)
from .index import CategoricalModel, ClassHistogram, Model
from .levels import (
    LabelTable,
    Level,
    LevelStack,
    UNLABELED,
    histogram_to_metapattern,
    signature_common,
)
from .predictor import (
    ParamHistogram,
    ParamIndex,
    build_param_index,
    histogram_spread,
    predict_histogram,
    predict_value,
)
from .vision import (
    PixelCluster,
    RasterImage,
    build_class_mask,
    cluster_pixels,
    detect_objects,
    diff_mask,
    recognize_clusters,
    segment_image,
    select_pixel_classes,
    select_pixels,
    train_detector,
    train_pixels,
)
from .netpbm import load_pnm, save_label_map, save_pnm
from .io_persist import (
    ColumnSchema,
    ColumnSpec,
    load_csv,
    load_model,
    load_schema,
    normalize_columns,
    save_histogram,
    save_model,
    save_schema,
    uniform_schema,
)
from .bench import BenchReport, run_bench

__all__ = [name for name in dir() if not name.startswith("_")]
