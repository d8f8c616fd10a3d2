"""Citation cascade growth prediction from per-level degree-sequence encodings."""

# The one version literal: config.TOOL_VERSION and pyproject.toml read it.
# Set before the submodule imports so any of them may import it.
__version__ = "0.2.0"

from .cascades import (
    Cascade,
    CascadeNode,
    CitationEvent,
    GrowthLabel,
    build_cascades,
    compute_stats,
    generate_synthetic,
    parse_citation_files,
    read_cascades_jsonl,
    split_dataset,
    write_cascades_jsonl,
)
from .encoding import (
    DegreeSequence,
    EncodedSample,
    EncodingSchema,
    SeqEntry,
    encode,
    schema_from_corpus,
    time_bin,
    uniform_bin_edges,
)
from .errors import CascadeCiteError
from .model import ModelConfig, ModelParams, init_params, load_model, save_model
from .probe import StructuralFeatures, probe, structural_features
from .training import TrainConfig, TrainReport, encode_split, evaluate, msle, train
from .trees import CascadeTree, to_tree

__all__ = [
    "Cascade",
    "CascadeCiteError",
    "CascadeNode",
    "CascadeTree",
    "CitationEvent",
    "DegreeSequence",
    "EncodedSample",
    "EncodingSchema",
    "GrowthLabel",
    "ModelConfig",
    "ModelParams",
    "SeqEntry",
    "StructuralFeatures",
    "TrainConfig",
    "TrainReport",
    "build_cascades",
    "compute_stats",
    "encode",
    "encode_split",
    "evaluate",
    "generate_synthetic",
    "init_params",
    "load_model",
    "msle",
    "parse_citation_files",
    "probe",
    "read_cascades_jsonl",
    "save_model",
    "schema_from_corpus",
    "split_dataset",
    "structural_features",
    "time_bin",
    "to_tree",
    "train",
    "uniform_bin_edges",
    "write_cascades_jsonl",
]
