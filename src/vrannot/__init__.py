"""Toolkit for visual relationship annotation corpora.

Load, validate, query, and lint annotation files; apply line-oriented
customization scripts and multi-step workflow configs; lower annotations to
a triple graph, materialize inferences, and extract them back.
"""

from .analyze import (
    Histogram,
    LintFinding,
    LintRule,
    QueryResult,
    VRPattern,
    distribution,
    images_with_vr_count,
    iou,
    lint,
    parse_pattern,
    query_images,
    render_overlay,
)
from .corpus import (
    AnnotatedObject,
    AnnotationCorpus,
    BoundingBox,
    CorpusDiff,
    CorpusStats,
    ImageDelta,
    VisualRelationship,
    compute_stats,
    diff_corpora,
    find_exact_duplicates,
    load_corpus,
    load_master_list,
    save_corpus,
)
from .errors import (
    AmbiguousClassError,
    ApplyError,
    ConfigError,
    ParseError,
    StepFailedError,
    UnknownNameError,
    VrannotError,
)
from .kg import (
    GraphStore,
    Iri,
    Schema,
    Triple,
    default_schema,
    dump_store,
    extract_annotations,
    load_schema,
    load_store,
    lower_annotations,
    materialize,
    read_dump,
)
from .protocol import (
    ImageBlock,
    Instruction,
    InstructionKind,
    NewVRSpec,
    parse_script,
    render_script,
    validate_and_apply,
)
from .workflow import (
    WorkflowConfig,
    WorkflowReport,
    load_workflow_config,
    run_workflow,
    run_workflow_files,
)

__version__ = "0.1.0"
