"""Toolkit for visual relationship annotation corpora.

Load, validate, query, and lint annotation files; apply line-oriented
customization scripts and multi-step workflow configs; lower annotations to
a triple graph, materialize inferences, and extract them back.

The names below are re-exported from their home modules, each of which is
imported on the first use of one of its names (PEP 562), so `import
vrannot` alone loads no submodule.
"""

import importlib

_HOMES = {  # home module -> the public names re-exported from it
    "analyze": ("Histogram", "LintFinding", "LintRule", "QueryResult", "VRPattern", "distribution",
                "images_with_vr_count", "iou", "lint", "parse_pattern", "query_images",
                "render_overlay"),
    "corpus": ("AnnotatedObject", "AnnotationCorpus", "BoundingBox", "CorpusDiff", "CorpusStats",
               "ImageDelta", "VisualRelationship", "compute_stats", "diff_corpora",
               "find_exact_duplicates", "load_corpus", "load_master_list", "save_corpus"),
    "errors": ("AmbiguousClassError", "ApplyError", "ConfigError", "ParseError", "StepFailedError",
               "UnknownNameError", "VrannotError"),
    "kg": ("GraphStore", "Iri", "Schema", "Triple", "default_schema", "dump_store",
           "extract_annotations", "load_schema", "load_store", "lower_annotations", "materialize",
           "read_dump"),
    "protocol": ("ImageBlock", "Instruction", "InstructionKind", "NewVRSpec", "parse_script",
                 "render_script", "validate_and_apply"),
    "workflow": ("WorkflowConfig", "WorkflowReport", "load_workflow_config", "run_workflow",
                 "run_workflow_files"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A re-exported name, or a submodule, imported on first use and then cached."""
    if name in _HOMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value
