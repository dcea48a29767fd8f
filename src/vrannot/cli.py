"""Command-line interface.

One binary, one subcommand per operation.  Exit codes: 0 success, 1 lint
findings under --strict, 2 usage error, 3 data error (malformed input,
failed validation, aborted apply), 4 I/O error.  All output is a pure
function of the inputs; nothing timestamped, nothing host-dependent.

A handler imports the modules it runs (analyze, kg, protocol, workflow) when
it is called, so a command loads only what it uses.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain

from .corpus import (
    DEFAULT_NAMESPACE,
    METRICS,
    AnnotationCorpus,
    compute_stats,
    diff_corpora,
    load_corpus,
    load_master_list,
    read_input,
    replace_files,
    save_corpus,
)
from .errors import ConfigError, FileMissingError, MalformedGraphError, StepFailedError, VrannotError


def _add_corpus_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--annotations", required=True, help="annotations JSON file")
    parser.add_argument("--classes", required=True, help="object-class master list")
    parser.add_argument("--predicates", required=True, help="predicate master list")


def _add_format_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="output style (structured = JSON)",
    )


def _namespace(text: str) -> str:
    """A --namespace value; what no dump IRI holds (`kg.check_iri`) is refused,
    such as the lone surrogate an undecodable argv byte arrives as."""
    from . import kg
    try:
        return kg.check_iri(text)
    except MalformedGraphError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load(args) -> "AnnotationCorpus":
    return load_corpus(args.annotations, args.classes, args.predicates)


def _report(args, payload, lines) -> int:
    """Print `payload` as JSON under `--format structured`, else each of `lines`
    (which may be lazy, so only text mode builds the text)."""
    if args.format == "structured":
        print(json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False))
    else:
        for line in lines:
            print(line)
    return 0


# --------------------------------------------------------------------------
# handlers
# --------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    corpus = _load(args)  # the loader enforces every invariant `validate` checks
    print(f"ok: {len(corpus.images)} images, {corpus.vr_count} relationships")
    return 0


def _cmd_stats(args) -> int:
    corpus = _load(args)
    if args.distribution:
        from . import analyze
        histogram = analyze.distribution(corpus, args.distribution)
        return _report(args, {"metric": histogram.metric, "buckets": histogram.buckets},
                       chain([f"{histogram.metric}:"],
                             (f"  {value}: {count}" for value, count in histogram.buckets)))
    stats = compute_stats(corpus)
    counts = {
        "object_classes": stats.object_class_count,
        "predicates": stats.predicate_count,
        "images": stats.image_count,
        "relationships": stats.vr_count,
        "mean_relationships_per_image": stats.mean_vrs_per_image,
        "images_with_duplicate_relationships": stats.images_with_exact_duplicate_vrs,
    }
    return _report(args, counts, (
        f"{key.replace('_', ' ')}: {value:{'.2f' if isinstance(value, float) else ''}}"
        for key, value in counts.items()))


def _parse_count(spec: str) -> range:
    """The VR counts that `N`, `A..B` or `A..` selects (`A` may be empty for 0)."""
    try:
        if ".." not in spec:
            return range(int(spec), int(spec) + 1)
        low, high = spec.split("..", 1)
        return range(int(low) if low else 0, int(high) + 1 if high else sys.maxsize)
    except ValueError:
        raise ConfigError(f"bad count spec {spec!r}") from None


def _cmd_query(args) -> int:
    from . import analyze
    try:  # each flag is read before the corpus, so a malformed one exits 2 whatever the files
        spec = (_parse_count(args.count) if args.count is not None
                else analyze.parse_pattern(args.pattern))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    corpus = _load(args)
    if isinstance(spec, range):
        images = analyze.images_with_vr_count(corpus, spec)
        return _report(args, {"images": images}, images)
    result = analyze.query_images(corpus, spec)  # bindings in subject, predicate, object order
    return _report(args, {"images": result.images, "bindings": result.bindings},
                   chain(result.images, (f"{position}: {', '.join(names)}"
                                         for position, names in result.bindings.items())))


def _cmd_lint(args) -> int:
    from . import analyze
    try:  # `lint`'s own range check, over no images, so a bad threshold exits 2 before the load
        analyze.lint(AnnotationCorpus({}, [], []), args.threshold)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings = analyze.lint(_load(args), near_dup_iou_threshold=args.threshold)
    _report(args, [{"image": f.image, "rule": f.rule.value, "detail": f.detail, "severity": f.severity}
                   for f in findings],
            (analyze.format_findings([f])[:-1] for f in findings))  # each line without its "\n"
    return 1 if args.strict and findings else 0


def _cmd_overlay(args) -> int:
    from . import analyze
    corpus = _load(args)
    analyze.render_overlay(corpus, args.image, args.vr, args.out)
    return 0


def _cmd_apply(args) -> int:
    from . import protocol
    corpus = _load(args)
    blocks = protocol.parse_script(read_input(args.script))
    result, report = protocol.validate_and_apply(corpus, blocks)
    save_corpus(result, args.out)
    print(f"images touched: {report.images_touched}")
    print(f"relationships changed: {report.vrs_changed}")
    print(f"relationships added: {report.vrs_added}")
    print(f"relationships removed: {report.vrs_removed}")
    print(f"images removed: {report.images_removed}")
    return 0


def _cmd_workflow_run(args) -> int:
    from . import workflow
    config = workflow.load_workflow_config(args.config)
    report = workflow.run_workflow_files(config)
    for step in report.steps:
        effect = step.effect
        print(
            f"step {step.ordinal} {step.kind}: touched={effect.images_touched} "
            f"changed={effect.vrs_changed} added={effect.vrs_added} "
            f"removed={effect.vrs_removed} images_removed={effect.images_removed}"
        )
    print(f"done: {len(report.steps)} steps")
    return 0


def _schema_for(args, corpus) -> "kg.Schema":
    from . import kg
    if args.schema:
        return kg.load_schema(args.schema)
    return kg.default_schema(corpus)


def _load_graph(args) -> "kg.GraphStore":
    from . import kg
    with kg.read_dump(args.graph) as lines:
        return kg.load_store(lines, namespace=args.namespace)


def _cmd_kg_lower(args) -> int:
    from . import kg
    corpus = _load(args)
    schema = _schema_for(args, corpus)
    store = kg.lower_annotations(corpus, schema, namespace=args.namespace, image=args.image)
    del corpus  # each kg handler frees its input before its write, where its memory peaks
    replace_files([(args.out, kg.dump_store(store))])
    print(f"triples: {len(store)}")
    return 0


def _cmd_kg_materialize(args) -> int:
    from . import kg
    schema = kg.load_schema(args.schema)
    store = _load_graph(args)
    loaded = len(store)
    closed = kg.materialize(store, schema)
    del store
    replace_files([(args.out, kg.dump_store(closed))])
    print(f"triples: {len(closed)} (added {len(closed) - loaded})")
    return 0


def _cmd_kg_extract(args) -> int:
    from . import kg
    classes = load_master_list(args.classes, "object class")
    predicates = load_master_list(args.predicates, "predicate")
    store = _load_graph(args)
    schema = _schema_for(args, AnnotationCorpus({}, classes, predicates))
    corpus = kg.extract_annotations(store, schema, classes, predicates)
    del store
    save_corpus(corpus, args.out)
    print(f"images: {len(corpus.images)}, relationships: {corpus.vr_count}")
    return 0


_DIFF_TOTALS = ("images_touched", "vrs_changed", "vrs_added", "vrs_removed",
                "images_added", "images_removed")  # CorpusDiff attributes, in print order


def _cmd_diff(args) -> int:
    before = load_corpus(args.a_annotations, args.a_classes, args.a_predicates)
    after = load_corpus(args.b_annotations, args.b_classes, args.b_predicates)
    diff = diff_corpora(before, after)
    totals = {name: getattr(diff, name) for name in _DIFF_TOTALS}
    lines = (f"modified {delta.filename} changed={delta.changed} added={delta.added} removed={delta.removed}"
             if delta.status == "modified" else f"{delta.status} {delta.filename}" for delta in diff.deltas)
    total = "total: " + " ".join(f"{name.removeprefix('vrs_')}={n}" for name, n in totals.items())
    return _report(args, {"images": [delta._asdict() for delta in diff.deltas], **totals},
                   chain(lines, [total]))


# --------------------------------------------------------------------------
# parser assembly
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrannot",
        description="Visual relationship annotation toolkit: query, lint, "
        "customize, and bridge annotations to a triple graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a corpus and check its invariants")
    _add_corpus_arguments(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("stats", help="headline corpus counts")
    _add_corpus_arguments(p)
    _add_format_argument(p)
    p.add_argument(
        "--distribution", choices=METRICS, help="print a per-image histogram instead"
    )
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("query", help="search images by relationship pattern or VR count")
    _add_corpus_arguments(p)
    _add_format_argument(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--pattern", help="'subject, predicate, object' with * wildcards")
    mode.add_argument("--count", help="VR count filter: N, A..B, or A..")
    p.set_defaults(handler=_cmd_query)

    p = sub.add_parser("lint", help="report annotation quality findings")
    _add_corpus_arguments(p)
    _add_format_argument(p)
    p.add_argument("--threshold", type=float, default=0.9, help="near-duplicate box IoU threshold")
    p.add_argument("--strict", action="store_true", help="exit 1 when findings exist")
    p.set_defaults(handler=_cmd_lint)

    p = sub.add_parser("overlay", help="render an SVG box overlay for one image")
    _add_corpus_arguments(p)
    p.add_argument("--image", required=True, help="image filename (corpus key)")
    p.add_argument("--vr", type=int, action="append", help="VR index; repeatable; default all")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(handler=_cmd_overlay)

    p = sub.add_parser("apply", help="apply a customization script")
    p.add_argument("script", help="script file")
    _add_corpus_arguments(p)
    p.add_argument("--out", required=True, help="output annotations path")
    p.set_defaults(handler=_cmd_apply)

    p = sub.add_parser("workflow", help="multi-step transformation runs")
    wf = p.add_subparsers(dest="workflow_command", required=True)
    p = wf.add_parser("run", help="run a workflow config file")
    p.add_argument("config", help="config file")
    p.set_defaults(handler=_cmd_workflow_run)

    p = sub.add_parser("kg", help="graph lowering, inference, extraction")
    kgsub = p.add_subparsers(dest="kg_command", required=True)

    p = kgsub.add_parser("lower", help="lower a corpus to a triple dump")
    _add_corpus_arguments(p)
    p.add_argument("--schema", help="axiom file; omitted = designations derived from names")
    p.add_argument("--namespace", type=_namespace, default=DEFAULT_NAMESPACE)
    p.add_argument("--image", help="lower only this image")
    p.add_argument("--out", required=True, help="output triple dump path")
    p.set_defaults(handler=_cmd_kg_lower)

    p = kgsub.add_parser("materialize", help="compute the inference closure of a dump")
    p.add_argument("graph", help="input triple dump")
    p.add_argument("--schema", required=True, help="axiom file")
    p.add_argument("--namespace", type=_namespace, default=DEFAULT_NAMESPACE)
    p.add_argument("--out", required=True, help="output triple dump path")
    p.set_defaults(handler=_cmd_kg_materialize)

    p = kgsub.add_parser("extract", help="extract annotations from a triple dump")
    p.add_argument("graph", help="input triple dump")
    p.add_argument("--schema", help="axiom file; omitted = designations derived from names")
    p.add_argument("--classes", required=True, help="object-class master list")
    p.add_argument("--predicates", required=True, help="predicate master list")
    p.add_argument("--namespace", type=_namespace, default=DEFAULT_NAMESPACE)
    p.add_argument("--out", required=True, help="output annotations path")
    p.set_defaults(handler=_cmd_kg_extract)

    p = sub.add_parser("diff", help="value diff of two corpora")
    p.add_argument("a_annotations", help="left annotations")
    p.add_argument("a_classes", help="left class list")
    p.add_argument("a_predicates", help="left predicate list")
    p.add_argument("b_annotations", help="right annotations")
    p.add_argument("b_classes", help="right class list")
    p.add_argument("b_predicates", help="right predicate list")
    _add_format_argument(p)
    p.set_defaults(handler=_cmd_diff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (VrannotError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a workflow step that cannot read its file fails on I/O all the same
        cause = exc.cause if isinstance(exc, StepFailedError) else exc
        return 4 if isinstance(cause, (FileMissingError, OSError)) else 3


if __name__ == "__main__":
    sys.exit(main())
