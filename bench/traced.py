"""Run one vrannot command in process, recording spans or memory peaks.

    python3 bench/traced.py --mode spans|memory --out FILE --trace ID --parent ID -- ARGS...

ARGS are the arguments of the `vrannot` command.  The public functions of
corpus, protocol, workflow, analyze and kg are wrapped where their callers
look them up (for example `vrannot.workflow.diff_corpora`), then
`vrannot.cli.main(ARGS)` runs.  Only calls made a few dozen times per
command are wrapped; hot inner calls such as `GraphStore.match` are not.

FILE also counts the calls of each hook, named `module.attribute`.  A
wrapped function that no longer exists is listed there as unwrapped; run.py
fails the run when a hook its workload calls is unwrapped or not called.

`spans` keeps one span per wrapped call in memory (name, start, end, parent,
trace id, garbage-collector pauses charged to the innermost open span) plus
counters, and writes them to FILE when the command ends.  `memory` instead
runs under tracemalloc and records, per wrapped layer, the largest peak of
traced memory above what was allocated when the call started.  The two
modes are separate runs so that tracemalloc does not distort the timings.

The command's stdout and exit code are passed through unchanged.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import time
import tracemalloc

# Step kind of each workflow step function.
STEP_FUNCTIONS = {
    "update_master_lists": "update_master_lists",
    "apply_protocol_file": "apply_protocol_file",
    "change_class_for_image_set": "change_class_for_image_set",
    "merge_object_class": "merge_class",
    "merge_predicate": "merge_predicate",
    "remove_vr_types_global": "remove_vr_types_global",
    "remove_empty_images": "remove_empty_images",
    "change_vr_type_global": "change_vr_type_global",
    "dedup_vrs": "dedup_vrs",
}

# Spans whose memory peak the `memory` mode reports, and the metric names.
MEMORY_METRICS = {
    "corpus.load": "corpus.load_peak_mb",
    "corpus.save": "corpus.save_peak_mb",
    "workflow.run": "workflow.peak_mb",
    "kg.lower": "kg.lower_peak_mb",
    "kg.load_store": "kg.load_store_peak_mb",
    "kg.materialize": "kg.materialize_peak_mb",
    "kg.extract": "kg.extract_peak_mb",
}


def hooks():
    """(owner, attribute, span name, counter) for every wrapped call."""
    from vrannot import analyze, cli, corpus, kg, protocol, workflow

    def loaded(args, result):
        return {"corpus.load_vrs": result.vr_count}

    def saved(args, result):
        return {"corpus.save_bytes": sum(os.path.getsize(p) for p in args[1:] if p is not None)}

    def diffed(args, result):
        return {"corpus.diff_calls": 1}

    def parsed(args, result):
        return {"protocol.instructions": sum(1 + len(block.instructions) for block in result)}

    def inferred(args, result):
        return {"kg.inferred_triples": len(result) - len(args[0])}

    def touched(args, result):
        return {"workflow.images_touched": sum(s.effect.images_touched for s in result[1].steps)}

    table = [
        (cli, "load_corpus", "corpus.load", loaded),
        (workflow, "load_corpus", "corpus.load", loaded),
        (cli, "save_corpus", "corpus.save", saved),
        (workflow, "save_corpus", "corpus.save", saved),
        (cli, "diff_corpora", "corpus.diff", diffed),
        (workflow, "diff_corpora", "corpus.diff", diffed),
        (protocol, "diff_corpora", "corpus.diff", diffed),
        (corpus.AnnotationCorpus, "copy", "corpus.copy", None),
        (cli, "compute_stats", "corpus.stats", None),
        (protocol, "parse_script", "protocol.parse", parsed),
        (protocol, "validate_and_apply", "protocol.apply", None),
        (workflow, "load_workflow_config", "workflow.load_config", None),
        (workflow, "run_workflow", "workflow.run", touched),
        (analyze, "query_images", "analyze.query", None),
        (analyze, "images_with_vr_count", "analyze.count", None),
        (analyze, "lint", "analyze.lint", lambda a, r: {"analyze.lint_findings": len(r)}),
        (kg, "load_schema", "kg.load_schema", None),
        (kg, "lower_annotations", "kg.lower", lambda a, r: {"kg.lowered_triples": len(r)}),
        (kg, "dump_store", "kg.dump", lambda a, r: {"kg.dump_bytes": len(r.encode("utf-8"))}),
        (kg, "load_store", "kg.load_store", None),
        (kg, "materialize", "kg.materialize", inferred),
        (kg, "extract_annotations", "kg.extract", lambda a, r: {"kg.extracted_vrs": r.vr_count}),
    ]
    table += [(workflow, fn, f"workflow.step.{kind}", None) for fn, kind in STEP_FUNCTIONS.items()]
    return table


class Spans:
    """In-memory spans of one command; ids extend the parent's id."""

    def __init__(self, trace: str, parent: str):
        self.trace = trace
        self.parent = parent
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counts: dict[str, int] = {}
        self.gc_started = 0.0

    def open(self, name: str) -> dict:
        span = {
            "id": f"{self.parent}.{len(self.spans)}",
            "name": name,
            "parent": self.stack[-1]["id"] if self.stack else self.parent,
            "trace": self.trace,
            "start": time.perf_counter(),
            "end": None,
            "gc_s": 0.0,
            "gen2_runs": 0,
        }
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self.stack.pop()

    def count(self, values: dict) -> None:
        for key, value in values.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.gc_started = time.perf_counter()
            return
        if not self.stack:
            return
        span = self.stack[-1]
        span["gc_s"] += time.perf_counter() - self.gc_started
        span["gen2_runs"] += info["generation"] == 2

    def result(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


class Peaks:
    """Largest tracemalloc peak per span name, net of memory held at entry.

    Entering a nested call resets the peak counter, so the enclosing call's
    peak so far is saved first and merged back when the nested call ends.
    """

    def __init__(self):
        self.stack: list[list] = []
        self.peaks: dict[str, float] = {}

    def open(self, name: str) -> list:
        if self.stack:
            self.stack[-1][2] = max(self.stack[-1][2], tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        frame = [name, current, current]
        self.stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        name, at_entry, peak = frame
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        self.stack.pop()
        if self.stack:
            self.stack[-1][2] = max(self.stack[-1][2], peak)
        if name in MEMORY_METRICS:
            metric = MEMORY_METRICS[name]
            self.peaks[metric] = max(self.peaks.get(metric, 0.0), (peak - at_entry) / 1e6)

    def count(self, values: dict) -> None:
        pass

    def result(self) -> dict:
        return {"peaks_mb": self.peaks}


def hook_name(owner, attribute: str) -> str:
    return f"{owner.__name__}.{attribute}"


def install(recorder, owner, attribute: str, name: str, counter, calls: dict) -> None:
    original = getattr(owner, attribute)
    key = hook_name(owner, attribute)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls[key] = calls.get(key, 0) + 1
        token = recorder.open(name)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(token)
        if counter is not None:
            recorder.count(counter(args, result))
        return result

    setattr(owner, attribute, wrapper)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("spans", "memory"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", required=True)
    parser.add_argument("--parent", required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from vrannot import cli

    if args.mode == "spans":
        recorder = Spans(args.trace, args.parent)
        table = hooks()
    else:
        recorder = Peaks()
        table = [hook for hook in hooks() if hook[2] in MEMORY_METRICS]
    # A hook whose function a refactor renamed or removed is skipped and
    # listed; run.py fails the run if its workload should have called it.
    unwrapped = []
    calls: dict[str, int] = {}
    for owner, attribute, name, counter in table:
        if hasattr(owner, attribute):
            install(recorder, owner, attribute, name, counter, calls)
        else:
            unwrapped.append(hook_name(owner, attribute))

    if args.mode == "spans":
        gc.callbacks.append(recorder.on_gc)
    else:
        tracemalloc.start()
    try:
        span = recorder.open("cli.main")
        try:
            code = cli.main(command)
        finally:
            recorder.close(span)
    finally:
        if args.mode == "spans":
            gc.callbacks.remove(recorder.on_gc)
        else:
            tracemalloc.stop()
    sys.stdout.flush()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({**recorder.result(), "unwrapped": unwrapped, "calls": calls}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
