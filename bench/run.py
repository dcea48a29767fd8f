"""End-to-end benchmark of the vrannot CLI on seeded, generated corpora.

    python3 bench/run.py --workload curate|inspect|graph --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the sources under `src/`.
Every workload is a sequence of real `vrannot` commands, each a fresh
process, launched one at a time by this process (a closed loop with one
client, as a curator runs them).  A pass is one run of the sequence;
passes repeat for `--seconds`, and each metric is the median over passes.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json: wall
time of a pass, set-up time (`vrannot validate` on the input corpus in a
fresh process, measured before every pass) and the largest max-RSS of any
command in a pass.  The two times are reported relative to a fixed speed
probe run next to them (see PROBE), because a shared host's speed drifts.
`--trace 1` makes pairs of an untraced pass, which gives the per-command
wall times, and a traced pass, then one tracemalloc pass (see traced.py),
and reports the per-layer metrics.

Every command's stdout and output files are checked against what the
generator computed independently (gen.py), and must be byte-identical
across the passes of a run.  A command with an unexpected exit code or a
failed check counts as failed; `failed / attempted` is the error rate.
The last line of stdout is the result as JSON; the line before it is a
report with per-pass samples, output digests and machine details, also
written to `.bench_work/<workload>/report.json` with the spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from traced import STEP_FUNCTIONS

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

# Images per workload: sized so a pass takes 2-4 s on a shared 2-core
# machine and a run holds several passes.
SIZES = {"curate": 2000, "inspect": 2000, "graph": 300}
MIN_PASSES = 3
# A fixed job that does not use vrannot: a fresh interpreter builds, dumps,
# parses and indexes a JSON document.  The CPUs of a shared host switch
# between a fast and a slow state for seconds to minutes (README.md), and a
# probe run next to a command is slowed alike.  So --trace 0 reports each
# time as a multiple of the probe time next to it, in seconds of a host on
# which the probe takes PROBE_REFERENCE_S.
PROBE = (
    "import json\n"
    "rows = [{'id': i, 'name': f'n{i % 977}', 'box': [i % 13, i % 17, i % 19]}\n"
    "        for i in range(15000)]\n"
    "index = {}\n"
    "for row in json.loads(json.dumps(rows)):\n"
    "    index.setdefault(row['name'], []).append(tuple(row['box']))\n"
)
PROBE_REFERENCE_S = 0.15
# Share of --seconds for the untraced and traced pairs of a --trace 1 run.
TRACED_SHARE = 0.6
# A process that imports the CLI and runs it, as the `vrannot` script does.
CLI = ["-c", "import sys; from vrannot.cli import main; sys.exit(main())"]
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import vrannot.cli; print(time.perf_counter() - t)"
)
IMPORT_SAMPLES = 5

Check = Callable[[bytes, Path], list]


@dataclass
class Command:
    name: str  # the `cli.<name>_s` metric its wall time counts towards
    args: list[str]
    outputs: tuple[str, ...]  # files it writes, relative to the work directory
    check: Check  # problems found in its stdout and outputs


@dataclass
class Plan:
    validate: list[str]
    validate_stdout: str
    commands: list[Command]


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


def _corpus_args(names) -> list[str]:
    return ["--annotations", names[0], "--classes", names[1], "--predicates", names[2]]


def _validate_line(corpus: gen.Corpus) -> str:
    return f"ok: {len(corpus.images)} images, {corpus.vr_count} relationships\n"


def _text(expected: str) -> Check:
    def check(stdout: bytes, work: Path) -> list:
        if stdout.decode("utf-8") == expected:
            return []
        return [f"stdout differs from the expected {len(expected)} characters"]

    return check


def _json(expected, project=lambda value: value) -> Check:
    """Structured output: canonical JSON whose projection equals `expected`."""

    def check(stdout: bytes, work: Path) -> list:
        problems = [] if _is_canonical(stdout) else ["stdout is not canonical JSON"]
        got = project(json.loads(stdout))
        if got != expected:
            problems.append(f"got {str(got)[:200]}, expected {str(expected)[:200]}")
        return problems

    return check


def _is_canonical(data: bytes) -> bool:
    """Canonical JSON: UTF-8, sorted keys, two-space indent, non-ASCII
    unescaped, one trailing newline (docs/formats.md)."""
    text = json.dumps(json.loads(data), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    return data == text.encode("utf-8")


def _canonical(work: Path, *paths: str) -> list:
    return [
        f"{path} is not in canonical form"
        for path in paths
        if not _is_canonical((work / path).read_bytes())
    ]


def plan_curate(rng: random.Random, n_images: int, work: Path) -> Plan:
    corpus = gen.make_corpus(rng, n_images)
    (work / "in").mkdir()
    inputs = [f"in/{name}" for name in corpus.write(work / "in")]
    outputs = ("out/annotations.json", "out/classes.json", "out/predicates.json")
    sides = ("annotations", "classes", "predicates")
    files = {f"input_{side}": path for side, path in zip(sides, inputs)}
    files.update({f"output_{side}": path for side, path in zip(sides, outputs)})
    curation = gen.make_curation(rng, corpus, files)
    for name, text in curation.scripts.items():
        (work / name).write_text(text, encoding="utf-8")
    (work / "config.json").write_text(
        json.dumps(curation.config, indent=2, ensure_ascii=False), encoding="utf-8"
    )
    final = curation.states[-1]

    def check_workflow(stdout: bytes, work: Path) -> list:
        problems = _text(curation.workflow_stdout)(stdout, work) + _canonical(work, *outputs)
        return problems + check_curated(curation, work / "out")

    return Plan(
        _corpus_args(inputs),
        _validate_line(corpus),
        [
            Command("workflow_run", ["workflow", "run", "config.json"], outputs, check_workflow),
            Command("diff", ["diff", *inputs, *outputs], (), _text(gen.diff_text(corpus, final))),
        ],
    )


def check_curated(curation: gen.Curation, out: Path) -> list:
    """The curated corpus equals the simulated one, and the named invariants hold."""
    problems = []
    final = curation.states[-1]
    classes = json.loads((out / "classes.json").read_text(encoding="utf-8"))
    predicates = json.loads((out / "predicates.json").read_text(encoding="utf-8"))
    images = gen.read_annotations(out / "annotations.json")
    old, new = curation.renamed
    if old in classes or new not in classes or classes[-1] != gen.ADDED_CLASS:
        problems.append(f"class list lacks the rename {old!r} -> {new!r} or the addition")
    merged_class = classes.index(curation.merged_class)
    merged_predicate = predicates.index(curation.merged_predicate)
    gone = set(curation.removed_types) | {curation.rewritten_type}
    for image, vrs in images.items():
        if not vrs:
            problems.append(f"{image} is empty")
        if len(set(vrs)) < len(vrs):
            problems.append(f"{image} has duplicate relationships")
        for s, _, p, o, _ in vrs:
            if merged_class in (s, o) or p == merged_predicate:
                problems.append(f"{image} uses a merged-away name")
            if (classes[s], predicates[p], classes[o]) in gone:
                problems.append(f"{image} keeps a removed or rewritten type")
    if (classes, predicates, images) != (final.classes, final.predicates, final.images):
        problems.append("curated corpus differs from the simulated workflow")
    return problems[:5]


def plan_inspect(rng: random.Random, n_images: int, work: Path) -> Plan:
    corpus = gen.make_corpus(rng, n_images)
    args = _corpus_args(corpus.write(work))
    first = next(vrs[0] for _, vrs in sorted(corpus.images.items()) if vrs)
    subject = first[0]
    structured = ["--format", "structured"]

    def lint_subset(findings: list) -> list:
        return sorted(
            (f["image"], f["rule"], f["detail"])
            for f in findings
            if f["rule"] in gen.CHECKED_LINT_RULES
        )

    return Plan(
        args,
        _validate_line(corpus),
        [
            Command("stats", ["stats", *args, *structured], (), _json(gen.expected_stats(corpus))),
            Command(
                "query",
                ["query", *args, "--pattern", f"{corpus.classes[subject]}, *, *", *structured],
                (),
                _json(gen.expected_query(corpus, subject)),
            ),
            Command(
                "query",
                ["query", *args, "--pattern", "*, *, *", *structured],
                (),
                _json(gen.expected_query(corpus, None)),
            ),
            Command(
                "query_count",
                ["query", *args, "--count", "9..", *structured],
                (),
                _json(gen.expected_count(corpus, 9)),
            ),
            Command(
                "lint",
                ["lint", *args, *structured],
                (),
                _json(gen.expected_lint(corpus), lint_subset),
            ),
        ],
    )


def _lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def plan_graph(rng: random.Random, n_images: int, work: Path) -> Plan:
    corpus = gen.make_corpus(rng, n_images)
    names = corpus.write(work)
    args = _corpus_args(names)
    axioms = gen.make_axioms(corpus)
    (work / "axioms.txt").write_text(axioms.text, encoding="utf-8")
    schema = ["--schema", "axioms.txt"]
    lowered = gen.lowered_triples(corpus)
    expected = gen.extracted_vrs(corpus, axioms)
    extracted_count = sum(len(vrs) for vrs in expected.values())

    def check_lower(stdout: bytes, work: Path) -> list:
        problems = _text(f"triples: {lowered}\n")(stdout, work)
        if _lines(work / "lowered.nt") != lowered:
            problems.append(f"lowered.nt does not hold {lowered} lines")
        return problems

    def check_materialize(stdout: bytes, work: Path) -> list:
        match = re.fullmatch(r"triples: (\d+) \(added (\d+)\)\n", stdout.decode("utf-8"))
        if not match or int(match[1]) != lowered + int(match[2]) or int(match[2]) == 0:
            return [f"unexpected materialize output {stdout[:80]!r}"]
        if _lines(work / "closed.nt") != int(match[1]):
            return ["closed.nt line count differs from the reported triples"]
        return []

    def check_extract(stdout: bytes, work: Path) -> list:
        summary = f"images: {len(expected)}, relationships: {extracted_count}\n"
        problems = _text(summary)(stdout, work)
        problems += _canonical(work, "extracted.json")
        got = gen.read_annotations(work / "extracted.json")
        if {image: set(vrs) for image, vrs in got.items()} != expected:
            problems.append("extracted VRs differ from the closure oracle")
        if any(len(set(vrs)) < len(vrs) for vrs in got.values()):
            problems.append("extracted VRs hold duplicates")
        return problems

    return Plan(
        args,
        _validate_line(corpus),
        [
            Command(
                "kg_lower",
                ["kg", "lower", *args, *schema, "--out", "lowered.nt"],
                ("lowered.nt",),
                check_lower,
            ),
            Command(
                "kg_materialize",
                ["kg", "materialize", "lowered.nt", *schema, "--out", "closed.nt"],
                ("closed.nt",),
                check_materialize,
            ),
            Command(
                "kg_extract",
                ["kg", "extract", "closed.nt", *schema, *args[2:], "--out", "extracted.json"],
                ("extracted.json",),
                check_extract,
            ),
        ],
    )


PLANS = {"curate": plan_curate, "inspect": plan_inspect, "graph": plan_graph}

# Per workload, the hooks of traced.py that every traced pass must call
# (see check_hooks).
HOOKS = {
    "curate": (
        "vrannot.cli.load_corpus", "vrannot.cli.diff_corpora",
        "vrannot.workflow.load_corpus", "vrannot.workflow.save_corpus",
        "vrannot.workflow.diff_corpora", "AnnotationCorpus.copy",
        "vrannot.protocol.parse_script", "vrannot.protocol.validate_and_apply",
        "vrannot.protocol.diff_corpora", "vrannot.workflow.load_workflow_config",
        "vrannot.workflow.run_workflow", *(f"vrannot.workflow.{fn}" for fn in STEP_FUNCTIONS),
    ),
    "inspect": (
        "vrannot.cli.load_corpus", "vrannot.cli.compute_stats", "vrannot.analyze.query_images",
        "vrannot.analyze.images_with_vr_count", "vrannot.analyze.lint",
    ),
    "graph": (
        "vrannot.cli.load_corpus", "vrannot.cli.save_corpus", "vrannot.kg.load_schema",
        "vrannot.kg.lower_annotations", "vrannot.kg.dump_store", "vrannot.kg.load_store",
        "vrannot.kg.materialize", "vrannot.kg.extract_annotations",
    ),
}


# --------------------------------------------------------------------------
# running commands
# --------------------------------------------------------------------------


@dataclass
class Outcome:
    start: float
    end: float
    rss_mb: float
    code: int
    stdout: bytes

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Launcher:
    """Client of launch.py, which starts the measured commands (see there why)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launch.py")], env=ENV,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> Launcher:
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()

    def run(self, argv: list[str], work: Path) -> Outcome:
        """Run one process to completion; wall time and max-RSS are its own."""
        out, err = work / "stdout.txt", work / "stderr.txt"
        self.proc.stdin.write(json.dumps([argv, str(work), str(out), str(err)]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended early")
        start, end, code, max_rss_kib = json.loads(reply)
        return Outcome(start, end, max_rss_kib * 1024 / 1e6, code, out.read_bytes())


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _checked(command: Command, outcome: Outcome, work: Path) -> list:
    """The command's check; output it cannot even parse is a problem too."""
    try:
        return command.check(outcome.stdout, work)
    except Exception as exc:  # any malformed output counts as a failure
        return [f"unreadable output: {exc!r}"]


class Runner:
    """Runs passes and keeps score: attempts, failures, output digests."""

    def __init__(self, launcher: Launcher, plan: Plan, work: Path, tamper=None):
        self.launcher = launcher
        self.plan = plan
        self.work = work
        self.tamper = tamper  # used by selftest.py to corrupt an output
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[dict] | None = None  # per command, from the first pass
        self.first_failed: list[bool] = []
        self.passes = 0

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def setup_sample(self) -> float:
        argv = [sys.executable, *CLI, "validate", *self.plan.validate]
        outcome = self.launcher.run(argv, self.work)
        self.attempted += 1
        if outcome.code != 0 or outcome.stdout.decode("utf-8") != self.plan.validate_stdout:
            self._fail(f"validate: exit {outcome.code}, stdout {outcome.stdout[:80]!r}")
        return outcome.wall_s

    def probe_sample(self) -> float:
        outcome = self.launcher.run([sys.executable, "-c", PROBE], self.work)
        if outcome.code:
            raise RuntimeError(f"the speed probe exited {outcome.code}")
        return outcome.wall_s

    def run_pass(self, prefix=None) -> list[Outcome]:
        """One pass; `prefix(index, command)` gives the launcher argv, by
        default a plain CLI process."""
        for command in self.plan.commands:
            for path in command.outputs:
                (self.work / path).unlink(missing_ok=True)
        outcomes = []
        digests = []
        for index, command in enumerate(self.plan.commands):
            head = prefix(index, command) if prefix else [sys.executable, *CLI]
            outcome = self.launcher.run([*head, *command.args], self.work)
            if self.tamper:
                outcome.stdout = self.tamper(self.passes, command, outcome.stdout, self.work)
            self.attempted += 1
            files = {"stdout": _sha256(outcome.stdout)}
            for path in command.outputs:
                target = self.work / path
                files[path] = _sha256(target.read_bytes()) if target.exists() else "missing"
            digests.append(files)
            label = f"pass {self.passes} {command.name} {' '.join(command.args[:2])}"
            if self.digests is None:
                if outcome.code:
                    problems = [f"exit code {outcome.code}"]
                else:
                    problems = _checked(command, outcome, self.work)
                self.first_failed.append(bool(problems))
                if problems:
                    self._fail(f"{label}: {'; '.join(map(str, problems))}")
            elif outcome.code:
                self._fail(f"{label}: exit code {outcome.code}")
            elif files != self.digests[index]:
                self._fail(f"{label}: output differs from the first pass")
            elif self.first_failed[index]:
                self._fail(f"{label}: same output as the failed first pass")
            outcomes.append(outcome)
        if self.digests is None:
            self.digests = digests
        self.passes += 1
        return outcomes


# --------------------------------------------------------------------------
# tracing
# --------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[str, float]:
    """Sum of span self time (duration minus child durations) per name."""
    children: dict[str, float] = {}
    for span in spans:
        children[span["parent"]] = children.get(span["parent"], 0.0) + span["end"] - span["start"]
    totals: dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - children.get(span["id"], 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


@dataclass
class Traced:
    spans: list[dict]
    values: dict  # counters summed, memory peaks maximised over commands
    unwrapped: set[str]  # hooks traced.py could not install
    calls: dict[str, int]  # calls per hook, summed over commands
    wall_s: float


def traced_pass(runner: Runner, mode: str, trace_id: str) -> Traced:
    """Run a pass with every command under traced.py."""
    records = []

    def prefix(index: int, command: Command) -> list[str]:
        out = runner.work / f"{mode}-{index}.json"
        records.append(out)
        return [
            sys.executable, str(BENCH / "traced.py"), "--mode", mode, "--out", str(out),
            "--trace", trace_id, "--parent", f"{trace_id}.{index}", "--",
        ]

    outcomes = runner.run_pass(prefix)
    spans = [{
        "id": trace_id, "name": "pass", "parent": None, "trace": trace_id,
        "start": outcomes[0].start, "end": outcomes[-1].end,
    }]
    traced = Traced(spans, {}, set(), {}, sum(o.wall_s for o in outcomes))
    for index, (outcome, path) in enumerate(zip(outcomes, records)):
        # The process span covers interpreter start and the import, which
        # the child cannot time itself.
        spans.append({
            "id": f"{trace_id}.{index}", "name": "cli.process", "parent": trace_id,
            "trace": trace_id, "start": outcome.start, "end": outcome.end,
        })
        if not path.exists():  # the command failed before the record was written
            continue
        result = json.loads(path.read_text(encoding="utf-8"))
        spans += result.get("spans", [])
        traced.unwrapped.update(result["unwrapped"])
        for key, value in result["calls"].items():
            traced.calls[key] = traced.calls.get(key, 0) + value
        for key, value in result.get("counts", {}).items():
            traced.values[key] = traced.values.get(key, 0) + value
        for key, value in result.get("peaks_mb", {}).items():
            traced.values[key] = max(traced.values.get(key, 0.0), value)
    return traced


def layer_metrics(
    runner: Runner,
    untraced: list[list[Outcome]],
    traced: list[Traced],
    overheads: list[float],
    memory_id: str,
) -> dict:
    """Per-layer metrics: per-command medians of the untraced passes, a fresh
    import, medians over the traced passes and one tracemalloc pass."""
    values: dict[str, float] = {}
    names = {c.name for c in runner.plan.commands}
    for name in names:
        values[f"cli.{name}_s"] = statistics.median(
            sum(o.wall_s for c, o in zip(runner.plan.commands, outcomes) if c.name == name)
            for outcomes in untraced
        )
    probes = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=runner.work, env=ENV,
            capture_output=True, check=True, text=True,
        )
        probes.append(float(done.stdout))
    values["cli.import_s"] = statistics.median(probes)

    per_pass = [self_times(t.spans) for t in traced]
    for name in set().union(*per_pass):
        step = name.startswith("workflow.step.")
        metric = name.replace("workflow.step.", "workflow.step_s.") if step else f"{name}_s"
        values[metric] = statistics.median(times.get(name, 0.0) for times in per_pass)
    values.update(traced[0].values)  # counts fixed by the inputs
    values["gc.pause_s"] = statistics.median(
        sum(s.get("gc_s", 0.0) for s in t.spans) for t in traced
    )
    values["gc.gen2_runs"] = statistics.median(
        sum(s.get("gen2_runs", 0) for s in t.spans) for t in traced
    )
    values["trace.overhead_s"] = statistics.median(overheads)
    memory = traced_pass(runner, "memory", memory_id)
    values.update(memory.values)
    return values


def check_hooks(
    runner: Runner, hooks: tuple[str, ...], traced: list[Traced], unwrapped: list[str]
) -> None:
    """One more check: every traced pass called each hook of its workload.
    A hook that is gone, or a function its callers now reach by another
    name, would otherwise read as a layer that takes no time."""
    runner.attempted += 1
    missing = sorted({hook for t in traced for hook in hooks if not t.calls.get(hook)})
    if missing:
        runner._fail(f"hooks not called: {missing}; not installed: {unwrapped}")


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def machine() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            names = (line.split(":", 1)[1] for line in handle if line.startswith("model name"))
            model = next(names).strip()
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
    }


def _summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "samples": values}


def _in_probe_seconds(times: list[float], probes: list[float]) -> float:
    """Median of the times, each divided by the probe time next to it."""
    return PROBE_REFERENCE_S * statistics.median(t / p for t, p in zip(times, probes))


def run(
    workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0, tamper=None
) -> dict:
    """One benchmark run; returns the report, whose `result` is the last line."""
    if not (ROOT / "src" / "vrannot" / "cli.py").is_file():
        raise SystemExit(f"error: no vrannot sources under {ROOT / 'src'}; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "vrannot")],
        check=True, stdout=subprocess.DEVNULL,
    )
    with Launcher() as launcher:  # started while this process is still small
        n_images = max(20, round(SIZES[workload] * scale))
        plan = PLANS[workload](random.Random(f"{workload}-{seed}"), n_images, work)
        runner = Runner(launcher, plan, work, tamper)
        runner.setup_sample()  # warms the page cache; not reported

        setups, walls, peaks, untraced, lengths = [], [], [], [], []
        setup_probes, pass_probes = [], []
        traced, overheads = [], []
        # With tracing, each untraced pass is followed by a traced one, and
        # a slower tracemalloc pass ends the run, so the pairs get part of
        # the time.  No pass starts that would typically end after the budget.
        budget = seconds * TRACED_SHARE if trace else seconds
        start = time.perf_counter()
        while len(walls) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(lengths) < budget
        ):
            began = time.perf_counter()
            if not trace:
                setup_probes.append(runner.probe_sample())
                setups.append(runner.setup_sample())
                pass_probes.append(runner.probe_sample())
            outcomes = runner.run_pass()
            untraced.append(outcomes)
            walls.append(sum(o.wall_s for o in outcomes))
            peaks.append(max(o.rss_mb for o in outcomes))
            if trace:
                # Compared with the untraced pass just before it, so that
                # host drift between the two stays small.
                traced.append(traced_pass(runner, "spans", f"seed{seed}.pass{len(traced)}"))
                overheads.append(traced[-1].wall_s - walls[-1])
            lengths.append(time.perf_counter() - began)
        if not trace:
            setup_probes.append(runner.probe_sample())  # closes the last pass

        report = {
            "workload": workload, "seed": seed, "images": n_images, "trace": int(trace),
            "machine": machine(), "wall_s": _summary(walls), "peak_rss_mb": _summary(peaks),
            "digests": {
                f"{i} {' '.join(c.args[:2])}": d
                for i, (c, d) in enumerate(zip(plan.commands, runner.digests))
            },
        }
        if trace:
            values = layer_metrics(runner, untraced, traced, overheads, f"seed{seed}.memory")
            spans = [span for t in traced for span in t.spans]
            (work / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
            report["unwrapped"] = sorted(set().union(*(t.unwrapped for t in traced)))
            check_hooks(runner, HOOKS[workload], traced, report["unwrapped"])
            names = spec["per_layer"]
        else:
            # A pass takes seconds, so it is compared with the mean of the
            # probes just before and just after it.
            brackets = [(a + b) / 2 for a, b in zip(pass_probes, setup_probes[1:])]
            values = {
                "wall_s": _in_probe_seconds(walls, brackets),
                "setup_s": _in_probe_seconds(setups, setup_probes),
                "peak_rss_mb": statistics.median(peaks),
            }
            report["setup_s"] = _summary(setups)
            report["probe_s"] = {"setup": setup_probes, "pass": pass_probes}
            names = spec["end_to_end"]
    report["problems"] = runner.problems
    report["result"] = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in names
        },
    }
    text = json.dumps(report, indent=2, ensure_ascii=False)
    (work / "report.json").write_text(text, encoding="utf-8")
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PLANS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report.pop("result")
    print(json.dumps(report, ensure_ascii=False))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
