import json
import random
import re
import shutil
from collections import Counter
from pathlib import Path

import pytest

from vrannot import workflow
from vrannot.cli import main
from vrannot.corpus import (
    AnnotatedObject,
    AnnotationCorpus,
    CorpusDiff,
    ImageDelta,
    VisualRelationship,
    canonical_annotations_bytes,
    canonical_master_list_bytes,
    diff_corpora,
    find_exact_duplicates,
    load_corpus,
    save_corpus,
)
from vrannot.errors import (
    ConfigError,
    DuplicateMasterNameError,
    FileMissingError,
    ImageNotFoundError,
    SelfMergeError,
    StepFailedError,
    UnknownNameError,
    UnsupportedRewriteError,
    VrannotError,
)
from vrannot.protocol import (
    _CHANGES,
    ImageBlock,
    Instruction,
    NewVRSpec,
    render_script,
    validate_and_apply,
)
from vrannot.protocol import InstructionKind as K
from vrannot.workflow import (
    _PATH_KEYS,
    CLASSES,
    PREDICATES,
    STEPS,
    Step,
    StepReport,
    WorkflowConfig,
    WorkflowReport,
    change_class_for_image_set,
    change_vr_type_global,
    dedup_vrs,
    load_workflow_config,
    merge_object_class,
    merge_predicate,
    remove_empty_images,
    remove_vr_types_global,
    run_workflow,
    run_workflow_files,
    update_master_lists,
)

from helpers import DEMO_DIR, REFERENCE_STEPS, check_result_tuple, random_bbox, random_corpus


def demo_corpus():
    return load_corpus(
        DEMO_DIR / "annotations.json", DEMO_DIR / "classes.json", DEMO_DIR / "predicates.json"
    )


def type_counter(corpus):
    return Counter(corpus.vr_type_names(vr) for vrs in corpus.images.values() for vr in vrs)


REPORT = StepReport(1, "dedup_vrs", CorpusDiff([ImageDelta("a.jpg", "added")]))


class TestRecords:
    """The step, config and report types are named tuples that keep the repr
    text and equality they had as dataclasses."""

    @pytest.mark.parametrize("value,text", [
        (Step("dedup_vrs"), "Step(kind='dedup_vrs', args={})"),
        (Step("merge_class", {"from_name": "a", "to_name": "b"}),
         "Step(kind='merge_class', args={'from_name': 'a', 'to_name': 'b'})"),
        (WorkflowConfig([Step("dedup_vrs")]),
         "WorkflowConfig(steps=[Step(kind='dedup_vrs', args={})], input_annotations=None, "
         "input_classes=None, input_predicates=None, output_annotations=None, "
         "output_classes=None, output_predicates=None)"),
        (REPORT, "StepReport(ordinal=1, kind='dedup_vrs', effect=CorpusDiff(deltas=[ImageDelta("
                 "filename='a.jpg', status='added', changed=0, added=0, removed=0)]))"),
        (WorkflowReport([REPORT]), f"WorkflowReport(steps=[{REPORT!r}])"),
    ], ids=["step", "step-args", "config", "step-report", "report"])
    def test_named_tuples(self, value, text):
        check_result_tuple(value, text)

    def test_step_args_default_is_fresh(self):
        first, second = Step("dedup_vrs"), Step(kind="dedup_vrs")
        first.args["x"] = 1
        assert second.args == {} and Step("dedup_vrs").args == {}
        args = {"from_name": "a", "to_name": "b"}
        step = Step("merge_class", args)
        assert step.args is args
        assert step._replace(kind="merge_predicate") == Step("merge_predicate", args)
        assert type(Step._make(["dedup_vrs", {}])) is Step


class TestUpdateMasterLists:
    def test_rename_and_add(self):
        corpus = demo_corpus()
        out = update_master_lists(
            corpus, CLASSES, renames=[("sofa", "couch")], additions=["speaker", "truck"]
        )
        assert out.object_class_names[11] == "couch"
        assert out.class_id("speaker") == 12
        assert out.class_id("truck") == 13
        assert out.images == corpus.images
        # original untouched
        assert corpus.object_class_names[11] == "sofa"

    def test_predicates_target(self):
        out = update_master_lists(demo_corpus(), PREDICATES, renames=[("walk", "stroll")])
        assert out.predicate_names[2] == "stroll"

    def test_rename_collision(self):
        with pytest.raises(DuplicateMasterNameError):
            update_master_lists(demo_corpus(), CLASSES, renames=[("sofa", "person")])

    def test_rename_to_self_rejected(self):
        with pytest.raises(DuplicateMasterNameError):
            update_master_lists(demo_corpus(), CLASSES, renames=[("sofa", "sofa")])

    def test_addition_collision(self):
        with pytest.raises(DuplicateMasterNameError):
            update_master_lists(demo_corpus(), CLASSES, additions=["dog"])

    def test_rename_unknown_name(self):
        with pytest.raises(UnknownNameError):
            update_master_lists(demo_corpus(), CLASSES, renames=[("zebra", "giraffe")])

    def test_unknown_target(self):
        with pytest.raises(ConfigError):
            update_master_lists(demo_corpus(), "verbs", additions=["x"])

    def test_collision_with_retired_name(self):
        # a retired name keeps its slot, so reusing it is still a collision
        corpus = merge_object_class(demo_corpus(), "plane", "airplane")
        with pytest.raises(DuplicateMasterNameError):
            update_master_lists(corpus, CLASSES, additions=["plane"])
        with pytest.raises(DuplicateMasterNameError):
            update_master_lists(corpus, CLASSES, renames=[("street", "plane")])

    def test_retired_name_does_not_resolve(self):
        corpus = merge_object_class(demo_corpus(), "plane", "airplane")
        with pytest.raises(UnknownNameError):
            corpus.class_id("plane")
        with pytest.raises(UnknownNameError):
            update_master_lists(corpus, CLASSES, renames=[("plane", "jet")])


class TestMerges:
    def test_merge_class_rewrites_every_use(self):
        corpus = demo_corpus()
        plane, airplane = corpus.class_id("plane"), corpus.class_id("airplane")

        def uses(c, cid):
            return sum(
                (vr.subject.class_id == cid) + (vr.object.class_id == cid)
                for vrs in c.images.values()
                for vr in vrs
            )

        before_plane, before_air = uses(corpus, plane), uses(corpus, airplane)
        assert before_plane > 0
        out = merge_object_class(corpus, "plane", "airplane")
        assert uses(out, plane) == 0
        assert uses(out, airplane) == before_plane + before_air
        assert out.vr_count == corpus.vr_count
        assert plane in out.retired_class_ids
        assert out.object_class_names[plane] == "plane"

    def test_merge_self_rejected(self):
        with pytest.raises(SelfMergeError):
            merge_object_class(demo_corpus(), "dog", "dog")
        with pytest.raises(SelfMergeError):
            merge_predicate(demo_corpus(), "on", "on")

    def test_merge_unused_class_only_retires(self):
        corpus = demo_corpus()
        out = merge_object_class(corpus, "teddy bear", "bear")
        assert out.images == corpus.images
        assert corpus.class_id("teddy bear") in out.retired_class_ids

    def test_merge_predicate_rewrites_every_use(self):
        corpus = demo_corpus()
        walk, walk_on = corpus.predicate_id("walk"), corpus.predicate_id("walk on")
        before = sum(
            vr.predicate_id == walk for vrs in corpus.images.values() for vr in vrs
        )
        before_on = sum(
            vr.predicate_id == walk_on for vrs in corpus.images.values() for vr in vrs
        )
        out = merge_predicate(corpus, "walk", "walk on")
        after_on = sum(vr.predicate_id == walk_on for vrs in out.images.values() for vr in vrs)
        assert after_on == before + before_on
        assert all(vr.predicate_id != walk for vrs in out.images.values() for vr in vrs)

    def test_merge_conserves_counts_randomized(self):
        rng = random.Random(83)
        for _ in range(30):
            corpus = random_corpus(rng)
            a, b = rng.sample(corpus.object_class_names, 2)
            out = merge_object_class(corpus, a, b)
            assert out.vr_count == corpus.vr_count
            for image, vrs in corpus.images.items():
                assert len(out.images[image]) == len(vrs)
                for old, new in zip(vrs, out.images[image]):
                    assert new.subject.bbox == old.subject.bbox
                    assert new.object.bbox == old.object.bbox
                    assert new.predicate_id == old.predicate_id


class TestScopedClassChange:
    def test_only_listed_images_change(self):
        corpus = demo_corpus()
        out = change_class_for_image_set(corpus, ["img03.jpg"], "bear", "teddy bear")
        teddy = corpus.class_id("teddy bear")
        bear = corpus.class_id("bear")
        assert out.images["img03.jpg"][0].subject.class_id == teddy
        assert out.images["img03.jpg"][1].object.class_id == teddy
        # img04 also uses bear and must keep it
        assert out.images["img04.jpg"][0].subject.class_id == bear
        # both names stay live
        out.class_id("bear")
        out.class_id("teddy bear")

    def test_unknown_image_rejected_before_any_change(self):
        corpus = demo_corpus()
        snapshot = canonical_annotations_bytes(corpus)
        with pytest.raises(ImageNotFoundError):
            change_class_for_image_set(corpus, ["img03.jpg", "ghost.jpg"], "bear", "teddy bear")
        assert canonical_annotations_bytes(corpus) == snapshot


class TestGlobalRemovalsAndRewrites:
    def test_remove_vr_types(self):
        corpus = demo_corpus()
        out = remove_vr_types_global(corpus, [("dog", "has", "hat")])
        assert out.images["img09.jpg"] == []
        assert out.vr_count == corpus.vr_count - 1

    def test_remove_vr_types_randomized(self):
        rng = random.Random(19)
        for _ in range(30):
            corpus = random_corpus(rng)
            types = list(type_counter(corpus))
            target = rng.choice(types)
            out = remove_vr_types_global(corpus, [target])
            counts = type_counter(out)
            assert target not in counts
            expected = type_counter(corpus)
            del expected[target]
            assert counts == expected

    def test_remove_empty_images(self):
        corpus = remove_vr_types_global(demo_corpus(), [("dog", "has", "hat")])
        out = remove_empty_images(corpus)
        assert "img09.jpg" not in out.images
        assert len(out.images) == len(corpus.images) - 1
        assert remove_empty_images(out).images == out.images

    def test_change_vr_type(self):
        corpus = demo_corpus()
        out = change_vr_type_global(corpus, ("dog", "beside", "person"), ("dog", "under", "person"))
        vr = out.images["img02.jpg"][1]
        assert out.vr_type_names(vr) == ("dog", "under", "person")
        assert vr.subject.bbox == corpus.images["img02.jpg"][1].subject.bbox
        assert vr.object.bbox == corpus.images["img02.jpg"][1].object.bbox

    def test_change_vr_type_no_match_is_noop(self):
        corpus = demo_corpus()
        out = change_vr_type_global(
            corpus, ("shelf", "under", "shelf"), ("shelf", "on", "shelf")
        )
        assert out.images == corpus.images

    def test_role_swap_rejected(self):
        with pytest.raises(UnsupportedRewriteError):
            change_vr_type_global(demo_corpus(), ("hat", "on", "bear"), ("bear", "on", "hat"))

    def test_same_class_on_both_sides_is_fine(self):
        corpus = demo_corpus()
        out = change_vr_type_global(
            corpus, ("airplane", "beside", "airplane"), ("airplane", "near", "airplane")
        ) if "near" in corpus.predicate_names else change_vr_type_global(
            corpus, ("airplane", "beside", "airplane"), ("airplane", "under", "airplane")
        )
        assert out.vr_count == corpus.vr_count

    def test_change_vr_type_randomized_count(self):
        rng = random.Random(37)
        for _ in range(30):
            corpus = random_corpus(rng)
            types = list(type_counter(corpus))
            source = rng.choice(types)
            target = (source[0], rng.choice(corpus.predicate_names), source[2])
            out = change_vr_type_global(corpus, source, target)
            before = type_counter(corpus)
            after = type_counter(out)
            if source == target:
                assert after == before
            else:
                assert after[source] == 0
                assert after[target] == before[source] + before[target]


class TestDedup:
    def test_keeps_first_occurrence(self):
        corpus = demo_corpus()
        vrs = corpus.images["img07.jpg"]
        assert vrs[0] == vrs[1]
        out = dedup_vrs(corpus)
        assert out.images["img07.jpg"] == [vrs[0], vrs[2]]

    def test_idempotent_and_clean(self):
        rng = random.Random(7)
        for _ in range(50):
            corpus = random_corpus(rng, max_images=6, max_vrs=6)
            once = dedup_vrs(corpus)
            assert dedup_vrs(once).images == once.images
            for vrs in once.images.values():
                assert find_exact_duplicates(vrs) == []


class TestRunWorkflow:
    def test_empty_steps_rejected(self):
        with pytest.raises(ConfigError):
            run_workflow(WorkflowConfig(steps=[]), demo_corpus())

    def test_step_failure_names_ordinal_and_kind(self):
        corpus = demo_corpus()
        snapshot = canonical_annotations_bytes(corpus)
        config = WorkflowConfig(
            steps=[Step("dedup_vrs"), Step("merge_class", {"from_name": "dog", "to_name": "dog"})]
        )
        with pytest.raises(StepFailedError) as err:
            run_workflow(config, corpus)
        assert err.value.ordinal == 2
        assert err.value.kind == "merge_class"
        assert isinstance(err.value.cause, SelfMergeError)
        assert canonical_annotations_bytes(corpus) == snapshot

    def test_a_file_based_run_needs_every_path(self):
        message = "^config key 'input_annotations' is required for a file-based run$"
        with pytest.raises(ConfigError, match=message):
            run_workflow_files(WorkflowConfig(steps=[Step("dedup_vrs")]))

    def test_missing_protocol_file_fails_step(self):
        config = WorkflowConfig(steps=[Step("apply_protocol_file", {"path": "/nonexistent/x.txt"})])
        with pytest.raises(StepFailedError) as err:
            run_workflow(config, demo_corpus())
        assert isinstance(err.value.cause, FileMissingError)

    def test_per_step_effects(self):
        config = WorkflowConfig(
            steps=[Step("merge_predicate", {"from_name": "walk", "to_name": "walk on"})]
        )
        result, report = run_workflow(config, demo_corpus())
        assert len(report.steps) == 1
        step = report.steps[0]
        assert (step.ordinal, step.kind) == (1, "merge_predicate")
        assert step.effect.images_touched == 2
        assert step.effect.vrs_changed == 2
        assert step.effect.vrs_added == 0
        assert step.effect.vrs_removed == 0
        assert result.vr_count == 17


class TestConfigLoading:
    def test_demo_config_loads(self):
        config = load_workflow_config(DEMO_DIR / "config.json")
        assert [step.kind for step in config.steps] == [
            "update_master_lists",
            "apply_protocol_file",
            "change_class_for_image_set",
            "merge_class",
            "merge_predicate",
            "remove_vr_types_global",
            "remove_empty_images",
            "apply_protocol_file",
            "change_vr_type_global",
            "dedup_vrs",
            "apply_protocol_file",
        ]
        assert config.input_annotations == DEMO_DIR / "annotations.json"
        assert config.output_annotations == DEMO_DIR / "out" / "annotations.json"
        assert config.steps[1].args == {"path": str(DEMO_DIR / "proto_a.txt")}

    def base_config(self):
        return {
            "input_annotations": "a.json",
            "input_classes": "c.json",
            "input_predicates": "p.json",
            "output_annotations": "out/a.json",
            "output_classes": "out/c.json",
            "output_predicates": "out/p.json",
            "steps": [{"kind": "dedup_vrs"}],
        }

    def write(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return path

    def test_missing_key(self, tmp_path):
        raw = self.base_config()
        del raw["output_classes"]
        with pytest.raises(ConfigError, match="output_classes"):
            load_workflow_config(self.write(tmp_path, raw))

    def test_unknown_key(self, tmp_path):
        raw = self.base_config()
        raw["verbose"] = True
        with pytest.raises(ConfigError, match="verbose"):
            load_workflow_config(self.write(tmp_path, raw))

    def test_input_equals_output(self, tmp_path):
        raw = self.base_config()
        raw["output_annotations"] = raw["input_annotations"]
        with pytest.raises(ConfigError, match="differ"):
            load_workflow_config(self.write(tmp_path, raw))

    # every output against each input and each earlier output, as (output, other)
    COLLISIONS = [(output, other) for index, output in enumerate(_PATH_KEYS[3:], start=3)
                  for other in _PATH_KEYS[:index]]

    @pytest.mark.parametrize("output, other", COLLISIONS, ids=["=".join(pair) for pair in COLLISIONS])
    def test_an_output_is_refused_on_the_file_of_another_path(self, tmp_path, output, other):
        raw = self.base_config()
        raw[output] = f"sub/../{raw[other]}"  # another spelling of the same file
        side = output.removeprefix("output_")
        message = (f"input and output {side} paths must differ" if other == f"input_{side}"
                   else f"{output} and {other} paths must differ")
        with pytest.raises(ConfigError, match=f"^{message}$"):
            load_workflow_config(self.write(tmp_path, raw))

    def test_an_output_is_refused_on_the_file_of_a_script(self, tmp_path):
        raw = self.base_config()
        raw["steps"] = [{"kind": "dedup_vrs"}, {"kind": "apply_protocol_file", "path": "s.txt"},
                        {"kind": "apply_protocol_file", "path": "out/../out/c.json"}]
        with pytest.raises(ConfigError, match=r"^output_classes and steps\[2\]\.path paths must differ$"):
            load_workflow_config(self.write(tmp_path, raw))
        raw["steps"][2]["path"] = "a.json"  # a script may share a file with an input
        assert len(load_workflow_config(self.write(tmp_path, raw)).steps) == 3

    def test_inputs_may_share_a_file(self, tmp_path):
        raw = self.base_config()
        raw["input_classes"] = raw["input_predicates"] = raw["input_annotations"]
        config = load_workflow_config(self.write(tmp_path, raw))
        assert config.input_classes == config.input_predicates == tmp_path / "a.json"

    @pytest.mark.parametrize("output, other", [("output_predicates", "input_annotations"),
                                               ("output_predicates", "output_classes")])
    def test_a_colliding_run_exits_3_before_any_step(self, tmp_path, capsys, output, other):
        for name in ("annotations.json", "classes.json", "predicates.json"):
            shutil.copy(DEMO_DIR / name, tmp_path / name)
        raw = {**{f"input_{name}": f"{name}.json" for name in ("annotations", "classes", "predicates")},
               **{f"output_{name}": f"out/{name}.json" for name in ("annotations", "classes", "predicates")},
               "steps": [{"kind": "apply_protocol_file", "path": "missing.txt"}]}
        raw[output] = raw[other]
        inputs = {path: path.read_bytes() for path in tmp_path.iterdir()}
        config = self.write(tmp_path, raw)
        assert main(["workflow", "run", str(config)]) == 3
        assert capsys.readouterr() == ("", f"error: {output} and {other} paths must differ\n")
        assert {path: path.read_bytes() for path in tmp_path.iterdir() if path != config} == inputs

    @pytest.mark.parametrize("output", _PATH_KEYS[3:])
    def test_an_output_on_the_config_file_exits_3_before_any_step(self, tmp_path, capsys, output):
        for name in ("annotations.json", "classes.json", "predicates.json"):
            shutil.copy(DEMO_DIR / name, tmp_path / name)
        raw = {**{f"input_{name}": f"{name}.json" for name in ("annotations", "classes", "predicates")},
               **{f"output_{name}": f"out/{name}.json" for name in ("annotations", "classes", "predicates")},
               "steps": [{"kind": "dedup_vrs"}]}
        raw[output] = "sub/../config.json"  # another spelling of the config's own file
        config = self.write(tmp_path, raw)
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        with pytest.raises(ConfigError, match=f"^{output} and CONFIG paths must differ$"):
            load_workflow_config(config)
        assert main(["workflow", "run", str(config)]) == 3
        assert capsys.readouterr() == ("", f"error: {output} and CONFIG paths must differ\n")
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_a_symlink_loop_is_a_path_like_any_other(self, tmp_path):
        (tmp_path / "loop").symlink_to("loop")
        raw = self.base_config()
        raw["output_annotations"] = "loop"
        assert load_workflow_config(self.write(tmp_path, raw)).output_annotations == tmp_path / "loop"
        raw["output_classes"] = "./loop"
        with pytest.raises(ConfigError, match="^output_classes and output_annotations paths must differ$"):
            load_workflow_config(self.write(tmp_path, raw))

    def test_unknown_step_kind(self, tmp_path):
        raw = self.base_config()
        raw["steps"] = [{"kind": "sort_images"}]
        with pytest.raises(ConfigError, match="sort_images"):
            load_workflow_config(self.write(tmp_path, raw))

    def test_extra_step_key(self, tmp_path):
        raw = self.base_config()
        raw["steps"] = [{"kind": "merge_class", "from": "a", "to": "b", "mode": "fast"}]
        with pytest.raises(ConfigError):
            load_workflow_config(self.write(tmp_path, raw))

    def test_missing_step_key(self, tmp_path):
        raw = self.base_config()
        raw["steps"] = [{"kind": "merge_class", "from": "a"}]
        with pytest.raises(ConfigError):
            load_workflow_config(self.write(tmp_path, raw))

    def test_empty_steps(self, tmp_path):
        raw = self.base_config()
        raw["steps"] = []
        with pytest.raises(ConfigError, match="steps"):
            load_workflow_config(self.write(tmp_path, raw))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_workflow_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileMissingError):
            load_workflow_config(tmp_path / "absent.json")

    def test_deep_nesting(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"steps": ' + "[" * 200_000, encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: nested too deeply$"):
            load_workflow_config(path)

    def test_huge_integer(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"steps": ' + "9" * 5000 + "}", encoding="utf-8")
        message = f"^{re.escape(str(path))}: integer literal has too many digits$"
        with pytest.raises(ConfigError, match=message):
            load_workflow_config(path)

    @pytest.mark.parametrize("key", [*workflow._PATH_KEYS, "steps[0].path"])
    def test_nul_in_a_path(self, tmp_path, key):
        raw = self.base_config()
        if key == "steps[0].path":
            raw["steps"] = [{"kind": "apply_protocol_file", "path": "p\u0000.txt"}]
        else:
            raw[key] = "x\u0000.json"
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} must not contain a NUL character$"):
            load_workflow_config(self.write(tmp_path, raw))

    def test_config_root_must_be_an_object(self, tmp_path):
        with pytest.raises(ConfigError, match="^config root must be an object$"):
            load_workflow_config(self.write(tmp_path, [self.base_config()]))

    def test_lone_surrogate_name(self, tmp_path):
        raw = self.base_config()
        raw["steps"] = [{"kind": "merge_class", "from": "a", "to": "\ud800"}]
        with pytest.raises(ConfigError, match="not valid Unicode"):
            load_workflow_config(self.write(tmp_path, raw))

    @pytest.mark.parametrize("text", ["\ud800x", "x\udbffy", "xy\udc00", "\ud83d"],
                             ids=["start", "middle", "end", "half-a-pair"])
    def test_lone_surrogate_anywhere_in_a_name_or_key(self, tmp_path, text):
        named, keyed = self.base_config(), self.base_config()
        named["steps"] = [{"kind": "merge_class", "from": "a", "to": text}]
        keyed[text] = "x"
        for raw in (named, keyed):
            path = self.write(tmp_path, raw)
            message = f"^{re.escape(str(path))}: a string is not valid Unicode$"
            with pytest.raises(ConfigError, match=message):
                load_workflow_config(path)

    def test_astral_character_in_a_name_loads(self, tmp_path):
        raw = self.base_config()
        raw["steps"] = [{"kind": "merge_class", "from": "a", "to": "\U0001f600"}]
        config = load_workflow_config(self.write(tmp_path, raw))
        assert config.steps[0].args == {"from_name": "a", "to_name": "\U0001f600"}

    def test_duplicate_step_key(self, tmp_path):
        text = json.dumps(self.base_config())
        text = text.replace(
            '{"kind": "dedup_vrs"}', '{"kind": "merge_class", "from": "a", "from": "b", "to": "c"}'
        )
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate key 'from'"):
            load_workflow_config(path)

    def test_duplicate_top_level_key(self, tmp_path):
        text = json.dumps(self.base_config())
        text = text.replace('"steps":', '"output_classes": "out/x.json", "steps":')
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate key 'output_classes'"):
            load_workflow_config(path)


# one valid entry per step kind, runnable on the demo corpus; "edit.txt" is
# written next to the config by TestStepTable.write
VALID_STEPS = {
    "update_master_lists": {
        "target": "classes", "renames": [["sofa", "couch"]], "additions": ["speaker"]
    },
    "apply_protocol_file": {"path": "edit.txt"},
    "change_class_for_image_set": {"images": ["img03.jpg"], "from": "bear", "to": "teddy bear"},
    "merge_class": {"from": "plane", "to": "airplane"},
    "merge_predicate": {"from": "walk", "to": "walk on"},
    "remove_vr_types_global": {"types": [["dog", "has", "hat"]]},
    "remove_empty_images": {},
    "change_vr_type_global": {
        "from": ["dog", "beside", "person"], "to": ["dog", "under", "person"]
    },
    "dedup_vrs": {},
}
KEYS = [(kind, key) for kind, entry in VALID_STEPS.items() for key in entry]
REQUIRED_KEYS = [(kind, key) for kind, key in KEYS if key not in STEPS[kind][2]]


class TestStepTable:
    def write(self, tmp_path, *steps):
        (tmp_path / "edit.txt").write_text(
            "imname; img09.jpg\nrvrxxx; 0; (dog, has, hat);\n", encoding="utf-8"
        )
        raw = {
            "input_annotations": str(DEMO_DIR / "annotations.json"),
            "input_classes": str(DEMO_DIR / "classes.json"),
            "input_predicates": str(DEMO_DIR / "predicates.json"),
            "output_annotations": "out/a.json",
            "output_classes": "out/c.json",
            "output_predicates": "out/p.json",
            "steps": list(steps),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        return path

    def test_every_kind_has_a_valid_entry(self):
        assert set(VALID_STEPS) == set(STEPS)
        for kind, entry in VALID_STEPS.items():
            assert set(entry) == set(STEPS[kind][1])

    @pytest.mark.parametrize("kind", sorted(VALID_STEPS))
    def test_valid_entry_parses_and_runs(self, tmp_path, kind):
        config = load_workflow_config(self.write(tmp_path, {"kind": kind, **VALID_STEPS[kind]}))
        assert [step.kind for step in config.steps] == [kind]
        result, report = run_workflow(config, demo_corpus())
        assert [(s.ordinal, s.kind) for s in report.steps] == [(1, kind)]
        # the demo corpus has no empty image; every other entry edits something
        assert (report.steps[0].effect.images_touched > 0) == (kind != "remove_empty_images")

    def test_script_path_resolves_against_config_dir(self, tmp_path):
        entry = {"kind": "apply_protocol_file", "path": "edit.txt"}
        config = load_workflow_config(self.write(tmp_path, entry))
        assert config.steps[0].args == {"path": str(tmp_path / "edit.txt")}

    @pytest.mark.parametrize("kind, key", REQUIRED_KEYS)
    def test_missing_required_key(self, tmp_path, kind, key):
        entry = {k: v for k, v in VALID_STEPS[kind].items() if k != key}
        with pytest.raises(ConfigError, match=r"steps\[0\] \(%s\): expected keys" % kind):
            load_workflow_config(self.write(tmp_path, {"kind": kind, **entry}))

    @pytest.mark.parametrize("kind", sorted(VALID_STEPS))
    def test_unknown_key(self, tmp_path, kind):
        entry = {"kind": kind, **VALID_STEPS[kind], "mode": "fast"}
        with pytest.raises(ConfigError, match=r"got \[.*'mode'"):
            load_workflow_config(self.write(tmp_path, entry))

    @pytest.mark.parametrize("kind, key", KEYS)
    @pytest.mark.parametrize("value", [5, {"a": "b"}, [5]])
    def test_wrong_value_type(self, tmp_path, kind, key, value):
        entry = {"kind": kind, **VALID_STEPS[kind], key: value}
        with pytest.raises(ConfigError, match=r"steps\[0\]\.%s" % key):
            load_workflow_config(self.write(tmp_path, entry))

    @pytest.mark.parametrize(
        "optional", [(), ("renames",), ("additions",), ("renames", "additions")]
    )
    def test_update_master_lists_optional_keys(self, tmp_path, optional):
        full = VALID_STEPS["update_master_lists"]
        entry = {"kind": "update_master_lists", "target": "classes"}
        entry.update({key: full[key] for key in optional})
        config = load_workflow_config(self.write(tmp_path, entry))
        result, _ = run_workflow(config, demo_corpus())
        assert ("couch" in result.object_class_names) == ("renames" in optional)
        assert ("speaker" in result.object_class_names) == ("additions" in optional)

    @pytest.mark.parametrize(
        "entry",
        [5, "dedup_vrs", [], None, {}, {"kind": ["dedup_vrs"]}, {"kind": {"a": 1}}, {"kind": 5}],
        ids=repr,
    )
    def test_malformed_entry(self, tmp_path, entry):
        with pytest.raises(ConfigError, match=r"steps\[0\]"):
            load_workflow_config(self.write(tmp_path, entry))

    def test_docs_table_matches(self):
        """docs/formats.md lists exactly the kinds, keys and optional keys of STEPS."""
        text = (Path(__file__).parent.parent / "docs" / "formats.md").read_text(encoding="utf-8")
        table = text.split("| kind | keys | effect |\n", 1)[1].split("\n\n", 1)[0]
        documented = {}
        for line in table.splitlines()[1:]:
            kind, keys, _ = line.strip("|").split(" | ")
            documented[kind.strip(" `")] = (
                set(re.findall(r"`([a-z_]+)`", keys)),
                set(re.findall(r"optional `([a-z_]+)`", keys)),
            )
        assert documented == {
            kind: (set(spec), set(optional)) for kind, (_, spec, optional) in STEPS.items()
        }


class TestDemoPipeline:
    def run_demo(self, tmp_path, name):
        workdir = tmp_path / name
        shutil.copytree(DEMO_DIR, workdir, ignore=shutil.ignore_patterns("expected_*", "out"))
        report = run_workflow_files(load_workflow_config(workdir / "config.json"))
        return workdir / "out", report

    def test_matches_expected_fixtures(self, tmp_path):
        out_dir, report = self.run_demo(tmp_path, "run")
        expected = load_corpus(
            DEMO_DIR / "expected_annotations.json",
            DEMO_DIR / "expected_classes.json",
            DEMO_DIR / "predicates.json",
        )
        assert (out_dir / "annotations.json").read_bytes() == canonical_annotations_bytes(expected)
        assert (out_dir / "classes.json").read_bytes() == canonical_master_list_bytes(
            expected.object_class_names
        )
        assert (out_dir / "predicates.json").read_bytes() == canonical_master_list_bytes(
            expected.predicate_names
        )
        assert [s.ordinal for s in report.steps] == list(range(1, 12))

    def test_double_run_byte_identical(self, tmp_path):
        first, _ = self.run_demo(tmp_path, "first")
        second, _ = self.run_demo(tmp_path, "second")
        for name in ("annotations.json", "classes.json", "predicates.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()


# --------------------------------------------------------------------------
# effect diff against the naive resolve-everything diff
# --------------------------------------------------------------------------


def _oracle_resolved_vrs(corpus, image):
    return Counter(
        (
            corpus.class_name(vr.subject.class_id),
            tuple(vr.subject.bbox),
            corpus.predicate_name(vr.predicate_id),
            corpus.class_name(vr.object.class_id),
            tuple(vr.object.bbox),
        )
        for vr in corpus.images[image]
    )


def oracle_diff_corpora(before, after):
    """diff_corpora as it was before equal VR lists were skipped: every image
    present on both sides is resolved to names and compared as a multiset."""
    deltas = []
    for image in sorted(set(before.images) | set(after.images)):
        if image not in after.images:
            deltas.append(ImageDelta(image, "removed"))
            continue
        if image not in before.images:
            deltas.append(ImageDelta(image, "added"))
            continue
        old = _oracle_resolved_vrs(before, image)
        new = _oracle_resolved_vrs(after, image)
        if old == new:
            continue
        gone = sum((old - new).values())
        came = sum((new - old).values())
        paired = min(gone, came)
        deltas.append(
            ImageDelta(image, "modified", changed=paired, added=came - paired, removed=gone - paired)
        )
    return CorpusDiff(deltas)


def _live(names, retired):
    return [name for index, name in enumerate(names) if index not in retired]


class _StepArgs:
    """Seeded arguments under which each step function succeeds on `corpus`."""

    def __init__(self, rng):
        self.rng = rng
        self.fresh = 0

    def new_name(self):
        self.fresh += 1
        return f"fresh {self.fresh}"

    def classes(self, corpus):
        return _live(corpus.object_class_names, corpus.retired_class_ids)

    def predicates(self, corpus):
        return _live(corpus.predicate_names, corpus.retired_predicate_ids)

    def existing_type(self, corpus):
        types = [corpus.vr_type_names(vr) for vrs in corpus.images.values() for vr in vrs]
        if types and self.rng.random() < 0.8:
            return list(self.rng.choice(types))
        return [
            self.rng.choice(self.classes(corpus)),
            self.rng.choice(self.predicates(corpus)),
            self.rng.choice(self.classes(corpus)),
        ]

    def master_lists(self, corpus, renames, additions):
        target = self.rng.choice([CLASSES, PREDICATES])
        live = self.classes(corpus) if target == CLASSES else self.predicates(corpus)
        args = {"target": target}
        if renames:
            olds = self.rng.sample(live, self.rng.randrange(1, min(2, len(live)) + 1))
            args["renames"] = [(old, self.new_name()) for old in olds]
        if additions:
            args["additions"] = [self.new_name() for _ in range(self.rng.randrange(1, 3))]
        return args

    def blocks(self, corpus):
        """One block per chosen image, each valid against the input corpus."""
        rng = self.rng
        blocks = []
        for line, image in enumerate(rng.sample(sorted(corpus.images), min(3, len(corpus.images)))):
            vrs = corpus.images[image]
            kinds = [K.AVRXXX, K.RIMXXX] + (list(_CHANGES) + [K.RVRXXX] if vrs else [])
            kind = rng.choice(kinds)
            if kind is K.RIMXXX:
                blocks.append(ImageBlock(image, line, remove_image=True))
                continue
            if kind is K.AVRXXX:
                spec = NewVRSpec(
                    rng.choice(self.classes(corpus)),
                    random_bbox(rng),
                    rng.choice(self.predicates(corpus)),
                    rng.choice(self.classes(corpus)),
                    random_bbox(rng),
                )
                ins = Instruction(kind, line, new_vr=spec)
            else:
                index = rng.randrange(len(vrs))
                ref = corpus.vr_type_names(vrs[index])
                payload = _CHANGES.get(kind, (None, None))[1]
                names = {"class": self.classes, "predicate": self.predicates}
                ins = Instruction(
                    kind,
                    line,
                    vr_index=index,
                    ref_tuple=ref,
                    new_name=rng.choice(names[payload](corpus)) if payload in names else None,
                    new_bbox=random_bbox(rng) if payload == "bbox" else None,
                )
            blocks.append(ImageBlock(image, line, instructions=[ins]))
        return blocks

    def for_kind(self, kind, corpus, script_path):
        """Keyword arguments for the step function of `kind`; None when the
        corpus has too few live names for it."""
        rng = self.rng
        if kind == "update_master_lists":
            return self.master_lists(corpus, rng.random() < 0.5, rng.random() < 0.5)
        if kind == "apply_protocol_file":
            script_path.write_text(render_script(self.blocks(corpus)), encoding="utf-8")
            return {"path": str(script_path)}
        if kind == "change_class_for_image_set":
            images = sorted(corpus.images)
            chosen = rng.sample(images, rng.randrange(0, len(images) + 1))
            if chosen and rng.random() < 0.3:  # an image listed twice is rewritten once
                chosen.insert(rng.randrange(len(chosen) + 1), rng.choice(chosen))
            return {
                "image_filenames": chosen,
                "from_name": rng.choice(self.classes(corpus)),
                "to_name": rng.choice(self.classes(corpus)),
            }
        if kind in ("merge_class", "merge_predicate"):
            live = self.classes(corpus) if kind == "merge_class" else self.predicates(corpus)
            if len(live) < 2:
                return None
            from_name, to_name = rng.sample(live, 2)
            return {"from_name": from_name, "to_name": to_name}
        if kind == "remove_vr_types_global":
            return {"types": [self.existing_type(corpus) for _ in range(rng.randrange(1, 3))]}
        if kind == "change_vr_type_global":
            from_type = self.existing_type(corpus)
            while True:
                to_type = self.existing_type(corpus)
                swaps = from_type[0] != from_type[2] and to_type[::2] == from_type[2::-2]
                if not swaps:
                    return {"from_type": from_type, "to_type": to_type}
        return {}


def relabeled(corpus, classes, predicates):
    """`corpus` over the given master lists, which must hold every name its
    VRs use: each VR keeps its names and boxes, its ids follow the names."""
    class_ids = {name: i for i, name in enumerate(classes)}
    predicate_ids = {name: i for i, name in enumerate(predicates)}

    def moved(vr):
        (s, s_box), p, (o, o_box) = vr
        return VisualRelationship(
            AnnotatedObject(class_ids[corpus.class_name(s)], s_box),
            predicate_ids[corpus.predicate_name(p)],
            AnnotatedObject(class_ids[corpus.class_name(o)], o_box),
        )

    images = {image: [moved(vr) for vr in vrs] for image, vrs in corpus.images.items()}
    return AnnotationCorpus(images, list(classes), list(predicates))


def saved_and_loaded(corpus, directory):
    paths = [directory / name for name in ("annotations.json", "classes.json", "predicates.json")]
    directory.mkdir()
    save_corpus(corpus, *paths)
    return load_corpus(*paths), paths


class TestDiffOracle:
    def seeded_corpus(self, rng):
        corpus = random_corpus(
            rng, max_images=14, max_vrs=6, n_classes=8, n_predicates=6, allow_empty_images=True
        )
        for vrs in corpus.images.values():  # give dedup_vrs something to drop
            if vrs and rng.random() < 0.3:
                vrs.append(rng.choice(vrs))
        return corpus

    def stepped(self, rng, make, corpus, script_path, steps=4):
        """`corpus` after a few seeded steps of any kind."""
        for _ in range(steps):
            kind = rng.choice(sorted(STEPS))
            args = make.for_kind(kind, corpus, script_path)
            if args is not None:
                corpus = getattr(workflow, STEPS[kind][0])(corpus, **args)
        return corpus

    def shuffled(self, rng, names, extra):
        """`names` in a seeded order, with `extra` fresh names mixed in."""
        names = list(names) + extra
        rng.shuffle(names)
        return names

    def test_every_step_output_matches_oracle(self, tmp_path):
        rng = random.Random(5150)
        make = _StepArgs(rng)
        seen = Counter()
        for _ in range(60):
            corpus = self.seeded_corpus(rng)
            for _ in range(10):
                kind = rng.choice(sorted(STEPS))
                args = make.for_kind(kind, corpus, tmp_path / "script.txt")
                if args is None:
                    continue
                after = getattr(workflow, STEPS[kind][0])(corpus, **args)
                assert diff_corpora(corpus, after) == oracle_diff_corpora(corpus, after), (kind, args)
                seen[kind] += 1
                corpus = after
        assert set(seen) == set(STEPS)

    @pytest.mark.parametrize("renames, additions", [(True, False), (False, True), (True, True)])
    def test_master_list_updates_match_oracle(self, renames, additions):
        rng = random.Random(6160 + 2 * renames + additions)
        make = _StepArgs(rng)
        for _ in range(80):
            corpus = self.seeded_corpus(rng)
            after = update_master_lists(corpus, **make.master_lists(corpus, renames, additions))
            assert diff_corpora(corpus, after) == oracle_diff_corpora(corpus, after)

    def test_validate_and_apply_matches_oracle(self):
        rng = random.Random(7170)
        make = _StepArgs(rng)
        for _ in range(200):
            corpus = self.seeded_corpus(rng)
            after, diff = validate_and_apply(corpus, make.blocks(corpus))
            assert diff == oracle_diff_corpora(corpus, after)
            assert diff_corpora(corpus, after) == diff

    def test_rename_with_equal_lists_is_modified(self):
        corpus = demo_corpus()
        after = update_master_lists(corpus, CLASSES, renames=[("sofa", "couch")])
        assert after.images == corpus.images
        uses = {
            image: sum("sofa" in corpus.vr_type_names(vr)[::2] for vr in vrs)
            for image, vrs in corpus.images.items()
        }
        expected = [ImageDelta(image, "modified", changed=n) for image, n in sorted(uses.items()) if n]
        assert expected
        assert diff_corpora(corpus, after) == CorpusDiff(expected) == oracle_diff_corpora(corpus, after)

    def test_separately_loaded_corpora_match_oracle(self, tmp_path):
        rng = random.Random(8180)
        make = _StepArgs(rng)
        for case in range(40):
            corpus = self.seeded_corpus(rng)
            after = self.stepped(rng, make, corpus, tmp_path / "script.txt")
            left, _ = saved_and_loaded(corpus, tmp_path / f"left{case}")
            right, _ = saved_and_loaded(after, tmp_path / f"right{case}")
            shared = {id(vr) for vrs in left.images.values() for vr in vrs}
            assert not any(id(vr) in shared for vrs in right.images.values() for vr in vrs)
            assert diff_corpora(left, right) == oracle_diff_corpora(left, right)
            permuted = AnnotationCorpus({image: vrs[::-1] for image, vrs in right.images.items()},
                                        right.object_class_names, right.predicate_names)
            assert diff_corpora(right, permuted) == oracle_diff_corpora(right, permuted)

    def test_renames_on_both_sides_match_oracle(self, tmp_path):
        rng = random.Random(9190)
        make = _StepArgs(rng)
        for _ in range(60):
            corpus = self.seeded_corpus(rng)
            after = self.stepped(rng, make, corpus, tmp_path / "script.txt")
            before = update_master_lists(corpus, **make.master_lists(corpus, True, False))
            after = update_master_lists(after, **make.master_lists(after, True, False))
            both = set(make.classes(before)) & set(make.classes(after))
            if both and rng.random() < 0.5:  # one more rename, the same on both sides
                rename = [(rng.choice(sorted(both)), make.new_name())]
                before = update_master_lists(before, CLASSES, renames=rename)
                after = update_master_lists(after, CLASSES, renames=rename)
            assert diff_corpora(before, after) == oracle_diff_corpora(before, after)

    def test_reordered_lists_and_one_sided_names_match_oracle(self, tmp_path):
        rng = random.Random(10200)
        make = _StepArgs(rng)
        for _ in range(60):
            corpus = self.seeded_corpus(rng)
            after = self.stepped(rng, make, corpus, tmp_path / "script.txt")
            sides = []
            for side in (corpus, after):
                classes, predicates = side.object_class_names, side.predicate_names
                if rng.random() < 0.8:
                    classes = self.shuffled(rng, classes, [make.new_name()] * rng.randrange(2))
                if rng.random() < 0.8:
                    predicates = self.shuffled(rng, predicates, [make.new_name()] * rng.randrange(2))
                sides.append(relabeled(side, classes, predicates))
            before, after = sides
            assert diff_corpora(before, after) == oracle_diff_corpora(before, after)
            assert diff_corpora(after, before) == oracle_diff_corpora(after, before)

    def test_shorter_after_lists_match_oracle(self):
        rng = random.Random(11210)
        for case in range(60):
            before = self.seeded_corpus(rng)
            gone = {before.object_class_names[-1]}
            if case % 2:
                gone.add(before.predicate_names[-1])
            kept = before.copy()
            for image, vrs in kept.images.items():
                kept.images[image] = [vr for vr in vrs if not gone & set(kept.vr_type_names(vr))]
            classes = [name for name in before.object_class_names if name not in gone]
            predicates = [name for name in before.predicate_names if name not in gone]
            if case % 3 == 0:  # not a prefix of `before`'s list either
                classes = self.shuffled(rng, classes, [])
            after = relabeled(kept, classes, predicates)
            assert len(after.object_class_names) < len(before.object_class_names)
            assert diff_corpora(before, after) == oracle_diff_corpora(before, after)
            assert diff_corpora(after, before) == oracle_diff_corpora(after, before)

    def test_retired_names_still_count_as_names(self):
        rng = random.Random(12220)
        make = _StepArgs(rng)
        for _ in range(60):
            before = self.seeded_corpus(rng)
            used = sorted({vr.subject.class_id for vrs in before.images.values() for vr in vrs})
            if not used:
                continue
            name = before.class_name(rng.choice(used))
            before.retired_class_ids.add(before.object_class_names.index(name))  # VRs keep using it
            after = update_master_lists(before, **make.master_lists(before, True, True))
            if rng.random() < 0.5:  # the retired name moves to another id
                classes = self.shuffled(rng, after.object_class_names, [])
                after = relabeled(after, classes, after.predicate_names)
                after.retired_class_ids.add(classes.index(name))
            assert diff_corpora(before, after) == oracle_diff_corpora(before, after)

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_diff_command_on_saved_corpora_matches_oracle(self, tmp_path, capsys, fmt):
        rng = random.Random(13230)
        make = _StepArgs(rng)
        touched = 0
        for case in range(12):
            corpus = self.seeded_corpus(rng)
            after = self.stepped(rng, make, corpus, tmp_path / "script.txt")
            after = update_master_lists(after, **make.master_lists(after, True, True))
            classes = self.shuffled(rng, after.object_class_names, [])
            after = relabeled(after, classes, after.predicate_names)
            left, left_paths = saved_and_loaded(corpus, tmp_path / f"left{case}")
            right, right_paths = saved_and_loaded(after, tmp_path / f"right{case}")
            assert main(["diff", *map(str, left_paths), *map(str, right_paths), "--format", fmt]) == 0
            out = capsys.readouterr().out
            expected = oracle_diff_corpora(left, right)
            touched += expected.images_touched
            totals = {
                "images_touched": expected.images_touched,
                "vrs_changed": expected.vrs_changed,
                "vrs_added": expected.vrs_added,
                "vrs_removed": expected.vrs_removed,
                "images_added": expected.images_added,
                "images_removed": expected.images_removed,
            }
            if fmt == "structured":
                images = [
                    {"filename": d.filename, "status": d.status, "changed": d.changed,
                     "added": d.added, "removed": d.removed}
                    for d in expected.deltas
                ]
                payload = {"images": images, **totals}
                assert out == json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
                continue
            lines = [
                f"modified {d.filename} changed={d.changed} added={d.added} removed={d.removed}"
                if d.status == "modified" else f"{d.status} {d.filename}"
                for d in expected.deltas
            ]
            lines.append(
                "total: images_touched={images_touched} changed={vrs_changed} added={vrs_added} "
                "removed={vrs_removed} images_added={images_added} "
                "images_removed={images_removed}".format(**totals)
            )
            assert out == "\n".join(lines) + "\n"
        assert touched


def _origins(before, after):
    """Each VR of `after`, as the (image, index) where the same object first sits
    in `before`, or None for a VR that `before` does not hold."""
    where = {}
    for image, vrs in before.images.items():
        for index, vr in enumerate(vrs):
            where.setdefault(id(vr), (image, index))
    return {image: [where.get(id(vr)) for vr in vrs] for image, vrs in after.images.items()}


def _containers(corpus):
    return {id(c) for c in (corpus.images, corpus.object_class_names, corpus.predicate_names,
                            corpus.retired_class_ids, corpus.retired_predicate_ids,
                            *corpus.images.values())}


class TestStepsAgainstReference:
    """Each step function gives what the steps before the one list rewrite gave
    (`helpers.REFERENCE_STEPS`): the same corpus, image order, names and retired
    sets, the same effect diff, the same input VR objects kept, the same error,
    and the input left as it was."""

    def seeded_corpus(self, rng, make):
        corpus = random_corpus(rng, max_images=12, max_vrs=6, n_classes=7, n_predicates=5,
                               allow_empty_images=True)
        images = list(corpus.images.items())
        rng.shuffle(images)
        corpus.images = dict(images)
        for vrs in corpus.images.values():  # duplicates, as one object or as an equal one
            if vrs and rng.random() < 0.4:
                vr = rng.choice(vrs)
                vrs.insert(rng.randrange(len(vrs) + 1), vr if rng.random() < 0.5 else VisualRelationship(*vr))
        corpus.object_class_names.append(make.new_name())  # ids that no VR uses
        corpus.predicate_names.append(make.new_name())
        if rng.random() < 0.5:
            corpus = update_master_lists(corpus, **make.master_lists(corpus, True, False))
        for names, retired in ((corpus.object_class_names, corpus.retired_class_ids),
                               (corpus.predicate_names, corpus.retired_predicate_ids)):
            if rng.random() < 0.4:  # VRs may still use a retired id
                retired.add(rng.randrange(len(names)))
        return corpus

    def mangled(self, rng, make, corpus, args):
        """`args` with one entry made to fail: a retired or unknown name, an unknown
        image, or a name already listed."""
        key = rng.choice(sorted(set(args) - {"path"}) or ["path"])
        retired = ([corpus.object_class_names[i] for i in corpus.retired_class_ids]
                   + [corpus.predicate_names[i] for i in corpus.retired_predicate_ids])
        bad, value = rng.choice([*retired, "ghost"]), args.get(key)
        mangled = {
            "target": bad, "from_name": bad, "to_name": bad,
            "image_filenames": [*(value or []), "ghost.jpg"],
            "from_type": [bad, *value[1:]] if key == "from_type" else None,
            "to_type": [bad, *value[1:]] if key == "to_type" else None,
            "types": [*value, [bad, *value[0][1:]]] if key == "types" else None,
            "renames": [*(value or []), (bad, make.new_name())],
            "additions": [*(value or []), rng.choice(corpus.object_class_names + corpus.predicate_names)],
        }
        return {**args, key: mangled[key]} if key in mangled else args

    @staticmethod
    def outcome(step, corpus, args):
        try:
            return step(corpus, **args)
        except VrannotError as exc:
            return type(exc), str(exc)

    def test_every_step_matches_reference(self, tmp_path):
        rng = random.Random(29290)
        make = _StepArgs(rng)
        seen, failed = Counter(), Counter()
        for _ in range(80):
            corpus = self.seeded_corpus(rng, make)
            for _ in range(8):
                kind = rng.choice(sorted(STEPS))
                args = make.for_kind(kind, corpus, tmp_path / "script.txt")
                if args is None:
                    continue
                if rng.random() < 0.2:
                    args = self.mangled(rng, make, corpus, args)
                snapshot, held = corpus.copy(), _origins(corpus, corpus)
                new = self.outcome(getattr(workflow, STEPS[kind][0]), corpus, args)
                old = self.outcome(REFERENCE_STEPS[kind], corpus, args)
                assert corpus == snapshot and _origins(corpus, corpus) == held, kind
                assert list(corpus.images) == list(snapshot.images)
                if isinstance(old, tuple):
                    assert new == old, (kind, args)
                    failed[kind] += 1
                    continue
                assert (new, list(new.images)) == (old, list(old.images)), (kind, args)
                assert diff_corpora(corpus, new) == diff_corpora(corpus, old)
                assert _origins(corpus, new) == _origins(corpus, old), (kind, args)
                assert not _containers(corpus) & _containers(new)
                seen[kind] += 1
                corpus = new
        assert set(seen) == set(STEPS)
        assert sum(failed.values()) > 20
