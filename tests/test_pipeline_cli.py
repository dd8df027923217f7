"""Pipeline runs, determinism, report round-trips, CLI exit codes."""

import copy
import gc
import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import child_env

from folnerflow import (
    ConfigError,
    FamilyParams,
    InternalInvariantError,
    MultisetFamily,
    WindowSpace,
    build_tree_tails,
    grid_window,
    singleton_family,
    tree_window,
)
from folnerflow import cli
from folnerflow.chains import (
    Chain,
    IndexedFamily,
    family_from_json,
    family_to_json,
    load_family,
    multiset_family_from_json,
    multiset_family_to_json,
)
from folnerflow.cli import _COMMANDS, _NAMES, _stage_flags, build_parser
from folnerflow.constructions import box_family, build_box_space
from folnerflow.jsonio import dump_json, parse_ids
from folnerflow.pipeline import STAGES, PipelineConfig, explain, run
from folnerflow.rips import build_flow, build_rips, flow_to_json, rips_to_json
from folnerflow.space import load_space, space_to_json
from folnerflow.tails import cover_to_json


def tent_config(seed=7):
    return PipelineConfig.from_json({
        "seed": seed,
        "stages": [
            {"name": "win", "kind": "generate",
             "params": {"spec": {"kind": "grid", "dim": 1, "low": -140, "high": 140}}},
            {"name": "graph", "kind": "rips", "params": {"r": "1/1"},
             "inputs": {"space": "win"}},
            {"name": "exit", "kind": "flow", "inputs": {"rips": "graph"}},
            {"name": "tent", "kind": "family",
             "params": {"kind": "tent", "width": 8, "R": "1/1", "epsilon": "1/4",
                        "core": {"coords": [-70, 120]}},
             "inputs": {"space": "win"}},
            {"name": "flat", "kind": "flatten",
             "inputs": {"family": "tent", "flow": "exit"}},
            {"name": "check", "kind": "verify", "params": {"require_flat": True},
             "inputs": {"family": "flat"}},
        ],
    })


def box_config():
    return PipelineConfig.from_json({
        "stages": [
            {"name": "boxes", "kind": "box",
             "params": {"m": 4, "boxes": 5, "F": "0..9", "R": "1/1",
                        "epsilon": "1/4"}},
            {"name": "check", "kind": "verify", "params": {"require_flat": True},
             "inputs": {"family": "boxes"}},
        ],
    })


# a tent family whose core hugs the line's left sink: indices 5..10 escape
ESCAPE_CONFIG = {"stages": [
    {"name": "win", "kind": "generate",
     "params": {"spec": {"kind": "grid", "dim": 1, "low": -200, "high": 200}}},
    {"name": "graph", "kind": "rips", "params": {"r": "1/1"}, "inputs": {"space": "win"}},
    {"name": "exit", "kind": "flow", "inputs": {"rips": "graph"}},
    {"name": "tent", "kind": "family",
     "params": {"kind": "tent", "width": 11, "R": "1/1", "epsilon": "1/4",
                "core": {"coords": [-195, -190]}},
     "inputs": {"space": "win"}},
    {"name": "flat", "kind": "flatten", "inputs": {"family": "tent", "flow": "exit"}},
]}
ESCAPED = [5, 6, 7, 8, 9, 10]


# "group command" -> its `cli._COMMANDS` row, for each of the 14 stage commands
STAGE_COMMANDS = {f"{group} {name}": row for group, commands in _COMMANDS.items()
                  if isinstance(commands, dict) for name, row in commands.items()}


def escaped_order(text):
    """The indices of explain's escape lines, in the order it prints them."""
    return [int(line.split()[3]) for line in text.splitlines()
            if line.startswith("    escaped at index")]


class TestConfigValidation:
    def test_missing_reference_named(self):
        with pytest.raises(ConfigError, match="nosuch"):
            PipelineConfig.from_json({
                "stages": [
                    {"name": "a", "kind": "rips", "inputs": {"space": "nosuch"}},
                ],
            })

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            PipelineConfig.from_json({
                "stages": [{"name": "a", "kind": "frobnicate"}],
            })

    def test_duplicate_names(self):
        with pytest.raises(ConfigError, match="duplicate"):
            PipelineConfig.from_json({
                "stages": [
                    {"name": "a", "kind": "generate", "params": {"spec": {"kind": "cycle", "length": 3}}},
                    {"name": "a", "kind": "generate", "params": {"spec": {"kind": "cycle", "length": 4}}},
                ],
            })

    @pytest.mark.parametrize("doc, message", [
        ([], "config must be an object, got []"),
        ({"seed": 1}, "config is missing 'stages'"),
        ({"stages": [{"kind": "generate"}]}, "config stages[0] is missing 'name'"),
        ({"stages": [], "seed": "1"}, "config seed must be an int, got '1'"),
        ({"stages": [7]}, "config stages[0] must be an object, got 7"),
        ({"stages": 7}, "config stages must be a list, got 7"),
    ], ids=["list", "no-stages", "stage-name", "seed-str", "stage-int", "stages-int"])
    def test_malformed_config_named(self, doc, message):
        with pytest.raises(ConfigError) as info:
            PipelineConfig.from_json(doc)
        assert str(info.value) == message

    def test_forward_reference_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_json({
                "stages": [
                    {"name": "r", "kind": "rips", "inputs": {"space": "s"}},
                    {"name": "s", "kind": "generate", "params": {"spec": {"kind": "cycle", "length": 3}}},
                ],
            })


class TestRun:
    def test_tent_pipeline_passes(self, tmp_path):
        report = run(tent_config(), tmp_path)
        assert report["passed"]
        flat = next(s for s in report["stages"] if s["name"] == "flat")
        before = Fraction(flat["worst_ratio_before"])
        after = Fraction(flat["worst_ratio_after"])
        assert after <= before
        check = next(s for s in report["stages"] if s["name"] == "check")
        assert check["passed"]
        # every intermediate artifact exists
        for name in ("win", "graph", "exit", "tent", "flat"):
            assert (tmp_path / f"{name}.json").exists()
        assert (tmp_path / "report.json").exists()

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(tent_config(), out1)
        run(tent_config(), out2)
        for p1 in sorted(out1.iterdir()):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes(), p1.name

    def test_seed_changes_randomized_stage(self, tmp_path):
        cfg = PipelineConfig.from_json({
            "stages": [
                {"name": "win", "kind": "generate",
                 "params": {"spec": {"kind": "grid", "dim": 1, "low": 0, "high": 30}}},
                {"name": "fam", "kind": "family",
                 "params": {"kind": "random_multiset", "M": 2, "size": 5,
                            "spread": "3/1", "core": list(range(5, 25))},
                 "inputs": {"space": "win"}},
            ],
        })
        r1 = run(cfg, tmp_path / "s0", seed=0)
        r2 = run(cfg, tmp_path / "s1", seed=1)
        f0 = (tmp_path / "s0" / "fam.json").read_bytes()
        f1 = (tmp_path / "s1" / "fam.json").read_bytes()
        assert f0 != f1
        assert r1["seed"] == 0 and r2["seed"] == 1

    def test_box_pipeline_report_values(self, tmp_path):
        report = run(box_config(), tmp_path)
        assert report["passed"]
        boxes = next(s for s in report["stages"] if s["name"] == "boxes")
        assert boxes["J"] == 2
        assert boxes["worst_ratio"] == "2/9"

    @pytest.mark.parametrize("m, boxes, F, R, epsilon, spacing", [
        (2, 3, "0", "1/2", "1/4", ["1/4", "1", "2"]),  # box 1 is spacing[1] from box 2
        (2, 3, "0", "1/2", "1/4", ["1/4", "1/2", "2"]),
        (4, 4, "0..5", "1/1", "1/2", ["1/4", "1/2", "1", "2"]),
        (4, 4, "0..5", "1/1", "1/2", None),
    ], ids=["first-entry-no-distance", "boxes-1-2-close", "boxes-1-3-close", "default"])
    def test_box_stage_spacing_gives_the_defined_J(self, tmp_path, m, boxes, F, R, epsilon,
                                                    spacing):
        """J is the last box that is too short to count translates faithfully
        (m^j below the threshold) or within R of another box, found here
        from the balls of the stage's own box space."""
        params = {"m": m, "boxes": boxes, "F": F, "R": R, "epsilon": epsilon}
        report = run(PipelineConfig.from_json({"stages": [
            {"name": "boxes", "kind": "box", "params": {**params, "spacing": spacing}}]}),
            tmp_path)
        model = build_box_space(m, boxes, spacing and [Fraction(s) for s in spacing])
        assert (tmp_path / "boxes.space.json").read_text() == dump_json(
            space_to_json(model.space))
        R = Fraction(R)
        close = [j for j in range(1, boxes + 1) if any(
            not model.space.ball(x, R) <= set(model.box_points(j)) for x in model.box_points(j))]
        short = [j for j in range(1, boxes + 1)
                 if m ** j < report["stages"][0]["injectivity_threshold"]]
        assert report["stages"][0]["J"] == max(close + short, default=0)

    def test_explain_renders_violations_and_transport(self, tmp_path):
        # a family that claims S = 1 with a weight-2 chain reaching 3 away
        space = grid_window(1, 0, 9)
        fam = IndexedFamily(space=space, chains={3: Chain({3: 2, 6: 1}), 4: Chain({4: 1})},
                            params=FamilyParams(R=1, epsilon=Fraction(1, 4), S=1))
        dump_json(space_to_json(space), tmp_path / "s.json")
        dump_json(family_to_json(fam), tmp_path / "f.json")
        r = run_cli(["family", "verify", "--family", "f.json", "--space", "s.json", "--flat"],
                    tmp_path)
        assert r.returncode == 1, r.stderr
        report = run(PipelineConfig.from_json({"stages": [
            {"name": "tree", "kind": "generate",
             "params": {"spec": {"kind": "tree", "branching": 2, "depth": 4}}},
            {"name": "cover", "kind": "tails", "inputs": {"space": "tree"}},
            {"name": "fam", "kind": "family", "inputs": {"space": "tree"},
             "params": {"kind": "random_multiset", "M": 2, "size": 2, "spread": "1/1",
                        "core": [0, 1, 2]}},
            {"name": "moved", "kind": "transport",
             "inputs": {"family": "fam", "tails": "cover", "space": "tree"}}]}), tmp_path)
        report["stages"].append({"name": "check", "kind": "verify", **json.loads(r.stdout)})
        lines = explain(report).splitlines()
        moved = report["stages"][3]
        assert lines[lines.index("- moved: " + STAGES["transport"].blurb) + 1] == (
            f"    new support bound {moved['new_S']}, target epsilon {moved['epsilon']}")
        assert lines[lines.index("- check: " + STAGES["verify"].blurb) + 1:] == [
            "    ratio violation: pair (3,4) has ratio infinity",  # disjoint supports
            "    support violation: index 3 reaches radius 3/1",
            "    not 0,1-valued at indices [3]"]

    def test_explain_prints_no_None(self, tmp_path):
        """A flatten and a verify stage with no in-range pairs, and a box stage
        that builds no family, leave no Python None in the rendering."""
        report = run(PipelineConfig.from_json({"stages": [
            {"name": "win", "kind": "generate",
             "params": {"spec": {"kind": "grid", "dim": 1, "low": -10, "high": 10}}},
            {"name": "graph", "kind": "rips", "inputs": {"space": "win"}},
            {"name": "exit", "kind": "flow", "inputs": {"rips": "graph"}},
            {"name": "one", "kind": "family", "params": {"kind": "singletons", "core": [10]},
             "inputs": {"space": "win"}},
            {"name": "flat", "kind": "flatten", "inputs": {"family": "one", "flow": "exit"}},
            {"name": "check", "kind": "verify", "inputs": {"family": "flat"}},
            {"name": "boxes", "kind": "box", "params": {"m": 4, "boxes": 3}}]}), tmp_path)
        assert report["stages"][5]["pairs_checked"] == 0
        lines = explain(report).splitlines()
        assert lines[-5:] == [
            "- flat: " + STAGES["flatten"].blurb,
            "    no in-range pairs; flattened in <= 0 steps; new support bound 0/1",
            "- check: " + STAGES["verify"].blurb,
            "    no in-range pairs",
            "- boxes: " + STAGES["box"].blurb]
        assert "None" not in explain(report)

    def test_verdicts_recomputable_from_artifacts(self, tmp_path):
        # re-verify the stored flat family against the stored space: the
        # report's verdict must be reproducible from artifacts alone
        from folnerflow.chains import load_family, verify_family
        from folnerflow.space import load_space
        report = run(tent_config(), tmp_path)
        space = load_space(tmp_path / "win.json")
        fam = load_family(tmp_path / "flat.json", space)
        fresh = verify_family(fam, require_flat=True)
        stored = json.loads((tmp_path / "check.report.json").read_text())
        assert fresh.to_json() == stored

    def test_explain_renders(self, tmp_path):
        report = run(tent_config(), tmp_path)
        text = explain(report)
        assert "PASS" in text
        assert "worst ratio" in text

    @pytest.mark.parametrize("doc", [{}, {"passed": True}, {"seed": 0, "stage": []}])
    def test_explain_needs_a_run_report(self, doc):
        with pytest.raises(ConfigError) as info:
            explain(doc)
        assert str(info.value) == "not a run report: missing 'stages'"

    def test_escapes_fail_the_run_and_explain_suggests_margin(self, tmp_path):
        report = run(PipelineConfig.from_json(ESCAPE_CONFIG), tmp_path)
        assert not report["passed"]
        assert "flat" in report["failed_stages"]
        flat = next(s for s in report["stages"] if s["name"] == "flat")
        assert flat["escaped_indices"] == ESCAPED
        text = explain(report)
        assert "window margin" in text
        assert escaped_order(text) == ESCAPED


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "folnerflow.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=child_env(),
    )


class TestCli:
    def test_gen_info_exit_codes(self, tmp_path):
        r = run_cli(["space", "gen", "--spec",
                     '{"kind": "cycle", "length": 6}', "--out", "c.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(["space", "info", "--space", "c.json", "--radii", "1,2"], tmp_path)
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["points"] == 6
        assert doc["growth"]["1/1"] == 3

    def test_bad_input_is_exit_2(self, tmp_path):
        r = run_cli(["space", "gen", "--spec", '{"kind": "wat"}'], tmp_path)
        assert r.returncode == 2
        r = run_cli(["space", "info", "--space", "missing.json"], tmp_path)
        assert r.returncode == 2
        r = run_cli(["space", "gen", "--spec", '{"kind": "cycle", "length": 5, "foo": 1}',
                     "--out", "c.json"], tmp_path)
        assert r.returncode == 2
        assert "generator spec does not read 'foo'" in r.stderr
        assert list(tmp_path.iterdir()) == []

    def test_malformed_space_is_exit_2(self, tmp_path):
        doc = space_to_json(grid_window(1, 0, 2))
        del doc["generator"]
        (tmp_path / "s.json").write_text(json.dumps({**doc, "frontier": [True]}))
        r = run_cli(["space", "info", "--space", "s.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: space file frontier[0] must be a point id below 3, got True\n")
        r = run_cli(["space", "gen", "--spec", '{"kind": "cycle", "length": true}',
                     "--out", "c.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: generator spec length must be an int, got True\n")
        assert not (tmp_path / "c.json").exists()

    def test_matrix_not_a_metric_is_exit_2(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps({
            "points": 3, "frontier": [0], "label": "m", "metric": {"type": "matrix", "entries": [
                ["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]]}}))
        r = run_cli(["rips", "build", "--space", "m.json", "--r", "1", "--out", "r.json"],
                    tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: matrix breaks the triangle inequality at (0,1,2): "
            "dist(0,2) > dist(0,1) + dist(1,2)\n")
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]

    def test_space_file_not_an_object_is_exit_2(self, tmp_path):
        (tmp_path / "s.json").write_text("[1, 2]")
        r = run_cli(["space", "info", "--space", "s.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: space file must be an object, got [1, 2]\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    @pytest.mark.parametrize("M", [1.5, True])
    def test_family_M_not_an_int_is_exit_2(self, tmp_path, M):
        # before the check, 1.5 failed only when the result was written,
        # and True was written into the pushed family
        write_command_inputs(tmp_path)
        doc = json.loads((tmp_path / "pushfam.json").read_text())
        doc["params"]["M"] = M
        (tmp_path / "pushfam.json").write_text(json.dumps(doc))
        r = run_cli([*PUSH, "--out", "pushed.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", f"error: family file params.M must be an int >= 0, got {M!r}\n")
        assert not (tmp_path / "pushed.json").exists()

    def test_family_verify_exit_codes(self, tmp_path):
        r = run_cli(["space", "gen", "--spec",
                     '{"kind": "grid", "dim": 1, "low": -30, "high": 30}',
                     "--out", "s.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        fam = {
            "params": {"R": "1/1", "epsilon": "1/4", "S": "0/1", "M": 0},
            "chains": [[x, {"weights": [[x, 1]]}] for x in range(20, 30)],
        }
        (tmp_path / "bad.json").write_text(json.dumps(fam))
        r = run_cli(["family", "verify", "--family", "bad.json",
                     "--space", "s.json"], tmp_path)
        assert r.returncode == 1  # disjoint singletons: infinite ratios
        assert "infinity" in r.stdout
        good = {
            "params": {"R": "1/1", "epsilon": "1/3", "S": "10/1", "M": 0},
            "chains": [[x, {"weights": [[z, 1] for z in range(x - 5, x + 6)]}]
                       for x in range(20, 30)],
        }
        (tmp_path / "good.json").write_text(json.dumps(good))
        r = run_cli(["family", "verify", "--family", "good.json",
                     "--space", "s.json"], tmp_path)
        assert r.returncode == 0, r.stdout

    def test_full_artifact_chain(self, tmp_path):
        r = run_cli(["space", "gen", "--spec",
                     '{"kind": "grid", "dim": 1, "low": -60, "high": 60}',
                     "--out", "s.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(["rips", "build", "--space", "s.json", "--r", "1/1",
                     "--out", "r.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(["flow", "build", "--rips", "r.json", "--out", "f.json"],
                    tmp_path)
        assert r.returncode == 0, r.stderr
        fam = {
            "params": {"R": "1/1", "epsilon": "1/4", "S": "4/1", "M": 4},
            "chains": [[x, {"weights": [[z, 5 - abs(z - x)] for z in range(x - 4, x + 5)]}]
                       for x in range(70, 100)],
        }
        (tmp_path / "fam.json").write_text(json.dumps(fam))
        r = run_cli(["flatten", "run", "--family", "fam.json", "--flow", "f.json",
                     "--space", "s.json", "--out", "flat.json",
                     "--report", "rep.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / "rep.json").read_text())
        assert rep["escaped_indices"] == []
        assert Fraction(rep["worst_ratio_after"]) <= Fraction(rep["worst_ratio_before"])
        r = run_cli(["family", "verify", "--family", "flat.json",
                     "--space", "s.json", "--flat"], tmp_path)
        assert r.returncode == 0, r.stdout

    def test_tails_cli(self, tmp_path):
        r = run_cli(["space", "gen", "--spec",
                     '{"kind": "tree", "branching": 2, "depth": 5}',
                     "--out", "t.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(["tails", "build", "--space", "t.json", "--out", "cov.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(["tails", "verify", "--space", "t.json", "--cover", "cov.json"], tmp_path)
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["measured_K"] <= 2

    def test_amen_cli(self, tmp_path):
        r = run_cli(["space", "gen", "--spec",
                     '{"kind": "grid", "dim": 1, "low": -50, "high": 49}',
                     "--out", "s.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(["amen", "boundary", "--space", "s.json",
                     "--U", "50..59", "--R", "1"], tmp_path)
        assert r.returncode == 0
        assert json.loads(r.stdout)["ratio"] == "1/5"
        r = run_cli(["amen", "search", "--space", "s.json", "--R", "1",
                     "--eps", "1/4"], tmp_path)
        assert r.returncode == 0
        assert json.loads(r.stdout)["found"]

    def test_run_and_explain_cli(self, tmp_path):
        cfg = {
            "stages": [
                {"name": "boxes", "kind": "box",
                 "params": {"m": 4, "boxes": 5, "F": "0..9", "R": "1/1",
                            "epsilon": "1/4"}},
                {"name": "check", "kind": "verify",
                 "params": {"require_flat": True},
                 "inputs": {"family": "boxes"}},
            ],
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        r = run_cli(["run", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert "PASS" in r.stdout
        r = run_cli(["explain", "out/report.json"], tmp_path)
        assert r.returncode == 0
        assert "deep-box equalities hold" in r.stdout

    def test_run_exit_1_on_verification_failure(self, tmp_path):
        cfg = {
            "stages": [
                {"name": "win", "kind": "generate",
                 "params": {"spec": {"kind": "grid", "dim": 1, "low": 0, "high": 40}}},
                {"name": "fam", "kind": "family",
                 "params": {"kind": "singletons", "R": "1/1", "epsilon": "1/4",
                            "core": list(range(10, 20))},
                 "inputs": {"space": "win"}},
                {"name": "check", "kind": "verify", "inputs": {"family": "fam"}},
            ],
        }
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        r = run_cli(["run", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert r.returncode == 1, r.stderr
        # exit 1 is also what the interpreter returns when it cannot import
        # the CLI, so check that the run itself happened and failed
        assert "run verdict: FAIL" in r.stdout
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False

    def test_box_build_epsilon_zero_is_exit_2(self, tmp_path):
        r = run_cli(["box", "build", "--m", "2", "--boxes", "3", "--F", "0..2", "--R", "1",
                     "--eps", "0", "--out", "b.json"], tmp_path)
        assert r.returncode == 2
        assert r.stderr == "error: epsilon must be positive\n"
        assert not (tmp_path / "b.json").exists()

    @pytest.mark.parametrize("key, value", [("size", 1.5), ("size", True), ("size", -1),
                                            ("M", 1.5)])
    def test_random_multiset_size_and_M_are_exit_2(self, tmp_path, key, value):
        # before the check, size 1.5 and M 1.5 died with a TypeError (exit
        # 1), size True ran as size 1 and size -1 exited 2 naming no field
        params = {"kind": "random_multiset", "M": 1, "size": 2, "spread": "1/1", key: value}
        (tmp_path / "cfg.json").write_text(json.dumps({"stages": [
            {"name": "win", "kind": "generate",
             "params": {"spec": {"kind": "grid", "dim": 1, "low": 0, "high": 9}}},
            {"name": "fam", "kind": "family", "inputs": {"space": "win"}, "params": params},
        ]}))
        r = run_cli(["run", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", f"error: stage 'fam': random_multiset {key} must be an int >= 0, "
            f"got {value!r}\n")
        assert not (tmp_path / "out" / "fam.json").exists()

    @pytest.mark.parametrize("params, message", [
        ({"kind": "tent", "width": 0}, "width must be an int >= 1, got 0"),
        ({"kind": "ball", "radius": 1, "core": [999]}, "unknown point id 999"),
    ], ids=["ValueError", "KeyError"])
    def test_a_stage_value_or_key_error_names_the_stage(self, tmp_path, params, message):
        # both used to reach `cli.main` bare, as `error: <message>`
        (tmp_path / "cfg.json").write_text(json.dumps({"stages": [
            {"name": "win", "kind": "generate",
             "params": {"spec": {"kind": "grid", "dim": 1, "low": 0, "high": 9}}},
            {"name": "fam", "kind": "family", "inputs": {"space": "win"}, "params": params},
        ]}))
        r = run_cli(["run", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: stage 'fam': {message}\n")
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("params, message", [
        ({"kind": "singletons", "core": [999]}, "unknown point id 999"),
        ({"kind": "singletons", "core": [-1]}, "unknown point id -1"),
        ({"kind": "translates", "F": [0, 1], "core": [999]}, "unknown point id 999"),
        ({"kind": "translates", "F": [0, 1], "core": [-1]}, "unknown point id -1"),
        ({"kind": "translates", "F": [0, 1], "core": {"coords": 5}},
         "core coords must be a list of 2 entries, got 5"),
        ({"kind": "singletons", "core": {"coords": [0]}},
         "core coords must be a list of 2 entries, got [0]"),
        ({"kind": "singletons", "core": {"coords": [0, True]}},
         "core coords[1] must be an int, got True"),
    ], ids=["singletons-999", "singletons-minus-1", "translates-999", "translates-minus-1",
            "coords-int", "coords-one", "coords-bool"])
    def test_a_core_is_checked_against_its_window(self, tmp_path, params, message):
        # singletons wrote a fam.json at an id outside the window, translates
        # read coords[-1] or died with a traceback, and a malformed coords
        # value raised a TypeError or named no field
        (tmp_path / "cfg.json").write_text(json.dumps({"stages": [
            {"name": "win", "kind": "generate",
             "params": {"spec": {"kind": "grid", "dim": 1, "low": 0, "high": 9}}},
            {"name": "fam", "kind": "family", "inputs": {"space": "win"}, "params": params},
        ]}))
        r = run_cli(["run", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: stage 'fam': {message}\n")
        assert not (tmp_path / "out" / "fam.json").exists()

    def test_run_exit_2_on_bad_config(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({
            "stages": [{"name": "a", "kind": "rips", "inputs": {"space": "ghost"}}],
        }))
        r = run_cli(["run", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert r.returncode == 2
        assert "ghost" in r.stderr


def translates_config(dim, F):
    return PipelineConfig.from_json({
        "stages": [
            {"name": "win", "kind": "generate",
             "params": {"spec": {"kind": "grid", "dim": dim, "low": 0, "high": 15}}},
            {"name": "fam", "kind": "family",
             "params": {"kind": "translates", "F": F}, "inputs": {"space": "win"}},
        ],
    })


class TestIdParsing:
    @pytest.mark.parametrize("spec, ids", [
        ("12", [12]),
        ("0,3", [0, 3]),
        ("2..5", [2, 3, 4, 5]),
        ("-1..1", [-1, 0, 1]),
        ("", []),
        (7, [7]),
        ([3, 1], [3, 1]),
        ([[0, 0], [1, 0]], [(0, 0), (1, 0)]),
    ])
    def test_accepted_forms(self, spec, ids):
        assert parse_ids(spec) == ids

    @pytest.mark.parametrize("spec", [
        "a..b", "1..2..3", "1,x", [[0, "x"]], None, True, [True], [[0, True]],
        1.5, ["1"], [[[0]]], {"lo": 0},
    ])
    def test_junk_is_config_error(self, spec):
        with pytest.raises(ConfigError):
            parse_ids(spec)

    @pytest.mark.parametrize("dim, F, offsets", [
        (2, [[0, 0], [1, 0]], [(0, 0), (1, 0)]),  # vector translates
        (1, "12", [(12,)]),                        # one id, not the digits 1 and 2
        (1, "0,3", [(0,), (3,)]),                  # a comma list
        (1, [0, 2], [(0,), (2,)]),
    ])
    def test_pipeline_translates(self, tmp_path, dim, F, offsets):
        run(translates_config(dim, F), tmp_path)
        space = load_space(tmp_path / "win.json")
        fam = load_family(tmp_path / "fam.json", space)
        coords = space.meta["coords"]
        assert fam.chains
        for x, chain in fam.chains.items():
            want = {tuple(a + b for a, b in zip(coords[x], f)) for f in offsets}
            assert {coords[z] for z in chain} == want
            assert chain.is_flat()

    @pytest.mark.parametrize("F", ["a..b", [[0, "x"]], None])
    def test_pipeline_junk_names_the_stage(self, tmp_path, F):
        with pytest.raises(ConfigError, match="stage 'fam'"):
            run(translates_config(1, F), tmp_path)


FAMILY_KINDS = "'tent', 'ball', 'singletons', 'translates', 'random_multiset'"


class TestStageParams:
    @pytest.mark.parametrize("stage, missing", [
        ({"name": "tent", "kind": "family", "params": {"kind": "tent"},
          "inputs": {"space": "win"}}, "width"),
        ({"name": "balls", "kind": "family", "params": {"kind": "ball"},
          "inputs": {"space": "win"}}, "radius"),
        ({"name": "boxes", "kind": "box", "params": {"m": 4, "F": "0..9"}}, "boxes"),
        ({"name": "bare", "kind": "generate"}, "spec"),
        ({"name": "fam", "kind": "family", "inputs": {"space": "win"}}, "kind"),
    ])
    def test_missing_parameter_is_config_error(self, tmp_path, stage, missing):
        doc = {"stages": [
            {"name": "win", "kind": "generate",
             "params": {"spec": {"kind": "grid", "dim": 1, "low": 0, "high": 20}}},
            stage,
        ]}
        message = f"config stages[1].params is missing {missing!r}"
        with pytest.raises(ConfigError) as info:
            run(PipelineConfig.from_json(doc), tmp_path / "lib")
        assert str(info.value) == message
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        r = run_cli(["run", "--config", "cfg.json", "--out", "cli"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert message in r.stderr
        # refused before the generate stage runs
        assert not (tmp_path / "lib").exists() and not (tmp_path / "cli").exists()

    def test_box_stage_without_F_writes_the_box_space_alone(self, tmp_path):
        """`F`, `R` and `epsilon` take their defaults, as `box build` gives
        them without --F, --R and --eps."""
        doc = {"stages": [{"name": "boxes", "kind": "box", "params": {"m": 4, "boxes": 3}}]}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        r = run_cli(["run", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_cli(["box", "build", "--m", "4", "--boxes", "3"], tmp_path)
        assert (r.returncode, r.stdout) == (0, "./boxspace.json\n"), r.stderr
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "boxes.space.json", "report.json"]
        assert (tmp_path / "out" / "boxes.space.json").read_bytes() == (
            tmp_path / "boxspace.json").read_bytes()

    @pytest.mark.parametrize("stages, message, runs", [
        ([{"name": "g", "kind": "rips"}], "config stages[1].inputs is missing 'space'", False),
        ([{"name": "g", "kind": "rips", "inputs": {"space": "win"}},
          {"name": "h", "kind": "rips", "inputs": {"space": "g"}}],
         "stage 'h': input 'g' is a rips stage, expected one of ('generate', 'box')",
         False),
        ([{"name": "fam", "kind": "family", "params": {"kind": "blob"}, "inputs": {"space": "win"}}],
         "config stages[1].params.kind must be one of "
         f"{FAMILY_KINDS}, got 'blob'", False),
        ([{"name": "cover", "kind": "tails", "inputs": {"space": "win"}},
          {"name": "fam", "kind": "family", "params": {"kind": "singletons"},
           "inputs": {"space": "win"}},
          {"name": "moved", "kind": "transport",
           "inputs": {"family": "fam", "tails": "cover", "space": "win"}}],
         "stage 'moved': transport needs a multiset family", True),
        ([{"name": "cover", "kind": "tails", "inputs": {"space": "win"}},
          {"name": "fam", "kind": "family", "inputs": {"space": "win"},
           "params": {"kind": "random_multiset", "M": 1, "size": 2, "spread": "1/1"}},
          {"name": "moved", "kind": "transport", "params": {"M": 2},
           "inputs": {"family": "fam", "tails": "cover", "space": "win"}}],
         "stage 'moved': --M 2 does not match the family's height bound 1", True),
        ([{"name": "fam", "kind": "family", "inputs": {"space": "win"},
           "params": {"kind": "singletons", "core": {"coords": [0, 3]}}}],
         "stage 'fam': coordinate cores need a grid window", True),
    ], ids=["input-missing", "input-kind", "family-kind", "transport-chain-family",
            "transport-M", "coords-off-a-grid"])
    def test_stage_inputs_named(self, tmp_path, stages, message, runs):
        """`runs`: the fault shows only when the stage runs, after `win` has
        written its artifact; any other is refused before any stage runs."""
        win = {"name": "win", "kind": "generate",
               "params": {"spec": {"kind": "tree", "branching": 2, "depth": 3}}}
        doc = {"stages": [win, *stages]}
        with pytest.raises(ConfigError) as info:
            run(PipelineConfig.from_json(doc), tmp_path / "lib")
        assert str(info.value) == message
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        r = run_cli(["run", "--config", "cfg.json", "--out", "cli"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")
        for out in ("lib", "cli"):
            assert (tmp_path / out / "win.json").exists() is runs

    @pytest.mark.parametrize("stage, message", [
        ({"name": "check", "kind": "verify", "params": {"require-flat": True},
          "inputs": {"family": "fam"}}, "config stages[2].params does not read 'require-flat'"),
        ({"name": "check", "kind": "verify", "inputs": {"family": "fam", "bogus": "win"}},
         "config stages[2].inputs does not read 'bogus'"),
        ({"name": "balls", "kind": "family", "params": {"kind": "ball", "radius": 2, "width": 4},
          "inputs": {"space": "win"}}, "config stages[2].params does not read 'width'"),
        # the family kind is read first: it names the params the stage reads
        ({"name": "blobs", "kind": "family", "params": {"kind": "blob", "width": 4, "M": 1},
          "inputs": {"space": "win"}},
         f"config stages[2].params.kind must be one of {FAMILY_KINDS}, got 'blob'"),
        ({"name": "g", "kind": "rips", "params": {"r": "1/1", "R": "1/1"},
          "inputs": {"space": "win"}}, "config stages[2].params does not read 'R'"),
    ], ids=["verify-param", "verify-input", "other-family-kind", "unknown-family-kind", "rips"])
    def test_unread_param_or_input_is_refused(self, tmp_path, stage, message):
        # without the unread key this run passes, flat or not
        doc = {"stages": [
            {"name": "win", "kind": "generate",
             "params": {"spec": {"kind": "grid", "dim": 1, "low": -20, "high": 20}}},
            {"name": "fam", "kind": "family", "inputs": {"space": "win"},
             "params": {"kind": "tent", "width": 4, "epsilon": "1/1", "core": [0, 1, 2]}},
            stage,
        ]}
        with pytest.raises(ConfigError) as info:
            PipelineConfig.from_json(doc)
        assert str(info.value) == message
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        r = run_cli(["run", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_multiset_family_cannot_be_verified(self, tmp_path):
        cfg = PipelineConfig.from_json({"stages": [
            {"name": "win", "kind": "generate",
             "params": {"spec": {"kind": "grid", "dim": 1, "low": 0, "high": 30}}},
            {"name": "fam", "kind": "family",
             "params": {"kind": "random_multiset", "M": 2, "size": 5,
                        "spread": "3/1", "core": list(range(5, 25))},
             "inputs": {"space": "win"}},
            {"name": "check", "kind": "verify", "inputs": {"family": "fam"}},
        ]})
        with pytest.raises(ConfigError, match="stage 'check': verify needs a weighted chain"):
            run(cfg, tmp_path)

    @pytest.mark.parametrize("core, message", [
        ([3, 1.7], "core[1] must be an int, got 1.7"),
        ([True], "core[0] must be an int, got True"),
        (["5"], "core[0] must be an int, got '5'"),
        ("3..9", "core must be a list, got '3..9'"),
    ], ids=["float", "bool", "str", "range-string"])
    def test_core_entries_must_be_int_ids(self, tmp_path, core, message):
        cfg = PipelineConfig.from_json({"stages": [
            {"name": "win", "kind": "generate",
             "params": {"spec": {"kind": "grid", "dim": 1, "low": 0, "high": 20}}},
            {"name": "fam", "kind": "family",
             "params": {"kind": "singletons", "core": core}, "inputs": {"space": "win"}},
        ]})
        with pytest.raises(ConfigError) as info:
            run(cfg, tmp_path)
        assert str(info.value) == f"stage 'fam': {message}"
        assert not (tmp_path / "fam.json").exists()


class TestCliPipelineParity:
    """The CLI commands and the pipeline stages share one run function per
    construction, so the same inputs give the same bytes."""

    def test_tent_route(self, tmp_path):
        run(tent_config(), tmp_path / "out")
        steps = [
            ["rips", "build", "--space", "out/win.json", "--r", "1/1", "--out", "graph.json"],
            ["flow", "build", "--rips", "graph.json", "--out", "exit.json"],
            ["flatten", "run", "--family", "out/tent.json", "--flow", "exit.json",
             "--space", "out/win.json", "--out", "flat.json", "--report", "flat.report.json"],
        ]
        for args in steps:
            r = run_cli(args, tmp_path)
            assert r.returncode == 0, r.stderr
        for name in ("graph.json", "exit.json", "flat.json", "flat.report.json"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name
        r = run_cli(["family", "verify", "--family", "flat.json", "--space", "out/win.json",
                     "--flat"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stdout == (tmp_path / "out" / "check.report.json").read_text()

    def test_escaping_route(self, tmp_path):
        """An escape is a verdict both ways: exit 1, the report lists the
        escaped indices, and `flatten run` writes the stage's bytes."""
        (tmp_path / "cfg.json").write_text(json.dumps(ESCAPE_CONFIG))
        r = run_cli(["run", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert (r.returncode, r.stderr) == (1, "")
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["failed_stages"] == ["flat"]
        assert report["stages"][-1]["escaped_indices"] == ESCAPED
        assert escaped_order(r.stdout) == ESCAPED
        r = run_cli(["explain", "out/report.json"], tmp_path)
        assert (r.returncode, escaped_order(r.stdout)) == (0, ESCAPED)
        r = run_cli(["flatten", "run", "--family", "out/tent.json", "--flow", "out/exit.json",
                     "--space", "out/win.json", "--out", "flat.json",
                     "--report", "flat.report.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (1, "flat.report.json\n", "")
        for name in ("flat.json", "flat.report.json"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name

    def test_box_route(self, tmp_path):
        run(box_config(), tmp_path / "out")
        r = run_cli(["box", "build", "--m", "4", "--boxes", "5", "--F", "0..9", "--R", "1/1",
                     "--eps", "1/4", "--out", "boxes.space.json", "--family-out", "boxes.json",
                     "--report", "boxes.report.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        for name in ("boxes.space.json", "boxes.json", "boxes.report.json"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name
        # without --F, only the box space is written
        r = run_cli(["box", "build", "--m", "4", "--boxes", "5", "--out", "bare.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        assert r.stdout == "bare.json\n"
        assert (tmp_path / "bare.json").read_bytes() == (tmp_path / "boxes.space.json").read_bytes()


    # stage kind -> (the CLI command, the pipeline artifact it must equal,
    # the file the command writes, or None for its stdout)
    KINDS = {
        "info": (["space", "info", "--space", "out/line.json", "--radii", "1,2"],
                 "about.json", None),
        "verify_tails": (["tails", "verify", "--space", "out/tree.json", "--cover",
                          "out/cover.json"], "tcheck.report.json", None),
        "boundary": (["amen", "boundary", "--space", "out/line.json", "--U", "30..39",
                      "--R", "2"], "edge.json", None),
        "search": (["amen", "search", "--space", "out/line.json", "--R", "1", "--eps", "1/4"],
                   "witness.json", None),
        "push": (["coarse", "push", "--family", "out/balls.json", "--space", "out/X.json",
                  "--target", "out/Y.json", "--map", "map.json", "--target-R", "2",
                  "--out", "pushed.json"], "pushed.json", "pushed.json"),
        "project": (["coarse", "project", "--family", "out/pballs.json", "--space",
                     "out/prod.json", "--out", "proj.json"], "proj.json", "proj.json"),
    }

    @staticmethod
    def kinds_config():
        grid = lambda lo, hi: {"kind": "grid", "dim": 1, "low": lo, "high": hi}
        gen = lambda name, spec: {"name": name, "kind": "generate", "params": {"spec": spec}}
        balls = {"kind": "ball", "radius": "1/1", "R": "1/1", "epsilon": "2/3"}
        return PipelineConfig.from_json({"stages": [
            gen("line", grid(-30, 29)), gen("tree", {"kind": "tree", "branching": 2, "depth": 4}),
            gen("X", grid(0, 20)), gen("Y", grid(0, 40)),
            gen("prod", {"kind": "product", "base": grid(0, 9), "levels": 2}),
            {"name": "about", "kind": "info", "params": {"radii": ["1", "2"]},
             "inputs": {"space": "line"}},
            {"name": "cover", "kind": "tails", "inputs": {"space": "tree"}},
            {"name": "tcheck", "kind": "verify_tails", "inputs": {"tails": "cover", "space": "tree"}},
            {"name": "edge", "kind": "boundary", "params": {"U": "30..39", "R": "2"},
             "inputs": {"space": "line"}},
            {"name": "witness", "kind": "search", "params": {"R": "1", "epsilon": "1/4"},
             "inputs": {"space": "line"}},
            {"name": "balls", "kind": "family", "params": balls, "inputs": {"space": "X"}},
            {"name": "pushed", "kind": "push", "inputs": {"family": "balls", "target": "Y"},
             "params": {"map": [[x, 2 * x] for x in range(21)], "target_R": "2"}},
            {"name": "pballs", "kind": "family", "params": balls, "inputs": {"space": "prod"}},
            {"name": "proj", "kind": "project", "inputs": {"family": "pballs"}},
        ]})

    @pytest.mark.parametrize("kind", KINDS)
    def test_new_kinds(self, tmp_path, kind):
        report = run(self.kinds_config(), tmp_path / "out")
        assert report["passed"]
        dump_json({"f": [[x, 2 * x] for x in range(21)]}, tmp_path / "map.json")
        argv, artifact, written = self.KINDS[kind]
        r = run_cli(argv, tmp_path)
        assert r.returncode == 0, r.stderr
        want = (tmp_path / "out" / artifact).read_text()
        if written is None:
            assert r.stdout == want
        else:
            assert r.stdout == f"{written}\n"
            assert (tmp_path / written).read_text() == want

    def test_failure_rule_fails_the_run_and_the_command(self, tmp_path):
        cfg = PipelineConfig.from_json({"stages": [
            {"name": "win", "kind": "generate",
             "params": {"spec": {"kind": "grid", "dim": 1, "low": 0, "high": 5}}},
            {"name": "look", "kind": "search", "params": {"R": "1", "epsilon": "1/100"},
             "inputs": {"space": "win"}},
        ]})
        report = run(cfg, tmp_path / "out")
        assert report["failed_stages"] == ["look"] and not report["passed"]
        assert "run verdict: FAIL" in explain(report)
        r = run_cli(["amen", "search", "--space", "out/win.json", "--R", "1", "--eps", "1/100"],
                    tmp_path)
        assert r.returncode == 1, r.stderr
        assert r.stdout == (tmp_path / "out" / "look.json").read_text()

    def test_every_command_is_a_stage_kind(self):
        kinds = {kind for kind, _outputs in STAGE_COMMANDS.values()}
        assert len(STAGE_COMMANDS) == 14 and kinds <= set(STAGES)
        # the family kind draws from the run's seeded RNG; it has no command
        assert set(STAGES) - kinds == {"family"}


    def test_every_command_flag_is_a_param_of_its_kind(self):
        for kind, outputs in STAGE_COMMANDS.values():
            stage = STAGES[kind]
            names = {_NAMES.get(dest, dest) for dest in (
                flag[2:].replace("-", "_") for flag in _stage_flags(kind, outputs))
                if dest != "space" and dest not in {f for f, _ in outputs.values()}}
            assert names - stage.inputs.keys() == stage.params.keys(), kind

    @pytest.mark.parametrize("command", STAGE_COMMANDS)
    def test_required_flags_alone_give_every_other_param_its_default(self, command, capsys):
        """A command needs the flags of its kind's input roles, of the --space
        its family is read against and of each param without a `STAGES`
        default; given only those (and its output files), every other param
        takes its `STAGES` default, and leaving any one of them out is a usage
        error."""
        kind, outputs = STAGE_COMMANDS[command]
        stage, spell = STAGES[kind], {name: flag for flag, name in _NAMES.items()}
        reads_family = "family" in stage.inputs and "space" not in stage.inputs
        required = [*stage.inputs, *["space"] * reads_family,
                    *(name for name, default in stage.params.items() if default is ...)]
        files = [flag for flag, _ in outputs.values()]

        def parse(names):
            argv = [*command.split(), *(arg for name in names for arg in (
                "--" + spell.get(name, name).replace("_", "-"), "1"))]
            args = build_parser(argv).parse_args(argv)
            return {_NAMES.get(k, k): v for k, v in vars(args).items()}

        values = parse(required + files)
        assert {name: values[name] for name in stage.params if name not in required} == {
            name: default for name, default in stage.params.items() if name not in required}
        for name in required:
            with pytest.raises(SystemExit) as info:
                parse([other for other in required + files if other != name])
            assert info.value.code == 2, name
            assert "the following arguments are required" in capsys.readouterr().err


class TestMalformedStages:
    @pytest.mark.parametrize("key, value", [("inputs", ["w"]), ("params", [1])])
    def test_params_and_inputs_must_be_objects(self, tmp_path, key, value):
        doc = {"stages": [
            {"name": "w", "kind": "generate", "params": {"spec": {"kind": "cycle", "length": 4}}},
            {"name": "g", "kind": "rips", "inputs": {"space": "w"}, key: value},
        ]}
        message = f"config stages[1].{key} must be an object, got {value!r}"
        with pytest.raises(ConfigError) as info:
            PipelineConfig.from_json(doc)
        assert str(info.value) == message
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        r = run_cli(["run", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert message in r.stderr

    @pytest.mark.parametrize("stage, message", [
        ({"kind": "box", "params": {"m": "4"}}, "m must be an int, got '4'"),
        ({"kind": "box", "params": {"m": 4.0}}, "m must be an int, got 4.0"),
        ({"kind": "box", "params": {"boxes": "3"}}, "boxes must be an int, got '3'"),
        ({"kind": "box", "params": {"boxes": True}}, "boxes must be an int, got True"),
        ({"kind": "box", "params": {"spacing": "1,2,3"}},
         "spacing must be a list, got '1,2,3'"),
        ({"kind": "info", "params": {"radii": 5}, "inputs": {"space": "win"}},
         "radii must be a list, got 5"),
    ], ids=["m-str", "m-float", "boxes-str", "boxes-bool", "spacing-str", "radii-int"])
    def test_param_of_the_wrong_type_is_exit_2(self, tmp_path, stage, message):
        """The CLI's flags parse these types; a config can hold any JSON value."""
        box = {"m": 4, "boxes": 3, "F": "0..2", "R": "1/1", "epsilon": "1/4"}
        if stage["kind"] == "box":
            stage = {**stage, "params": {**box, **stage["params"]}}
        doc = {"stages": [
            {"name": "win", "kind": "generate", "params": {"spec": {"kind": "cycle", "length": 4}}},
            {"name": "bad", **stage},
        ]}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        r = run_cli(["run", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: stage 'bad': {message}\n")

    def test_box_stage_rejects_vector_ids(self, tmp_path):
        with pytest.raises(ValueError, match=r"integer ids, got \(0,\)"):
            box_family(build_box_space(4, 3), [(0,), (1,)], 1, Fraction(1, 4))
        doc = {"stages": [{"name": "boxes", "kind": "box", "params": {
            "m": 4, "boxes": 3, "F": [[0], [1]], "R": "1/1", "epsilon": "1/4"}}]}
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        r = run_cli(["run", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert "box family F must hold integer ids" in r.stderr

    @pytest.mark.parametrize("edge", [[0, 99], [0, -1]], ids=["past-points", "negative"])
    def test_flow_build_rejects_rips_edge_outside_the_points(self, tmp_path, edge):
        space = grid_window(1, 0, 4)
        doc = rips_to_json(space, build_rips(space, 1))
        doc["edges"].append(edge)
        dump_json(doc, tmp_path / "r.json")
        r = run_cli(["flow", "build", "--rips", "r.json", "--out", "f.json"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert f"rips file edges[4][1] must be a point id below 5, got {edge[1]}" in r.stderr
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("edges", [None, True, 1.5, 7], ids=["null", "true", "float", "int"])
    def test_flow_build_rejects_rips_edges_not_a_list(self, tmp_path, edges):
        space = grid_window(1, 0, 4)
        doc = rips_to_json(space, build_rips(space, 1))
        doc["edges"] = edges
        (tmp_path / "r.json").write_text(json.dumps(doc))  # dump_json refuses a float
        r = run_cli(["flow", "build", "--rips", "r.json", "--out", "f.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", f"error: rips file edges must be a list, got {edges!r}\n")
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("update, message", [
        ({"frontier": [9], "components": [[0, 1, 2, 3, 4, 9]]},
         "rips file components[0][5] must be a point id below 5, got 9"),
        ({"components": [[0, 1, 2], [3, 4]]},
         "rips edges make [0, 1, 2, 3, 4] a component, but the file does not list it"),
    ], ids=["frontier-past-points", "components-split-an-edge"])
    def test_flow_build_rejects_stored_frontier_or_components(self, tmp_path, update, message):
        space = grid_window(1, 0, 4)
        doc = rips_to_json(space, build_rips(space, 1))
        doc.update(update)
        dump_json(doc, tmp_path / "r.json")
        r = run_cli(["flow", "build", "--rips", "r.json", "--out", "f.json"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert message in r.stderr
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(K="2"), "tail cover K must be a positive int, got '2'"),
        (lambda d: d["tails"].append([0, [0, 99]]), "tail cover tails lists 0 twice"),
        (lambda d: d["tails"][0][1].append(99),
         "the tail of point 0 has point 99, outside the space's 0..30"),
        # the cover's own invariants, measured by verify_tail_cover
        (lambda d: d.update(K=d["K"] - 1), "point 1 lies on 2 tails, more than K = 1"),
        (lambda d: d["tails"][0][1].remove(1),
         "step 0 of the tail of point 0 has length 2/1, more than r = 1/1"),
        (lambda d: d["tails"][0][1].pop(), "the tail of point 0 does not end on the frontier"),
    ], ids=["K-not-int", "point-listed-twice", "tail-point-past-points",
            "K-too-low", "step-longer-than-r", "tail-off-the-frontier"])
    def test_tails_transport_rejects_bad_cover(self, tmp_path, mutate, message):
        tree = tree_window(2, 4)  # 31 points
        dump_json(space_to_json(tree), tmp_path / "t.json")
        cover = cover_to_json(build_tree_tails(tree))
        mutate(cover)
        dump_json(cover, tmp_path / "cov.json")
        fam = MultisetFamily(sets={0: frozenset({(0, 0), (1, 1)})}, M=1,
                             params=FamilyParams(R=1, epsilon=Fraction(1, 8), S=1, M=1))
        dump_json(multiset_family_to_json(fam), tmp_path / "fam.json")
        r = run_cli(["tails", "transport", "--space", "t.json", "--family", "fam.json",
                     "--cover", "cov.json", "--out", "out.json"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert message in r.stderr
        assert not (tmp_path / "out.json").exists()


def stage_error_stages(name):
    """A config's stages whose last stage raises the error `name`."""
    win = lambda spec: {"name": "win", "kind": "generate", "params": {"spec": spec}}
    on_win = {"space": "win"}
    return {
        "NotCoarselyUnbounded": [  # a cycle has no frontier to flow to
            win({"kind": "cycle", "length": 6}),
            {"name": "graph", "kind": "rips", "inputs": on_win},
            {"name": "exit", "kind": "flow", "inputs": {"rips": "graph"}}],
        "WindowTooSmall": [  # F = 0..9 needs cycles longer than 2 and 4
            {"name": "boxes", "kind": "box",
             "params": {"m": 2, "boxes": 2, "F": "0..9", "R": "1/1", "epsilon": "1/4"}}],
        "TranslateEscapesWindow": [
            win({"kind": "grid", "dim": 1, "low": 0, "high": 15}),
            {"name": "fam", "kind": "family", "params": {"kind": "translates", "F": "0..20"},
             "inputs": on_win}],
        "BranchingTooLow": [
            win({"kind": "tree", "branching": 1, "depth": 3}),
            {"name": "cover", "kind": "tails", "inputs": on_win}],
        "TailTooShort": [  # height-3 multisets on the leaves, whose tails end at once
            win({"kind": "tree", "branching": 2, "depth": 2}),
            {"name": "cover", "kind": "tails", "inputs": on_win},
            {"name": "fam", "kind": "family", "inputs": on_win,
             "params": {"kind": "random_multiset", "M": 3, "size": 2, "spread": "1/1",
                        "core": [3, 4]}},
            {"name": "moved", "kind": "transport",
             "inputs": {"family": "fam", "tails": "cover", "space": "win"}}],
        "EmptyImage": [
            win({"kind": "grid", "dim": 1, "low": 0, "high": 9}),
            {"name": "fam", "kind": "family", "params": {"kind": "singletons"}, "inputs": on_win},
            {"name": "pushed", "kind": "push", "params": {"map": []},
             "inputs": {"family": "fam", "target": "win"}}],
    }[name]


class TestStageErrorsExit2:
    """Every error a stage raises, but a flatten escape (a verdict, exit 1),
    is an input problem: `run` raises it as a ConfigError naming the stage,
    and the CLI exits 2 with that message and writes no report."""

    @pytest.mark.parametrize("name", ["NotCoarselyUnbounded", "WindowTooSmall",
                                      "TranslateEscapesWindow", "BranchingTooLow",
                                      "TailTooShort", "EmptyImage"])
    def test_one_case_each(self, tmp_path, name):
        import folnerflow
        doc = {"stages": stage_error_stages(name)}
        with pytest.raises(ConfigError) as info:
            run(PipelineConfig.from_json(doc), tmp_path / "lib")
        cause = info.value.__cause__
        assert type(cause) is getattr(folnerflow, name)
        assert str(info.value) == f"stage {doc['stages'][-1]['name']!r}: {cause}"
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        r = run_cli(["run", "--config", "cfg.json", "--out", "cli"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {info.value}\n")
        assert not (tmp_path / "cli" / "report.json").exists()


class TestCoarsePushMap:
    def test_point_listed_twice_is_exit_2(self, tmp_path):
        write_command_inputs(tmp_path)
        doc = json.loads((tmp_path / "map.json").read_text())
        doc["f"].append([0, 11])
        dump_json(doc, tmp_path / "map.json")
        r = run_cli([*PUSH, "--out", "pushed.json"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert "error: map file f lists 0 twice" in r.stderr
        assert not (tmp_path / "pushed.json").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"f": [1, 2]}, "map file f[0] must be a list of 2 entries, got 1"),
        ({"f": [[0, 0], [1, 2, 3]]}, "map file f[1] must be a list of 2 entries, got [1, 2, 3]"),
        ({"f": [[0, 0], ["1", 2]]}, "map file f[1][0] must be an int, got '1'"),
        ({"f": {"0": 0}}, "map file f must be a list, got {'0': 0}"),
        ({"g": []}, "map file is missing 'f'"),
    ], ids=["int", "triple", "str-id", "object", "no-f"])
    def test_entry_not_a_pair_is_exit_2(self, tmp_path, doc, message):
        write_command_inputs(tmp_path)
        dump_json(doc, tmp_path / "map.json")
        r = run_cli([*PUSH, "--out", "pushed.json"], tmp_path)
        assert (r.returncode, r.stderr) == (2, f"error: {message}\n")
        assert not (tmp_path / "pushed.json").exists()

    @pytest.mark.parametrize("target_R, R", [(0, "0/1"), ("0", "0/1"), (None, "1/1")])
    def test_only_null_target_R_keeps_the_family_R(self, tmp_path, target_R, R):
        grid = lambda high: {"spec": {"kind": "grid", "dim": 1, "low": 0, "high": high}}
        run(PipelineConfig.from_json({"stages": [
            {"name": "X", "kind": "generate", "params": grid(20)},
            {"name": "Y", "kind": "generate", "params": grid(40)},
            {"name": "balls", "kind": "family", "inputs": {"space": "X"},
             "params": {"kind": "ball", "radius": "1/1", "R": "1/1", "epsilon": "2/3"}},
            {"name": "pushed", "kind": "push", "inputs": {"family": "balls", "target": "Y"},
             "params": {"map": [[x, 2 * x] for x in range(21)], "target_R": target_R}},
        ]}), tmp_path)
        assert json.loads((tmp_path / "pushed.json").read_text())["params"]["R"] == R


class TestMapFileShape:
    def test_map_file_not_an_object_is_exit_2(self, tmp_path):
        write_command_inputs(tmp_path)
        dump_json([[0, 0]], tmp_path / "map.json")
        r = run_cli([*PUSH, "--out", "pushed.json"], tmp_path)
        message = "error: map file must be an object, got [[0, 0]]\n"
        assert (r.returncode, r.stdout, r.stderr) == (2, "", message)
        assert not (tmp_path / "pushed.json").exists()


class TestIndexListedTwice:
    """A family file that lists an index twice is rejected, not read with the
    last chain winning."""

    def test_family_verify_is_exit_2(self, tmp_path):
        write_command_inputs(tmp_path)
        doc = json.loads((tmp_path / "pushfam.json").read_text())
        doc["chains"].append([0, {"weights": [[5, 1]]}])
        dump_json(doc, tmp_path / "fam.json")
        r = run_cli(["family", "verify", "--family", "fam.json", "--space", "X.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: family file chains lists 0 twice\n")

    def test_multiset_family(self):
        params = FamilyParams(R=1, epsilon=Fraction(1, 2), S=1)
        doc = multiset_family_to_json(MultisetFamily(
            sets={3: frozenset({(3, 0)}), 4: frozenset({(4, 0), (4, 1)})}, M=1, params=params))
        doc["sets"].append([3, [[2, 0]]])
        with pytest.raises(ConfigError) as info:
            multiset_family_from_json(doc)
        assert str(info.value) == "multiset family file sets lists 3 twice"


class TestFamilyIdsAgainstSpace:
    """Every command that loads an indexed family against --space rejects an
    index or chain point that is not an id of the space, before any work."""

    @pytest.mark.parametrize("mutate, message", [
        (lambda c: c[3][1]["weights"].append([500, 1]),
         "family file chains[3][1].weights[1][0] must be a point id below 21, got 500"),
        (lambda c: c[3].__setitem__(0, 400),
         "family file chains[3][0] must be a point id below 21, got 400"),
        (lambda c: c[3][1]["weights"].append([-1, 1]),
         "family file chains[3][1].weights[1][0] must be a point id below 21, got -1"),
        (lambda c: c[1].__setitem__(0, True),
         "family file chains[1][0] must be a point id below 21, got True"),
    ], ids=["point", "index", "negative-point", "bool-index"])
    def test_loader_names_the_misfit(self, mutate, message):
        X = grid_window(1, 0, 20)
        doc = family_to_json(singleton_family(X, 1, Fraction(1, 4)))
        mutate(doc["chains"])
        with pytest.raises(ConfigError) as info:
            family_from_json(doc, X)
        assert str(info.value) == message

    @pytest.mark.parametrize("argv", [
        ["family", "verify"],
        ["flatten", "run", "--flow", "flow.json", "--out", "out.json"],
        ["coarse", "push", "--target", "Y.json", "--map", "map.json", "--out", "out.json"],
        ["coarse", "project", "--out", "out.json"],
    ], ids=" ".join)
    def test_every_command_is_exit_2(self, tmp_path, argv):
        write_command_inputs(tmp_path)
        X = grid_window(1, 0, 20)
        dump_json(flow_to_json(build_flow(X, build_rips(X, 1))), tmp_path / "flow.json")
        doc = json.loads((tmp_path / "pushfam.json").read_text())
        doc["chains"][3][1]["weights"].append([500, 1])
        dump_json(doc, tmp_path / "fam.json")
        r = run_cli([*argv, "--family", "fam.json", "--space", "X.json"], tmp_path)
        message = (f"family file chains[3][1].weights[{len(doc['chains'][3][1]['weights']) - 1}][0] "
                   "must be a point id below 21, got 500")
        assert (r.returncode, r.stderr) == (2, f"error: {message}\n")
        assert not (tmp_path / "out.json").exists()


class TestUnknownPointMessage:
    def test_no_repr_quotes(self, tmp_path):
        write_command_inputs(tmp_path)
        r = run_cli(["amen", "boundary", "--space", "X.json", "--U", "500", "--R", "1"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", "error: unknown point id 500\n")


class TestFlattenChecksFlowAgainstSpace:
    """`flatten run` (the flatten stage) rejects a flow file that does not
    fit --space, naming the offending edge or sink."""

    def write_inputs(self, tmp_path):
        space = grid_window(1, -10, 10)  # ids 0..20, frontier {0, 20}, sink 0
        dump_json(space_to_json(space), tmp_path / "s.json")
        dump_json(family_to_json(singleton_family(space, 1, Fraction(1, 4))),
                  tmp_path / "fam.json")
        return flow_to_json(build_flow(space, build_rips(space, 1)))

    def flatten(self, tmp_path, flow_doc):
        dump_json(flow_doc, tmp_path / "f.json")
        return run_cli(["flatten", "run", "--family", "fam.json", "--flow", "f.json",
                        "--space", "s.json", "--out", "flat.json"], tmp_path)

    def test_fitting_flow_runs(self, tmp_path):
        r = self.flatten(tmp_path, self.write_inputs(tmp_path))
        assert r.returncode == 0, r.stderr

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.update(points=22), "flow has 22 points but the space has 21"),
        (lambda d: d["sigma"].__setitem__(4, [5, 3]),
         "flow edge 5 -> 3 has length 2/1, more than r = 1/1"),
        (lambda d: (d["sigma"].remove([10, 9]), d["sinks"].append(10)),
         "flow sink 10 is not on the frontier of the space"),
    ], ids=["points", "long-edge", "sink-off-frontier"])
    def test_misfit_flow_is_exit_2(self, tmp_path, mutate, message):
        doc = self.write_inputs(tmp_path)
        mutate(doc)
        r = self.flatten(tmp_path, doc)
        assert r.returncode == 2, r.stderr
        assert f"error: {message}" in r.stderr
        assert not (tmp_path / "flat.json").exists()


def write_command_inputs(d):
    """The input files for the commands `TestCommandBytes` pins."""
    from folnerflow import ball_family, product_with_interval
    from folnerflow.chains import Chain, FamilyParams, IndexedFamily
    for name, space in (("line", grid_window(1, -50, 49)), ("small", grid_window(1, 0, 5)),
                        ("tree", tree_window(2, 4)), ("X", grid_window(1, 0, 20)),
                        ("Y", grid_window(1, 0, 40))):
        dump_json(space_to_json(space), d / f"{name}.json")
    cover = cover_to_json(build_tree_tails(tree_window(2, 4)))
    dump_json(cover, d / "cover.json")
    dump_json({**cover, "K": cover["K"] - 1}, d / "lowK.json")
    dump_json(family_to_json(ball_family(grid_window(1, 0, 20), 2, R=1,
                                         epsilon=Fraction(2, 3))), d / "pushfam.json")
    dump_json({"f": [[x, 2 * x] for x in range(21)]}, d / "map.json")
    prod = product_with_interval(grid_window(1, 0, 9), 2)
    dump_json(space_to_json(prod), d / "prod.json")
    chains = {2 * z: Chain.from_set({8, 9, 2 * z}) for z in range(3, 7)}
    fam = IndexedFamily(space=prod, chains=chains,
                        params=FamilyParams(R=1, epsilon=Fraction(1, 2), S=8))
    dump_json(family_to_json(fam), d / "projfam.json")
    pos = [0, Fraction(1, 2), 2, 3, Fraction(9, 2), 5, 7]  # a matrix metric: points of a line
    dump_json(space_to_json(WindowSpace(7, frontier=(0, 6), matrix=[
        [abs(a - b) for b in pos] for a in pos])), d / "matrix.json")


PUSH = ["coarse", "push", "--family", "pushfam.json", "--space", "X.json", "--target", "Y.json",
        "--map", "map.json"]

# argv -> (exit code, sha256 of stdout, {written file: sha256}), taken from
# the per-command handlers before these commands became stage rows
COMMAND_BYTES = {
    ("space", "info", "--space", "line.json", "--radii", "1,2,5"):
        (0, "a5c418adc4db512ad1b951298d3e88ec8d3d57a1ceabcb18c4ce8f8b712fc657", {}),
    ("space", "info", "--space", "tree.json"):
        (0, "da6bc0605ada4f53790a31aaa3c3166e58281488e63d35bfea6da3a5484e1d65", {}),
    ("tails", "verify", "--space", "tree.json", "--cover", "cover.json"):
        (0, "0597f4b7a9df3ba86ba572147901e86d56e332e4592464d594efa180982c4ebc", {}),
    ("tails", "verify", "--space", "tree.json", "--cover", "lowK.json"):
        (1, "d72502710d2931f9ea739e46a675848745542458b187aa4659899c9e7d3f0951", {}),
    ("amen", "boundary", "--space", "line.json", "--U", "50..59", "--R", "1"):
        (0, "49a90f86834fb783b363a27d107b0f21c40ab838e6feca886948d6d5fa236e01", {}),
    ("amen", "boundary", "--space", "line.json", "--U", "", "--R", "2"):
        (0, "0e71e9e50eedbb83577692f25a99dd7130a1528eb19526c3f5e3c9f4ff4a8429", {}),
    ("amen", "search", "--space", "line.json", "--R", "1", "--eps", "1/4"):
        (0, "a1a19a7ebbd7a3b32626f7b2ffc2c37c5daaf769601639a2afe31d4c95fd935a", {}),
    ("amen", "search", "--space", "small.json", "--R", "1", "--eps", "1/100"):
        (1, "40972f4141f9667fbcb19e1ef6615071f7a19b8aeaa89690f4aa4b6a683a196a", {}),
    (*PUSH, "--out", "pushed.json"):
        (0, "feb2113d5c1d11906a21156cb12d962f96ead5538ce13377e1ffc5082990ecac",
         {"pushed.json": "d84a57bf08ee3fb4025b50da45ec0a4be8019fa9e9c3798b2fec64e67a2ba5e8"}),
    (*PUSH, "--target-R", "2", "--out", "wide.json"):
        (0, "4e92c12f3f45a55cd70615efee05ab48d161897b950ec5afef69f1445b0fdb97",
         {"wide.json": "1de8b342125af811fcda190bac8a5c0c4fc91ff47fbd4f257576b4991182c6cc"}),
    ("coarse", "project", "--family", "projfam.json", "--space", "prod.json",
     "--out", "projected.json"):
        (0, "b6304d5ff1e48c85877a3b00fb978025247414f58c56f424c72d6c6e281d181e",
         {"projected.json": "219be9b23f2935d8ab9d8e8a0fa3db777743e9332a097d40f03ea61d53ebaafb"}),
    # the matrix branch of `neighborhood` at R equal to a distance, pinned before the
    # report records shared one renderer
    ("amen", "boundary", "--space", "matrix.json", "--U", "2..4", "--R", "3/2"):
        (0, "391ddd9b4bdc8281e779d7b5466542a119c6672529be6bae1f50b25d7d6fc187", {}),
}


def command_bytes(argv, cwd):
    before = set(cwd.iterdir())
    r = subprocess.run([sys.executable, "-m", "folnerflow.cli", *argv], capture_output=True,
                       cwd=cwd, env=child_env())
    sha = lambda b: hashlib.sha256(b).hexdigest()
    assert r.stderr == b""
    return r.returncode, sha(r.stdout), {
        p.name: sha(p.read_bytes()) for p in sorted(set(cwd.iterdir()) - before)}


class TestCommandBytes:
    """Stdout, exit code and written files of the commands that run a
    stage kind of their own, byte for byte."""

    @pytest.mark.parametrize("argv", COMMAND_BYTES, ids=" ".join)
    def test_pinned(self, tmp_path, argv):
        write_command_inputs(tmp_path)
        assert command_bytes(argv, tmp_path) == COMMAND_BYTES[argv]


class TestForgedTailInputs:
    """A generated space file whose stored fields differ from its generator's
    space, or a tail cover with a negative r, stops `tails verify` with exit 2,
    a message naming the field and no output."""

    @pytest.mark.parametrize("mutate, message", [
        (lambda space, cover: space["metric"]["edges"][0].__setitem__(2, "7/1"),
         "space file metric does not match its generator descriptor"),
        (lambda space, cover: space.update(label="forged"),
         "space file label does not match its generator descriptor"),
        (lambda space, cover: cover.update(r="-1/2"),
         "tail cover r must be a rational >= 0, got '-1/2'"),
    ], ids=["tree-edge-7", "tree-label-forged", "cover-r-negative"])
    def test_tails_verify_is_exit_2(self, tmp_path, mutate, message):
        tree = tree_window(2, 11)
        space, cover = space_to_json(tree), cover_to_json(build_tree_tails(tree))
        mutate(space, cover)
        dump_json(space, tmp_path / "t.json")
        dump_json(cover, tmp_path / "cov.json")
        r = run_cli(["tails", "verify", "--space", "t.json", "--cover", "cov.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cov.json", "t.json"]

    def test_generator_without_dim_is_exit_2(self, tmp_path):
        # `space gen` takes a grid spec without dim, but its file records
        # dim; a file whose generator drops it is not that file
        r = run_cli(["space", "gen", "--spec", '{"kind": "grid", "low": 0, "high": 4}',
                     "--out", "t.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        space = json.loads((tmp_path / "t.json").read_text())
        assert space["generator"] == {"kind": "grid", "dim": 1, "low": 0, "high": 4}
        del space["generator"]["dim"]
        dump_json(space, tmp_path / "t.json")
        dump_json(cover_to_json(build_tree_tails(tree_window(2, 3))), tmp_path / "cov.json")
        r = run_cli(["tails", "verify", "--space", "t.json", "--cover", "cov.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: space file generator does not match its generator descriptor\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cov.json", "t.json"]


def run_capped_cli(args, cwd):
    """run_cli in a child whose address space is capped at 512 MiB, so a
    build that runs away dies there with a MemoryError instead of
    exhausting the machine."""
    import resource
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
    return subprocess.run([sys.executable, "-m", "folnerflow.cli", *args], capture_output=True,
                          text=True, cwd=cwd, env=child_env(), preexec_fn=cap, timeout=120)


class TestForgedSizes:
    """A file whose stored size does not bound what loading it builds stops
    with exit 2 naming `points`, before the build: a generator descriptor
    must imply the stored point count, a graph must hold at least
    points - 1 edges, and a rips file's components at least its points."""

    @pytest.mark.parametrize("forge", [
        {"dim": 999}, {"high": 10 ** 9}, {"kind": "tree", "branching": 2, "depth": 10 ** 6},
        {"kind": "product", "base": {"kind": "cycle", "length": 121}, "levels": 10 ** 9},
        {"kind": "union", "parts": [{"kind": "cycle", "length": 11}] * 2 + [
            {"kind": "grid", "dim": 999, "low": 0, "high": 1}], "spacing": ["1", "2", "3"]},
        # a later part, or a product's levels, that counts below 0 does not
        # bring a count past the points back to them: the huge grid comes first
        {"kind": "union", "parts": [{"kind": "grid", "dim": 64, "low": 0, "high": 1},
                                    {"kind": "cycle", "length": 121 - 128}],
         "spacing": ["1", "2"]},
        {"kind": "union", "parts": [
            {"kind": "product", "base": {"kind": "grid", "dim": 64, "low": 0, "high": 1},
             "levels": -1}, {"kind": "cycle", "length": 121 + 128}], "spacing": ["1", "2"]},
    ], ids=["grid-dim", "grid-high", "tree-depth", "product-levels", "union-part",
            "union-part-below-0", "product-levels-below-0"])
    def test_generator_descriptor(self, tmp_path, forge):
        doc = space_to_json(grid_window(1, -60, 60))  # 121 points
        if "kind" in forge:
            doc["generator"] = forge
        else:
            doc["generator"].update(forge)
        dump_json(doc, tmp_path / "s.json")
        r = run_capped_cli(["space", "info", "--space", "s.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: space file points does not match its generator descriptor\n")

    def test_one_point_grid_dim(self, tmp_path):
        # a one-point grid counts 1 point whatever its dim, so its stored
        # points bound nothing; its dim is refused before the build
        spec = {"kind": "grid", "dim": 64, "low": 0, "high": 0}
        r = run_capped_cli(["space", "gen", "--spec", json.dumps(spec), "--out", "s.json"],
                           tmp_path)
        assert r.returncode == 0, r.stderr
        r = run_capped_cli(["space", "info", "--space", "s.json"], tmp_path)
        assert r.returncode == 0, r.stderr
        doc = json.loads((tmp_path / "s.json").read_text())
        doc["generator"]["dim"], doc["label"] = 10 ** 8, "grid100000000d[0..0]"
        dump_json(doc, tmp_path / "s.json")
        spec["dim"] = 65
        for args, dim in ((["space", "info", "--space", "s.json"], 10 ** 8),
                          (["space", "gen", "--spec", json.dumps(spec), "--out", "t.json"], 65)):
            r = run_capped_cli(args, tmp_path)
            assert (r.returncode, r.stdout, r.stderr) == (
                2, "", f"error: grid dim must be at most 64, got {dim}\n")
        assert not (tmp_path / "t.json").exists()

    def test_rips_points(self, tmp_path):
        space = grid_window(1, 0, 4)
        doc = rips_to_json(space, build_rips(space, 1))
        doc["points"] = 10 ** 10
        dump_json(doc, tmp_path / "r.json")
        r = run_capped_cli(["flow", "build", "--rips", "r.json", "--out", "f.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: rips file points 10000000000 exceed the points its components "
            "list\n")
        assert not (tmp_path / "f.json").exists()

    def test_graph_points(self, tmp_path):
        doc = space_to_json(grid_window(1, -60, 60))
        del doc["generator"]
        doc["points"] = 10 ** 10
        dump_json(doc, tmp_path / "s.json")
        r = run_capped_cli(["space", "info", "--space", "s.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: space file points 10000000000 need at least 9999999999 graph "
            "edges, got 120\n")


class TestTooLargeToBuild:
    """A request whose build runs out of memory exits 2 with one `error:`
    line and no traceback, and writes nothing."""

    def test_space_gen(self, tmp_path):
        spec = {"kind": "grid", "dim": 1, "low": 0, "high": 10 ** 10}
        r = run_capped_cli(["space", "gen", "--spec", json.dumps(spec), "--out", "s.json"],
                           tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: the request is too large to build in memory\n")
        assert not (tmp_path / "s.json").exists()


class TestCollectorRestored:
    """`cli.main` runs a command with the cyclic collector paused and hands
    the caller's collector state back, whatever the command's outcome."""

    @pytest.fixture(params=[True, False], ids=["on", "off"])
    def enabled(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    def test_each_exit_code(self, tmp_path, monkeypatch, capsys, enabled):
        monkeypatch.chdir(tmp_path)
        fam = {"params": {"R": "1/1", "epsilon": "1/4", "S": "0/1", "M": 0},
               "chains": [[x, {"weights": [[x, 1]]}] for x in range(2, 5)]}
        (tmp_path / "bad.json").write_text(json.dumps(fam))
        (tmp_path / "m.json").write_text("[1, 2]")
        gen = ["space", "gen", "--spec", '{"kind": "grid", "dim": 1, "low": 0, "high": 6}',
               "--out", "s.json"]
        for argv, code in [(gen, 0),
                           (["family", "verify", "--family", "bad.json", "--space", "s.json"], 1),
                           (["space", "info", "--space", "m.json"], 2)]:
            assert cli.main(argv) == code
            assert gc.isenabled() is enabled
        during = []

        def broken(spec):
            during.append(gc.isenabled())
            raise InternalInvariantError("forced")

        monkeypatch.setattr("folnerflow.space.generate", broken)
        assert cli.main(gen) == 3
        assert gc.isenabled() is enabled and during == [False]  # paused while it ran
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        assert gc.isenabled() is enabled
        assert capsys.readouterr().err.splitlines() == [
            "error: space file must be an object, got [1, 2]",
            "internal invariant violation: forced"]


class TestDescriptorReadWhole:
    """A generator descriptor is read whole before anything is built, so a
    key the kind does not read, or a size that is not an int, is named
    before a value the build would refuse; and a file whose descriptor
    counts other than its points is refused on the count, before the build
    could refuse a value."""

    @pytest.mark.parametrize("spec, message", [
        ({"kind": "cycle", "length": -1, "foo": 1},
         "generator spec does not read 'foo'"),
        ({"kind": "product", "base": {"kind": "grid", "dim": 10 ** 9, "low": 0, "high": 1},
          "levels": "x"}, "generator spec levels must be an int, got 'x'"),
        ({"kind": "union", "parts": [{"kind": "cycle", "length": 3}, {"kind": "wat"}]},
         "generator spec parts[1].kind must be one of 'grid', 'cycle', 'tree', 'regular_tree', "
         "'union', 'product', got 'wat'"),
    ], ids=["key-before-value", "levels-before-base", "part-before-spacing"])
    def test_space_gen(self, tmp_path, spec, message):
        r = run_capped_cli(["space", "gen", "--spec", json.dumps(spec), "--out", "s.json"],
                           tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("generator", [
        {"kind": "grid", "dim": 0, "low": 0, "high": 4}, {"kind": "cycle", "length": 0},
    ], ids=["grid-dim-0", "cycle-empty"])
    def test_file_count_before_value(self, tmp_path, generator):
        doc = space_to_json(grid_window(1, 0, 4))  # 5 points
        doc["generator"] = generator
        dump_json(doc, tmp_path / "s.json")
        r = run_capped_cli(["space", "info", "--space", "s.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: space file points does not match its generator descriptor\n")


class TestPartialCoverFails:
    """A cover that leaves a point of the space without a tail fails
    `tails verify` (exit 1: each such point is a start violation) and is
    refused by `tails transport` (exit 2) whether or not the family needs
    the missing tail; a `tails` object instead of a list is refused."""

    def write(self, tmp_path, mutate):
        tree = tree_window(2, 3)
        dump_json(space_to_json(tree), tmp_path / "t.json")
        cover = cover_to_json(build_tree_tails(tree))
        mutate(cover)
        (tmp_path / "cov.json").write_text(json.dumps(cover))

    @pytest.mark.parametrize("mutate, missing", [
        (lambda d: d.update(tails=[]), list(range(15))),
        (lambda d: d["tails"].pop(0), [0]),
    ], ids=["empty", "point-0-dropped"])
    def test_tails_verify_fails(self, tmp_path, mutate, missing):
        self.write(tmp_path, mutate)
        r = run_cli(["tails", "verify", "--space", "t.json", "--cover", "cov.json"], tmp_path)
        assert r.returncode == 1, r.stderr
        report = json.loads(r.stdout)
        assert not report["passed"] and report["start_violations"] == missing

    def test_tails_object_is_exit_2(self, tmp_path):
        self.write(tmp_path, lambda d: d.update(tails={}))
        r = run_cli(["tails", "verify", "--space", "t.json", "--cover", "cov.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: tail cover tails must be a list, got {}\n")

    def test_tails_transport_is_exit_2(self, tmp_path):
        self.write(tmp_path, lambda d: d["tails"].pop(0))
        # every element lands on the tail of point 1 or 2, none on point 0's
        fam = MultisetFamily(sets={1: frozenset({(1, 0), (2, 1)}), 2: frozenset({(2, 0)})}, M=1,
                             params=FamilyParams(R=1, epsilon=Fraction(1, 8), S=1, M=1))
        dump_json(multiset_family_to_json(fam), tmp_path / "fam.json")
        argv = ["tails", "transport", "--space", "t.json", "--family", "fam.json", "--out",
                "out.json"]
        r = run_cli([*argv, "--cover", "cov.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: cover has no tail for point 0\n")
        assert not (tmp_path / "out.json").exists()
        dump_json(cover_to_json(build_tree_tails(tree_window(2, 3))), tmp_path / "full.json")
        assert run_cli([*argv, "--cover", "full.json"], tmp_path).returncode == 0


class TestStageNamesAndReferences:
    """A stage name is a plain file stem, and a name, kind or input reference
    that is a list or an object is a ConfigError naming the field: `run`
    exits 2, with no traceback, and writes nothing."""

    CONFIG = [{"name": "win", "kind": "generate",
               "params": {"spec": {"kind": "cycle", "length": 4}}},
              {"name": "graph", "kind": "rips", "inputs": {"space": "win"}}]

    def refused(self, tmp_path, doc, message):
        with pytest.raises(ConfigError) as info:
            PipelineConfig.from_json(doc)
        assert str(info.value) == message
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        r = run_cli(["run", "--config", "cfg.json", "--out", "out/run"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("value", [["a"], {"a": 1}], ids=["list", "object"])
    @pytest.mark.parametrize("field", ["name", "kind", "reference"])
    def test_not_a_str(self, tmp_path, field, value):
        doc = {"stages": copy.deepcopy(self.CONFIG)}
        if field == "reference":
            doc["stages"][1]["inputs"]["space"] = value
            message = f"config stages[1].inputs.space must be a str, got {value!r}"
        elif field == "kind":
            doc["stages"][1]["kind"] = value
            message = (f"config stages[1].kind must be one of {', '.join(map(repr, STAGES))}, "
                       f"got {value!r}")
        else:
            doc["stages"][1]["name"] = value
            message = f"config stages[1].name must be a plain file stem, got {value!r}"
        self.refused(tmp_path, doc, message)

    @pytest.mark.parametrize("name", ["../outside", "a/b", "", ".", "..", "a\\b", 7])
    def test_name_not_a_file_stem(self, tmp_path, name):
        doc = {"stages": copy.deepcopy(self.CONFIG)}
        doc["stages"][1]["name"] = name
        self.refused(tmp_path, doc, f"config stages[1].name must be a plain file stem, "
                                    f"got {name!r}")

    def test_names_used_in_the_demos_and_the_benchmark_are_stems(self):
        root = Path(__file__).resolve().parent.parent
        text = "\n".join(p.read_text() for p in [*(root / "demos").glob("*.py"),
                                                 *(root / "bench").glob("wl_*.py")])
        names = set(re.findall(r'"name": "([^"]*)"', text))
        assert names and all(
            PipelineConfig.from_json({"stages": [{"name": n, "kind": "generate", "params": {
                "spec": {"kind": "cycle", "length": 3}}}]}) for n in names)
