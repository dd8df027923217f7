"""Pipeline runs, determinism, report round-trips, CLI exit codes."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import child_env

from folnerflow import (
    ConfigError,
    FamilyParams,
    MultisetFamily,
    WindowSpace,
    build_tree_tails,
    grid_window,
    singleton_family,
    tree_window,
)
from folnerflow.chains import (
    family_from_json,
    family_to_json,
    load_family,
    multiset_family_from_json,
    multiset_family_to_json,
)
from folnerflow.constructions import box_family, build_box_space
from folnerflow.jsonio import dump_json, parse_ids
from folnerflow.pipeline import PipelineConfig, explain, run
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

    def test_escapes_fail_the_run_and_explain_suggests_margin(self, tmp_path):
        cfg = PipelineConfig.from_json({
            "stages": [
                {"name": "win", "kind": "generate",
                 "params": {"spec": {"kind": "grid", "dim": 1, "low": -200, "high": 200}}},
                {"name": "graph", "kind": "rips", "params": {"r": "1/1"},
                 "inputs": {"space": "win"}},
                {"name": "exit", "kind": "flow", "inputs": {"rips": "graph"}},
                {"name": "tent", "kind": "family",
                 "params": {"kind": "tent", "width": 11, "R": "1/1", "epsilon": "1/4",
                            "core": {"coords": [-195, -190]}},  # hugs the sink: must escape
                 "inputs": {"space": "win"}},
                {"name": "flat", "kind": "flatten", "params": {"on_escape": "collect"},
                 "inputs": {"family": "tent", "flow": "exit"}},
            ],
        })
        report = run(cfg, tmp_path)
        assert not report["passed"]
        assert "flat" in report["failed_stages"]
        flat = next(s for s in report["stages"] if s["name"] == "flat")
        assert flat["escaped_indices"]
        text = explain(report)
        assert "escaped at index" in text
        assert "window margin" in text


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

    def test_malformed_space_is_exit_2(self, tmp_path):
        doc = space_to_json(grid_window(1, 0, 2))
        del doc["generator"]
        (tmp_path / "s.json").write_text(json.dumps({**doc, "frontier": [True]}))
        r = run_cli(["space", "info", "--space", "s.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: space frontier entry True is not an int point id\n")
        r = run_cli(["space", "gen", "--spec", '{"kind": "cycle", "length": true}',
                     "--out", "c.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: generator spec for 'cycle': length must be an int, got True\n")
        assert not (tmp_path / "c.json").exists()

    def test_space_file_not_an_object_is_exit_2(self, tmp_path):
        (tmp_path / "s.json").write_text("[1, 2]")
        r = run_cli(["space", "info", "--space", "s.json"], tmp_path)
        assert (r.returncode, r.stdout, r.stderr) == (
            2, "", "error: a space file must be a JSON object, got a list\n")
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
            2, "", f"error: bad family params: M must be an int >= 0, got {M!r}\n")
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


class TestStageParams:
    @pytest.mark.parametrize("stage, missing", [
        ({"name": "tent", "kind": "family", "params": {"kind": "tent"},
          "inputs": {"space": "win"}}, "width"),
        ({"name": "balls", "kind": "family", "params": {"kind": "ball"},
          "inputs": {"space": "win"}}, "radius"),
        ({"name": "boxes", "kind": "box",
          "params": {"m": 4, "boxes": 5, "R": "1/1", "epsilon": "1/4"}}, "F"),
    ])
    def test_missing_parameter_is_config_error(self, tmp_path, stage, missing):
        doc = {"stages": [
            {"name": "win", "kind": "generate",
             "params": {"spec": {"kind": "grid", "dim": 1, "low": 0, "high": 20}}},
            stage,
        ]}
        message = f"stage {stage['name']!r}: missing parameter {missing!r}"
        with pytest.raises(ConfigError) as info:
            run(PipelineConfig.from_json(doc), tmp_path / "lib")
        assert str(info.value) == message
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        r = run_cli(["run", "--config", "cfg.json", "--out", "cli"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert message in r.stderr

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
        ([3, 1.7], "core entry 1.7 is not an int point id"),
        ([True], "core entry True is not an int point id"),
        (["5"], "core entry '5' is not an int point id"),
        ("3..9", "core must be a list of point ids or coords, got '3..9'"),
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
             "--space", "out/win.json", "--out", "flat.json", "--report", "flat.report.json",
             "--on-escape", "raise"],
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
        from folnerflow.cli import _COMMANDS
        from folnerflow.pipeline import STAGES
        rows = [row for group in _COMMANDS.values() if isinstance(group, dict)
                for row in group.values()]
        kinds = {kind for kind, _flags, _outputs in rows}
        assert len(rows) == 14 and kinds <= set(STAGES)
        # the family kind draws from the run's seeded RNG; it has no command
        assert set(STAGES) - kinds == {"family"}


class TestMalformedStages:
    @pytest.mark.parametrize("key, value", [("inputs", ["w"]), ("params", [1])])
    def test_params_and_inputs_must_be_objects(self, tmp_path, key, value):
        doc = {"stages": [
            {"name": "w", "kind": "generate", "params": {"spec": {"kind": "cycle", "length": 4}}},
            {"name": "g", "kind": "rips", "inputs": {"space": "w"}, key: value},
        ]}
        message = f"stage 'g': {key} must be an object, got {value!r}"
        with pytest.raises(ConfigError) as info:
            PipelineConfig.from_json(doc)
        assert str(info.value) == message
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        r = run_cli(["run", "--config", "cfg.json", "--out", "out"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert message in r.stderr

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
        assert f"rips edge {edge} is not two point ids in 0..4" in r.stderr
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("update, message", [
        ({"frontier": [9], "components": [[0, 1, 2, 3, 4, 9]]},
         "rips frontier entry 9 is not a point id in 0..4"),
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
        (lambda d: d["tails"].append([0, [0, 99]]), "tail cover lists point 0 twice"),
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


class TestCoarsePushMap:
    def test_point_listed_twice_is_exit_2(self, tmp_path):
        write_command_inputs(tmp_path)
        doc = json.loads((tmp_path / "map.json").read_text())
        doc["f"].append([0, 11])
        dump_json(doc, tmp_path / "map.json")
        r = run_cli([*PUSH, "--out", "pushed.json"], tmp_path)
        assert r.returncode == 2, r.stderr
        assert "error: the map lists domain point 0 twice" in r.stderr
        assert not (tmp_path / "pushed.json").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"f": [1, 2]}, "the map entry 1 is not two int ids"),
        ({"f": [[0, 0], [1, 2, 3]]}, "the map entry [1, 2, 3] is not two int ids"),
        ({"f": [[0, 0], ["1", 2]]}, "the map entry ['1', 2] is not two int ids"),
        ({"f": {"0": 0}}, "the map must be a list of [x, y] pairs, got {'0': 0}"),
        ({"g": []}, "the map must be a list of [x, y] pairs, got None"),
    ], ids=["int", "triple", "str-id", "object", "no-f"])
    def test_entry_not_a_pair_is_exit_2(self, tmp_path, doc, message):
        write_command_inputs(tmp_path)
        dump_json(doc, tmp_path / "map.json")
        r = run_cli([*PUSH, "--out", "pushed.json"], tmp_path)
        assert (r.returncode, r.stderr) == (2, f"error: {message}\n")
        assert not (tmp_path / "pushed.json").exists()


class TestMapFileShape:
    def test_map_file_not_an_object_is_exit_2(self, tmp_path):
        write_command_inputs(tmp_path)
        dump_json([[0, 0]], tmp_path / "map.json")
        r = run_cli([*PUSH, "--out", "pushed.json"], tmp_path)
        message = "error: the map file must hold a JSON object, got a list\n"
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
            2, "", "error: the family lists index 0 twice\n")

    def test_multiset_family(self):
        params = FamilyParams(R=1, epsilon=Fraction(1, 2), S=1)
        doc = multiset_family_to_json(MultisetFamily(
            sets={3: frozenset({(3, 0)}), 4: frozenset({(4, 0), (4, 1)})}, M=1, params=params))
        doc["sets"].append([3, [[2, 0]]])
        with pytest.raises(ConfigError) as info:
            multiset_family_from_json(doc)
        assert str(info.value) == "the family lists index 3 twice"


class TestFamilyIdsAgainstSpace:
    """Every command that loads an indexed family against --space rejects an
    index or chain point that is not an id of the space, before any work."""

    @pytest.mark.parametrize("mutate, message", [
        (lambda c: c[3][1]["weights"].append([500, 1]),
         "the chain at index 3 has point 500, outside the space's 0..20"),
        (lambda c: c[3].__setitem__(0, 400), "family index 400 is not a point id in 0..20"),
        (lambda c: c[3][1]["weights"].append([-1, 1]),
         "the chain at index 3 has point -1, outside the space's 0..20"),
        (lambda c: c[1].__setitem__(0, True), "family index True is not a point id in 0..20"),
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
        message = "the chain at index 3 has point 500, outside the space's 0..20"
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
