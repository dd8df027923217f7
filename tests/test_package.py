"""The package namespace loads modules on first use, and a CLI child imports
only the modules its command runs, without changing any message."""

import hashlib
import importlib
import json
import subprocess
import sys

import pytest
from conftest import child_env

import folnerflow

EXPORTED = [
    "Chain", "FamilyParams", "FamilyReport", "INFINITE_RATIO", "IndexedFamily",
    "MultisetFamily", "base_and_towers", "family_from_multisets", "l1_distance", "ratio",
    "verify_family", "BoxFamilyReport", "BoxSpaceModel", "CoarseMapModel", "boundary",
    "box_family", "build_box_space", "foelner_search", "group_foelner_family", "project_family",
    "pushforward_injective", "subspace", "BranchingTooLow", "ConfigError", "EmptyImage",
    "FlowEscaped", "FolnerflowError", "InternalInvariantError", "NotCoarselyUnbounded",
    "PipelineStageError", "TailTooShort", "TranslateEscapesWindow", "WindowTooSmall",
    "ball_family", "perturbed_cluster_family", "random_multiset_family", "singleton_family",
    "tent_family", "FlattenReport", "FlattenTrace", "flatten", "flatten_family", "shift_step",
    "FlowField", "RipsGraph", "build_flow", "build_rips", "check_coarsely_unbounded",
    "GrowthProfile", "WindowSpace", "cycle_window", "disjoint_union", "generate", "grid_window",
    "growth_profile", "load_space", "product_with_interval", "regular_tree_window",
    "save_space", "tree_window", "TailCover", "TailCoverReport", "build_tree_tails",
    "tail_transport", "transport_set", "verify_tail_cover",
]


def run_child(code, cwd):
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       cwd=cwd, env=child_env(), timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout


class TestLazyNamespace:
    def test_all_is_pinned(self):
        assert folnerflow.__all__ == EXPORTED

    def test_each_name_is_its_modules_object(self):
        for name in EXPORTED:
            module = importlib.import_module(f"folnerflow.{folnerflow._EXPORTS[name]}")
            assert getattr(folnerflow, name) is getattr(module, name), name

    def test_dir_lists_every_name(self):
        assert set(EXPORTED) <= set(dir(folnerflow))

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="nosuch"):
            folnerflow.nosuch
        assert not hasattr(folnerflow, "cli_main")

    def test_submodule_import(self):
        from folnerflow import pipeline
        assert pipeline is sys.modules["folnerflow.pipeline"]

    def test_import_loads_no_submodule(self, tmp_path):
        out = run_child("import sys, folnerflow; "
                        "print(sorted(m for m in sys.modules if m.startswith('folnerflow')))",
                        tmp_path)
        assert out == "['folnerflow']\n"

    def test_flatten_stays_the_function_after_its_module_loads(self, tmp_path):
        out = run_child("from folnerflow.flatten import shift_step\n"
                        "import folnerflow, sys\n"
                        "print(folnerflow.flatten is sys.modules['folnerflow.flatten'].flatten)",
                        tmp_path)
        assert out == "True\n"


def modules_after(argv, cwd):
    """The folnerflow modules a fresh child holds after cli.main(argv)."""
    code = (f"import json, sys\nfrom folnerflow import cli\ncli.main({argv!r})\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('folnerflow'))))")
    return set(json.loads(run_child(code, cwd).splitlines()[-1]))


class TestImportGuard:
    """A module-level import in __init__, cli or pipeline slows every CLI child."""

    def test_space_gen(self, tmp_path):
        spec = json.dumps({"kind": "grid", "dim": 1, "low": 0, "high": 9})
        loaded = modules_after(["space", "gen", "--spec", spec, "--out", "s.json"], tmp_path)
        assert (tmp_path / "s.json").is_file()
        assert "folnerflow.space" in loaded
        for name in ("flatten", "tails", "constructions", "families", "chains"):
            assert f"folnerflow.{name}" not in loaded

    def test_explain(self, tmp_path):
        report = {"seed": 0, "stages": [{"name": "win", "kind": "generate"}],
                  "failed_stages": [], "passed": True}
        (tmp_path / "report.json").write_text(json.dumps(report))
        loaded = modules_after(["explain", "report.json"], tmp_path)
        assert "folnerflow.pipeline" in loaded
        for name in ("space", "chains", "rips", "flatten", "tails", "constructions", "families"):
            assert f"folnerflow.{name}" not in loaded


# (exit code, sha256 of stdout, sha256 of stderr) on Python 3.11 at 80
# columns, as printed by the parser that built every group's commands
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
MESSAGES = {
    "--help": (0, "d839858204790275a839af4cfc4ac1c541efd89e5b301460da7517251a462e13", EMPTY),
    "space --help": (0, "d41db2e789d92033c2d1dfa2e41fee19ab5f14ad8e1a55119595c285992f987f",
                     EMPTY),
    "nosuch": (2, EMPTY, "0512d34ec8f87a857b3e9f76de5fe04b272c31f0be9d13eba1a2641b03461d5f"),
    "space nosuch": (2, EMPTY,
                     "c97e25e0b3c7c15b9d74f89ccc9fa596347e5665ee45fa835ff8f4c10f3a469b"),
}


@pytest.mark.parametrize("args", MESSAGES)
def test_parser_messages_unchanged(args, tmp_path):
    r = subprocess.run([sys.executable, "-m", "folnerflow.cli", *args.split()],
                       capture_output=True, cwd=tmp_path, env={**child_env(), "COLUMNS": "80"},
                       timeout=120)
    sha = lambda b: hashlib.sha256(b).hexdigest()
    assert (r.returncode, sha(r.stdout), sha(r.stderr)) == MESSAGES[args]
