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
    "MultisetFamily", "base_and_towers", "family_from_multisets", "ratio",
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
# columns, as printed by the parser that built every group's commands, and
# (from "space gen --help" on) by the per-command handlers before every
# command became a stage row
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
MESSAGES = {
    "--help": (0, "d839858204790275a839af4cfc4ac1c541efd89e5b301460da7517251a462e13", EMPTY),
    "space --help": (0, "d41db2e789d92033c2d1dfa2e41fee19ab5f14ad8e1a55119595c285992f987f",
                     EMPTY),
    "nosuch": (2, EMPTY, "0512d34ec8f87a857b3e9f76de5fe04b272c31f0be9d13eba1a2641b03461d5f"),
    "space nosuch": (2, EMPTY,
                     "c97e25e0b3c7c15b9d74f89ccc9fa596347e5665ee45fa835ff8f4c10f3a469b"),
    # every command's --help and its missing-argument error, every group's --help
    "space gen --help": (0, "ec16d8aa2cd61769047f6f17302c6c14e8355f1dcaac3680ab93c02b5907046e",
                            EMPTY),
    "space gen": (2, EMPTY, "31496b8e14bf0f05c8798d2826fb759a2501b7f02fc12d2117efa0f255acd888"),
    "space info --help": (0, "0b41abeb5b3d2e2fe93973044fe92c967a60f83609c7d634d1d3e6cfdedf23c5",
                             EMPTY),
    "space info": (2, EMPTY, "e00f7673f5aba65be8570e1f84ff52629cfac532e607945786af7295454a9488"),
    "rips --help": (0, "0ac20bd547d0115d48337f7fc2805d32577e6e3428fee5258e6859b44ec7bc97", EMPTY),
    "rips build --help": (0, "1735cb0655412ab4e7ef63eafcc7bc72bd30b81b2686277a420efac4db30e942",
                             EMPTY),
    "rips build": (2, EMPTY, "672b7a0759e46f297bd2e936b81ac761f4fd5e1b9c4a3eea22d6dd9e685d9e63"),
    "flow --help": (0, "267b56c1919fd3c8e06d0e1413dc7de1ea109f49d3a46bbdd29f97c5eed0e1ef", EMPTY),
    "flow build --help": (0, "3e80a7a1791aa955c6c6d46389257f76294abe50ebf090c430dcae036d5afabf",
                             EMPTY),
    "flow build": (2, EMPTY, "ac69c020b6d81da0c76f35fcdbd3cf58cd280aca700bf62c4a3df775f6200425"),
    "family --help": (0, "aff53157a38c66e8697a1f5a997724785a73f122722433e83d3c9408ae33a283",
                         EMPTY),
    "family verify --help": (0, "f602346c97c704e70be8ed77956291fb9c07bc0877bdb8dd0584ac4579ca16cd",
                                EMPTY),
    "family verify": (2, EMPTY,
                         "a0250999a116057fdd2cb8be91a971e01b7162d930b80b8015641307a13e4a72"),
    "flatten --help": (0, "df0d68ade182667597a009c7cee361c2ce9b64529857131de1c43f29e2773d98",
                          EMPTY),
    "flatten run --help": (0, "e9bce5507527760a45d2a6a36bf9e240c17b91cac7a92238693782b2b1730662",
                              EMPTY),
    "flatten run": (2, EMPTY, "7b6ad21166c64d985c1513df371efd387e53d6412183775696e6dd6a70c91a7e"),
    "tails --help": (0, "51945d8ab7a7e15810f8e7001f0fe6e0f7a2817f557a169547cfa337236dd6da", EMPTY),
    "tails build --help": (0, "046abb2bce1a5f9853077bbc604d052286ceef087fcadf569fcb52222f6984f4",
                              EMPTY),
    "tails build": (2, EMPTY, "4e0f6ca47ce28ae9b0497347eb21f85c03f9cc5cb8ef7d9f9ea4f6aac2ed0eef"),
    "tails verify --help": (0, "fcd37b1fde04f2796e542a5546c3fc7777b9cdc2bc3b6b4b272c21c8ff1abf66",
                               EMPTY),
    "tails verify": (2, EMPTY, "133c7206a7c5396e407c2fffb92fa0d94d14ed6cdeed77be4834877d93f88577"),
    "tails transport --help": (0, "08a4ff502bffea9f48e2ce013f24cacf69083286610976bac1490bcf96e3b506",
                                  EMPTY),
    "tails transport": (2, EMPTY,
                           "50c9ad3e67f4c861f8d904cb64c6d00bd032ec561688f1197a946961a4d17e31"),
    "amen --help": (0, "48695f3bd0bf0fea74aabad9f938967ee2e008b1c97f0bfc8f8fa50580bd4409", EMPTY),
    "amen boundary --help": (0, "7d166d999f9a55d45deba3c82d7fd90842c11c6a4a93e0236174eb88c763167f",
                                EMPTY),
    "amen boundary": (2, EMPTY,
                         "b3bf153cd25b8938bac437c48cafb4ebdeef661c28d2923a995f96a6879e5cfc"),
    "amen search --help": (0, "01535352f3080ed1df593b29989332f7d687e96ce70e953da277174637830891",
                              EMPTY),
    "amen search": (2, EMPTY, "954babf3c254b24797295f56a2ff8d27c61b5223fa55ba3024a972d2c3b8e585"),
    "coarse --help": (0, "036ced78a0895dab9ed4ce3591422d2fbe954b73d423774a9d8ff1e8b3e54262",
                         EMPTY),
    "coarse push --help": (0, "b837f93fef4e3e1a23ed86b8fe0c7a1f4e8fb50c2039829ba3e3e980c740423f",
                              EMPTY),
    "coarse push": (2, EMPTY, "7b7d3a2b9e03ad1d65c83c931a553b2d01f05c11d681a0baa1006bad1af0f3de"),
    "coarse project --help": (0, "52d027059833457a866290875689bc865795ca9b9c9b1a07914784d494c8f583",
                                 EMPTY),
    "coarse project": (2, EMPTY,
                          "52babb1e48f40a815921ea427c977403cbaaf496839df4d7e5e620cc5087c72e"),
    "box --help": (0, "fffdc839326b55a974b027282fb5f4a649c984c1cbfbe1b75863cd097ee0a79c", EMPTY),
    "box build --help": (0, "3ed813886b0bca698f9dc2915dc53071f8a8be839dcd22bffb28b0f088bd1961",
                            EMPTY),
    "box build": (2, EMPTY, "d8448a42acde73b95b6aae4088ca65556d0fcca3fbfbc95a8fc5da968a3d6c96"),
    "run --help": (0, "a66ad3510797629f07434da367898c6df5ae100fe339cd2fdc1061d5bd211f17", EMPTY),
    "run": (2, EMPTY, "6d847a11e1bd436b9cf2703dcd006a4a63338bbefebbfa510eae650a08afc360"),
    "explain --help": (0, "96292d3febcee0ee41bb11e2605dcc6c69ba80d7cac5a60b19106bc73faa7fdc",
                          EMPTY),
    "explain": (2, EMPTY, "baf3faa65d7a66882473d64aee7eed3f8da7c38046638ca0189b3955c6f2b49b"),
}


@pytest.mark.parametrize("args", MESSAGES)
def test_parser_messages_unchanged(args, tmp_path):
    r = subprocess.run([sys.executable, "-m", "folnerflow.cli", *args.split()],
                       capture_output=True, cwd=tmp_path, env={**child_env(), "COLUMNS": "80"},
                       timeout=120)
    sha = lambda b: hashlib.sha256(b).hexdigest()
    assert (r.returncode, sha(r.stdout), sha(r.stderr)) == MESSAGES[args]
