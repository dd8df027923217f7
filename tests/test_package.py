"""The package namespace loads modules on first use, and a CLI child imports
only the modules its command runs, without changing any message."""

import ast
import builtins
import hashlib
import importlib
import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    "TailTooShort", "TranslateEscapesWindow", "WindowTooSmall",
    "ball_family", "perturbed_cluster_family", "random_multiset_family", "singleton_family",
    "tent_family", "FlattenReport", "FlattenTrace", "flatten", "flatten_family", "shift_step",
    "FlowField", "RipsGraph", "build_flow", "build_rips", "check_coarsely_unbounded",
    "GrowthProfile", "WindowSpace", "cycle_window", "disjoint_union", "generate", "grid_window",
    "growth_profile", "load_space", "product_with_interval", "regular_tree_window",
    "tree_window", "TailCover", "TailCoverReport", "build_tree_tails",
    "tail_transport", "transport_set", "verify_tail_cover",
]


def run_child(code, cwd, *flags):
    r = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
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


def test_only_space_reads_the_metric_representation():
    """The metric's adjacency (`_nbrs`, `_wts`) and the flag of a window
    given as a matrix (`_dense`) stay behind `space.py`; other modules use
    its methods."""
    package = Path(folnerflow.__file__).parent
    reads = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(package.glob("*.py")) if path.name != "space.py"
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"\._(dense|nbrs|wts)\b", line)]
    assert reads == []


def test_only_the_search_keeps_a_heap():
    """`heappush` and `heappop` occur only in `WindowSpace._search`: every
    multi-source question (balls, frontier distances, nearest sources) is
    one search there."""
    package = Path(folnerflow.__file__).parent
    uses = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where}.{child.name}")
            else:
                name = getattr(child, "attr", getattr(child, "id", None))
                if name in ("heappush", "heappop"):
                    uses.append((where, name))
                visit(child, where)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert sorted(set(uses)) == [("space.WindowSpace._search", "heappop"),
                                 ("space.WindowSpace._search", "heappush")]


def test_every_annotation_names_a_bound_name():
    """Each name an annotation uses is bound at the top level of its module
    or is a builtin, so `typing.get_type_hints` resolves every annotation
    (they are strings, under `from __future__ import annotations`)."""
    package = Path(folnerflow.__file__).parent

    def names(note):
        for node in ast.walk(note):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from names(ast.parse(node.value, mode="eval"))

    unbound = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = set(dir(builtins))
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        notes = [n for node in ast.walk(tree) for n in (
            getattr(node, "annotation", None), getattr(node, "returns", None)) if n is not None]
        unbound += [(path.stem, name) for note in notes for name in names(note)
                    if name not in bound]
    assert sorted(set(unbound)) == []


def modules_after(argv, cwd, *flags):
    """The modules a fresh child (`python *flags`) holds after cli.main(argv),
    which must return 0."""
    code = (f"import json, sys\nfrom folnerflow import cli\nstatus = cli.main({argv!r})\n"
            "print(json.dumps([status, sorted(sys.modules)]))")
    status, loaded = json.loads(run_child(code, cwd, *flags).splitlines()[-1])
    assert status == 0, argv
    return set(loaded)


LINE = {"kind": "grid", "dim": 1, "low": -30, "high": 30}
TREE = {"kind": "tree", "branching": 2, "depth": 5}
# one argv per command: the command kinds of the cli-artifacts benchmark
# workload, then space info, amen boundary, amen search and coarse project
SESSION = {
    "space gen": ["space", "gen", "--spec", json.dumps(LINE), "--out", "gen.json"],
    "space info": ["space", "info", "--space", "line.json", "--radii", "1,2"],
    "rips build": ["rips", "build", "--space", "line.json", "--r", "1", "--out", "r.json"],
    "flow build": ["flow", "build", "--rips", "rips.json", "--out", "f.json"],
    "flatten run": ["flatten", "run", "--family", "tent.json", "--flow", "flow.json",
                    "--space", "line.json", "--out", "flat.json", "--report", "flat.report.json"],
    "family verify": ["family", "verify", "--family", "tent.json", "--space", "line.json"],
    "tails build": ["tails", "build", "--space", "tree.json", "--out", "c.json"],
    "tails verify": ["tails", "verify", "--space", "tree.json", "--cover", "cover.json"],
    "tails transport": ["tails", "transport", "--space", "tree.json", "--cover", "cover.json",
                        "--family", "cluster.json", "--M", "1", "--out", "transported.json"],
    "box build": ["box", "build", "--m", "4", "--boxes", "5", "--F", "0..9", "--R", "1",
                  "--eps", "1/4", "--out", "box.json", "--family-out", "boxfam.json"],
    "amen boundary": ["amen", "boundary", "--space", "line.json", "--U", "20..29", "--R", "1"],
    "amen search": ["amen", "search", "--space", "line.json", "--R", "1", "--eps", "1/2"],
    "coarse push": ["coarse", "push", "--family", "pushfam.json", "--space", "X.json",
                    "--target", "Y.json", "--map", "map.json", "--out", "pushed.json"],
    "coarse project": ["coarse", "project", "--family", "projfam.json", "--space", "prod.json",
                       "--out", "projected.json"],
    "run": ["run", "--config", "pipe.json", "--out", "out"],
    "explain": ["explain", "done/report.json"],
}


@pytest.fixture(scope="module")
def session_dir(tmp_path_factory):
    """The input files of every SESSION command, written in this process."""
    from folnerflow import (Chain, FamilyParams, IndexedFamily, MultisetFamily, ball_family,
                            build_flow, build_rips, build_tree_tails, generate, grid_window,
                            product_with_interval, tent_family)
    from folnerflow.chains import family_to_json, multiset_family_to_json
    from folnerflow.jsonio import dump_json
    from folnerflow.pipeline import PipelineConfig, run
    from folnerflow.rips import flow_to_json, rips_to_json
    from folnerflow.space import space_to_json
    from folnerflow.tails import cover_to_json
    d = tmp_path_factory.mktemp("session")
    line, tree = generate(LINE), generate(TREE)
    rips = build_rips(line, 1)
    X, prod = grid_window(1, 0, 20), product_with_interval(grid_window(1, 0, 9), 2)
    for doc, name in (
            (space_to_json(line), "line"), (space_to_json(tree), "tree"),
            (rips_to_json(line, rips), "rips"), (flow_to_json(build_flow(line, rips)), "flow"),
            (family_to_json(tent_family(line, 4, 1, Fraction(3, 4), core=range(30, 40))), "tent"),
            (cover_to_json(build_tree_tails(tree)), "cover"),
            (multiset_family_to_json(MultisetFamily(
                sets={0: frozenset({(0, 0), (1, 1)})}, M=1,
                params=FamilyParams(R=1, epsilon=Fraction(1, 8), S=1, M=1))), "cluster"),
            (space_to_json(X), "X"), (space_to_json(grid_window(1, 0, 40)), "Y"),
            (family_to_json(ball_family(X, 2, R=1, epsilon=Fraction(2, 3))), "pushfam"),
            ({"f": [[x, 2 * x] for x in range(X.n)]}, "map"), (space_to_json(prod), "prod"),
            (family_to_json(IndexedFamily(
                space=prod, chains={2 * z: Chain.from_set({8, 9, 2 * z}) for z in range(3, 7)},
                params=FamilyParams(R=1, epsilon=Fraction(1, 2), S=8))), "projfam")):
        dump_json(doc, d / f"{name}.json")
    pipe = {"stages": [
        {"name": "win", "kind": "generate", "params": {"spec": LINE}},
        {"name": "graph", "kind": "rips", "params": {"r": "1/1"}, "inputs": {"space": "win"}},
        {"name": "exit", "kind": "flow", "inputs": {"rips": "graph"}},
        {"name": "tent", "kind": "family", "inputs": {"space": "win"},
         "params": {"kind": "tent", "width": 4, "R": "1/1", "epsilon": "3/4",
                    "core": {"coords": [0, 9]}}},
        {"name": "flat", "kind": "flatten", "inputs": {"family": "tent", "flow": "exit"}},
        {"name": "check", "kind": "verify", "params": {"require_flat": True},
         "inputs": {"family": "flat"}}]}
    dump_json(pipe, d / "pipe.json")
    run(PipelineConfig.from_json(pipe), d / "done")
    return d


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

    @pytest.mark.parametrize("command", ["tails build", "tails verify"])
    def test_tails_build_and_verify(self, session_dir, command):
        """Only `tail_transport` needs the chain module."""
        loaded = modules_after(SESSION[command], session_dir)
        assert "folnerflow.tails" in loaded
        for name in ("chains", "flatten", "constructions", "families", "rips"):
            assert f"folnerflow.{name}" not in loaded

    @pytest.mark.parametrize("command, absent", [
        ("flatten run", ("constructions", "tails", "families")),
        ("family verify", ("constructions", "tails", "families", "flatten", "rips")),
    ])
    def test_flatten_run_and_family_verify(self, session_dir, command, absent):
        """The pair pass they share lives in the chain module."""
        loaded = modules_after(SESSION[command], session_dir)
        assert "folnerflow.chains" in loaded
        for name in absent:
            assert f"folnerflow.{name}" not in loaded

    @pytest.mark.parametrize("command, modules", [
        ("space info", ()),
        ("rips build", ("rips",)),
        ("flow build", ("rips",)),
        ("tails transport", ("chains", "tails")),
        ("amen boundary", ("constructions", "chains")),
        ("amen search", ("constructions", "chains")),
        ("coarse push", ("constructions", "chains")),
        ("coarse project", ("constructions", "chains")),
        ("box build", ("constructions", "chains")),
        ("run", ("rips", "families", "chains", "flatten")),
    ])
    def test_each_command_loads_only_its_modules(self, session_dir, command, modules):
        """Besides what every command loads: the package, its errors, its JSON
        writer, the CLI, the pipeline and the space module that loading reads."""
        loaded = {m for m in modules_after(SESSION[command], session_dir)
                  if m.startswith("folnerflow.")}
        common = {"errors", "jsonio", "cli", "pipeline", "space"}
        assert loaded == {f"folnerflow.{name}" for name in (*common, *modules)}

    @pytest.mark.parametrize("command", SESSION)
    def test_no_command_loads_dataclasses_or_inspect(self, session_dir, command):
        loaded = modules_after(SESSION[command], session_dir)
        assert "dataclasses" not in loaded
        assert "inspect" not in loaded

    def test_space_gen_without_site_loads_no_typing(self, tmp_path):
        """Site start-up may preload `typing` (a .pth file can), so a child
        started with -S shows whether the package itself imports it."""
        loaded = modules_after(SESSION["space gen"], tmp_path, "-S")
        assert (tmp_path / "gen.json").is_file()
        assert "typing" not in loaded


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
    "rips build --help": (0, "713cf790147b6bd05e54396c08ebf6009470d9164630a9ae2ec57a5acad03bfc",
                             EMPTY),
    "rips build": (2, EMPTY, "e2e05eea21465240d954eb2a56f01557dcf6cf32dfedda4650549c7194616995"),
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
    "flatten run --help": (0, "e168aa0c3d6701a875b93cf8b1aee8ab4b759699b571d2055a8eb84c9714cb1f",
                              EMPTY),
    "flatten run": (2, EMPTY, "c389ac23cb0e17af54eaa6a96225afe71ae4f8aa5dfab261e11ca80b5ef6a22e"),
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
    "coarse push --help": (0, "b88c020e9dbea030b98e8c31ae112f2da3dfd56330e454ee7a4f8cda21f707e7",
                              EMPTY),
    "coarse push": (2, EMPTY, "b1f2a200d12ff3a91be6ceea7ef271f44d1ecd3f002a847762c6f8f9e7f84498"),
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
    "explain --help": (0, "db4309c6f453e5c1b3a41a44d873b2296d55d99858758f719a5cd2187e6cea08",
                          EMPTY),
    "explain": (2, EMPTY, "0a6e9c2ab0517a0a900af4f3510d2d0a552e5cdb383374abadbd0fd243b2cacd"),
}


@pytest.mark.parametrize("args", MESSAGES)
def test_parser_messages_unchanged(args, tmp_path):
    r = subprocess.run([sys.executable, "-m", "folnerflow.cli", *args.split()],
                       capture_output=True, cwd=tmp_path, env={**child_env(), "COLUMNS": "80"},
                       timeout=120)
    sha = lambda b: hashlib.sha256(b).hexdigest()
    assert (r.returncode, sha(r.stdout), sha(r.stderr)) == MESSAGES[args]
