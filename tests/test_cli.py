import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ramseykit

from ramseykit import ramsey
from ramseykit.blocks import Block
from ramseykit.cli import _build_parser, run
from ramseykit.errors import EnumerationTruncated
from ramseykit.graphs import complete_graph, cycle_graph, write_graph6
from ramseykit.report import _plain

from helpers import bowtie

K3_G6 = write_graph6(complete_graph(3))
K4_G6 = write_graph6(complete_graph(4))
C4_G6 = write_graph6(cycle_graph(4))
BOWTIE_G6 = write_graph6(bowtie())


def run_json(argv):
    code, text = run(argv)
    return code, json.loads(text) if text else None


class TestDispatch:
    def test_blocks(self):
        code, doc = run_json(["blocks", "--graph", BOWTIE_G6])
        assert code == 0
        assert doc["command"] == "blocks"
        assert doc["result"]["cut_vertices"] == [2]
        assert len(doc["result"]["blocks"]) == 2

    def test_degenerate(self):
        code, doc = run_json(["degenerate", "--graph", BOWTIE_G6, "--pattern", K3_G6])
        assert code == 0 and doc["result"]["degenerate"] is True
        code, doc = run_json(["degenerate", "--graph", K4_G6, "--pattern", K3_G6])
        assert doc["result"]["degenerate"] is False
        assert doc["result"]["offending_block"]["vertices"] == [0, 1, 2, 3]

    def test_forest(self):
        code, doc = run_json(["forest", "--graph", BOWTIE_G6, "--pattern", K3_G6])
        assert code == 0
        assert doc["result"]["decomposition"]["size"] == 2
        code, doc = run_json(["forest", "--graph", K4_G6, "--pattern", K3_G6])
        assert doc["result"]["decomposition"] is None

    def test_color_coloring_branch(self):
        code, doc = run_json(
            ["color", "--graph", K4_G6, "--pattern", K3_G6, "--forest", BOWTIE_G6]
        )
        assert code == 0
        assert doc["result"]["branch"] == "coloring"
        assert doc["result"]["verified"] is True
        assert doc["result"]["palette_size"] <= 26

    def test_color_unknown_exit_code(self):
        code, doc = run_json(
            ["color", "--graph", K4_G6, "--pattern", K3_G6, "--forest", BOWTIE_G6,
             "--budget", "2"]
        )
        assert code == 2
        assert doc["status"] == "unknown"

    def test_ramsey_false_with_witness(self):
        code, doc = run_json(["ramsey", "--graph", K4_G6, "--pattern", K3_G6, "-r", "2"])
        assert code == 0
        assert doc["result"]["ramsey"] is False
        assert sorted(set(doc["result"]["witness_coloring"])) == [0, 1]

    def test_ramsey_unknown_exit_code(self):
        code, doc = run_json(
            ["ramsey", "--graph", write_graph6(complete_graph(6)), "--pattern",
             K3_G6, "-r", "2", "--budget", "3"]
        )
        assert code == 2
        assert doc["result"]["ramsey"] is None

    def test_ramsey_truncation_unknown_exit_code(self, monkeypatch):
        def truncated(*args, **kwargs):
            raise EnumerationTruncated("copy enumeration truncated building hypergraph")

        monkeypatch.setattr(ramsey, "copy_hypergraph", truncated)
        code, doc = run_json(["ramsey", "--graph", K4_G6, "--pattern", K3_G6, "-r", "2"])
        assert code == 2
        assert doc["status"] == "unknown"
        assert doc["result"] == {"truncated": "copy enumeration truncated building hypergraph"}

    def test_dense(self):
        code, doc = run_json(
            ["dense", "--graph", write_graph6(complete_graph(10)), "--pattern",
             K3_G6, "--eps", "0.3"]
        )
        assert code == 0 and doc["result"]["dense"] is True

    def test_covers(self):
        code, doc = run_json(["covers", "--graph", C4_G6, "--pattern", K3_G6])
        assert code == 0
        assert doc["result"]["violations"] == []
        assert doc["result"]["min_slack"] == 0

    def test_construct(self):
        code, doc = run_json(
            ["construct", "--pattern", K3_G6, "--family", K4_G6, "-n", "60",
             "--eps", "0.3", "--seed", "1", "--trials", "50"]
        )
        assert code == 0
        assert doc["result"]["report"]["family_free"] == [True]

    def test_count(self):
        code, doc = run_json(
            ["count", "--graph", C4_G6, "--pattern", K3_G6,
             "-n", "40", "--eps", "0.3", "--trials", "5", "--seed", "0"]
        )
        assert code == 0
        assert len(doc["result"]["counts"]) == 5

    def test_count_budget_unknown_exit_code(self):
        code, doc = run_json(
            ["count", "--graph", C4_G6, "--pattern", K3_G6, "-n", "120",
             "--eps", "0.3", "--trials", "3", "--budget", "1"]
        )
        assert code == 2
        assert doc["status"] == "unknown"
        assert doc["result"] == {"truncated": "core copy count truncated during trial"}

    def test_construct_budget_unknown_exit_code(self):
        code, doc = run_json(
            ["construct", "--pattern", K3_G6, "--family", C4_G6, "-n", "60",
             "--eps", "0.3", "--seed", "1", "--budget", "1"]
        )
        assert code == 2
        assert doc["status"] == "unknown"
        assert doc["result"] == {"truncated": "core copy enumeration truncated"}

    def test_forest_budget_zero_on_a_long_path(self, tmp_path):
        path = tmp_path / "p1500.edges"
        path.write_text("".join(f"{v} {v + 1}\n" for v in range(1499)))
        code, doc = run_json(
            ["forest", "--graph", f"@{path}", "--pattern", write_graph6(complete_graph(2)),
             "--budget", "0"]
        )
        assert code == 0
        assert doc["result"]["decomposition"]["size"] == 1499
        assert doc["result"]["decomposition"]["minimal"] is False

    def test_estimate_density(self):
        code, doc = run_json(
            ["estimate-density", "--graph", write_graph6(complete_graph(12)),
             "--pattern", K3_G6, "-n", "4", "--trials", "20", "--seed", "0"]
        )
        assert code == 0
        assert doc["result"]["fraction"] == 1.0


class TestDetermism:
    def test_byte_identical_reruns(self):
        argvs = [
            ["construct", "--pattern", K3_G6, "--family", K4_G6, "-n", "50",
             "--eps", "0.3", "--seed", "5", "--trials", "25"],
            ["count", "--graph", C4_G6, "--pattern", K3_G6, "-n", "40",
             "--eps", "0.3", "--trials", "4", "--seed", "9"],
            ["dense", "--graph", write_graph6(complete_graph(12)), "--pattern", K3_G6,
             "--eps", "0.25", "--mode", "sampled", "--trials", "30", "--seed", "2"],
        ]
        for argv in argvs:
            first = run(argv)
            second = run(argv)
            assert first == second
            assert first[1].encode() == second[1].encode()


class TestInputHandling:
    def test_usage_error_exit_1(self):
        code, _ = run(["ramsey", "--graph", K4_G6])
        assert code == 1

    def test_malformed_graph_exit_1(self):
        code, _ = run(["blocks", "--graph", "D?"])
        assert code == 1

    def test_unknown_subcommand(self):
        code, _ = run(["frobnicate"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["estimate-density", "--graph", K4_G6, "--pattern", K3_G6, "-n", "-1"],
        ["estimate-density", "--graph", K4_G6, "--pattern", K3_G6, "-n", "3",
         "--trials", "-5"],
        ["count", "--graph", C4_G6, "--pattern", K3_G6, "-n", "40", "--eps", "0.3",
         "--trials", "-2"],
        ["dense", "--graph", K4_G6, "--pattern", K3_G6, "--eps", "0.8",
         "--mode", "sampled", "--trials", "-3"],
        ["construct", "--pattern", K3_G6, "--family", K4_G6, "-n", "60",
         "--eps", "0.3", "--trials", "-2"],
    ], ids=["estimate-density-n", "estimate-density-trials", "count-trials",
            "dense-sampled-trials", "construct-trials"])
    def test_negative_size_or_trials_exit_1(self, argv, capsys):
        assert run(argv) == (1, "")
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["forest", "--graph", BOWTIE_G6, "--pattern", K3_G6],
        ["color", "--graph", K4_G6, "--pattern", K3_G6, "--forest", BOWTIE_G6],
        ["ramsey", "--graph", K4_G6, "--pattern", K3_G6, "-r", "2"],
        ["construct", "--pattern", K3_G6, "--family", K4_G6, "-n", "60",
         "--eps", "0.3"],
        ["count", "--graph", C4_G6, "--pattern", K3_G6, "-n", "40", "--eps", "0.3",
         "--trials", "2"],
    ], ids=lambda argv: argv[0])
    def test_negative_budget_exit_1(self, argv, capsys):
        assert run(argv + ["--budget", "-1"]) == (1, "")
        assert capsys.readouterr().err == "error: --budget must be nonnegative\n"

    @pytest.mark.parametrize("argv", [
        ["construct", "--pattern", K3_G6, "--family", K4_G6, "-n", "60", "--eps", "nan"],
        ["count", "--graph", C4_G6, "--pattern", K3_G6, "-n", "40", "--eps", "nan",
         "--trials", "2"],
        ["count", "--graph", C4_G6, "--pattern", K3_G6, "-n", "40", "--eps", "nan",
         "--trials", "0"],
        ["count", "--graph", C4_G6, "--pattern", K3_G6, "-n", "40", "--eps", "-1",
         "--trials", "0"],
        ["construct", "--pattern", K3_G6, "--family", K4_G6, "-n", "60", "--eps", "0.3",
         "--deletion-multiplier", "nan"],
        ["construct", "--pattern", K3_G6, "--family", K4_G6, "-n", "60", "--eps", "0.3",
         "--deletion-multiplier", "-1"],
    ], ids=["construct-eps-nan", "count-eps-nan", "count-eps-nan-no-trials",
            "count-eps-negative-no-trials", "construct-multiplier-nan",
            "construct-multiplier-negative"])
    def test_non_finite_or_out_of_range_float_exit_1(self, argv, capsys):
        assert run(argv) == (1, "")
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["count", "--graph", C4_G6, "--pattern", K3_G6, "-n", "40", "--eps", "0.3",
         "--trials", "2"],
        ["estimate-density", "--graph", K4_G6, "--pattern", K3_G6, "-n", "3"],
    ], ids=lambda argv: argv[0])
    def test_jobs_below_one_exit_1(self, argv, jobs, capsys):
        assert run(argv + ["--jobs", jobs]) == (1, "")
        assert capsys.readouterr().err == "error: --jobs must be at least 1\n"

    def test_one_vertex_graph_inline(self):
        # the graph6 of the one-vertex graph is "@" itself, not an empty path
        code, doc = run_json(["blocks", "--graph", "@"])
        assert code == 0
        assert doc["inputs"]["graph"] == "@"
        assert doc["result"]["isolated_vertices"] == [0]

    def test_file_loading_graph6(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(BOWTIE_G6 + "\n")
        code, doc = run_json(["blocks", "--graph", f"@{path}"])
        assert code == 0 and len(doc["result"]["blocks"]) == 2

    def test_file_loading_edge_list(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("n=5\n0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n")
        code, doc = run_json(["blocks", "--graph", f"@{path}"])
        assert code == 0 and doc["result"]["cut_vertices"] == [2]

    def test_file_loading_edge_list_with_spaced_count(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("n = 5\n0 1\n1 2\n")
        code, doc = run_json(["blocks", "--graph", f"@{path}"])
        assert code == 0
        assert doc["result"]["cut_vertices"] == [1]
        assert doc["result"]["isolated_vertices"] == [3, 4]

    def test_file_loading_with_header(self, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text(">>graph6<<" + K4_G6 + "\n")
        code, doc = run_json(["degenerate", "--graph", f"@{path}", "--pattern", K3_G6])
        assert code == 0 and doc["result"]["degenerate"] is False

    def test_out_file(self, tmp_path):
        out = tmp_path / "doc.json"
        code, text = run(["blocks", "--graph", K3_G6, "--out", str(out)])
        assert code == 0
        assert out.read_text() == text

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_exit_1(self, tmp_path, where, capsys):
        out = tmp_path / "missing" / "doc.json" if where == "missing-directory" else tmp_path
        assert run(["blocks", "--graph", K3_G6, "--out", str(out)]) == (1, "")
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_ascii_graph_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        path.write_bytes(b"\xff\xfe0 1\n")
        assert run(["blocks", "--graph", f"@{path}"]) == (1, "")
        assert capsys.readouterr().err == f"error: {path}: byte 0 is not ASCII\n"

    def test_text_format(self):
        code, text = run(["blocks", "--graph", K3_G6, "--format", "text"])
        assert code == 0
        assert text.startswith("blocks [ok]")

    def test_schema_marker(self):
        _, doc = run_json(["blocks", "--graph", K3_G6])
        assert doc["schema"] == "ramseykit.report/1"


def fresh_run(argv):
    """argv through python -m ramseykit in a new process."""
    src = str(Path(ramseykit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "ramseykit", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout


def test_one_parser_serves_many_runs():
    construct = ["construct", "--pattern", K3_G6, "--family", K4_G6, "-n", "60",
                 "--eps", "0.3", "--seed", "3", "--trials", "40"]
    covers = ["covers", "--graph", BOWTIE_G6, "--pattern", K3_G6]
    usage = ["ramsey", "--graph", K4_G6]
    argvs = [construct, covers, usage, construct]
    in_process = [run(argv) for argv in argvs]
    assert _build_parser() is _build_parser()
    assert [code for code, _ in in_process] == [0, 0, 1, 0]
    assert in_process == [fresh_run(argv) for argv in argvs]


# SHA-256 of f"{exit code}\n{stdout}" for one small input per subcommand,
# recorded before report.envelope serialised result objects itself; the
# dense input is dense, so an exact-mode miss's hits are not involved
PINNED_DOCUMENTS = [
    (["blocks", "--graph", "DxK"],
     "545d63bff86e38e83189ca70b24c383015db31489ba5e26a3c958e084090646e",
     "e8acb48fb75fd1a805571706871f83220c1ee8c6f9be22ab9c71e088e92ea16a"),
    (["degenerate", "--graph", "C~", "--pattern", "Bw"],
     "d0a4ce5bd183c3945267eaf54e73c53d00c093773a30e04860e3ca7e4db118a2",
     "bf69f37cc9c9072282303ffd50c80486e300a124a77ec986643788b3dad50932"),
    (["forest", "--graph", "DxK", "--pattern", "Bw"],
     "e4081bf1d82b138a4afba2b7c0b119d7881bab24d2b3365290133979d3c9f33a",
     "2e895515a077dc9617c9f553b40d7f1935f2d31889199abcd3c18581b7b0bf5e"),
    (["color", "--graph", "C~", "--pattern", "Bw", "--forest", "DxK"],
     "e7464821c5ee973fb07c5d2508fe6915cb0c8e0d4a170b276b27e58fc01a89e6",
     "c6beb67a1d7dad7381b472fb2392149c8e21e0c54e2c27db06456c52f89f2d20"),
    (["ramsey", "--graph", "DxK", "--pattern", "Bw", "-r", "2"],
     "ce2a64a5cc6897bc61ddc0f5a4fdac3f42cb59a208fbb46705da7acf9bc9da10",
     "e7b52e90b98b6ae0b8df51a2950660b3d6062c224b2de9a7fef6b16a493d26d6"),
    (["dense", "--graph", "D~{", "--pattern", "A_", "--eps", "0.6", "--mode", "exact"],
     "e964b7e7af7a2820836253a2142769f69ac4559b659593aca18c727d58c03c06",
     "2aeb6915dbf464deb9484b63489bf49904a8e0bfc2b9ef99296067161930fbec"),
    (["construct", "-n", "40", "--eps", "0.3", "--pattern", "Bw", "--family", "C~",
      "--trials", "50"],
     "d2c04d1ed39950e699a3ec578a1de8bb5ec41b44601a1eca8970df73b81071d4",
     "9175522aa9358bbc0a795eef7e340e5a0fedd1318fe279eddcef0036b205ce51"),
    (["covers", "--graph", "Cl", "--pattern", "Bg"],
     "753d04094e9de020d8837fa582eccbff0dde8084e84d34f48e5e08b9b9736713",
     "cee71e0fbb9f8ac390abeadbd7cca6cba705dcfe36707a470c9a2f08e91255ea"),
    # large automorphism groups: 73,993 and 55,084 minimal covers
    (["covers", "--graph", "Gs@ipo", "--pattern", "Bw"],
     "5f27490f0f4afe4a353a8105eb4feb6547a5d4478c75ff78f325ffe90342fdb2",
     "e3230dc3878b911b75e852d60fd184f8cf1597254042b43ab1deaf52dbd5585f"),
    (["covers", "--graph", "E|fG", "--pattern", "Bw"],
     "ad8a47ee3eeb173c7dc4ddedf2a114ddb85b0ad2ec0587e4fea46ff69eacff5a",
     "0dd2bb89b4ea105b9b6505c9bb74432ba0fb58bdd077a90d5bc464e31d15920f"),
    (["count", "--graph", "Cl", "--pattern", "Bw", "-n", "20", "--eps", "0.3",
      "--trials", "3"],
     "5defaf9808b07976e3ee36847bd426aae31de386b9c57d4a2735118eaec2014f",
     "4d294f0c6472b4be749f63a7d648ae624efdab53d5266838a6b63292756db8b4"),
    (["estimate-density", "--graph", "KhCGGC@?G?o@", "--pattern", "Bg", "-n", "6",
      "--trials", "50", "--seed", "3"],
     "6dc887fcf1d1d6235645bc0d6240ec023b832d5e5bba45c898fce6c79cb19f81",
     "d419781d4f34353d3d195abd9b399ac1a96c9934b9a2f985d5e682289e41fa03"),
    # a budget that runs out: exit 2
    (["color", "--graph", "C~", "--pattern", "Bw", "--forest", "DxK", "--budget", "1"],
     "e34a51c75cdff342026a05502d5cfffe34e023e64d6724c9b3089dbb5061f1ee",
     "5720f8589e5507ddbc590c03b1937b6b2b48681f1d0225956a471602816fd84c"),
]


_PINNED_ID_SUFFIXES = {"--budget": "-budget", "Gs@ipo": "-cube", "E|fG": "-w5"}


@pytest.mark.parametrize("argv, json_sha, text_sha", PINNED_DOCUMENTS,
                         ids=[argv[0] + "".join(_PINNED_ID_SUFFIXES.get(a, "") for a in argv)
                              for argv, _, _ in PINNED_DOCUMENTS])
def test_whole_documents_are_pinned(argv, json_sha, text_sha):
    for fmt, sha in (("json", json_sha), ("text", text_sha)):
        code, text = run(argv + ["--format", fmt])
        assert hashlib.sha256(f"{code}\n{text}".encode()).hexdigest() == sha, fmt


def test_plain_turns_dataclasses_into_dicts_and_tuples_into_lists():
    block = Block((0, 1), ((0, 1),))
    plain_block = {"vertices": [0, 1], "edges": [[0, 1]]}
    value = {"one": block, "many": [block, None], "pair": (1, "a"), "x": 2.5, "none": None}
    assert _plain(value) == {
        "one": plain_block,
        "many": [plain_block, None],
        "pair": [1, "a"],
        "x": 2.5,
        "none": None,
    }
    assert _plain(None) is None and _plain("s") == "s" and _plain(True) is True
