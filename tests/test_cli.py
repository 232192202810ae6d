import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import beepnet
from beepnet.cli import main
from beepnet.graphs import ParameterError, graph_from_edges, load_graph
from beepnet.harness import PROTOCOLS
from beepnet.multihop import load_layer_annotations
from beepnet.selectors import (
    load_family,
    save_family,
    verify_avoiding_selector,
    verify_family,
)


def test_gen_graph_writes_a_loadable_graph(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen-graph", "--n", "12", "--delta", "3", "--seed", "5", "--out", str(out)]) == 0
    g = load_graph(out)
    assert g.n == 12 and g.delta == 3
    first = out.read_bytes()
    main(["gen-graph", "--n", "12", "--delta", "3", "--seed", "5", "--out", str(out)])
    assert out.read_bytes() == first


@pytest.mark.parametrize("c", ["0", "-1"])
def test_gen_graph_with_c_below_one_exits_2(tmp_path, c):
    out = tmp_path / "g.txt"
    src = str(Path(beepnet.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "beepnet.cli", "gen-graph", "--n", "8", "--delta", "3",
         "--c", c, "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: c must be >= 1, got {c}")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_gen_graph_past_the_word_width_exits_2(tmp_path):
    # 100^10 needs 67 bits, so numpy cannot even draw the IDs
    out = tmp_path / "g.txt"
    src = str(Path(beepnet.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "beepnet.cli", "gen-graph", "--n", "100", "--delta", "3",
         "--c", "10", "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: IDs in [1, 100^10] need 67 bits, more than the 32")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_load_graph_rejects_ids_past_the_word_width(tmp_path):
    # 100^5 needs 34 bits; its selectors could not be built in memory
    graph_file = tmp_path / "wide.graph"
    graph_file.write_text("100 99 5\n" + "".join(f"{u} {u + 1}\n" for u in range(1, 100)))
    with pytest.raises(ParameterError,
                       match=f"{graph_file}: IDs in \\[1, 100\\^5\\] need 34 bits"):
        load_graph(graph_file)


def test_gen_adversarial_writes_graph_and_sidecar(tmp_path):
    out = tmp_path / "lb.txt"
    assert main(["gen-adversarial", "--delta", "4", "--h", "3", "--out", str(out)]) == 0
    g = load_graph(out)
    layers = load_layer_annotations(str(out) + ".layers")
    assert g.n == 20 == len(layers)
    assert sorted(set(layers.values())) == ["R", "T1", "T2", "T3"]
    assert main(["gen-adversarial", "--delta", "3", "--h", "3", "--out", str(out)]) == 2


def test_selector_build_and_verify_cycle(tmp_path):
    fam_file = tmp_path / "fam.txt"
    assert main(["build-selector", "--n", "8", "--k", "3", "--out", str(fam_file)]) == 0
    assert load_family(fam_file).kind == "strong"
    assert main(["verify-selector", str(fam_file)]) == 0

    avoid = tmp_path / "avoid.txt"
    assert main(["build-selector", "--n", "8", "--k", "4", "--l", "2", "--out", str(avoid)]) == 0
    assert load_family(avoid).kind == "avoiding"
    assert main(["verify-selector", str(avoid)]) == 0


def test_verify_selector_flags_a_damaged_family(tmp_path):
    fam_file = tmp_path / "fam.txt"
    main(["build-selector", "--n", "8", "--k", "3", "--out", str(fam_file)])
    lines = fam_file.read_text().splitlines()
    # cut the family down so some subset loses its isolating set
    head = lines[0].split()
    head[3] = "1"
    fam_file.write_text("\n".join([" ".join(head), lines[1]]) + "\n")
    assert main(["verify-selector", str(fam_file)]) == 1


REPO_CACHE = Path(__file__).resolve().parent.parent / ".selector-cache"


@pytest.mark.parametrize("name", ["80-avoiding-3-2-s1.txt", "128-avoiding-9-8-s1.txt"])
def test_verify_selector_flags_a_dropped_element_past_64(tmp_path, capsys, name):
    # Element 1 taken out of every set of a tracked family is never
    # isolated, so the subset {1} alone breaks it.
    fam = load_family(REPO_CACHE / name)
    cut = replace(fam, sets=tuple(tuple(e for e in f if e != 1) for f in fam.sets))
    assert verify_family(cut) == "failed"
    assert not verify_avoiding_selector(cut, cut.n, cut.k, cut.l, exhaustive=False)
    cut_file = tmp_path / name
    save_family(cut, cut_file)
    capsys.readouterr()
    assert main(["verify-selector", str(cut_file)]) == 1
    assert capsys.readouterr().out.rstrip().endswith("-> failed")


def test_verify_selector_passes_a_tracked_sampled_family(capsys):
    # Past the exhaustive guard the CLI samples instead of refusing the file.
    assert main(["verify-selector", str(REPO_CACHE / "128-avoiding-9-8-s1.txt")]) == 0
    assert capsys.readouterr().out.rstrip().endswith("-> sampled")


def test_verify_selector_rejects_a_non_integer_member(tmp_path, capsys):
    fam_file = tmp_path / "fam.txt"
    main(["build-selector", "--n", "8", "--k", "3", "--out", str(fam_file)])
    lines = fam_file.read_text().splitlines()
    lines[2] = " ".join(lines[2].split()[:-1] + ["3x"])
    fam_file.write_text("\n".join(lines) + "\n")
    assert main(["verify-selector", str(fam_file)]) == 2
    assert f"{fam_file} line 3" in capsys.readouterr().err


@pytest.mark.parametrize("line, fault", [
    ("0 3", "set member 0 outside [1, 4]"),
    ("3 9", "set member 9 outside [1, 4]"),
    ("4 4", "set member 4 repeated"),
])
def test_verify_selector_names_the_line_of_a_bad_member(tmp_path, capsys, line, fault):
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text(f"4 strong 2 3 1 greedy\n1 2\n{line}\n3\n")
    assert main(["verify-selector", str(fam_file)]) == 2
    assert f"{fam_file} line 3: {fault}" in capsys.readouterr().err


def test_run_writes_report_and_succeeds(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    main(["gen-graph", "--n", "10", "--delta", "3", "--seed", "2", "--out", str(graph_file)])
    report = tmp_path / "r.jsonl"
    code = main([
        "run", "local-broadcast", "--graph", str(graph_file),
        "--seeds", "1,2", "--B", "2", "--out", str(report),
    ])
    assert code == 0
    records = [json.loads(line) for line in report.read_text().splitlines()
               if line and not line.startswith("#")]
    assert [r["seed"] for r in records] == [1, 2]
    assert all(r["ok"] for r in records)


def test_run_without_out_prints_records(capsys):
    code = main(["run", "learn-neighborhood", "--n", "8", "--delta", "2", "--seeds", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("# beepnet report v1")
    assert "# summary protocol=learn-neighborhood" in out


def test_run_budget_breach_exits_one(tmp_path, capsys):
    code = main([
        "run", "local-broadcast", "--n", "8", "--delta", "2",
        "--seeds", "1", "--max-rounds", "1", "--out", str(tmp_path / "r.jsonl"),
    ])
    assert code == 1
    assert "budget" in capsys.readouterr().err


def test_run_rejects_a_negative_round_budget(capsys):
    code = main(["run", "local-broadcast", "--n", "8", "--delta", "2",
                 "--seeds", "1", "--max-rounds", "-1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: max_rounds")


def test_run_rejects_bad_degree_bound(tmp_path, capsys):
    graph_file = tmp_path / "g.txt"
    main(["gen-graph", "--n", "10", "--delta", "4", "--seed", "2", "--out", str(graph_file)])
    code = main([
        "run", "c2b", "--graph", str(graph_file), "--delta", "2", "--seeds", "1",
    ])
    assert code == 2


@pytest.mark.parametrize("body", [
    "3 2 1\n1 2\n",           # truncated: the header promises two edges
    "3 2 1\n1 2\n2 x\n",      # a non-integer ID
], ids=["truncated", "non-integer"])
def test_run_rejects_a_malformed_graph_file(tmp_path, capsys, body):
    graph_file = tmp_path / "bad.graph"
    graph_file.write_text(body)
    assert main(["run", "c2b", "--graph", str(graph_file), "--delta", "2"]) == 2
    assert f"{graph_file} line 3" in capsys.readouterr().err


def test_run_rejects_edge_lines_past_the_header_count(tmp_path, capsys):
    graph_file = tmp_path / "long.graph"
    graph_file.write_text("3 2 1\n1 2\n2 3\n1 3\n")
    assert main(["run", "learn-neighborhood", "--graph", str(graph_file), "--delta", "2"]) == 2
    assert f"{graph_file} line 4" in capsys.readouterr().err
    graph_file.write_text("3 2 1\n1 2\n2 3\n\n \n")   # trailing blank lines are fine
    assert load_graph(graph_file).edges == ((1, 2), (2, 3))


@pytest.mark.parametrize("argv", [
    ["gen-graph", "--n", "6", "--delta", "3", "--seed=-3", "--out", "g.txt"],
    ["build-selector", "--n", "8", "--k", "3", "--seed=-2", "--out", "f.txt"],
    ["run", "c2b", "--n", "8", "--delta", "2", "--seeds=-1"],
], ids=["gen-graph", "build-selector", "run"])
def test_a_negative_seed_is_a_parameter_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nonnegative" in err
    assert list(tmp_path.iterdir()) == []


def test_report_table_over_saved_runs(tmp_path, capsys):
    r1 = tmp_path / "a.jsonl"
    r2 = tmp_path / "b.jsonl"
    main(["run", "c2b", "--n", "8", "--delta", "2", "--seeds", "1,2", "--B", "2",
          "--out", str(r1)])
    main(["run", "c2b", "--n", "12", "--delta", "4", "--seeds", "1", "--B", "2",
          "--out", str(r2)])
    capsys.readouterr()
    assert main(["report", str(r1), str(r2)]) == 0
    out = capsys.readouterr().out
    assert "c2b" in out and "slope" in out


def test_report_rejects_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("# beepnet report v1\n")
    assert main(["report", str(empty)]) == 2


@pytest.mark.parametrize("seeds", ["1,x", ""])
def test_run_rejects_a_non_integer_seed(capsys, seeds):
    assert main(["run", "c2b", "--n", "8", "--delta", "2", "--seeds", seeds]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seeds") and "Traceback" not in err


def _truncate(line):
    return line[:len(line) // 2]


def _drop_a_field(line):
    rec = json.loads(line)
    del rec["rounds_total"]
    return json.dumps(rec)


@pytest.mark.parametrize("corrupt", [_truncate, _drop_a_field], ids=["truncated", "missing-field"])
def test_report_rejects_a_corrupt_record(tmp_path, capsys, corrupt):
    report = tmp_path / "r.jsonl"
    main(["run", "c2b", "--n", "8", "--delta", "2", "--seeds", "1,2", "--B", "2",
          "--out", str(report)])
    lines = report.read_text().splitlines()
    last = max(i for i, line in enumerate(lines) if line.startswith("{"))
    lines[last] = corrupt(lines[last])
    report.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", str(report)]) == 2
    assert f"error: {report} line {last + 1}: " in capsys.readouterr().err


def test_unknown_protocol_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "quicksort", "--n", "8", "--delta", "2"])
    assert exc.value.code == 2


def test_run_reports_match_across_processes(tmp_path):
    # The report bytes must not depend on the process, string hashing included.
    src = str(Path(beepnet.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    reports = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"report-{hash_seed}.jsonl"
        subprocess.run(
            [sys.executable, "-m", "beepnet.cli", "run", "c2b", "--n", "16", "--delta", "3",
             "--B", "2", "--seeds", "1", "--out", str(out)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path),
            check=True, capture_output=True,
        )
        reports.append(out.read_bytes())
    assert reports[0].startswith(b"# beepnet report v1")
    assert reports[0] == reports[1]


def test_load_graph_names_a_file_that_is_not_text(tmp_path):
    graph_file = tmp_path / "g.txt"
    graph_file.write_bytes(b"3 2 1\n1 2\n2 \xff\n")
    with pytest.raises(ParameterError, match=f"{graph_file}: not UTF-8 text"):
        load_graph(graph_file)


def test_a_graph_with_no_nodes_is_rejected():
    with pytest.raises(ParameterError, match="at least one node"):
        graph_from_edges([])


def test_a_graph_file_with_no_nodes_exits_2(tmp_path):
    graph_file = tmp_path / "empty.graph"
    graph_file.write_text("0 0 1\n")
    src = str(Path(beepnet.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "beepnet.cli", "run", "c2b", "--graph", str(graph_file),
         "--delta", "1"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {graph_file}: a graph needs at least one node")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_protocol_names_a_graph_file_with_no_nodes(tmp_path, capsys, protocol):
    graph_file = tmp_path / "empty.graph"
    graph_file.write_text("0 0 1\n")
    assert main(["run", protocol, "--graph", str(graph_file), "--delta", "1"]) == 2
    assert f"{graph_file}: a graph needs at least one node" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify-selector", "{bad}"],
    ["run", "c2b", "--graph", "{bad}", "--delta", "2", "--seeds", "1"],
    ["report", "{bad}"],
], ids=["verify-selector", "run", "report"])
def test_an_undecodable_input_file_exits_2(tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"8 strong 3 \xff\n")
    src = str(Path(beepnet.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "beepnet.cli", *(arg.format(bad=bad) for arg in argv)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {bad}: not UTF-8 text")
    assert "Traceback" not in proc.stderr
