import json
import os
import subprocess
import sys
import time
from fractions import Fraction as Fr

import pytest

from outerspace import (factor_complex, folding, lipschitz, randomgen,
                        whitehead)
from outerspace.cli import main, run_experiment
from outerspace.words import FreeGroup
from outerspace.marked_graph import rose


F3 = FreeGroup(3)


@pytest.fixture
def graph_files(tmp_path):
    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    g1.write_text(json.dumps(rose(F3, [Fr(1, 3)] * 3).to_json()))
    g2.write_text(json.dumps(rose(F3, [Fr(1, 2), Fr(1, 4), Fr(1, 4)]).to_json()))
    return str(g1), str(g2)


def test_dist_command(graph_files, capsys):
    g1, g2 = graph_files
    assert main(["dist", g1, g2, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["lambda"] == "3/2"


def test_optimal_map_command(graph_files, tmp_path, capsys):
    g1, g2 = graph_files
    dot = tmp_path / "map.dot"
    assert main(["optimal-map", g1, g2, "--emit-dot", str(dot), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sigma"] == "3/2"
    assert out["tension_graph"] == [1]
    assert "digraph" in dot.read_text()


def test_fold_command(graph_files, tmp_path, capsys):
    g1, g2 = graph_files
    events = tmp_path / "events.jsonl"
    stats = tmp_path / "stats.csv"
    rc = main(["fold", "--from", g1, "--to", g2,
               "--emit-events", str(events), "--stats", str(stats),
               "--probe", "ab"])
    assert rc == 0
    lines = events.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert "snapshot" in first and first["time"] == "0/1"
    assert stats.read_text().startswith("time,volume")


def test_simple_and_reduce_commands(capsys):
    assert main(["simple", "abc"]) == 0
    assert "simple" in capsys.readouterr().out
    assert main(["simple", "aabbcc"]) == 0
    assert "not simple" in capsys.readouterr().out
    assert main(["reduce", "abc", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["minimal_length"] == 1


def test_simple_command_uncertified_minimum(monkeypatch, capsys):
    # a greedy minimum whose graph had a cut vertex would be a defect;
    # the command reports it as indeterminate with exit code 1
    monkeypatch.setattr(whitehead, "connectivity_report",
                        lambda W: whitehead.ConnectivityReport("cut-vertex", 1))
    assert main(["simple", "aabbcc"]) == 1
    assert capsys.readouterr().out.startswith("indeterminate: greedy minimum")
    with pytest.raises(whitehead.SimplicityCertificateError) as info:
        whitehead.is_simple(F3.word("aabbcc").cyclic())
    assert [str(w) for w in info.value.descent] == ["aabbcc"]
    assert info.value.report.kind == "cut-vertex"


def test_whitehead_graph_command(capsys):
    assert main(["whitehead-graph", "aabbcc"]) == 0
    assert "two-connected" in capsys.readouterr().out
    assert main(["whitehead-graph", "abc", "--dot"]) == 0
    assert "graph" in capsys.readouterr().out


def test_project_command(graph_files, capsys):
    g1, _ = graph_files
    assert main(["project", g1, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 6


def test_project_json_ignores_vertex_ids(tmp_path, capsys):
    # the fold snapshot with the most vertices on a seeded rank-3 path,
    # and a copy of its file with every vertex renumbered: the factors
    # are printed with their canonical cores, so the output bytes agree
    import random
    rng = random.Random(850)
    G, Gp = (randomgen.random_marked_graph(rng, F3, 3) for _ in range(2))
    data = max((ev.graph.to_json() for ev in
                folding.standard_geodesic(G, Gp).path.events),
               key=lambda d: len(d["vertices"]))
    assert len(data["vertices"]) >= 4
    perm = dict(zip(data["vertices"], [7 + 3 * v for v in
                                       reversed(data["vertices"])]))
    copy = dict(data, vertices=sorted(perm.values()),
                basepoint=perm[data["basepoint"]],
                edges=[dict(e, **{"from": perm[e["from"]], "to": perm[e["to"]]})
                       for e in data["edges"]])
    outs = []
    for name, graph in (("g.json", data), ("renumbered.json", copy)):
        (tmp_path / name).write_text(json.dumps(graph))
        assert main(["project", str(tmp_path / name), "--json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])) > 6


def test_ball_and_ffdist(tmp_path, capsys):
    ball = tmp_path / "ball.json"
    assert main(["ball", "--bound", "4", "--products", "2",
                 "--out", str(ball)]) == 0
    capsys.readouterr()
    assert main(["ffdist", "a", "a,b", "--ball", str(ball)]) == 0
    assert "1" in capsys.readouterr().out


@pytest.mark.parametrize("content", [
    "not json",                                   # not JSON at all
    '{"bound": 4, "handles": {}}',                # JSON without adjacency
], ids=["not-json", "missing-key"])
def test_ffdist_bad_ball_file_exits_2(content, tmp_path, capsys):
    bad = tmp_path / "ball.json"
    bad.write_text(content)
    assert main(["ffdist", "a", "a,b", "--ball", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "ball.json" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("corrupt", [
    lambda d: d["edges"][0].update(length="1/0"),
    lambda d: d["edges"][0].update(length=float("inf")),   # JSON Infinity
    lambda d: d["marking"]["loops"].update({"": [1]}),
    lambda d: d["marking"].update(loops=[1]),
], ids=["zero-denominator", "infinite-length", "empty-loop-key",
        "loops-not-a-map"])
def test_malformed_graph_file_exits_2(corrupt, tmp_path, capsys):
    data = rose(F3, [Fr(1, 3)] * 3).to_json()
    corrupt(data)
    bad = tmp_path / "g.json"
    bad.write_text(json.dumps(data))
    assert main(["dist", str(bad), str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "g.json" in err
    assert len(err.strip().splitlines()) == 1


def _unlisted_vertex(data, key):
    core = data["handles"][key]
    core["edges"][0]["to"] = max(core["vertices"]) + 1


def _label(text):
    def corrupt(data, key):
        data["handles"][key]["edges"][0]["label"] = text
    return corrupt


def _swapped_core(data, key):
    handles = data["handles"]
    other = next(k for k in handles if k != key)
    handles[key], handles[other] = handles[other], handles[key]


def _unknown_neighbour(data, key):
    data["adjacency"][key].append("00ff")


def _one_way_edge(data, key):
    other = data["adjacency"][key].pop()
    assert key in data["adjacency"][other]


def _not_a_core(extra_edge, rekey=True):
    """Give <c>'s core one more edge (and vertex 1), and re-key the
    handle and the adjacency by the new graph's own code; a disconnected
    core has no code (FactorHandle rejects it, as the loader does before
    it reads the key), so rekey=False keeps the old key."""
    def corrupt(data, key):
        from outerspace.stallings import FactorHandle, SubgroupCoreGraph
        old = FactorHandle.from_words([F3.word("c")]).code.hex()
        core = data["handles"].pop(old)
        core["vertices"].append(1)
        core["edges"].append(extra_edge)
        new = FactorHandle(SubgroupCoreGraph.from_json(core, 3),
                           3).code.hex() if rekey else old
        data["handles"][new] = core
        data["adjacency"][new] = data["adjacency"].pop(old)
        for row in data["adjacency"].values():
            row[:] = [new if c == old else c for c in row]
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _unlisted_vertex, _label("z"), _label("ab"), _swapped_core,
    _unknown_neighbour, _one_way_edge,
    _not_a_core({"from": 0, "label": "b", "to": 1}),
    _not_a_core({"from": 1, "label": "a", "to": 1}, rekey=False),
], ids=["unlisted-vertex", "label-outside-rank", "two-letter-label",
        "code-not-key", "unknown-neighbour", "one-way-edge", "hanging-edge",
        "two-components"])
def test_ffdist_invalid_ball_file_exits_2(corrupt, tmp_path, capsys):
    ball = tmp_path / "ball.json"
    assert main(["ball", "--bound", "4", "--products", "1",
                 "--out", str(ball)]) == 0
    data = json.loads(ball.read_text())
    corrupt(data, max(data["handles"]))
    ball.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["ffdist", "a", "a,b", "--ball", str(ball)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "ball.json" in err


def test_qg_check_command(graph_files, tmp_path, capsys):
    g1, g2 = graph_files
    events = tmp_path / "events.jsonl"
    main(["fold", "--from", g1, "--to", g2, "--emit-events", str(events)])
    capsys.readouterr()
    assert main(["qg-check", "--path", str(events), "--K", "6"]) == 0
    out = capsys.readouterr().out
    assert "certificate" in out and "truncated" not in out


def test_truncated_balls_are_reported(graph_files, tmp_path, capsys,
                                      monkeypatch):
    ball = tmp_path / "ball.json"
    assert main(["ball", "--bound", "4", "--products", "2", "--cap", "10",
                 "--out", str(ball)]) == 0
    assert capsys.readouterr().out == \
        f"ball with 10 factors written to {ball}; truncated at --cap 10\n"
    assert json.loads(ball.read_text())["truncated"]
    g1, g2 = graph_files
    events = tmp_path / "events.jsonl"
    main(["fold", "--from", g1, "--to", g2, "--emit-events", str(events)])
    build = factor_complex.build_ball
    monkeypatch.setattr(factor_complex, "build_ball",
                        lambda *a, **kw: build(*a, **kw, vertex_cap=30))
    capsys.readouterr()
    assert main(["qg-check", "--path", str(events), "--K", "6"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "factor ball truncated at 30 factors"
    assert out[1].startswith("certificate") and len(out) == 2


def test_usage_error_exit_code():
    assert main(["dist", "/nonexistent-1", "/nonexistent-2"]) == 2


def test_experiment_determinism_across_workers(tmp_path):
    reports = {}
    for workers in (1, 4, 8):
        _, rep = run_experiment("distance-oracle", seed=99, instances=6,
                                workers=workers)
        reports[workers] = rep
    assert reports[1] == reports[4] == reports[8]


def test_experiment_rerun_identical(tmp_path):
    _, rep1 = run_experiment("whitehead-oracle", seed=5, instances=8)
    _, rep2 = run_experiment("whitehead-oracle", seed=5, instances=8)
    assert rep1 == rep2


def test_experiment_exit_codes(tmp_path, capsys):
    rc = main(["experiment", "--suite", "distance-oracle",
               "--instances", "3", "--seed", "1"])
    assert rc == 0


def test_experiment_seed_beyond_bound_is_a_violation(tmp_path, capsys):
    # instance 3 of this run projects a factor with more edges than
    # --bound allows: its row says so, and the other instances still run
    out = str(tmp_path / "qg")
    rc = main(["experiment", "--suite", "qg-check", "--instances", "4",
               "--seed", "7", "--out", out])
    assert rc == 1
    assert capsys.readouterr().err == ""
    rows = [json.loads(line)
            for line in (tmp_path / "qg.jsonl").read_text().splitlines()]
    assert [r["index"] for r in rows] == [0, 1, 2, 3]
    assert rows[3] == {"index": 3, "events": rows[3]["events"],
                       "certified": False, "seed_edges": 7, "bound": 6}
    assert all(r["certified"] and "truncated" in r for r in rows[:3])
    summary = json.loads((tmp_path / "qg.summary.json").read_text())
    assert summary["violations"] == 1


@pytest.mark.parametrize("command", ["optimal-map", "standard-geodesic",
                                     "fold", "experiment"])
def test_optimal_map_failure_exits_1(graph_files, monkeypatch, capsys,
                                     command):
    # an uncertified optimal map would be a defect; every command that
    # builds one reports it in one line with exit code 1
    def fail(*args, **kwargs):
        raise lipschitz.OptimalMapError("no cell of the star lowers sigma")

    monkeypatch.setattr(lipschitz, "optimal_map", fail)
    monkeypatch.setattr(folding, "optimal_map", fail)
    g1, g2 = graph_files
    argv = {"optimal-map": ["optimal-map", g1, g2],
            "standard-geodesic": ["standard-geodesic", g1, g2],
            "fold": ["fold", "--from", g1, "--to", g2],
            "experiment": ["experiment", "--suite", "fold-additivity",
                           "--instances", "1"]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "OptimalMapError" in err and len(err.strip().splitlines()) == 1


def test_fold_termination_failure_exits_1(graph_files, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise folding.FoldTerminationError("volume failed to decrease")

    monkeypatch.setattr(folding, "standard_geodesic", fail)
    g1, g2 = graph_files
    assert main(["fold", "--from", g1, "--to", g2]) == 1
    err = capsys.readouterr().err
    assert "FoldTerminationError" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["simple", "abz", "--rank", "3"],        # letter beyond the rank
    ["simple", "ab1"],                       # not a letter
    ["reduce", "abq", "--rank", "2"],
    ["whitehead-graph", ""],                 # trivial word has no graph
    ["fold", "--from", "g1", "--to", "g2", "--probe", "aA"],
    ["experiment", "--suite", "qg-check", "--rank", "2"],
    ["experiment", "--suite", "distance-oracle", "--rank", "1"],
    ["simple", "a", "--rank", "1"],          # no proper factor at rank 1
])
def test_word_and_rank_errors_exit_2(argv, graph_files, capsys):
    g1, g2 = graph_files
    argv = [{"g1": g1, "g2": g2}.get(a, a) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("content", ['{"a": 1}', '[1, 2]', 'not json'])
def test_graph_file_without_graph_exits_2(content, graph_files, tmp_path, capsys):
    g1, _ = graph_files
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    assert main(["dist", g1, str(bad)]) == 2
    assert main(["qg-check", "--path", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.json" in err and "Traceback" not in err


def test_project_below_rank_3_exits_2(tmp_path, capsys):
    g = tmp_path / "rank2.json"
    g.write_text(json.dumps(rose(FreeGroup(2)).to_json()))
    assert main(["project", str(g)]) == 2
    assert "below rank 3" in capsys.readouterr().err


def test_experiment_certificate_failure_exits_1(monkeypatch, capsys):
    # an uncertified greedy minimum inside a suite is one line and exit 1,
    # as it is for `simple`
    monkeypatch.setattr(whitehead, "connectivity_report",
                        lambda W: whitehead.ConnectivityReport("cut-vertex", 1))
    # at word length 14 every one of these classes is not simple
    rc = main(["experiment", "--suite", "whitehead-oracle", "--instances",
               "3", "--seed", "5", "--word-length", "14", "--workers", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "SimplicityCertificateError" in err
    assert len(err.strip().splitlines()) == 1


def test_ffdist_non_proper_factor_exits_2(tmp_path, capsys):
    ball = tmp_path / "ball.json"
    assert main(["ball", "--bound", "4", "--products", "1",
                 "--out", str(ball)]) == 0
    capsys.readouterr()
    assert main(["ffdist", "a", "a,b,c", "--ball", str(ball)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "proper" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["dist", "g1", "g2", "--seed", "3"],
    ["dist", "g1", "g2", "--rank", "9"],
    ["dist", "g1", "g2", "--dot"],
    ["fold", "--from", "g1", "--to", "g2", "--json"],
    ["simple", "abc", "--json"],
    ["reduce", "abc", "--dot"],
    ["reduce", "aabbcc", "--orbit-cap", "5"],
    ["qg-check", "--path", "g1", "--seed", "1"],
    ["project", "g1", "--rank", "3"],
])
def test_unread_flags_exit_2(argv, graph_files, capsys):
    g1, g2 = graph_files
    argv = [{"g1": g1, "g2": g2}.get(a, a) for a in argv]
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_random_cyclic_word_rejects_nonpositive_length():
    import random
    from outerspace.randomgen import random_cyclic_word
    for length in (0, -3):
        with pytest.raises(ValueError):
            random_cyclic_word(random.Random(1), F3, length)


@pytest.mark.parametrize("name, value", [("instances", -1), ("workers", 0),
                                         ("workers", -2), ("word_length", 0),
                                         ("twist", -2), ("bound", -1)])
def test_experiment_counts_out_of_range_are_usage_errors(name, value, capsys):
    # a random cyclic word of length 0 is never nontrivial: this suite
    # used to loop forever at --word-length 0
    from outerspace.cli import UsageError
    with pytest.raises(UsageError):
        run_experiment("whitehead-oracle", seed=1,
                       **{"instances": 1, name: value})
    rc = main(["experiment", "--suite", "whitehead-oracle", "--seed", "1",
               "--" + name.replace("_", "-"), str(value)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and len(err.strip().splitlines()) == 1


def test_qg_check_empty_path_exits_2(tmp_path, capsys):
    # a path with no snapshots has nothing to certify
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["qg-check", "--path", str(empty)]) == 2
    err = capsys.readouterr().err
    assert "no snapshots" in err and "certificate" not in err


def test_rank_4_factor_window_certifies():
    # one rank-4 window: the ball's adjacency is where rank 4 used to stall
    summary, report = run_experiment("qg-check", seed=3, instances=1,
                                     rank=4, bound=12)
    assert summary["violations"] == 0
    line = json.loads(report)
    assert line["certified"]
    assert line["truncated"]   # the ball stops at the 4,000-factor cap


def _one_line_usage_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and len(err.strip().splitlines()) == 1
    return err


def test_non_utf8_graph_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"rank": 3, "name": "\xe9"}'.encode("latin-1"))
    assert main(["dist", str(bad), str(bad)]) == 2
    assert "UnicodeDecodeError" in _one_line_usage_error(capsys)
    assert main(["qg-check", "--path", str(bad)]) == 2
    assert "UnicodeDecodeError" in _one_line_usage_error(capsys)


@pytest.mark.parametrize("argv", [
    ["dist", "DIR", "g1"],
    ["qg-check", "--path", "DIR"],
    ["ball", "--bound", "2", "--products", "1", "--out", "DIR"],
], ids=["graph-file", "qg-check-path", "ball-out"])
def test_directory_as_file_exits_2(argv, graph_files, tmp_path, capsys):
    g1, _ = graph_files
    argv = [{"DIR": str(tmp_path), "g1": g1}.get(a, a) for a in argv]
    assert main(argv) == 2
    assert "Is a directory" in _one_line_usage_error(capsys)


@pytest.mark.parametrize("argv", [
    ["qg-check", "--path", "EVENTS", "--K", "-1"],
    ["experiment", "--suite", "qg-check", "--instances", "2", "--bound", "12",
     "--K", "-1"],
], ids=["qg-check", "experiment"])
def test_negative_window_bound_exits_2(argv, graph_files, tmp_path, capsys):
    # no window has a negative diameter: this was reported as a violation
    g1, g2 = graph_files
    events = tmp_path / "events.jsonl"
    main(["fold", "--from", g1, "--to", g2, "--emit-events", str(events)])
    capsys.readouterr()
    argv = [{"EVENTS": str(events)}.get(a, a) for a in argv]
    assert main(argv) == 2
    assert "--K -1" in _one_line_usage_error(capsys)


@pytest.fixture
def events_file(graph_files, tmp_path, capsys):
    g1, g2 = graph_files
    events = tmp_path / "events.jsonl"
    assert main(["fold", "--from", g1, "--to", g2,
                 "--emit-events", str(events)]) == 0
    capsys.readouterr()
    return events


def _spoil_labels(data):
    data["marking"]["labels"].update({"2": "a", "3": "a"})


def _spoil_length(data):
    data["edges"][1]["length"] = "-1/3"


def _spoil_endpoint(data):
    data["edges"][1]["to"] = 5


@pytest.mark.parametrize("spoil, diagnostic", [
    (_spoil_labels, "marking mismatch: word of loop 2 is a"),
    (_spoil_length, "nonpositive length on edge 2"),
    (_spoil_endpoint, "edge 2 has missing endpoint"),
], ids=["labels", "negative-length", "missing-vertex"])
def test_invalid_graph_file_exits_2(spoil, diagnostic, graph_files, tmp_path,
                                    capsys):
    # each was read as a graph: lambda = 1/1, a ZeroDivisionError or a
    # ValueError traceback
    g1, _ = graph_files
    data = rose(F3, [Fr(1, 3)] * 3).to_json()
    spoil(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for argv in (["dist", g1, str(bad)], ["dist", str(bad), g1]):
        assert main(argv) == 2
        err = _one_line_usage_error(capsys)
        assert "bad.json is not a valid marked graph" in err
        assert diagnostic in err


def test_invalid_snapshot_line_exits_2(events_file, capsys):
    lines = events_file.read_text().splitlines()
    event = json.loads(lines[-1])
    event["snapshot"]["edges"][0]["length"] = "0/1"
    lines[-1] = json.dumps(event)
    events_file.write_text("\n".join(lines) + "\n")
    assert main(["qg-check", "--path", str(events_file)]) == 2
    err = _one_line_usage_error(capsys)
    assert f"line {len(lines)} is not a valid marked graph" in err
    assert "nonpositive length on edge 1" in err


@pytest.mark.parametrize("argv", [
    ["ball", "--bound", "-1", "--out", "OUT"],
    ["ball", "--bound", "2", "--cap", "-1", "--out", "OUT"],
    ["ball", "--bound", "2", "--products", "-1", "--out", "OUT"],
    ["qg-check", "--path", "EVENTS", "--products", "-1"],
    ["qg-check", "--path", "EVENTS", "--bound", "-1"],
], ids=["ball-bound", "ball-cap", "ball-products", "qg-check-products",
        "qg-check-bound"])
def test_negative_ball_flags_exit_2(argv, events_file, tmp_path, capsys):
    # `ball` wrote an empty or truncated ball and exited 0, and a
    # negative --products was taken as 0
    out = tmp_path / "ball.json"
    argv = [{"OUT": str(out), "EVENTS": str(events_file)}.get(a, a)
            for a in argv]
    assert main(argv) == 2
    flag = argv[argv.index("-1") - 1]
    assert f"{flag} -1 is below 0" in _one_line_usage_error(capsys)
    assert not out.exists()


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the arguments were checked")


@pytest.fixture
def rank_4_file(tmp_path):
    g = tmp_path / "rose4.json"
    g.write_text(json.dumps(rose(FreeGroup(4), [Fr(1, 4)] * 4).to_json()))
    return str(g)


@pytest.mark.parametrize("argv", [
    ["dist", "G3", "G4"],
    ["optimal-map", "G3", "G4"],
    ["standard-geodesic", "G4", "G3"],
    ["fold", "--from", "G3", "--to", "G4"],
], ids=["dist", "optimal-map", "standard-geodesic", "fold"])
def test_rank_mismatch_exits_2(argv, graph_files, rank_4_file, monkeypatch,
                               capsys):
    # each ended in a ValueError traceback from stretch_factor
    monkeypatch.setattr(lipschitz, "stretch_factor", _no_work)
    monkeypatch.setattr(lipschitz, "optimal_map", _no_work)
    monkeypatch.setattr(folding, "standard_geodesic", _no_work)
    g3, _ = graph_files
    argv = [{"G3": g3, "G4": rank_4_file}.get(a, a) for a in argv]
    assert main(argv) == 2
    err = _one_line_usage_error(capsys)
    assert "has rank 3" in err and "has rank 4" in err


@pytest.mark.parametrize("argv, work", [
    (["optimal-map", "G1", "G2", "--emit-dot", "DIR"],
     (lipschitz, "optimal_map")),
    (["optimal-map", "G1", "G2", "--emit-dot", "MISSING"],
     (lipschitz, "optimal_map")),
    (["fold", "--from", "G1", "--to", "G2", "--emit-events", "DIR"],
     (folding, "standard_geodesic")),
    (["fold", "--from", "G1", "--to", "G2", "--stats", "MISSING"],
     (folding, "standard_geodesic")),
    (["ball", "--out", "MISSING"], (factor_complex, "build_ball")),
    (["experiment", "--suite", "distance-oracle", "--out", "MISSING"],
     (randomgen, "random_marked_graph")),
    (["experiment", "--suite", "distance-oracle", "--out", "JSONL_DIR"],
     (randomgen, "random_marked_graph")),
], ids=["emit-dot-dir", "emit-dot-missing", "emit-events-dir",
        "stats-missing", "ball-out-missing", "experiment-out-missing",
        "experiment-out-dir"])
def test_unwritable_output_exits_2_before_work(argv, work, graph_files,
                                               tmp_path, monkeypatch, capsys):
    # each was found out only when the finished result was written
    monkeypatch.setattr(*work, _no_work)
    g1, g2 = graph_files
    (tmp_path / "report.jsonl").mkdir()
    argv = [{"G1": g1, "G2": g2, "DIR": str(tmp_path),
             "MISSING": str(tmp_path / "missing" / "out"),
             "JSONL_DIR": str(tmp_path / "report")}.get(a, a) for a in argv]
    assert main(argv) == 2
    err = _one_line_usage_error(capsys)
    assert "Is a directory" in err or "missing is not a directory" in err


def test_ball_out_directory_fails_fast(tmp_path, capsys):
    # the default ball took seconds to build before the write failed
    t0 = time.perf_counter()
    assert main(["ball", "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - t0 < 0.5
    assert "Is a directory" in _one_line_usage_error(capsys)


def test_closed_stdout_exits_1_without_traceback(graph_files):
    # the reader of stdout is gone before the command writes (as with
    # `outerspace project --json G.json | head -c 10` on a long output)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "outerspace.cli", "project", "--json",
         graph_files[0]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
