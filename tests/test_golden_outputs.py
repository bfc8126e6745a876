"""Experiment reports, ball files, one graph's projection and the event
and statistics files of one fold are pinned byte for byte; the
recurrence verdicts of seeded random gate structures, and the adjacency
of seeded factor balls, by one digest each.

A change that must leave outputs unchanged (a refactor, a speed-up)
keeps these digests; a change that means to alter an output updates the
digest here and says why.
"""

import hashlib
import json
import random

import pytest

from outerspace.cli import main
from outerspace.factor_complex import build_ball, project
from outerspace.folding import standard_geodesic
from outerspace.randomgen import random_marked_graph
from outerspace.traintrack import TrainTrackStructure, classify_recurrence
from outerspace.words import FreeGroup


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


EXPERIMENTS = {
    "qg-check": (["--instances", "4", "--seed", "3", "--bound", "12"],
                 "aa627b1622c63c15b46a9e09475ea2e1dacecb83b2d62d62c229784e26595d28",
                 "ed45f31429b3b5bf3a5518ab745263d45db43674f65799e41692154dec03cf15"),
    "fold-additivity": (["--instances", "6", "--seed", "3"],
                        "04ad61943027b1adffb96b51284b8cc20ec46a12c29cc9af32128f32c44df035",
                        "ced0eea1d4bd56ad42e1c4e5b52fb56f9250592209cfc0dad27fc8c2a184f558"),
    "distance-oracle": (["--instances", "8", "--seed", "3"],
                        "3d099fdd00a754c5c16971969650b1c880e37414bc9380b5732b032149f14067",
                        "65dd11f97e312a83c543e5164e5c570c55811fa427ed4f67bc649f4cc7e2f4f6"),
    "whitehead-oracle": (["--instances", "30", "--seed", "3"],
                         "561c2a161c4de7ee9971c80ce7bf4f9185306fbafa8195d1aa618d69c6998c4c",
                         "15ca0d95902ea2cd6d573cd636b1b0c6aa516bbbb919419ccae7ab7bec43fd38"),
}


@pytest.mark.parametrize("suite", sorted(EXPERIMENTS))
def test_experiment_report_digests(suite, tmp_path, capsys):
    flags, report_digest, summary_digest = EXPERIMENTS[suite]
    out = tmp_path / "report"
    assert main(["experiment", "--suite", suite, *flags,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(tmp_path / "report.jsonl") == report_digest
    assert _sha256(tmp_path / "report.summary.json") == summary_digest


def test_ball_file_digest(tmp_path, capsys):
    out = tmp_path / "ball.json"
    assert main(["ball", "--rank", "3", "--bound", "6", "--products", "2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    # re-pinned when canonical codes moved to the core's skeleton: codes
    # and canonical cores are new bytes; the handles and the adjacency
    # are the same up to that relabelling of codes
    assert _sha256(out) == (
        "e569ff43216cc4626aa0faece57d3610d54fc7ba805c1856ecb618807e7fa8f9")


def test_truncated_rank_four_ball_file_digest(tmp_path, capsys):
    # a rank-4 standard growth that stops at its cap
    out = tmp_path / "ball.json"
    assert main(["ball", "--rank", "4", "--bound", "12", "--products", "3",
                 "--cap", "6000", "--out", str(out)]) == 0
    assert "6000 factors" in capsys.readouterr().out
    # re-pinned when canonical codes moved to the core's skeleton: codes
    # and canonical cores are new bytes; the handles and the adjacency
    # are the same up to that relabelling of codes
    assert _sha256(out) == (
        "c19a263732f441eb565e6edcaea10b64123ed911c7b0a9f16267c37a7a96f412")


def test_fold_events_and_stats_digests(tmp_path, capsys):
    rng = random.Random(20)
    group = FreeGroup(3)
    paths = []
    for name in ("from.json", "to.json"):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(random_marked_graph(rng, group, 3)
                                        .to_json()))
    events, stats = tmp_path / "events.jsonl", tmp_path / "stats.csv"
    assert main(["fold", "--from", str(paths[0]), "--to", str(paths[1]),
                 "--emit-events", str(events), "--stats", str(stats),
                 "--probe", "ab", "--probe", "aBc", "--probe", "abcAB"]) == 0
    capsys.readouterr()
    assert _sha256(events) == (
        "6e81545f8588230dff256159a91c1ed8846f4d9e3bff5971fb2a3762ad9cbddb")
    assert _sha256(stats) == (
        "3e5b903a16dcdd057dc1f2256dec78ed67a6181ab0724d9fc4cdc56da577d456")


def _random_gates(rng, rank):
    """Random gates on a multi-vertex random marked graph; about two in
    five keep only the directions of a random set of edges."""
    G = random_marked_graph(rng, FreeGroup(rank), 2)
    while len(G.vertices) < 2:
        G = random_marked_graph(rng, FreeGroup(rank), 2)
    edges = sorted(G.edge_ends)
    if rng.random() < 0.4:
        edges = rng.sample(edges, rng.randint(1, len(edges)))
    gates = {}
    for v in sorted(G.vertices):
        dirs = [d for d in G.directions_at(v) if abs(d) in edges]
        rng.shuffle(dirs)
        if dirs:
            k = rng.randint(1, len(dirs))
            gates[v] = [dirs[i::k] for i in range(k)]
    return TrainTrackStructure(G, gates)


def test_recurrence_classification_digest():
    rng = random.Random(19)
    lines = []
    for i in range(240):
        verdict = classify_recurrence(_random_gates(rng, 2 + i % 3))
        subgraph = verdict.subgraph and sorted(verdict.subgraph)
        lines.append(repr((verdict.kind, verdict.certificate, subgraph)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "cbe746fa7eb1fb1cfb5e9485d15249956de4e9f547ff4180ed84d474e7a40224")


def test_seeded_ball_adjacency_digest():
    # three windows of one fold path seed balls whose handles lie inside
    # and outside the seedless ball of the same bound
    rng = random.Random(24)
    group = FreeGroup(3)
    path = standard_geodesic(random_marked_graph(rng, group, 5),
                             random_marked_graph(rng, group, 5)).path
    images = [project(ev.graph) for ev in path.events]
    lines = []
    for bound in (8, 10):
        for window in (images[:4], images[:13], images[-6:]):
            seeds = {h.code: h for img in window for h in img
                     if h.edge_count() <= bound}
            ball = build_ball(group, seeds=list(seeds.values()), bound=bound,
                              aut_product_length=2)
            lines.append(repr(sorted((c.hex(), sorted(x.hex() for x in s))
                                     for c, s in ball.adjacency.items())))
    # re-pinned when canonical codes moved to the core's skeleton: the
    # lines hash codes, which are new bytes; each ball's handles and
    # adjacency are the same up to that relabelling of codes
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "ecef2f6351e5aca92a588fbee7bb306154072064d20c0c5c89beb96d8bc33e4f")


def test_project_json_digest(tmp_path, capsys):
    # project lists a seeded rank-4 graph's subgraph factors in code order
    # with their canonical cores
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(random_marked_graph(
        random.Random(32), FreeGroup(4), 4).to_json()))
    assert main(["project", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)) == 14
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2d73d93c49d53474ac4f560e36496fb61f23eb223ef13c551a987f1e12d58495")
