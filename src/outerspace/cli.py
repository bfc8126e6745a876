"""Command-line front end and experiment runner.

Subcommands: dist, optimal-map, fold, standard-geodesic, project, ball,
ffdist, simple, reduce, whitehead-graph, qg-check, experiment.

Exit codes: 0 success, 1 a property violation was found, a
construction failed to certify its answer, an oracle ran out of its
budget or the reader closed standard output early, 2 usage error.
Reports are deterministic for a fixed seed: instances derive their own
generators from (seed, index), results are collected in index order, and
JSON is emitted with sorted keys.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import multiprocessing
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from math import log10
from pathlib import Path

from .words import FreeGroup, parse_letters, Word
from .marked_graph import MarkedMetricGraph
from . import lipschitz, folding, whitehead, factor_complex, oracles, randomgen
from . import stallings


class UsageError(Exception):
    pass


def _frac_str(x):
    return f"{x.numerator}/{x.denominator}"


def _json_dump(obj, fh):
    json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
    fh.write("\n")


# what a reader of malformed JSON content can raise; each is a usage error
_MALFORMED = (AttributeError, IndexError, KeyError, OverflowError, TypeError,
              ValueError, ZeroDivisionError)


def _parse_graph(text, source, group=None, key=None):
    """The valid marked graph in JSON text or bytes (under key, if given);
    bytes that are not UTF-8 fail as bad JSON does, and a graph that
    fails MarkedMetricGraph.validate is a usage error listing why."""
    try:
        data = json.loads(text)
        G = MarkedMetricGraph.from_json(data[key] if key else data, group)
        diags = G.validate()
    except _MALFORMED as exc:
        raise UsageError(f"{source} does not hold a marked graph "
                         f"({type(exc).__name__}: {exc})") from None
    if diags:
        raise UsageError(f"{source} is not a valid marked graph: "
                         + "; ".join(diags))
    return G


def _load_graph(path):
    with open(path, "rb") as fh:
        return _parse_graph(fh.read(), path)


def _load_pair(source, target):
    """The marked graphs in two files, normalized; different ranks are a
    usage error."""
    G, Gp = _load_graph(source), _load_graph(target)
    if G.group.rank != Gp.group.rank:
        raise UsageError(f"{source} has rank {G.group.rank} but {target} "
                         f"has rank {Gp.group.rank}")
    return G.normalize(), Gp.normalize()


def _output_path(flag, path):
    """Fail before any work when an output path cannot be written as a
    file: it is a directory, or its directory does not exist."""
    if path is None:
        return
    p = Path(path)
    if p.is_dir():
        raise UsageError(f"{flag} {path}: Is a directory")
    if not p.parent.is_dir():
        raise UsageError(f"{flag} {path}: {p.parent} is not a directory")


def _group(rank, least=1):
    """FreeGroup(rank); a rank below what the command serves is a usage error."""
    if rank < least:
        raise UsageError(f"--rank {rank} is below {least}, the least rank "
                         "this command serves")
    return FreeGroup(rank)


def _at_least(flag, value, least):
    """A flag value below least is a usage error."""
    if value < least:
        raise UsageError(f"{flag} {value} is below {least}")


def _word_arg(group, text, nonempty=False):
    """The reduced word spelled by text.

    An unknown or out-of-range letter, or a trivial word where nonempty
    is asked for, is a usage error.
    """
    try:
        w = Word(group, parse_letters(text))
    except ValueError as exc:
        raise UsageError(f"word {text!r}: {exc}") from None
    if nonempty and w.is_identity():
        raise UsageError(f"word {text!r} is trivial")
    return w


def _instance_rng(seed, index):
    return random.Random(f"{seed}:{index}")


# -- subcommands ----------------------------------------------------------


def cmd_dist(args):
    lam, wit = lipschitz.stretch_factor(*_load_pair(args.source, args.target))
    out = {"lambda": _frac_str(lam), "log10": f"{log10(lam):.12f}",
           "witness": list(wit.edges), "witness_shape": wit.shape}
    if args.json:
        _json_dump(out, sys.stdout)
    else:
        print(f"lambda = {_frac_str(lam)}  (log10 {out['log10']})  "
              f"witness {wit.shape} {list(wit.edges)}")
    return 0


def cmd_optimal_map(args):
    _output_path("--emit-dot", args.emit_dot)
    G, Gp = _load_pair(args.source, args.target)
    f = lipschitz.optimal_map(G, Gp)
    tension = sorted(f.tension_edges())
    out = {"sigma": _frac_str(f.sigma()),
           "slopes": {str(e): _frac_str(f.slope(e)) for e in sorted(G.edge_ends)},
           "tension_graph": tension}
    if args.emit_dot:
        with open(args.emit_dot, "w") as fh:
            fh.write(f.to_dot())
    if args.json:
        _json_dump(out, sys.stdout)
    else:
        print(f"sigma = {out['sigma']}; tension graph {tension}")
    return 0


def cmd_standard_geodesic(args):
    sg = folding.standard_geodesic(*_load_pair(args.source, args.target))
    out = {
        "lengths_start": {str(e): _frac_str(l) for e, l in sorted(sg.lengths_start.items())},
        "lengths_end": {str(e): _frac_str(l) for e, l in sorted(sg.lengths_end.items())},
        "collapsed_edges": sorted(sg.collapsed_edges),
        "events": len(sg.path.events) - 1,
    }
    if args.json:
        _json_dump(out, sys.stdout)
    else:
        print(f"simplex segment to {out['lengths_end']}, "
              f"then {out['events']} fold events"
              + (f" (missing face: edges {out['collapsed_edges']})"
                 if sg.collapsed_edges else ""))
    return 0


def cmd_fold(args):
    _output_path("--emit-events", args.emit_events)
    _output_path("--stats", args.stats)
    G, Gp = _load_pair(getattr(args, "from"), args.to)
    probes = [_word_arg(G.group, text, nonempty=True).cyclic()
              for text in (args.probe or [])]
    sg = folding.standard_geodesic(G, Gp)
    stats = folding.path_statistics(sg.path, probe_loops=probes)
    if args.emit_events:
        with open(args.emit_events, "w") as fh:
            for ev in sg.path.events:
                _json_dump({"time": _frac_str(ev.time),
                            "snapshot": ev.graph.to_json()}, fh)
    if args.stats:
        with open(args.stats, "w", newline="") as fh:
            w = csv.writer(fh)
            header = ["time", "volume"] + [f"len_{p}" for p in probes] \
                + [f"illegal_{p}" for p in probes]
            w.writerow(header)
            for row in stats:
                w.writerow([_frac_str(row["time"]), _frac_str(row["volume"])]
                           + [_frac_str(l["length"]) for l in row["loops"]]
                           + [l["illegal_turns"] for l in row["loops"]])
    print(f"folded in {len(sg.path.events) - 1} events; "
          f"final volume {_frac_str(sg.path.events[-1].graph.volume())}")
    return 0


def cmd_project(args):
    G = _load_graph(args.graph)
    if G.group.rank < 3:
        raise UsageError(f"{args.graph} has rank {G.group.rank}; the factor "
                         "graph degenerates below rank 3")
    img = factor_complex.project(G)
    handles = sorted(img, key=lambda h: h.code)
    if args.dot:
        for i, h in enumerate(handles):
            print(h.core.to_dot(name=f"factor{i}"))
        return 0
    out = [{"rank": h.rank, "edges": h.edge_count(),
            "core": h.core.to_json()} for h in handles]
    if args.json:
        _json_dump(out, sys.stdout)
    else:
        print(f"{len(out)} subgraph factors "
              f"(ranks {sorted(h['rank'] for h in out)})")
    return 0


def cmd_ball(args):
    group = _group(args.rank)
    _at_least("--bound", args.bound, 0)
    _at_least("--cap", args.cap, 0)
    _at_least("--products", args.products, 0)
    _output_path("--out", args.out)
    ball = factor_complex.build_ball(group, bound=args.bound,
                                     aut_product_length=args.products,
                                     vertex_cap=args.cap)
    data = {
        "bound": ball.bound,
        "truncated": ball.truncated,
        "handles": {h.code.hex(): h.core.to_json()
                    for h in ball.handles.values()},
        "adjacency": {c.hex(): sorted(x.hex() for x in adj)
                      for c, adj in ball.adjacency.items()},
    }
    with open(args.out, "w") as fh:
        _json_dump(data, fh)
    note = f"; truncated at --cap {args.cap}" if ball.truncated else ""
    print(f"ball with {len(ball.handles)} factors written to {args.out}{note}")
    return 0


def _factor_from_words(group, text):
    """The factor generated by comma-separated words; a factor that is
    not proper is a usage error."""
    words = [_word_arg(group, t, nonempty=True) for t in text.split(",")]
    try:
        return stallings.FactorHandle.from_words(words)
    except ValueError as exc:
        raise UsageError(f"factor {text!r}: {exc}") from None


def _load_ball(group, path):
    """The FactorBall in a `ball` output file; anything else is a usage
    error, as is a handle whose core is not a cyclic core (disconnected,
    which FactorHandle rejects, or with a vertex of valence below 2) or
    whose core's code is not its key, or an adjacency that is not a
    symmetric relation on the handles."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        ball = factor_complex.FactorBall(bound=data["bound"])
        for key, core_json in data["handles"].items():
            core = stallings.SubgroupCoreGraph.from_json(core_json, group.rank)
            if stallings._pruned(core.rows, None):
                raise ValueError(f"handle {key[:16]}... is not a cyclic core")
            h = stallings.FactorHandle(core, group.rank)
            if h.code.hex() != key:
                raise ValueError(f"handle {key[:16]}... has a core of "
                                 "another code")
            ball.handles[h.code] = h
        adj = {bytes.fromhex(c): {bytes.fromhex(x) for x in row}
               for c, row in data["adjacency"].items()}
        if adj.keys() != ball.handles.keys() or any(
                c not in adj.get(x, ()) for c in adj for x in adj[c]):
            raise ValueError("the adjacency is not a symmetric relation on "
                             "the handles")
        ball.adjacency = adj
    except _MALFORMED as exc:
        raise UsageError(f"{path} does not hold a factor ball "
                         f"({type(exc).__name__}: {exc})") from None
    return ball


def cmd_ffdist(args):
    group = _group(args.rank)
    ball = _load_ball(group, args.ball)
    h1 = _factor_from_words(group, args.factor1)
    h2 = _factor_from_words(group, args.factor2)
    try:
        d = ball.distance_upper(h1, h2)
    except KeyError:
        print("factor not in ball", file=sys.stderr)
        return 2
    if d is None:
        print("unreachable within the ball")
        return 0
    print(f"distance upper bound: {d}")
    return 0


def cmd_simple(args):
    cw = _word_arg(_group(args.rank, 2), args.word).cyclic()
    if args.rank == 2:
        print("note: rank 2 accepted; the factor graph itself degenerates "
              "at rank 2", file=sys.stderr)
    try:
        verdict = whitehead.is_simple(cw)
    except whitehead.SimplicityCertificateError as exc:
        print(f"indeterminate: {exc}")
        return 1
    print("simple" if verdict else "not simple")
    return 0


def cmd_reduce(args):
    cw = _word_arg(_group(args.rank), args.word).cyclic()
    res = whitehead.reduce_to_minimal(cw)
    out = {"minimal_length": res.minimal_length,
           "minimum": str(res.descent[-1]),
           "descent": [str(w) for w in res.descent]}
    if args.json:
        _json_dump(out, sys.stdout)
    else:
        print(f"minimal length {res.minimal_length}; greedy chain "
              + " -> ".join(out["descent"]))
    return 0


def cmd_whitehead_graph(args):
    cw = _word_arg(_group(args.rank), args.word, nonempty=True).cyclic()
    W = whitehead.WhiteheadGraph(cw)
    report = whitehead.connectivity_report(W)
    if args.dot:
        print(W.to_dot())
    else:
        print(f"connectivity: {report}")
    return 0


def cmd_qg_check(args):
    group = _group(args.rank, 3)
    _at_least("--K", args.K, 0)
    _at_least("--bound", args.bound, 0)
    _at_least("--products", args.products, 0)
    with open(args.path, "rb") as fh:
        snapshots = [_parse_graph(line, f"{args.path} line {n}", group,
                                  "snapshot")
                     for n, line in enumerate(fh, start=1)]
    if not snapshots:
        raise UsageError(f"{args.path} holds no snapshots")
    report, ball = _qg_certificate(group, snapshots, args.K, args.bound,
                                   args.products)
    if ball.truncated:
        print(f"factor ball truncated at {len(ball.handles)} factors")
    if not report.ok:
        print(f"window failure at index {report.failed_window[0]}: "
              f"{report.failed_window[1]}")
        return 1
    print(f"certificate: {len(report.breakpoints)} breakpoints, "
          f"window diameters {report.window_diameters}, "
          f"index condition consistent-under-upper-bounds: {report.consistent}")
    return 0


def _qg_certificate(group, graphs, K, bound, products):
    """(report, ball): the projections of the graphs, the factor ball
    seeded by every handle met, and the quasi-geodesic check of the
    projections in that ball."""
    images = [factor_complex.project(G) for G in graphs]
    seeds = {h.code: h for img in images for h in img}
    ball = factor_complex.build_ball(group, seeds=list(seeds.values()),
                                     bound=bound, aut_product_length=products)
    return (factor_complex.check_reparam_quasigeodesic(images, K, ball),
            ball)


# -- experiment suites ------------------------------------------------------


def _instance_pair(seed, index, rank, twist):
    """The instance's two random marked graphs, drawn from its rng."""
    rng = _instance_rng(seed, index)
    group = FreeGroup(rank)
    return (randomgen.random_marked_graph(rng, group, twist),
            randomgen.random_marked_graph(rng, group, twist))


def _suite_distance_oracle(seed, index, rank, twist, **_):
    G, Gp = _instance_pair(seed, index, rank, twist)
    lam, wit = lipschitz.stretch_factor(G, Gp)
    blam, _ = oracles.brute_stretch(G, Gp)
    return {"index": index, "lambda": _frac_str(lam),
            "oracle": _frac_str(blam), "match": lam == blam,
            "witness_length": _frac_str(wit.length_in(G))}


def _suite_fold_additivity(seed, index, rank, twist, **_):
    G, Gp = _instance_pair(seed, index, rank, twist)
    sg = folding.standard_geodesic(G, Gp)
    snaps = [ev.graph.normalize() for ev in sg.path.events]
    lams = {}

    def lam(i, j):
        if (i, j) not in lams:
            lams[(i, j)] = lipschitz.stretch_factor(snaps[i], snaps[j])[0]
        return lams[(i, j)]

    ok = True
    for i in range(len(snaps)):
        for j in range(i + 1, len(snaps)):
            for k in range(j + 1, len(snaps)):
                if lam(i, j) * lam(j, k) != lam(i, k):
                    ok = False
    return {"index": index, "events": len(snaps) - 1, "additive": ok}


def _suite_whitehead_oracle(seed, index, rank, word_length, **_):
    rng = _instance_rng(seed, index)
    group = FreeGroup(rank)
    cw = randomgen.random_cyclic_word(rng, group, word_length)
    verdict = whitehead.is_simple(cw)
    oracle = oracles.whitehead_simple_oracle(cw)
    return {"index": index, "word": str(cw), "simple": verdict,
            "oracle": oracle, "match": verdict == oracle}


def _suite_qg_check(seed, index, rank, twist, K, bound, **_):
    G, Gp = _instance_pair(seed, index, rank, twist + 2)
    events = folding.standard_geodesic(G, Gp).path.events
    try:
        report, ball = _qg_certificate(G.group, [ev.graph for ev in events],
                                       K, bound, 2)
    except factor_complex.SeedExceedsBound as exc:
        # the path leaves the ball: uncertified, and the run goes on
        return {"index": index, "events": len(events) - 1,
                "certified": False, "seed_edges": exc.edges,
                "bound": exc.bound}
    return {"index": index, "events": len(events) - 1,
            "certified": report.ok,
            "breakpoints": len(report.breakpoints or []),
            "consistent": report.consistent, "truncated": ball.truncated}


SUITES = {   # name -> (instance function, least rank it serves, verdict key)
    "distance-oracle": (_suite_distance_oracle, 2, "match"),
    "fold-additivity": (_suite_fold_additivity, 2, "additive"),
    "whitehead-oracle": (_suite_whitehead_oracle, 2, "match"),
    "qg-check": (_suite_qg_check, 3, "certified"),
}


def run_experiment(suite, seed, instances, rank=3, workers=1, twist=3,
                   word_length=6, K=6, bound=6, out_prefix=None):
    """Run a suite over seeded instances; the report is the same for a
    fixed seed at any worker count.

    workers > 1 runs the instances in that many spawned processes, so a
    script that calls this must guard its entry point with
    ``if __name__ == "__main__"``.
    """
    if suite not in SUITES:
        raise UsageError(f"unknown suite {suite}")
    _at_least("--instances", instances, 0)
    _at_least("--workers", workers, 1)
    _at_least("--word-length", word_length, 1)
    _at_least("--K", K, 0)
    _at_least("--bound", bound, 0)
    _at_least("--twist", twist, 0)
    run_instance, least_rank, verdict = SUITES[suite]
    _group(rank, least_rank)
    if out_prefix:
        _output_path("--out", out_prefix + ".jsonl")
        _output_path("--out", out_prefix + ".summary.json")

    job = functools.partial(run_instance, seed, rank=rank, twist=twist,
                            word_length=word_length, K=K, bound=bound)
    if workers == 1:
        results = [job(i) for i in range(instances)]
    else:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            results = list(pool.map(job, range(instances)))
    violations = [r for r in results if not r[verdict]]
    summary = {
        "suite": suite, "seed": seed, "instances": instances, "rank": rank,
        "violations": len(violations),
    }
    lines = []
    for r in results:
        lines.append(json.dumps(r, sort_keys=True, separators=(",", ":")))
    report = "\n".join(lines) + "\n"
    if out_prefix:
        with open(out_prefix + ".jsonl", "w") as fh:
            fh.write(report)
        with open(out_prefix + ".summary.json", "w") as fh:
            _json_dump(summary, fh)
    return summary, report


def cmd_experiment(args):
    summary, report = run_experiment(
        args.suite, args.seed, args.instances, rank=args.rank,
        workers=args.workers, twist=args.twist, word_length=args.word_length,
        K=args.K, bound=args.bound, out_prefix=args.out)
    print(json.dumps(summary, sort_keys=True))
    return 1 if summary["violations"] else 0


# -- main -------------------------------------------------------------------


SHARED_FLAGS = {
    "--seed": {"type": int, "default": 0},
    "--rank": {"type": int, "default": 3},
    "--json": {"action": "store_true"},
    "--dot": {"action": "store_true"},
}


def build_parser():
    p = argparse.ArgumentParser(prog="outerspace")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, *flags, **kw):
        """A subcommand parser with those of the shared flags it reads."""
        parser = sub.add_parser(name, **kw)
        for flag in flags:
            parser.add_argument(flag, **SHARED_FLAGS[flag])
        return parser

    d = add_parser("dist", "--json",
                   help="Lipschitz stretch between two marked graphs")
    d.add_argument("source")
    d.add_argument("target")
    d.set_defaults(func=cmd_dist)

    om = add_parser("optimal-map", "--json")
    om.add_argument("source")
    om.add_argument("target")
    om.add_argument("--emit-dot")
    om.set_defaults(func=cmd_optimal_map)

    sg = add_parser("standard-geodesic", "--json")
    sg.add_argument("source")
    sg.add_argument("target")
    sg.set_defaults(func=cmd_standard_geodesic)

    f = add_parser("fold")
    f.add_argument("--from", required=True)
    f.add_argument("--to", required=True)
    f.add_argument("--emit-events")
    f.add_argument("--stats")
    f.add_argument("--probe", action="append")
    f.set_defaults(func=cmd_fold)

    pr = add_parser("project", "--json", "--dot")
    pr.add_argument("graph")
    pr.set_defaults(func=cmd_project)

    b = add_parser("ball", "--rank")
    b.add_argument("--bound", type=int, default=6)
    b.add_argument("--products", type=int, default=3)
    b.add_argument("--cap", type=int, default=4000)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_ball)

    ff = add_parser("ffdist", "--rank")
    ff.add_argument("factor1")
    ff.add_argument("factor2")
    ff.add_argument("--ball", required=True)
    ff.set_defaults(func=cmd_ffdist)

    s = add_parser("simple", "--rank")
    s.add_argument("word")
    s.set_defaults(func=cmd_simple)

    r = add_parser("reduce", "--rank", "--json")
    r.add_argument("word")
    r.set_defaults(func=cmd_reduce)

    wg = add_parser("whitehead-graph", "--rank", "--dot")
    wg.add_argument("word")
    wg.set_defaults(func=cmd_whitehead_graph)

    qg = add_parser("qg-check", "--rank")
    qg.add_argument("--path", required=True)
    qg.add_argument("--K", type=int, default=6)
    qg.add_argument("--bound", type=int, default=6, help=(
        "most edges of a factor in the ball (default 6, kept so that "
        "outputs made at the default stay the same; a path that projects "
        "a larger factor exits 2). The qg-window benchmark uses max(8, "
        "most seed edges) instead"))
    qg.add_argument("--products", type=int, default=2)
    qg.set_defaults(func=cmd_qg_check)

    ex = add_parser("experiment", "--seed", "--rank")
    ex.add_argument("--suite", required=True, choices=sorted(SUITES))
    ex.add_argument("--instances", type=int, default=20)
    ex.add_argument("--workers", type=int, default=1)
    ex.add_argument("--twist", type=int, default=3)
    ex.add_argument("--word-length", type=int, default=6)
    ex.add_argument("--K", type=int, default=6)
    ex.add_argument("--bound", type=int, default=6)
    ex.add_argument("--out")
    ex.set_defaults(func=cmd_experiment)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except factor_complex.SeedExceedsBound as exc:
        print(f"usage error: {exc}; raise --bound", file=sys.stderr)
        return 2
    except (lipschitz.OptimalMapError, folding.FoldTerminationError,
            whitehead.SimplicityCertificateError, whitehead.GreedyDescentError,
            oracles.OracleBudgetExceeded) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
