"""Exact counters of every lane on two seeded model-B instances.

The figures were recorded before the piecewise decompositions were shared
between pairs; a change that claims to keep every counter identical must
pass here unchanged. Each lane in `ALGORITHMS` runs under dom/deg ordering
with a node limit of 300. MAC-hybrid double-encodes every second
constraint. "root" is refuted at the root by the MAC lanes on the dual and
double encodings; "search" is searched by every lane.

A row is (verdict, nodes, checks, micro-ops, value removals, tuple
removals, group updates).

The rlfa cells run the lanes of the intensional benchmark workload
through `bench.run_one` (dom/deg, node limit 100, the default hybrid
subset); MGAC-2001 searches the separation predicates for supports and the
other lanes expand them. They were recorded before the pairwise-gap table;
the micro-ops of the two MGAC-2001 rows were re-recorded when the support
search began to skip a prefix that leaves a later position empty
(1 191 405 -> 150 700 and 1 162 193 -> 201 643).
`RLFA_PINNED_PATHS` holds, per rlfa cell, its verdict, nodes, checks and
node-path digest; besides the cells of `RLFA_PINNED` it pins MGAC-2001 and
MAC-hybrid on prob1 with the 8-ary adjacent-channel constraints, whose
four residual constraints MAC-hybrid's GAC-2001 enumerates. They were
recorded before the support search cut a prefix that leaves a later
position empty, which moves micro-ops only. The MAC-hybrid cells also run
through `search.solve` on the problem and read the same pins.

`PINNED_PATHS` holds, per cell of `PINNED`, the first 16 hex digits of the
sha256 of `repr(node_paths)`, so a change is checked node for node, not
only by its counters. They were recorded while the dual encoding still had
its own engine, with its dual ids rewritten as `("dual", v)`.
"""

import hashlib

import pytest

from bincsp.bench import run_one
from bincsp.gen import ModelBParams, gen_model_b, gen_rlfa
from bincsp.search import ALGORITHMS, DOM_DEG, make_engine, prepare_model, solve

NODE_LIMIT = 300
COUNTER_KEYS = ("checks", "microops", "value_removals", "tuple_removals",
                "group_updates")

INSTANCES = {
    "root": ModelBParams(12, 4, 3, 15, 45, 2),
    "search": ModelBParams(15, 4, 3, 8, 60, 3),
}

PINNED = {
    ("root", "MGAC-2001"): ("UNSAT", 9, 11504, 13482, 203, 0, 0),
    ("root", "nFC0"): ("UNSAT", 64, 13385, 4248, 382, 0, 0),
    ("root", "nFC1"): ("UNSAT", 64, 13385, 4248, 382, 0, 0),
    ("root", "nFC2"): ("UNSAT", 13, 10504, 5021, 133, 0, 0),
    ("root", "nFC3"): ("UNSAT", 10, 9392, 5853, 143, 0, 0),
    ("root", "nFC4"): ("UNSAT", 12, 10329, 5167, 153, 0, 0),
    ("root", "nFC5"): ("UNSAT", 10, 9198, 6266, 163, 0, 0),
    ("root", "MHAC-2001"): ("UNSAT", 9, 9249, 12392, 106, 3818, 0),
    ("root", "MHAC-2001-full"): ("UNSAT", 9, 9249, 12392, 106, 3818, 0),
    ("root", "hFC0"): ("NODE_LIMIT", 300, 0, 56827, 897, 24010, 0),
    ("root", "hFC1"): ("UNSAT", 17, 8698, 9384, 111, 4047, 0),
    ("root", "hFC2"): ("UNSAT", 13, 8875, 9022, 107, 3906, 0),
    ("root", "hFC3"): ("UNSAT", 10, 7883, 9051, 106, 3831, 0),
    ("root", "hFC4"): ("UNSAT", 12, 8133, 9264, 114, 3954, 0),
    ("root", "hFC5"): ("UNSAT", 10, 7780, 9463, 110, 3906, 0),
    ("root", "MAC-2001"): ("UNSAT", 0, 102053, 65844, 0, 853, 0),
    ("root", "MAC-PW-AC"): ("UNSAT", 0, 0, 0, 0, 823, 15635),
    ("root", "MAC-2001d"): ("UNSAT", 0, 112256, 68628, 23, 853, 0),
    ("root", "MAC-PW-ACd"): ("UNSAT", 0, 0, 0, 0, 823, 15635),
    ("root", "dFC0"): ("NODE_LIMIT", 300, 0, 56827, 897, 24010, 424637),
    ("root", "dFC1"): ("UNSAT", 17, 8698, 9384, 111, 4047, 76959),
    ("root", "dFC2"): ("UNSAT", 10, 6248, 7677, 99, 3614, 68762),
    ("root", "dFC3"): ("UNSAT", 10, 6327, 7961, 100, 3631, 69052),
    ("root", "dFC4"): ("UNSAT", 10, 5523, 6736, 86, 3357, 64115),
    ("root", "dFC5"): ("UNSAT", 10, 5537, 6952, 86, 3357, 64115),
    ("root", "MAC-hybrid"): ("UNSAT", 7, 4614, 7126, 90, 1950, 17638),
    ("search", "MGAC-2001"): ("SAT", 49, 32434, 36553, 623, 0, 0),
    ("search", "nFC0"): ("SAT", 143, 48158, 14921, 896, 0, 0),
    ("search", "nFC1"): ("SAT", 143, 48158, 14921, 896, 0, 0),
    ("search", "nFC2"): ("SAT", 105, 42754, 45497, 629, 0, 0),
    ("search", "nFC3"): ("SAT", 100, 40523, 45428, 621, 0, 0),
    ("search", "nFC4"): ("SAT", 67, 35633, 39025, 589, 0, 0),
    ("search", "nFC5"): ("SAT", 50, 31464, 36441, 561, 0, 0),
    ("search", "MHAC-2001"): ("SAT", 49, 24311, 45616, 429, 10296, 0),
    ("search", "MHAC-2001-full"): ("SAT", 49, 24311, 45616, 429, 10296, 0),
    ("search", "hFC0"): ("NODE_LIMIT", 300, 0, 61282, 897, 17565, 0),
    ("search", "hFC1"): ("SAT", 177, 36066, 54421, 647, 13927, 0),
    ("search", "hFC2"): ("SAT", 105, 38005, 47925, 549, 12436, 0),
    ("search", "hFC3"): ("SAT", 100, 35038, 47045, 531, 12022, 0),
    ("search", "hFC4"): ("SAT", 67, 31770, 47668, 496, 11209, 0),
    ("search", "hFC5"): ("SAT", 50, 25797, 43080, 432, 10396, 0),
    ("search", "MAC-2001"): ("SAT", 47, 301668, 512675, 0, 8602, 0),
    ("search", "MAC-PW-AC"): ("SAT", 47, 0, 0, 0, 8205, 150096),
    ("search", "MAC-2001d"): ("SAT", 24, 275033, 258879, 161, 3754, 0),
    ("search", "MAC-PW-ACd"): ("SAT", 24, 0, 5463, 77, 3781, 67065),
    ("search", "dFC0"): ("NODE_LIMIT", 300, 0, 61282, 897, 17565, 289944),
    ("search", "dFC1"): ("SAT", 177, 36066, 54421, 647, 13927, 239937),
    ("search", "dFC2"): ("SAT", 100, 34566, 45983, 535, 12029, 207819),
    ("search", "dFC3"): ("SAT", 100, 34566, 47608, 535, 12029, 207819),
    ("search", "dFC4"): ("SAT", 34, 14156, 19007, 205, 4974, 87163),
    ("search", "dFC5"): ("SAT", 33, 14022, 20507, 201, 4893, 85851),
    ("search", "MAC-hybrid"): ("SAT", 49, 14983, 34396, 503, 4947, 36762),
}

PINNED_PATHS = {
    ("root", "MAC-2001"): "4f53cda18c2baa0c",
    ("root", "MAC-2001d"): "4f53cda18c2baa0c",
    ("root", "MAC-PW-AC"): "4f53cda18c2baa0c",
    ("root", "MAC-PW-ACd"): "4f53cda18c2baa0c",
    ("root", "MAC-hybrid"): "b72a776a6f3f5086",
    ("root", "MGAC-2001"): "b3d20d35dcccddd5",
    ("root", "MHAC-2001"): "b3d20d35dcccddd5",
    ("root", "MHAC-2001-full"): "b3d20d35dcccddd5",
    ("root", "dFC0"): "cb9d45a605c0915d",
    ("root", "dFC1"): "6a4e56ed8cade7ee",
    ("root", "dFC2"): "a0351ad387e72c3c",
    ("root", "dFC3"): "a0351ad387e72c3c",
    ("root", "dFC4"): "a0351ad387e72c3c",
    ("root", "dFC5"): "a0351ad387e72c3c",
    ("root", "hFC0"): "cb9d45a605c0915d",
    ("root", "hFC1"): "6a4e56ed8cade7ee",
    ("root", "hFC2"): "d62d79d1efb28cf8",
    ("root", "hFC3"): "a0351ad387e72c3c",
    ("root", "hFC4"): "e9777bbe2d841759",
    ("root", "hFC5"): "a0351ad387e72c3c",
    ("root", "nFC0"): "6a61a178560fe62a",
    ("root", "nFC1"): "6a61a178560fe62a",
    ("root", "nFC2"): "d62d79d1efb28cf8",
    ("root", "nFC3"): "a0351ad387e72c3c",
    ("root", "nFC4"): "e9777bbe2d841759",
    ("root", "nFC5"): "a0351ad387e72c3c",
    ("search", "MAC-2001"): "9c289454abb16119",
    ("search", "MAC-2001d"): "1cf7140cd81f34f8",
    ("search", "MAC-PW-AC"): "9c289454abb16119",
    ("search", "MAC-PW-ACd"): "1cf7140cd81f34f8",
    ("search", "MAC-hybrid"): "20b22ee1dd60fa76",
    ("search", "MGAC-2001"): "20b22ee1dd60fa76",
    ("search", "MHAC-2001"): "20b22ee1dd60fa76",
    ("search", "MHAC-2001-full"): "20b22ee1dd60fa76",
    ("search", "dFC0"): "ca39a7be04f5e188",
    ("search", "dFC1"): "d4ce19433e98916c",
    ("search", "dFC2"): "d15fe0327001dc57",
    ("search", "dFC3"): "d15fe0327001dc57",
    ("search", "dFC4"): "9e97cc98f8a6a48f",
    ("search", "dFC5"): "aea95028f216a6ba",
    ("search", "hFC0"): "ca39a7be04f5e188",
    ("search", "hFC1"): "d4ce19433e98916c",
    ("search", "hFC2"): "a178f02b09b21200",
    ("search", "hFC3"): "d15fe0327001dc57",
    ("search", "hFC4"): "a9fa7fb5e3099ada",
    ("search", "hFC5"): "29e01aba8f125bdc",
    ("search", "nFC0"): "656948af41950d1f",
    ("search", "nFC1"): "656948af41950d1f",
    ("search", "nFC2"): "a178f02b09b21200",
    ("search", "nFC3"): "d15fe0327001dc57",
    ("search", "nFC4"): "a9fa7fb5e3099ada",
    ("search", "nFC5"): "29e01aba8f125bdc",
}


@pytest.fixture(scope="module")
def problems():
    return {label: gen_model_b(params) for label, params in INSTANCES.items()}


@pytest.fixture(scope="module")
def results(problems):
    """Each pinned cell's SearchResult, with node paths, run once."""
    cache = {}

    def result(label, algorithm):
        if (label, algorithm) not in cache:
            p = problems[label]
            spec = ALGORITHMS[algorithm]
            model = prepare_model(p, spec, range(0, len(p.constraints), 2))
            cache[label, algorithm] = make_engine(
                model, spec, ordering=DOM_DEG, node_limit=NODE_LIMIT,
                record_nodes=True).solve()
        return cache[label, algorithm]
    return result


def test_every_lane_is_pinned():
    cells = {(label, name) for label in INSTANCES for name in ALGORITHMS}
    assert set(PINNED) == cells and set(PINNED_PATHS) == cells


@pytest.mark.parametrize("label,algorithm", sorted(PINNED))
def test_counters_match_the_pinned_table(results, label, algorithm):
    result = results(label, algorithm)
    snapshot = result.counters.snapshot()
    got = (result.verdict, result.nodes) + tuple(snapshot[k] for k in COUNTER_KEYS)
    assert got == PINNED[(label, algorithm)]


@pytest.mark.parametrize("label,algorithm", sorted(PINNED_PATHS))
def test_node_paths_match_the_pinned_digests(results, label, algorithm):
    paths = results(label, algorithm).node_paths
    digest = hashlib.sha256(repr(paths).encode()).hexdigest()[:16]
    assert digest == PINNED_PATHS[(label, algorithm)]


RLFA_NODE_LIMIT = 100
RLFA_INSTANCES = {"prob1-d20": ("prob1", 20, 1), "prob2-d25": ("prob2", 25, 1),
                  "prob1-d20-adj8": ("prob1", 20, 0, True)}

RLFA_PINNED = {
    ("prob1-d20", "MGAC-2001"): ("SAT", 48, 1938, 150700, 912, 0, 0),
    ("prob1-d20", "MHAC-2001"): ("SAT", 48, 1199588, 147722, 912, 27077, 0),
    ("prob1-d20", "MAC-hybrid"): ("SAT", 48, 0, 96487, 912, 27077, 96806),
    ("prob1-d20", "MAC-PW-ACd"): ("SAT", 48, 0, 96487, 912, 27077, 96806),
    ("prob2-d25", "MGAC-2001"): ("SAT", 44, 976, 201643, 1056, 0, 0),
    ("prob2-d25", "MHAC-2001"): ("SAT", 44, 424187, 49927, 1056, 11262, 0),
    ("prob2-d25", "MAC-hybrid"): ("SAT", 44, 0, 35086, 1056, 11262, 35030),
    ("prob2-d25", "MAC-PW-ACd"): ("SAT", 44, 0, 35086, 1056, 11262, 35030),
}

# (verdict, nodes, checks, node-path digest)
RLFA_PINNED_PATHS = {
    ("prob1-d20", "MGAC-2001"): ("SAT", 48, 1938, "a42fc8e7ab8d0b60"),
    ("prob1-d20", "MHAC-2001"): ("SAT", 48, 1199588, "a42fc8e7ab8d0b60"),
    ("prob1-d20", "MAC-hybrid"): ("SAT", 48, 0, "a42fc8e7ab8d0b60"),
    ("prob1-d20", "MAC-PW-ACd"): ("SAT", 48, 0, "a42fc8e7ab8d0b60"),
    ("prob2-d25", "MGAC-2001"): ("SAT", 44, 976, "6cbb170d1d13b8c7"),
    ("prob2-d25", "MHAC-2001"): ("SAT", 44, 424187, "6cbb170d1d13b8c7"),
    ("prob2-d25", "MAC-hybrid"): ("SAT", 44, 0, "6cbb170d1d13b8c7"),
    ("prob2-d25", "MAC-PW-ACd"): ("SAT", 44, 0, "6cbb170d1d13b8c7"),
    ("prob1-d20-adj8", "MGAC-2001"): ("SAT", 60, 5519, "df95ff12d188eadd"),
    ("prob1-d20-adj8", "MAC-hybrid"): ("SAT", 60, 2229, "37d7ee1f50bc868b"),
}


@pytest.fixture(scope="module")
def rlfa_results():
    """Each rlfa cell's SearchResult, with node paths, run once."""
    cache = {}

    def result(label, algorithm):
        if (label, algorithm) not in cache:
            _, cache[label, algorithm] = run_one(
                gen_rlfa(*RLFA_INSTANCES[label]), algorithm, "heuristic", 0,
                node_limit=RLFA_NODE_LIMIT, record_nodes=True)
        return cache[label, algorithm]
    return result


def test_every_rlfa_cell_is_path_pinned():
    assert set(RLFA_PINNED) <= set(RLFA_PINNED_PATHS)


@pytest.mark.parametrize("label,algorithm", sorted(RLFA_PINNED))
def test_rlfa_counters_match_the_pinned_table(rlfa_results, label, algorithm):
    result = rlfa_results(label, algorithm)
    snapshot = result.counters.snapshot()
    got = (result.verdict, result.nodes) + tuple(snapshot[k] for k in COUNTER_KEYS)
    assert got == RLFA_PINNED[(label, algorithm)]


@pytest.mark.parametrize("label,algorithm", sorted(RLFA_PINNED_PATHS))
def test_rlfa_node_paths_match_the_pinned_digests(rlfa_results, label, algorithm):
    result = rlfa_results(label, algorithm)
    digest = hashlib.sha256(repr(result.node_paths).encode()).hexdigest()[:16]
    got = (result.verdict, result.nodes, result.counters.checks, digest)
    assert got == RLFA_PINNED_PATHS[(label, algorithm)]


@pytest.mark.parametrize("label", sorted(label for label, algorithm in RLFA_PINNED_PATHS
                                         if algorithm == "MAC-hybrid"))
def test_rlfa_hybrid_solved_from_the_problem_matches_the_pins(label):
    """`solve` on the plain problem builds the default hybrid subset as
    `run_one` does, and reads the same pins."""
    result = solve(gen_rlfa(*RLFA_INSTANCES[label]), "MAC-hybrid",
                   node_limit=RLFA_NODE_LIMIT, record_nodes=True)
    digest = hashlib.sha256(repr(result.node_paths).encode()).hexdigest()[:16]
    got = (result.verdict, result.nodes, result.counters.checks, digest)
    assert got == RLFA_PINNED_PATHS[(label, "MAC-hybrid")]
