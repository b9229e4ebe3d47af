"""What the specialized propagators buy you.

Three scenes:
  1. a dual-encoding fragment where AC-2001 pays 2 x 6 checks to re-support
     tuples that PW-AC deletes for free through a group counter,
  2. a problem that is singleton generalized arc consistent yet refuted
     outright by propagating between dual variables,
  3. a wipeout that the hidden encoding detects checks earlier than GAC.
"""

from bincsp import (ALGORITHMS, CONSISTENT, INCONSISTENT, Constraint, Counters,
                    Problem, ac2001, build_de, build_double, build_hve,
                    gac2001, pwac, sgac_check)
from bincsp.search import HveEngine, NonBinaryEngine


def scene_piecewise():
    print("=== scene 1: group deletions vs support re-scans ===")
    c1 = Constraint((0, 1, 3), relation=[(0, 0, 0), (0, 1, 0), (1, 0, 1),
                                         (1, 1, 2)], name="c1")
    c2 = Constraint((2, 3, 4), relation=[(0, 0, 0), (0, 1, 1), (0, 2, 1),
                                         (1, 1, 0), (1, 1, 1), (1, 2, 0),
                                         (1, 2, 1)], name="c2")
    c3 = Constraint((2, 4, 5), relation=[(0, 1, 0), (0, 1, 1), (1, 0, 0),
                                         (1, 0, 1), (1, 1, 0), (1, 1, 1)],
                    name="c3")
    p = Problem(["x0", "x1", "x2", "x3", "x4", "x5"],
                [[0, 1], [0, 1], [0, 1], [0, 1, 2], [0, 1], [0, 1]],
                [c1, c2, c3])
    enc = build_de(p)
    counters = Counters(search_log=[])
    a = ac2001(enc, counters=counters)
    wasted = [e["checks"] for e in counters.search_log
              if e["bvar"] == 0 and not e["found"]]
    print(f"AC-2001 on the DE: {counters.checks} checks total, "
          f"{sum(wasted)} of them re-scanning v_c2 for v_c1's dead tuples")
    w = pwac(enc)
    print(f"PW-AC: {w.counters.checks} checks, "
          f"{w.counters.group_updates} counter updates, "
          f"{w.counters.tuple_removals} tuples deleted -> same fixpoint: "
          f"{a.state.dual_domains_as_lists() == w.state.dual_domains_as_lists()}")
    g = gac2001(p)
    print(f"GAC on the flat problem deletes {g.counters.value_removals} "
          f"values: the original domains cannot see this at all\n")


def scene_sgac():
    print("=== scene 2: refuting a singleton-GAC problem ===")
    odd = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    even = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    p = Problem(["x1", "x2", "x3"], [[0, 1]] * 3,
                [Constraint((0, 1, 2), relation=odd, name="odd"),
                 Constraint((0, 1, 2), relation=even, name="even")])
    print(f"flat GAC verdict: {gac2001(p).verdict}")
    print(f"singleton GAC holds: {sgac_check(p)}")
    result = pwac(build_double(p))
    print(f"dual-dual AC on the double encoding: {result.verdict}\n")


def scene_early_wipeout():
    print("=== scene 3: early wipeout detection in the hidden encoding ===")
    c1 = Constraint((0, 1, 2), relation=[(0, 1, a) for a in range(10)]
                    + [(1, 0, a) for a in range(10)], name="c1")
    c2 = Constraint((0, 1, 3), relation=[(0, 0, 0), (0, 0, 1), (1, 0, 0),
                                         (1, 0, 1)], name="c2")
    p = Problem(["x1", "x2", "x3", "x4"],
                [[0, 1], [0, 1], list(range(10)), [0, 1]], [c1, c2])

    # the first node of MGAC-2001 and of MHAC-2001: x1 <- 0, then lookahead
    outcomes = []
    for engine in (NonBinaryEngine(p, ALGORITHMS["MGAC-2001"]),
                   HveEngine(build_hve(p), ALGORITHMS["MHAC-2001"])):
        ok = engine.assign(0, 0) and engine.lookahead(0)
        outcomes.append((CONSISTENT if ok else INCONSISTENT,
                         engine.counters.checks))
    (g, g_checks), (h, h_checks) = outcomes

    print(f"after x1 <- 0: GAC-2001 {g} in {g_checks} checks, "
          f"HAC {h} in {h_checks} checks "
          f"(the dual of c2 wipes before any re-support scans)")


if __name__ == "__main__":
    scene_piecewise()
    scene_sgac()
    scene_early_wipeout()
