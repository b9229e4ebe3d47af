"""Shared fixture problems used across the test suite.

These are small hand-built instances with known behaviour: the running
six-variable arithmetic example, the piecewise-decomposition examples, the
two-constraint parity problem that only dual-dual propagation refutes, the
support-pattern instance where hidden-encoding AC detects a wipeout early,
and the pair of 4-ary constraints separating the dFC family from hFC. The
encoding and propagation tests also share a sample of the acceptance
suite's criterion-1 instances, and a scan of PW-AC's group counters.
"""

from bincsp.core import Constraint, Predicate, Problem
from bincsp.gen import ModelBParams, gen_model_b


def six_var_linear() -> Problem:
    """Six 0/1 variables, four linear constraints:
    c1: x1+x2+x6 = 1, c2: x1-x3+x4 = 1, c3: x4+x5-x6 >= 1, c4: x2+x5-x6 = 0.
    """
    dom = [0, 1]
    c1 = Constraint((0, 1, 5), predicate=Predicate(
        "linear", coeffs=(1, 1, 1), rel="=", const=1), name="c1")
    c2 = Constraint((0, 2, 3), predicate=Predicate(
        "linear", coeffs=(1, -1, 1), rel="=", const=1), name="c2")
    c3 = Constraint((3, 4, 5), predicate=Predicate(
        "linear", coeffs=(1, 1, -1), rel=">=", const=1), name="c3")
    c4 = Constraint((1, 4, 5), predicate=Predicate(
        "linear", coeffs=(1, 1, -1), rel="=", const=0), name="c4")
    return Problem([f"x{i}" for i in range(1, 7)], [dom] * 6,
                   [c1, c2, c3, c4], name="six_var_linear")

# hand-checked solutions of six_var_linear (all 64 assignments filtered)
SIX_VAR_SOLUTIONS = [(0, 0, 0, 1, 1, 1), (1, 0, 1, 1, 0, 0)]


def full_relation(sizes):
    import itertools
    return list(itertools.product(*(range(s) for s in sizes)))


def example_41() -> Problem:
    """Three full ternary constraints over domain {0,1,2}: scopes
    (x1,x2,x3), (x1,x4,x5) and (x6,x7,x3); the third keeps x3 in its last
    position so its groups are keyed on the final component."""
    dom = [0, 1, 2]
    rel = full_relation([3, 3, 3])
    c1 = Constraint((0, 1, 2), relation=rel, name="c1")
    c2 = Constraint((0, 3, 4), relation=rel, name="c2")
    c3 = Constraint((5, 6, 2), relation=rel, name="c3")
    return Problem([f"x{i}" for i in range(1, 8)], [dom] * 7,
                   [c1, c2, c3], name="example_41")


def example_42() -> Problem:
    """Three constraints whose dual encoding loses tuples under AC while the
    original problem is already generalized arc consistent.

    vars(c1)={x0,x1,x3}, vars(c2)={x2,x3,x4}, vars(c3)={x2,x4,x5};
    c2's first tuple is the only one with (x2,x4)=(0,0) and c3 has no such
    pair, so it dies; it is also the only c2 tuple with x3=0, which kills
    the two leading tuples of c1.
    """
    d01 = [0, 1]
    d012 = [0, 1, 2]
    c1 = Constraint((0, 1, 3),
                    relation=[(0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 2)],
                    name="c1")
    c2 = Constraint((2, 3, 4),
                    relation=[(0, 0, 0), (0, 1, 1), (0, 2, 1), (1, 1, 0),
                              (1, 1, 1), (1, 2, 0), (1, 2, 1)],
                    name="c2")
    c3 = Constraint((2, 4, 5),
                    relation=[(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1),
                              (1, 1, 0), (1, 1, 1)],
                    name="c3")
    return Problem(["x0", "x1", "x2", "x3", "x4", "x5"],
                   [d01, d01, d01, d012, d01, d01],
                   [c1, c2, c3], name="example_42")


def example_51() -> Problem:
    """Two parity constraints over the same three 0/1 variables: one allows
    odd sums, the other even sums. Insoluble, yet singleton generalized arc
    consistent; only propagation between the two dual variables sees it."""
    dom = [0, 1]
    odd = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]
    even = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    c1 = Constraint((0, 1, 2), relation=odd, name="odd")
    c2 = Constraint((0, 1, 2), relation=even, name="even")
    return Problem(["x1", "x2", "x3"], [dom] * 3, [c1, c2], name="example_51")


def appendix_a() -> Problem:
    """Support-pattern instance: after x1 <- 0, value 0 of x2 loses every
    support in c1, and since all of c2 requires x2=0, the hidden encoding
    wipes the dual of c2 immediately while plain GAC keeps searching
    supports for x2=1 and the ten values of x3 first."""
    c1 = Constraint((0, 1, 2),
                    relation=[(0, 1, a) for a in range(10)]
                    + [(1, 0, a) for a in range(10)],
                    name="c1")
    c2 = Constraint((0, 1, 3),
                    relation=[(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)],
                    name="c2")
    return Problem(["x1", "x2", "x3", "x4"],
                   [[0, 1], [0, 1], list(range(10)), [0, 1]],
                   [c1, c2], name="appendix_a")


def prop_51() -> Problem:
    """Two 4-ary constraints sharing three variables; after x1 <- 0 the
    hidden encoding only prunes one tuple from each dual, but the dual-dual
    constraint wipes both dual domains at once."""
    dom = [0, 1]
    c1 = Constraint((0, 1, 2, 3),
                    relation=[(0, 0, 1, 0), (0, 1, 0, 1), (1, 1, 0, 1)],
                    name="c1")
    c2 = Constraint((0, 1, 2, 4),
                    relation=[(0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 0, 0)],
                    name="c2")
    return Problem([f"x{i}" for i in range(1, 6)], [dom] * 5,
                   [c1, c2], name="prop_51")


def criterion_1_suite(step=50):
    """Every `step`-th instance of the acceptance suite's criterion-1 set."""
    for seed in range(0, 1000, step):
        yield gen_model_b(ModelBParams(10, 4, 3, 10, 5 + (seed * 90) // 1000, seed))


def assert_counters_match_live_members(pw, state):
    """Every PW-AC counter must equal its group's live member count."""
    for dec, counts in pw.counts.items():
        mask = state.dual_masks[dec.owner]
        live = [sum(1 for i in members if mask[i]) for members in dec.members]
        assert counts == live, f"counter drift in {dec!r}: {counts} != {live}"
