"""Seeded edge-case instances: every lane and root propagator against the
brute-force oracles.

The drawer covers what the generators never emit: 1-6 variables, domains
of 0-4 values, arities 1-4, empty and full relations, unary constraints,
variables in no constraint, repeated scopes and every `Predicate` kind,
with a random encoded subset for MAC-hybrid. On a failure the test reports
a shrunk instance: constraints are dropped, then values, then tuples, for
as long as the failure persists.
"""

import itertools
import json
import math
import random
import traceback

import pytest

from bincsp.core import (LINEAR_RELATIONS, Constraint, Predicate, Problem,
                         ac1_fixpoint, enumerate_solutions, solution_check)
from bincsp.encode import build_de, build_double, build_hve
from bincsp.interchange import emit_instance
from bincsp.search import (ALGORITHMS, DOM_DEG, FIXED, ac2001, gac2001, hac,
                           prepare_model, pwac, solve)

SEED = 16
COUNT = 400


def _predicate(rng, k):
    kind = rng.choice(Predicate.KINDS)
    if kind == "linear":
        return Predicate("linear", coeffs=[rng.choice((-2, -1, 1, 2)) for _ in range(k)],
                         rel=rng.choice(LINEAR_RELATIONS), const=rng.randint(-4, 8))
    if kind == "separation":
        return Predicate("separation", s=rng.randint(0, 2))
    if kind == "rich_separation":
        s = rng.randint(0, 1)
        return Predicate("rich_separation", s=s, s2=s + rng.randint(1, 2),
                         subset=rng.sample(range(k), rng.randint(0, k)))
    if kind == "parity_neq":
        return Predicate("parity_neq",
                         pairs=[[rng.randrange(k), rng.randrange(k)] for _ in range(2)])
    return Predicate("not_all_equal")


def _relation(rng, sizes):
    space = list(itertools.product(*map(range, sizes)))
    shape = rng.random()
    if shape < 0.15:
        return []
    if shape < 0.3:
        return space
    density = rng.uniform(0.2, 0.8)
    return [t for t in space if rng.random() < density]


def draw(rng):
    """One edge-case instance and a random encoded subset for MAC-hybrid.
    Labels are distinct small integers, so that predicates see gaps."""
    n = rng.randint(1, 6)
    domains = [sorted(rng.sample(range(8), rng.randint(0, 4))) for _ in range(n)]
    constraints, scopes = [], []
    for _ in range(rng.randint(0, 5)):
        if scopes and rng.random() < 0.2:  # a repeated scope, maybe reordered
            scope = rng.choice(scopes)
            scope = tuple(rng.sample(scope, len(scope)))
        else:
            scope = tuple(rng.sample(range(n), rng.randint(1, min(4, n))))
        scopes.append(scope)
        if rng.random() < 0.3:
            constraints.append(Constraint(scope, predicate=_predicate(rng, len(scope))))
        else:
            sizes = [len(domains[x]) for x in scope]
            constraints.append(Constraint(scope, relation=_relation(rng, sizes)))
    subset = [ci for ci in range(len(constraints)) if rng.random() < 0.5]
    return Problem([f"x{i}" for i in range(n)], domains, constraints), subset


def _within(smaller, larger):
    return all(set(s) <= set(l) for s, l in zip(smaller, larger))


def _failure(p, subset):
    """What goes wrong on this instance, or None."""
    try:
        return _check(p, subset)
    except Exception:  # a crash is a failure to shrink like any other
        return traceback.format_exc()


def _check(p, subset):
    expected = "SAT" if enumerate_solutions(p, limit=1) else "UNSAT"
    for name, spec in ALGORITHMS.items():
        model = prepare_model(p, spec, subset)
        for ordering in (FIXED, DOM_DEG):
            r = solve(model, name, ordering=ordering)
            if r.verdict != expected:
                return f"{name} {ordering}: {r.verdict}, expected {expected}"
            if r.verdict == "SAT" and not solution_check(p, r.solution):
                return f"{name} {ordering}: {r.solution} is no solution"
    # with nothing encoded, MAC-hybrid keeps GAC as MGAC-2001 does
    nothing_encoded = build_double(p, [])
    for ordering in (FIXED, DOM_DEG):
        paths = [solve(model, name, ordering=ordering, record_nodes=True).node_paths
                 for model, name in ((p, "MGAC-2001"), (nothing_encoded, "MAC-hybrid"))]
        if paths[0] != paths[1]:
            return f"MAC-hybrid on no encoded constraint {ordering}: {paths}"

    ok, oracle = ac1_fixpoint(p)
    domains = oracle.domains_as_lists()
    hve, de = build_hve(p), build_de(p)
    for name, r in (("gac2001", gac2001(p)), ("hac", hac(hve)),
                    ("ac2001 on the HVE", ac2001(hve))):
        if r.consistent != ok or ok and r.state.domains_as_lists() != domains:
            return f"{name} differs from ac1_fixpoint ({ok})"
    for name, enc in (("double", build_double(p)), ("HVE", hve)):
        r = pwac(enc)
        if r.consistent and not (ok and _within(r.state.domains_as_lists(), domains)):
            return f"pwac on the {name} is not within ac1_fixpoint ({ok})"
    ok, oracle = ac1_fixpoint(de)
    for name, r in (("ac2001 on the DE", ac2001(de)), ("pwac", pwac(de))):
        if r.consistent != ok or ok and \
                r.state.dual_domains_as_lists() != oracle.dual_domains_as_lists():
            return f"{name} differs from ac1_fixpoint on the DE ({ok})"
    return None


def _without_constraint(p, subset, ci):
    return (Problem(p.variables, p.domains, p.constraints[:ci] + p.constraints[ci + 1:]),
            [j - (j > ci) for j in subset if j != ci])


def _without_value(p, subset, x, a):
    domains = [list(dom) for dom in p.domains]
    del domains[x][a]
    constraints = []
    for c in p.constraints:
        if c.relation is None or x not in c.scope:
            constraints.append(c)
            continue
        pos = c.position[x]
        rel = [t[:pos] + (t[pos] - (t[pos] > a),) + t[pos + 1:]
               for t in c.relation if t[pos] != a]
        constraints.append(Constraint(c.scope, relation=rel))
    return Problem(p.variables, domains, constraints), subset


def _without_tuple(p, subset, ci, t):
    c = p.constraints[ci]
    rel = [u for u in c.relation if u != t]
    return (Problem(p.variables, p.domains, p.constraints[:ci]
                    + [Constraint(c.scope, relation=rel)] + p.constraints[ci + 1:]),
            subset)


def _smaller(p, subset):
    """Every one-step reduction: dropping a constraint, then a value, then
    a tuple."""
    for ci in range(len(p.constraints)):
        yield _without_constraint(p, subset, ci)
    for x in range(p.n):
        for a in range(p.domain_size(x)):
            yield _without_value(p, subset, x, a)
    for ci, c in enumerate(p.constraints):
        for t in c.relation or ():
            yield _without_tuple(p, subset, ci, t)


def shrink(p, subset, failure=_failure):
    """Greedily take the first reduction that still fails, until none does."""
    reduced = True
    while reduced:
        reduced = False
        for smaller in _smaller(p, subset):
            if failure(*smaller) is not None:
                p, subset = smaller
                reduced = True
                break
    return p, subset


def test_edge_cases_agree_with_the_oracles():
    rng = random.Random(SEED)
    for i in range(COUNT):
        p, subset = draw(rng)
        failure = _failure(p, subset)
        if failure is not None:
            p, subset = shrink(p, subset)
            pytest.fail(f"instance {i} of seed {SEED}: {failure}\n"
                        f"shrunk to {json.dumps(emit_instance(p))}, hybrid subset "
                        f"{subset}: {_failure(p, subset)}")


def test_the_drawer_covers_its_edge_cases():
    rng = random.Random(SEED)
    drawn = [draw(rng) for _ in range(COUNT)]
    constraints = [c for p, _ in drawn for c in p.constraints]
    assert {len(dom) for p, _ in drawn for dom in p.domains} == {0, 1, 2, 3, 4}
    assert {c.arity for c in constraints} == {1, 2, 3, 4}
    assert {c.predicate.kind for c in constraints if c.predicate} == set(Predicate.KINDS)
    relations = [(p, c) for p, _ in drawn for c in p.constraints if c.relation is not None]
    assert any(not c.relation for _, c in relations)
    assert any(c.relation and len(c.relation) == math.prod(map(p.domain_size, c.scope))
               for p, c in relations)
    assert any(len({frozenset(c.scope) for c in p.constraints}) < len(p.constraints)
               for p, _ in drawn)
    assert any(not p.constraints_of_var[x] for p, _ in drawn for x in range(p.n))
    assert {bool(subset) for _, subset in drawn} == {True, False}
    verdicts = {bool(enumerate_solutions(p, limit=1)) for p, _ in drawn}
    assert verdicts == {True, False}


def test_shrink_reduces_a_failure_to_its_core():
    """The shrinker on an instance that fails a deliberately wrong check."""
    p = Problem(["a", "b", "c"], [[0, 1, 2], [0, 1], [3, 5]],
                [Constraint((0, 1), relation=[(0, 0), (1, 1), (2, 0)]),
                 Constraint((1, 2), relation=[(0, 1), (1, 0)]),
                 Constraint((0, 2), predicate=Predicate("not_all_equal"))])
    small, subset = shrink(p, [0, 2], lambda q, subset: "a tuple is left"
                           if any(c.relation for c in q.constraints) else None)
    assert len(small.constraints) == 1 and len(small.constraints[0].relation) == 1
    assert sum(map(len, small.domains)) == 2
    assert subset == []
