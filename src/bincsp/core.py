"""Core problem model: variables, constraints, tuple algebra and brute-force oracles.

Values are dense indices 0..d-1 per variable; external labels (letters,
frequencies) live in the per-variable label list. Extensional relations are
kept sorted lexicographically with no duplicates, and every predicate can be
expanded to that form over the initial domains.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class CapacityError(Exception):
    """Raised when an expansion or enumeration exceeds its configured budget."""


DEFAULT_EXPANSION_BUDGET = 500_000
DEFAULT_ENUMERATION_BOUND = 1 << 20

LINEAR_RELATIONS = ("=", ">=", "<=", "!=")


@dataclass
class Counters:
    """Instrumentation: tuple checks and micro-operations are kept separate.

    A tuple check is one support test (the unit of the check-count
    comparisons); micro-ops count per-position validity work, constant-time
    membership lookups and bookkeeping scans. search_log, when enabled,
    records one entry per AC-2001 support search.
    """

    checks: int = 0
    microops: int = 0
    value_removals: int = 0
    tuple_removals: int = 0
    group_updates: int = 0
    search_log: Optional[list] = None

    def snapshot(self) -> dict:
        return {
            "checks": self.checks,
            "microops": self.microops,
            "value_removals": self.value_removals,
            "tuple_removals": self.tuple_removals,
            "group_updates": self.group_updates,
        }


class Predicate:
    """Intensional constraint body, evaluated over label values.

    Kinds:
      linear          sum(coeffs[i] * v[i]) REL const, REL in =, >=, <=, !=
      separation      all pairs more than s apart: |v[i] - v[j]| > s
      rich_separation separation(s), and every position in `subset` is more
                      than s2 apart from every other position
      not_all_equal   at least two positions differ
      parity_neq      (v[a0]+v[a1]) mod 2 != (v[b0]+v[b1]) mod 2
    """

    KINDS = ("linear", "separation", "rich_separation", "not_all_equal", "parity_neq")

    def __init__(self, kind: str, **params):
        if kind not in self.KINDS:
            raise ValueError(f"unknown predicate kind: {kind!r}")
        self.kind = kind
        self.params = params
        if kind == "linear":
            self.coeffs = tuple(params["coeffs"])
            self.rel = params["rel"]
            self.const = params["const"]
            if self.rel not in LINEAR_RELATIONS:
                raise ValueError(f"bad linear relation: {self.rel!r}")
        elif kind == "separation":
            self.s = params["s"]
        elif kind == "rich_separation":
            self.s = params["s"]
            self.s2 = params["s2"]
            self.subset = tuple(params["subset"])  # positions within the scope
            if self.s2 <= self.s:
                raise ValueError("rich separation needs s2 > s")
        elif kind == "parity_neq":
            self.pairs = tuple(tuple(p) for p in params["pairs"])
            if len(self.pairs) != 2 or any(len(p) != 2 for p in self.pairs):
                raise ValueError("parity_neq takes two position pairs")

    def holds(self, values: Sequence) -> bool:
        kind = self.kind
        if kind == "linear":
            total = sum(c * v for c, v in zip(self.coeffs, values))
            if self.rel == "=":
                return total == self.const
            if self.rel == ">=":
                return total >= self.const
            if self.rel == "<=":
                return total <= self.const
            return total != self.const
        if kind == "separation":
            s = self.s
            k = len(values)
            for i in range(k):
                vi = values[i]
                for j in range(i + 1, k):
                    if abs(vi - values[j]) <= s:
                        return False
            return True
        if kind == "rich_separation":
            s, s2 = self.s, self.s2
            strong = set(self.subset)
            k = len(values)
            for i in range(k):
                vi = values[i]
                for j in range(i + 1, k):
                    gap = s2 if (i in strong or j in strong) else s
                    if abs(vi - values[j]) <= gap:
                        return False
            return True
        if kind == "not_all_equal":
            first = values[0]
            return any(v != first for v in values[1:])
        # parity_neq
        (a0, a1), (b0, b1) = self.pairs
        return (values[a0] + values[a1]) % 2 != (values[b0] + values[b1]) % 2

    def partial_ok(self, values: Sequence, upto: int) -> bool:
        """Can a prefix values[:upto] still be extended to a satisfying tuple?

        Sound but not complete pruning; the full holds() test decides.
        """
        kind = self.kind
        if kind == "separation":
            s = self.s
            v = values[upto - 1]
            for i in range(upto - 1):
                if abs(v - values[i]) <= s:
                    return False
            return True
        if kind == "rich_separation":
            strong = set(self.subset)
            v = values[upto - 1]
            j = upto - 1
            for i in range(upto - 1):
                gap = self.s2 if (i in strong or j in strong) else self.s
                if abs(v - values[i]) <= gap:
                    return False
            return True
        return True

    def spec(self) -> dict:
        """JSON-ready parameter description."""
        out = {"kind": self.kind}
        if self.kind == "linear":
            out.update(coeffs=list(self.coeffs), rel=self.rel, const=self.const)
        elif self.kind == "separation":
            out.update(s=self.s)
        elif self.kind == "rich_separation":
            out.update(s=self.s, s2=self.s2, subset=list(self.subset))
        elif self.kind == "parity_neq":
            out.update(pairs=[list(p) for p in self.pairs])
        return out

    def __repr__(self):
        return f"Predicate({self.spec()})"


class Constraint:
    """A constraint over an ordered, duplicate-free scope of variable indices.

    The body is either an extensional relation (sorted tuple list over value
    indices, deduplicated) or a Predicate over the labels.
    """

    def __init__(self, scope: Sequence[int], relation: Optional[Iterable[tuple]] = None,
                 predicate: Optional[Predicate] = None, name: Optional[str] = None):
        self.scope = tuple(scope)
        if len(set(self.scope)) != len(self.scope):
            raise ValueError(f"duplicate variable in scope {self.scope}")
        if (relation is None) == (predicate is None):
            raise ValueError("constraint needs exactly one of relation/predicate")
        self.predicate = predicate
        if relation is not None:
            rel = sorted(set(tuple(t) for t in relation))
            for t in rel:
                if len(t) != len(self.scope):
                    raise ValueError(f"tuple arity {len(t)} != scope size {len(self.scope)}")
            self.relation: Optional[list] = rel
        else:
            self.relation = None
        self.name = name
        self.position = {x: i for i, x in enumerate(self.scope)}

    @property
    def arity(self) -> int:
        return len(self.scope)

    @property
    def is_extensional(self) -> bool:
        return self.relation is not None

    def __repr__(self):
        body = f"{len(self.relation)} tuples" if self.relation is not None else self.predicate.kind
        return f"Constraint({self.name or ''} scope={self.scope} {body})"


class Problem:
    """A non-binary CSP: named variables, labelled domains, constraints."""

    def __init__(self, variables: Sequence[str], domains: Sequence[Sequence],
                 constraints: Sequence[Constraint], name: str = ""):
        self.variables = list(variables)
        self.domains = [list(dom) for dom in domains]
        self.constraints = list(constraints)
        self.name = name
        if len(self.variables) != len(self.domains):
            raise ValueError("one domain per variable required")
        self.var_index = {v: i for i, v in enumerate(self.variables)}
        n = len(self.variables)
        for c in self.constraints:
            for x in c.scope:
                if not 0 <= x < n:
                    raise ValueError(f"scope variable {x} out of range")
            if c.relation is not None:
                for t in c.relation:
                    for pos, a in enumerate(t):
                        if not 0 <= a < len(self.domains[c.scope[pos]]):
                            raise ValueError(f"tuple value {a} outside domain of "
                                             f"{self.variables[c.scope[pos]]}")
        self.constraints_of_var = [[] for _ in range(n)]
        for ci, c in enumerate(self.constraints):
            for x in c.scope:
                self.constraints_of_var[x].append(ci)

    @property
    def n(self) -> int:
        return len(self.variables)

    def domain_size(self, x: int) -> int:
        return len(self.domains[x])

    def tuple_labels(self, c: Constraint, t: Sequence[int]) -> tuple:
        return tuple(self.domains[x][a] for x, a in zip(c.scope, t))

    def __repr__(self):
        return (f"Problem({self.name or 'unnamed'}: {self.n} vars, "
                f"{len(self.constraints)} constraints)")


class DomainState:
    """Current domains as membership masks plus live counts.

    Original variables always have a mask; dual variables (for encoded
    problems) get masks over their tuple lists. Removal is monotone within a
    propagation run. Search attaches a trail (a list) and every change goes
    through `remove_value`, `remove_tuple` or `set_slot`, which record it
    there; `undo` pops the trail back to a mark. The trail holds only those
    three entry kinds: ("ov", x, a), ("dt", v, idx) and (table, index, old).
    Counters derived from tuple liveness are not trailed: `undo` passes each
    restored tuple to a hook of the counters' owner, which re-derives them.
    """

    trail = None

    def __init__(self, masks, counts, dual_masks=None, dual_counts=None):
        self.masks = masks
        self.counts = counts
        self.dual_masks = dual_masks
        self.dual_counts = dual_counts

    @classmethod
    def full(cls, problem: Problem) -> "DomainState":
        masks = [bytearray([1]) * problem.domain_size(x) for x in range(problem.n)]
        counts = [problem.domain_size(x) for x in range(problem.n)]
        return cls(masks, counts)

    def add_duals(self, tuple_count_per_dual: Sequence[int]) -> None:
        self.dual_masks = [bytearray([1]) * m for m in tuple_count_per_dual]
        self.dual_counts = list(tuple_count_per_dual)

    def clone(self) -> "DomainState":
        """An untrailed copy of the domains."""
        dm = [bytearray(m) for m in self.dual_masks] if self.dual_masks is not None else None
        dc = list(self.dual_counts) if self.dual_counts is not None else None
        return DomainState([bytearray(m) for m in self.masks], list(self.counts), dm, dc)

    def live_values(self, x: int) -> list:
        mask = self.masks[x]
        return [a for a in range(len(mask)) if mask[a]]

    def live_tuples(self, v: int) -> list:
        mask = self.dual_masks[v]
        return [i for i in range(len(mask)) if mask[i]]

    def remove_value(self, x: int, a: int) -> None:
        if self.trail is not None:
            self.trail.append(("ov", x, a))
        self.masks[x][a] = 0
        self.counts[x] -= 1

    def remove_tuple(self, v: int, idx: int) -> None:
        if self.trail is not None:
            self.trail.append(("dt", v, idx))
        self.dual_masks[v][idx] = 0
        self.dual_counts[v] -= 1

    def set_slot(self, table, index, value) -> None:
        """table[index] = value, restored by `undo` (support pointers,
        assigned flags)."""
        if self.trail is not None:
            self.trail.append((table, index, table[index]))
        table[index] = value

    def undo(self, mark: int, tuple_restored=None) -> None:
        """Pop the trail back to `mark`, restoring what each entry changed;
        `tuple_restored(v, idx)` is called after each tuple comes back."""
        trail = self.trail
        masks, counts = self.masks, self.counts
        dual_masks, dual_counts = self.dual_masks, self.dual_counts
        while len(trail) > mark:
            head, i, j = trail.pop()
            if head == "dt":  # tuple j of dual i
                dual_masks[i][j] = 1
                dual_counts[i] += 1
                if tuple_restored is not None:
                    tuple_restored(i, j)
            elif head == "ov":  # value j of variable i
                masks[i][j] = 1
                counts[i] += 1
            else:  # head is a table, j the old value of its slot i
                head[i] = j

    def assign_value(self, x: int, a: int) -> list:
        """Restrict D(x) to {a}; returns the removed values."""
        removed = [b for b in range(len(self.masks[x])) if self.masks[x][b] and b != a]
        for b in removed:
            self.remove_value(x, b)
        return removed

    def domains_as_lists(self) -> list:
        return [self.live_values(x) for x in range(len(self.masks))]

    def dual_domains_as_lists(self) -> list:
        return [self.live_tuples(v) for v in range(len(self.dual_masks))]


def lex_compare(t1: Sequence[int], t2: Sequence[int]) -> int:
    """Total lexicographic order; returns -1, 0 or 1. Arities must match."""
    if len(t1) != len(t2):
        raise ValueError(f"arity mismatch: {len(t1)} vs {len(t2)}")
    for a, b in zip(t1, t2):
        if a < b:
            return -1
        if a > b:
            return 1
    return 0


def project(t: Sequence[int], scope: Sequence[int], sub: Sequence[int]) -> tuple:
    """Sub-tuple of t at the positions of sub (in sub's order)."""
    position = {x: i for i, x in enumerate(scope)}
    try:
        return tuple(t[position[x]] for x in sub)
    except KeyError as e:
        raise ValueError(f"variable {e.args[0]} not in scope {tuple(scope)}") from None


def check_tuple(problem: Problem, c: Constraint, t: Sequence[int],
                counters: Optional[Counters] = None) -> bool:
    """One consistency check: is t allowed by c? Counts one tuple check."""
    if counters is not None:
        counters.checks += 1
    t = tuple(t)
    if len(t) != c.arity:
        raise ValueError(f"tuple arity {len(t)} != constraint arity {c.arity}")
    if c.relation is not None:
        rel = c.relation
        i = bisect_left(rel, t)
        return i < len(rel) and rel[i] == t
    return c.predicate.holds(problem.tuple_labels(c, t))


def is_valid(t: Sequence[int], scope: Sequence[int], state: DomainState,
             counters: Optional[Counters] = None, skip_pos: Optional[int] = None) -> bool:
    """Positional validity: every value of t live in its variable's domain.

    Costs one micro-op per position probed; callers that already know one
    position holds (a support search for that position) pass skip_pos.
    """
    masks = state.masks
    for pos, x in enumerate(scope):
        if pos == skip_pos:
            continue
        if counters is not None:
            counters.microops += 1
        if not masks[x][t[pos]]:
            return False
    return True


def expand_predicate(problem: Problem, c: Constraint,
                     budget: int = DEFAULT_EXPANSION_BUDGET) -> list:
    """All satisfying tuples of a predicate constraint over the initial
    domains, sorted lexicographically.

    Separation-style kinds are generated by pruned depth-first search so
    tight constraints never enumerate the full cross product; everything else
    enumerates d^k, which must fit the budget.
    """
    if c.predicate is None:
        raise ValueError("constraint is already extensional")
    pred = c.predicate
    doms = [problem.domains[x] for x in c.scope]
    sizes = [len(d) for d in doms]
    k = len(sizes)

    if pred.kind in ("separation", "rich_separation"):
        out = []
        labels = [None] * k

        def rec(pos, prefix):
            if len(out) > budget:
                raise CapacityError(
                    f"expansion of {pred.kind} constraint exceeded budget {budget}")
            if pos == k:
                out.append(tuple(prefix))
                return
            for a in range(sizes[pos]):
                prefix.append(a)
                labels[pos] = doms[pos][a]
                if pred.partial_ok(labels, pos + 1):
                    rec(pos + 1, prefix)
                prefix.pop()

        rec(0, [])
        return out

    space = 1
    for s in sizes:
        space *= s
        if space > budget:
            raise CapacityError(
                f"expansion space {'x'.join(map(str, sizes))} exceeds budget {budget}")
    out = []
    for t in itertools.product(*(range(s) for s in sizes)):
        if pred.holds(tuple(doms[pos][a] for pos, a in enumerate(t))):
            out.append(t)
    return out


def materialize(problem: Problem, c: Constraint,
                budget: int = DEFAULT_EXPANSION_BUDGET) -> list:
    """The constraint's relation as a sorted tuple list (expanding if needed)."""
    if c.relation is not None:
        return c.relation
    return expand_predicate(problem, c, budget)


def enumerate_solutions(problem: Problem, limit: Optional[int] = None,
                        bound: int = DEFAULT_ENUMERATION_BOUND) -> list:
    """Brute-force oracle: every consistent full assignment in lexicographic
    assignment order, as tuples of value indices.

    Backtracks over variables in index order, checking each constraint as
    soon as its scope is fully assigned. Refuses instances whose domain
    product exceeds the bound.
    """
    space = 1
    for x in range(problem.n):
        space *= problem.domain_size(x)
        if space > bound:
            raise CapacityError(f"domain product exceeds enumeration bound {bound}")

    ext_sets = []
    for c in problem.constraints:
        ext_sets.append(set(c.relation) if c.relation is not None else None)

    by_last_var = [[] for _ in range(problem.n)]
    for ci, c in enumerate(problem.constraints):
        if c.scope:
            by_last_var[max(c.scope)].append(ci)

    solutions = []
    assignment = [0] * problem.n
    n = problem.n

    def ok_at(x):
        for ci in by_last_var[x]:
            c = problem.constraints[ci]
            t = tuple(assignment[y] for y in c.scope)
            if ext_sets[ci] is not None:
                if t not in ext_sets[ci]:
                    return False
            elif not c.predicate.holds(problem.tuple_labels(c, t)):
                return False
        return True

    def rec(x):
        if x == n:
            solutions.append(tuple(assignment))
            return limit is not None and len(solutions) >= limit
        for a in range(problem.domain_size(x)):
            assignment[x] = a
            if ok_at(x) and rec(x + 1):
                return True
        return False

    rec(0)
    return solutions


def _has_support(problem: Problem, c: Constraint, rel, pos: int, a: int,
                 state: DomainState) -> bool:
    for t in rel:
        if t[pos] != a:
            continue
        if all(state.masks[x][t[p]] for p, x in enumerate(c.scope)):
            return True
    return False


def ac1_fixpoint(target, state: Optional[DomainState] = None,
                 constraint_order: Optional[Sequence[int]] = None,
                 budget: int = DEFAULT_EXPANSION_BUDGET):
    """Naive iterate-until-stable (generalized) arc consistency oracle.

    Accepts a Problem (GAC over the original constraints) or an
    EncodedProblem (AC over its binary constraint views). Returns
    (consistent, state). Order-independent at the fixpoint; constraint_order
    only shuffles sweep order for confluence tests.
    """
    from . import encode as _encode  # local import to avoid a cycle

    if isinstance(target, _encode.EncodedProblem):
        return _ac1_encoded(target, state)

    problem: Problem = target
    if state is None:
        state = DomainState.full(problem)
    rels = [materialize(problem, c, budget) for c in problem.constraints]
    order = list(constraint_order) if constraint_order is not None else list(
        range(len(problem.constraints)))

    changed = True
    while changed:
        changed = False
        for ci in order:
            c = problem.constraints[ci]
            rel = rels[ci]
            for pos, x in enumerate(c.scope):
                for a in state.live_values(x):
                    if not _has_support(problem, c, rel, pos, a, state):
                        state.remove_value(x, a)
                        changed = True
                        if state.counts[x] == 0:
                            return False, state
    return True, state


def _ac1_encoded(enc, state):
    if state is None:
        state = enc.fresh_state()
    # projections on the shared variables, computed here, not read from the pairs
    keys = [([tuple(t[p] for p in pair.pos1) for t in enc.duals[pair.v1].tuples],
             [tuple(t[p] for p in pair.pos2) for t in enc.duals[pair.v2].tuples])
            for pair in enc.dual_pairs]
    changed = True
    while changed:
        changed = False
        # hidden constraints: original value <-> dual tuple projection
        for (v, x, pos) in enc.hidden:
            dmask = state.dual_masks[v]
            tuples = enc.duals[v].tuples
            for a in state.live_values(x):
                if not any(dmask[i] and tuples[i][pos] == a for i in range(len(tuples))):
                    state.remove_value(x, a)
                    changed = True
                    if state.counts[x] == 0:
                        return False, state
            xmask = state.masks[x]
            for i in range(len(tuples)):
                if dmask[i] and not xmask[tuples[i][pos]]:
                    state.remove_tuple(v, i)
                    changed = True
            if state.dual_counts[v] == 0:
                return False, state
        # dual-dual constraints: equal projection on the shared variables
        for pair, (keys1, keys2) in zip(enc.dual_pairs, keys):
            for (vi, vj, keys_i, keys_j) in ((pair.v1, pair.v2, keys1, keys2),
                                             (pair.v2, pair.v1, keys2, keys1)):
                mask_i, mask_j = state.dual_masks[vi], state.dual_masks[vj]
                live_peer_keys = {keys_j[t] for t in range(len(mask_j)) if mask_j[t]}
                for t in range(len(mask_i)):
                    if mask_i[t] and keys_i[t] not in live_peer_keys:
                        state.remove_tuple(vi, t)
                        changed = True
                if state.dual_counts[vi] == 0:
                    return False, state
    return True, state


def solution_check(problem: Problem, assignment: Sequence[int]) -> bool:
    """Does a full assignment (value indices) satisfy every constraint?"""
    for c in problem.constraints:
        t = tuple(assignment[x] for x in c.scope)
        if c.relation is not None:
            rel = c.relation
            i = bisect_left(rel, t)
            if i >= len(rel) or rel[i] != t:
                return False
        elif not c.predicate.holds(problem.tuple_labels(c, t)):
            return False
    return True
