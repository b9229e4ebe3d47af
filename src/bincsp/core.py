"""Core problem model: variables, constraints, tuple algebra and brute-force oracles.

Values are dense indices 0..d-1 per variable; external labels (letters,
frequencies) live in the per-variable label list. Extensional relations are
kept sorted lexicographically with no duplicates, and every predicate can be
expanded to that form over the initial domains.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence


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
    records one entry per value whose AC-2001 support was searched.
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

    The two separation kinds are gap kinds: a tuple holds iff every pair of
    positions i < j is more than gaps(k)[i][j] apart, where the k x k
    minimum-gap table (s, or s2 when i or j is in `subset`) is built once
    for the constraint's arity. `holds` reads the table directly; expansion
    and support search read it through the byte-lane rows of `GapRows`.
    """

    KINDS = ("linear", "separation", "rich_separation", "not_all_equal", "parity_neq")
    GAP_KINDS = ("separation", "rich_separation")

    def __init__(self, kind: str, **params):
        if kind not in self.KINDS:
            raise ValueError(f"unknown predicate kind: {kind!r}")
        self.kind = kind
        self.params = params
        self._gaps = None
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

    def gaps(self, k: int) -> Optional[tuple]:
        """The k x k minimum-gap table of a gap kind (None for other kinds):
        positions i != j must be more than table[i][j] apart.

        The table is kept for the arity last asked for, which is that of the
        predicate's constraint. It holds at most two distinct row tuples
        (the row of a position in `subset` is all s2), so the tables of a
        problem stay small for as long as it lives.
        """
        if self.kind not in self.GAP_KINDS:
            return None
        table = self._gaps
        if table is None or len(table) != k:
            if self.kind == "separation":
                table = ((self.s,) * k,) * k
            else:
                strong = set(self.subset)
                full = (self.s2,) * k
                weak = tuple(self.s2 if j in strong else self.s for j in range(k))
                table = tuple(full if i in strong else weak for i in range(k))
            self._gaps = table
        return table

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
        if kind in self.GAP_KINDS:
            k = len(values)
            gaps = self.gaps(k)
            for i in range(k):
                vi, row = values[i], gaps[i]
                for j in range(i + 1, k):
                    if abs(vi - values[j]) <= row[j]:
                        return False
            return True
        if kind == "not_all_equal":
            first = values[0]
            return any(v != first for v in values[1:])
        # parity_neq
        (a0, a1), (b0, b1) = self.pairs
        return (values[a0] + values[a1]) % 2 != (values[b0] + values[b1]) % 2

    def key(self) -> tuple:
        """The kind and parameters, hashable; `subset` is order-free."""
        if self.kind == "linear":
            return (self.kind, self.coeffs, self.rel, self.const)
        if self.kind == "separation":
            return (self.kind, self.s)
        if self.kind == "rich_separation":
            return (self.kind, self.s, self.s2, frozenset(self.subset))
        if self.kind == "parity_neq":
            return (self.kind, self.pairs)
        return (self.kind,)

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
    through `remove_value`, `remove_tuples` or `set_slot`, which record it
    there; `undo` pops the trail back to a mark. The trail holds only those
    three entry kinds: ("ov", x, a), ("dt", v, idxs) and (table, index,
    old), where idxs is one batch of tuples of dual v deleted together.
    Counters derived from tuple liveness are not trailed: `undo` passes each
    restored batch to a hook of the counters' owner, which re-derives them.
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

    def live_values(self, x: int) -> list:
        mask = self.masks[x]
        return list(itertools.compress(range(len(mask)), mask))

    def live_tuples(self, v: int) -> list:
        mask = self.dual_masks[v]
        return list(itertools.compress(range(len(mask)), mask))

    def remove_value(self, x: int, a: int) -> None:
        if self.trail is not None:
            self.trail.append(("ov", x, a))
        self.masks[x][a] = 0
        self.counts[x] -= 1

    def remove_tuples(self, v: int, idxs: Sequence[int]) -> None:
        """Delete the live tuples idxs of dual v as one trail entry."""
        if self.trail is not None:
            self.trail.append(("dt", v, idxs))
        mask = self.dual_masks[v]
        for idx in idxs:
            mask[idx] = 0
        self.dual_counts[v] -= len(idxs)

    def set_slot(self, table, index, value) -> None:
        """table[index] = value, restored by `undo` (support pointers,
        assigned flags)."""
        if self.trail is not None:
            self.trail.append((table, index, table[index]))
        table[index] = value

    def undo(self, mark: int, restore_tuples=None) -> None:
        """Pop the trail back to `mark`, restoring what each entry changed;
        `restore_tuples(v, idxs)` is called after each batch comes back."""
        trail = self.trail
        masks, counts = self.masks, self.counts
        dual_masks, dual_counts = self.dual_masks, self.dual_counts
        while len(trail) > mark:
            head, i, j = trail.pop()
            if head == "dt":  # the batch j of tuples of dual i
                mask = dual_masks[i]
                for idx in j:
                    mask[idx] = 1
                dual_counts[i] += len(j)
                if restore_tuples is not None:
                    restore_tuples(i, j)
            elif head == "ov":  # value j of variable i
                masks[i][j] = 1
                counts[i] += 1
            else:  # head is a table, j the old value of its slot i
                head[i] = j

    def domains_as_lists(self) -> list:
        return [self.live_values(x) for x in range(len(self.masks))]

    def dual_domains_as_lists(self) -> list:
        return [self.live_tuples(v) for v in range(len(self.dual_masks))]


def project(t: Sequence[int], scope: Sequence[int], sub: Sequence[int]) -> tuple:
    """Sub-tuple of t at the positions of sub (in sub's order)."""
    position = {x: i for i, x in enumerate(scope)}
    try:
        return tuple(t[position[x]] for x in sub)
    except KeyError as e:
        raise ValueError(f"variable {e.args[0]} not in scope {tuple(scope)}") from None


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


def value_index(tuples: Sequence[tuple], sizes: Iterable[int]) -> list:
    """index[pos][a]: the ascending indices of the tuples holding value a at
    position pos, for positions of the given domain sizes."""
    index = [[[] for _ in range(size)] for size in sizes]
    for idx, t in enumerate(tuples):
        for pos, a in enumerate(t):
            index[pos][a].append(idx)
    return index


class GapTables(NamedTuple):
    """The `GapRows` rows one gap-kind constraint reads.

    later[i][m] maps a label of position i to its row over position i + 1 +
    m's values; `pair` is the `GapPair` of the last two positions (None
    below arity 2)."""

    later: list
    pair: Optional["GapPair"]


class GapRows:
    """Byte-lane compatibility rows of the gap kinds, built on demand, and
    the relations expanded in one run.

    For a position's label list `labels`, a gap g and a label l of another
    position, the row is an int with one byte per value index v of the
    position, byte v (bits 8v..8v+7) being 1 when |labels[v] - l| > g and 0
    otherwise. `int.from_bytes(mask, "little") & row` then holds the live
    values far enough from l, one byte each, which relies on domain masks
    holding only 0 and 1 bytes; an empty candidate set is the int 0, and
    `int.bit_count` counts a set's values.

    Rows are keyed by label content and gap, so every constraint whose
    positions carry the same labels reads the same rows. The last two
    positions of a constraint read one `GapPair`, keyed by both label lists
    and their gap, with the unions and selections it keeps. `relations`
    maps a predicate's `key()` and the label lists of its scope to the
    tuple list `expand_predicate` made for them, so equal relations are
    expanded once. One object serves one run (an encoding build, one
    GAC-2001 engine) and nothing is stored on the problem, its constraints
    or its predicates: each run builds the rows it reads.
    """

    def __init__(self):
        self._rows = {}
        self._pairs = {}
        self.relations = {}

    def _by_label(self, labels: tuple, gap) -> "_RowsByLabel":
        key = (labels, gap)
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = _RowsByLabel(labels, gap)
        return rows

    def tables(self, problem: Problem, c: Constraint) -> Optional[GapTables]:
        """The rows a gap-kind constraint reads (None for other kinds): the
        rows of position j read by a label of position i < j sit at
        later[i][j - i - 1], at gap gaps(k)[i][j]."""
        gaps = c.predicate.gaps(c.arity) if c.predicate is not None else None
        if gaps is None:
            return None
        labels = [tuple(problem.domains[x]) for x in c.scope]
        k = len(labels)
        later = [[self._by_label(labels[j], gaps[i][j]) for j in range(i + 1, k)]
                 for i in range(k)]
        pair = None
        if k >= 2:
            key = (labels[k - 2], labels[k - 1], gaps[k - 2][k - 1])
            pair = self._pairs.get(key)
            if pair is None:
                pair = self._pairs[key] = GapPair(
                    self._by_label(labels[k - 2], key[2]), later[k - 2][0])
        return GapTables(later, pair)


class _RowsByLabel(dict):
    """label -> byte-lane row over `labels` at `gap`, built on first read."""

    def __init__(self, labels: tuple, gap):
        super().__init__()
        self.labels = labels
        self.gap = gap

    def __missing__(self, label):
        gap = self.gap
        row = int.from_bytes(bytes([label - b > gap or b - label > gap
                                    for b in self.labels]), "little")
        self[label] = row
        return row


def _column(values: list, size: int):
    """Value indices of a domain of `size` values: bytes up to 256 values,
    array('H') beyond."""
    return bytes(values) if size <= 256 else array("H", values)


def _pick(column, cand: int, size: int) -> bytes:
    """Byte i is 1 when column[i] is in the byte-lane set `cand` of a domain
    of `size` values."""
    flags = cand.to_bytes(size, "little")
    if size <= 256:
        return column.translate(flags + bytes(256 - size))
    return bytes(map(flags.__getitem__, column))


class GapPair:
    """The last two positions p and q of a gap-kind constraint at their gap.

    `back` maps a label of q to its row over p's values and `fwd` a label of
    p to its row over q's values (the gap is symmetric). `table` lists the
    compatible index pairs (a, b) in lexicographic order, with a byte column
    of a's and one of b's; `select` picks from it the pairs whose a and b are
    both candidates, and `union` is the set of p's values compatible with
    some value of a set of q's. Both are kept per argument, on this object
    only: a `GapPair` belongs to one `GapRows`, so to one run.
    """

    def __init__(self, back: _RowsByLabel, fwd: _RowsByLabel):
        self.back = back
        self.fwd = fwd
        self._unions = {}
        self._selections = {}

    @cached_property
    def table(self) -> tuple:
        back, fwd = self.back, self.fwd
        size_q = len(fwd.labels)
        pairs = [(a, b) for a, label in enumerate(back.labels)
                 for b in itertools.compress(range(size_q),
                                             fwd[label].to_bytes(size_q, "little"))]
        return (pairs, _column([a for a, _ in pairs], len(back.labels)),
                _column([b for _, b in pairs], size_q))

    def select(self, cand_p: int, cand_q: int) -> list:
        """The pairs (a, b) of `table` with a in cand_p and b in cand_q, in
        order. The list is kept per (cand_p, cand_q) and must not be
        modified."""
        key = (cand_p, cand_q)
        selected = self._selections.get(key)
        if selected is None:
            pairs, col_a, col_b = self.table
            picked = (int.from_bytes(_pick(col_a, cand_p, len(self.back.labels)), "little")
                      & int.from_bytes(_pick(col_b, cand_q, len(self.fwd.labels)), "little"))
            selected = self._selections[key] = list(
                itertools.compress(pairs, picked.to_bytes(len(pairs), "little")))
        return selected

    def union(self, cand_q: int) -> int:
        """The OR of the back rows of the labels of cand_q's values."""
        union = self._unions.get(cand_q)
        if union is None:
            back, labels = self.back, self.fwd.labels
            union = 0
            for b in itertools.compress(range(len(labels)),
                                        cand_q.to_bytes(len(labels), "little")):
                union |= back[labels[b]]
            self._unions[cand_q] = union
        return union


def expand_predicate(problem: Problem, c: Constraint,
                     budget: int = DEFAULT_EXPANSION_BUDGET,
                     rows: Optional[GapRows] = None) -> list:
    """All satisfying tuples of a predicate constraint over the initial
    domains, sorted lexicographically.

    With `rows`, the run's expansions are shared: a relation already in
    `rows.relations` is returned as that same list, after the budget test
    its expansion would have made. Without it, rows are built for this call.

    Gap kinds (the separations) are generated by a forward-filtering
    depth-first search, so tight constraints never enumerate the full cross
    product: each level keeps, for every later position, the byte-lane set
    of its values still far enough from the values placed so far (ANDed
    with the placed label's `GapRows` row, and dropped when it reaches 0).
    The search stops at position k - 2 and emits the last two positions of
    each prefix in one batch, `GapPair.select` over their candidate sets,
    which selects each pair of sets once per `rows`.
    More than `budget` tuples raise CapacityError. Every other kind
    enumerates d^k, which must fit the budget.
    """
    if c.predicate is None:
        raise ValueError("constraint is already extensional")
    pred = c.predicate
    doms = [problem.domains[x] for x in c.scope]
    sizes = [len(d) for d in doms]
    gap_kind = pred.kind in Predicate.GAP_KINDS
    if not gap_kind:
        space = 1
        for s in sizes:
            space *= s
            if space > budget:
                raise CapacityError(
                    f"expansion space {'x'.join(map(str, sizes))} exceeds budget {budget}")
    if rows is None:
        rows = GapRows()
    key = (pred.key(), tuple(tuple(d) for d in doms))
    out = rows.relations.get(key)
    if out is None:
        if gap_kind:
            out = _expand_gaps(doms, sizes, rows.tables(problem, c), budget, pred.kind)
        else:
            out = [t for t in itertools.product(*(range(s) for s in sizes))
                   if pred.holds(tuple(doms[pos][a] for pos, a in enumerate(t)))]
        rows.relations[key] = out
    if len(out) > budget:
        raise CapacityError(f"expansion of {pred.kind} constraint exceeded budget {budget}")
    return out


def _expand_gaps(doms, sizes, tables: GapTables, budget: int, kind: str) -> list:
    """The gap-kind search of `expand_predicate`, which raises as soon as
    it has more than `budget` tuples."""
    k = len(sizes)
    if k < 2:
        return [()] if k == 0 else [(a,) for a in range(sizes[0])]
    out = []
    stop, later, select = k - 2, tables.later, tables.pair.select

    def rec(pos, prefix, cands):
        # cands[j] is the byte-lane candidate set of position pos + j
        if pos == stop:
            out.extend(map(prefix.__add__, select(*cands)))
            if len(out) > budget:
                raise CapacityError(
                    f"expansion of {kind} constraint exceeded budget {budget}")
            return
        size = sizes[pos]
        dom, rows_later = doms[pos], later[pos]
        for a in itertools.compress(range(size), cands[0].to_bytes(size, "little")):
            label = dom[a]
            kept = []
            for cand, by_label in zip(cands[1:], rows_later):
                cand &= by_label[label]
                if cand == 0:
                    break
                kept.append(cand)
            else:
                rec(pos + 1, prefix + (a,), kept)

    rec(0, (), [int.from_bytes(b"\x01" * size, "little") for size in sizes])
    return out


def materialize(problem: Problem, c: Constraint,
                budget: int = DEFAULT_EXPANSION_BUDGET,
                rows: Optional[GapRows] = None) -> list:
    """The constraint's relation as a sorted tuple list (expanding if needed,
    reading gap rows and the run's expansions from `rows` when given)."""
    if c.relation is not None:
        return c.relation
    return expand_predicate(problem, c, budget, rows)


def enumerate_solutions(problem: Problem, limit: Optional[int] = None,
                        bound: int = DEFAULT_ENUMERATION_BOUND) -> list:
    """Brute-force oracle: every consistent full assignment in lexicographic
    assignment order, as tuples of value indices.

    Backtracks over variables in index order, checking each constraint as
    soon as its scope is fully assigned. Refuses instances whose domain
    product exceeds the bound, and a limit below 1.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"solution limit must be at least 1, got {limit}")
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
    (consistent, state). An original or dual domain that is empty from the
    start is a wipe-out, even that of a variable in no constraint.
    Order-independent at the fixpoint; constraint_order only shuffles sweep
    order for confluence tests.
    """
    from . import encode as _encode  # local import to avoid a cycle

    encoded = isinstance(target, _encode.EncodedProblem)
    if state is None:
        state = target.fresh_state() if encoded else DomainState.full(target)
    if not (all(state.counts) and all(state.dual_counts or ())):
        return False, state
    if encoded:
        return _ac1_encoded(target, state)

    problem: Problem = target
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
                    state.remove_tuples(v, (i,))
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
                        state.remove_tuples(vi, (t,))
                        changed = True
                if state.dual_counts[vi] == 0:
                    return False, state
    return True, state


def solution_check(problem: Problem, assignment: Sequence[int]) -> bool:
    """Does a full assignment (value indices) satisfy every constraint? An
    assignment of the wrong length or with a value outside its variable's
    domain does not."""
    if len(assignment) != problem.n or not all(
            0 <= a < problem.domain_size(x) for x, a in enumerate(assignment)):
        return False
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
