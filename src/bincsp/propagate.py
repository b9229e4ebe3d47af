"""Arc consistency engines: GAC-2001, HAC, AC-2001 and PW-AC.

Counting discipline shared by GAC-2001 and HAC: a support search scans the
sorted tuple list from the stored pointer onward and every scanned index is
one tuple check; testing the stored support itself costs micro-ops only.
The two engines therefore differ in micro-ops (per-position probes vs one
dual-domain lookup) but never in checks, which is what the check-count
comparisons rely on. PW-AC performs no tuple checks at all: its work is
counter updates.

AC-2001 on the binary views finds supports by index but counts checks and
micro-ops exactly as the lexicographic scan would (see `Ac2001`), which
relies on domain masks holding only 0 and 1 bytes.

Propagation on the double encoding (PW-AC between duals plus the rule that
an original value dies with its last supporting tuple) is
`search.DoubleEngine`; `search.double_ac` is its root-only call. This module
supplies its parts: `Hac`, `PwAc`, `ValueSupports` and, for hybrids,
`Gac2001`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, islice
from typing import Iterable, Optional, Sequence

from .core import Counters, DomainState, Problem, is_valid
from .encode import DE, EncodedProblem

CONSISTENT = "CONSISTENT"
INCONSISTENT = "INCONSISTENT"


@dataclass
class PropagationResult:
    consistent: bool
    state: DomainState
    counters: Counters

    @property
    def verdict(self) -> str:
        return CONSISTENT if self.consistent else INCONSISTENT


class _Queue:
    """LIFO stack implemented as a set: pushing a queued item is a no-op."""

    def __init__(self, seed: Iterable = ()):
        self.items = []
        self.member = set()
        for it in seed:
            self.push(it)

    def push(self, item) -> None:
        if item not in self.member:
            self.member.add(item)
            self.items.append(item)

    def pop(self):
        item = self.items.pop()
        self.member.remove(item)
        return item

    def __bool__(self):
        return bool(self.items)


# ---------------------------------------------------------------------------
# GAC-2001 on the non-binary representation


class GacSupports:
    """currentSupport pointers for extensional constraints plus last-support
    tuples for predicate constraints."""

    def __init__(self, problem: Problem):
        self.ext = []
        self.pred = []
        for c in problem.constraints:
            if c.relation is not None:
                self.ext.append([[-1] * problem.domain_size(x) for x in c.scope])
                self.pred.append(None)
            else:
                self.ext.append(None)
                self.pred.append([[None] * problem.domain_size(x) for x in c.scope])


def _scan_extension(rel, pos, a, start, accept, counters):
    """Lexicographic support scan; every scanned index is one tuple check."""
    for idx in range(start, len(rel)):
        counters.checks += 1
        t = rel[idx]
        if t[pos] != a:
            continue
        if accept(idx, t):
            return idx
    return -1


def _pred_enum(problem, c, pos, a, state, after, tight0, counters):
    """Lex-smallest valid satisfying tuple of a predicate constraint with
    value a at position pos (pos < 0: unconstrained), strictly after `after`
    when tight0 is set. Each completed candidate evaluated is one check."""
    pred = c.predicate
    doms = [problem.domains[x] for x in c.scope]
    sizes = [len(d) for d in doms]
    k = len(sizes)
    masks = state.masks
    scope = c.scope
    labels = [None] * k
    prefix = []

    def rec(depth, tight):
        if depth == k:
            if tight:
                return None  # equal to `after`; we need strictly greater
            counters.checks += 1
            if pred.holds(labels):
                return tuple(prefix)
            return None
        lo = after[depth] if tight else 0
        for v in range(lo, sizes[depth]):
            counters.microops += 1
            if depth == pos and v != a:
                continue
            if not masks[scope[depth]][v]:
                continue
            prefix.append(v)
            labels[depth] = doms[depth][v]
            res = None
            if pred.partial_ok(labels, depth + 1):
                res = rec(depth + 1, tight and v == lo)
            prefix.pop()
            if res is not None:
                return res
        return None

    return rec(0, tight0)


def constraint_has_valid_tuple(problem, c, rel, state, counters=None) -> bool:
    """Any valid tuple left in the constraint? Micro-op cost only."""
    if rel is not None:
        masks = state.masks
        for t in rel:
            if counters is not None:
                counters.microops += 1
            if all(masks[x][t[p]] for p, x in enumerate(c.scope)):
                return True
        return False
    cnt = counters if counters is not None else Counters()
    return _pred_enum(problem, c, -1, -1, state, (-1,) * c.arity, False, cnt) is not None


class Gac2001:
    """Constraint-queue GAC-2001. Does not maintain tuple liveness; validity
    is per-position work.

    `remove_value(state, x, a)`, if given, replaces the default removal of a
    value that lost its support (the double encoding passes one that also
    deletes the tuples carrying the value); `remove` holds the one in use.
    """

    def __init__(self, problem: Problem, counters: Optional[Counters] = None,
                 supports: Optional[GacSupports] = None, trail=None,
                 remove_value=None):
        self.problem = problem
        self.counters = counters if counters is not None else Counters()
        self.supports = supports if supports is not None else GacSupports(problem)
        self.rels = [c.relation for c in problem.constraints]
        self.trail = trail
        self.remove = remove_value if remove_value is not None else self.remove_value

    def _set_ext_pointer(self, ci, pos, a, idx):
        table = self.supports.ext[ci]
        if self.trail is not None:
            self.trail.append(("gs", ci, pos, a, table[pos][a]))
        table[pos][a] = idx

    def _set_pred_pointer(self, ci, pos, a, t):
        table = self.supports.pred[ci]
        if self.trail is not None:
            self.trail.append(("gp", ci, pos, a, table[pos][a]))
        table[pos][a] = t

    def revise_arc(self, ci: int, pos: int, state: DomainState) -> bool:
        """Revise one (variable, constraint) arc; True if a value was deleted."""
        problem, counters = self.problem, self.counters
        c = problem.constraints[ci]
        x = c.scope[pos]
        rel = self.rels[ci]
        deleted = False
        for a in state.live_values(x):
            if rel is not None:
                ptr = self.supports.ext[ci][pos][a]
                if ptr >= 0 and is_valid(rel[ptr], c.scope, state, counters, skip_pos=pos):
                    continue
                idx = _scan_extension(
                    rel, pos, a, ptr + 1,
                    lambda i, t: is_valid(t, c.scope, state, counters, skip_pos=pos),
                    counters)
                if idx >= 0:
                    self._set_ext_pointer(ci, pos, a, idx)
                    continue
            else:
                last = self.supports.pred[ci][pos][a]
                if last is not None and is_valid(last, c.scope, state, counters, skip_pos=pos):
                    continue
                t = _pred_enum(problem, c, pos, a, state, last or (-1,) * c.arity,
                               last is not None, counters)
                if t is not None:
                    self._set_pred_pointer(ci, pos, a, t)
                    continue
            self.remove(state, x, a)
            deleted = True
        return deleted

    def remove_value(self, state, x, a):
        if self.trail is not None:
            self.trail.append(("ov", x, a))
        state.remove_value(x, a)
        self.counters.value_removals += 1

    def run(self, state: DomainState, queue_seed: Optional[Iterable[int]] = None,
            assigned: Optional[Sequence[bool]] = None,
            constraint_subset: Optional[Sequence[int]] = None) -> bool:
        problem = self.problem
        ids = list(constraint_subset) if constraint_subset is not None else list(
            range(len(problem.constraints)))
        idset = set(ids)
        queue = _Queue()

        def push_constraints_of(x):
            for cj in problem.constraints_of_var[x]:
                if cj in idset:
                    queue.push(cj)

        if queue_seed is None:
            for ci in ids:
                c = problem.constraints[ci]
                for pos, x in enumerate(c.scope):
                    if assigned is not None and assigned[x]:
                        continue
                    if self.revise_arc(ci, pos, state):
                        if state.counts[x] == 0:
                            return False
                        push_constraints_of(x)
        else:
            for ci in queue_seed:
                if ci in idset:
                    queue.push(ci)

        while queue:
            ci = queue.pop()
            c = problem.constraints[ci]
            for pos, x in enumerate(c.scope):
                if assigned is not None and assigned[x]:
                    continue
                if self.revise_arc(ci, pos, state):
                    if state.counts[x] == 0:
                        return False
                    push_constraints_of(x)
        return True


def gac2001(problem: Problem, state: Optional[DomainState] = None,
            queue_seed: Optional[Iterable[int]] = None,
            counters: Optional[Counters] = None,
            assigned: Optional[Sequence[bool]] = None) -> PropagationResult:
    """GAC fixpoint on the non-binary representation (GAC-2001)."""
    if state is None:
        state = DomainState.full(problem)
    engine = Gac2001(problem, counters)
    ok = engine.run(state, queue_seed, assigned)
    return PropagationResult(ok, state, engine.counters)


# ---------------------------------------------------------------------------
# HAC on the hidden variable encoding


class Hac:
    """HAC: GAC-2001 adapted to the HVE. Tuple validity is a dual-domain
    lookup and value deletions eagerly delete the tuples carrying them from
    every adjacent dual variable, reporting a dual wipeout at once.

    `delete_value(state, x, a) -> bool`, if given, replaces that deletion
    (the double encoding passes one that maintains its group counters);
    `delete` holds the deletion in use.
    """

    def __init__(self, enc: EncodedProblem, counters: Optional[Counters] = None,
                 supports=None, trail=None, delete_value=None):
        self.enc = enc
        self.counters = counters if counters is not None else Counters()
        if supports is None:
            sizes = [enc.problem.domain_size(x) for x in range(enc.problem.n)]
            supports = [[[-1] * sizes[x] for x in v.scope] for v in enc.duals]
        self.supports = supports
        self.trail = trail
        self.delete = delete_value if delete_value is not None else self.delete_value

    def _set_pointer(self, v, pos, a, idx):
        if self.trail is not None:
            self.trail.append(("hs", v, pos, a, self.supports[v][pos][a]))
        self.supports[v][pos][a] = idx

    def delete_value(self, state: DomainState, x: int, a: int) -> bool:
        """Remove a from D(x) and every tuple carrying it; False on dual wipeout."""
        enc, counters = self.enc, self.counters
        if self.trail is not None:
            self.trail.append(("ov", x, a))
        state.remove_value(x, a)
        counters.value_removals += 1
        ok = True
        for v_l in enc.duals_of_var[x]:
            dual = enc.duals[v_l]
            mask = state.dual_masks[v_l]
            for idx in dual.tuples_by_pos_val[dual.position[x]][a]:
                counters.microops += 1
                if mask[idx]:
                    if self.trail is not None:
                        self.trail.append(("dt", v_l, idx))
                    mask[idx] = 0
                    state.dual_counts[v_l] -= 1
                    counters.tuple_removals += 1
            if state.dual_counts[v_l] == 0:
                ok = False
        return ok

    def revise_arc(self, x: int, v: int, state: DomainState):
        """Revise original x against dual v. Returns (deleted, wiped)."""
        enc, counters = self.enc, self.counters
        dual = enc.duals[v]
        pos = dual.position[x]
        tuples = dual.tuples
        dmask = state.dual_masks[v]
        deleted = False

        def accept(i, t):
            counters.microops += 1
            return dmask[i]

        for a in state.live_values(x):
            ptr = self.supports[v][pos][a]
            if ptr >= 0:
                counters.microops += 1
                if dmask[ptr]:
                    continue
            idx = _scan_extension(tuples, pos, a, ptr + 1, accept, counters)
            if idx >= 0:
                self._set_pointer(v, pos, a, idx)
                continue
            deleted = True
            if not self.delete(state, x, a):
                return True, True
        return deleted, False

    def run(self, state: DomainState, queue_seed: Optional[Iterable[int]] = None,
            assigned: Optional[Sequence[bool]] = None,
            dual_subset: Optional[Sequence[int]] = None) -> bool:
        enc = self.enc
        ids = list(dual_subset) if dual_subset is not None else [v.id for v in enc.duals]
        idset = set(ids)
        queue = _Queue()

        def push_duals_of(x):
            for v_l in enc.duals_of_var[x]:
                if v_l in idset:
                    queue.push(v_l)

        if any(state.dual_counts[v] == 0 for v in ids):
            return False

        if queue_seed is None:
            for v in ids:
                for x in enc.duals[v].scope:
                    if assigned is not None and assigned[x]:
                        continue
                    deleted, wiped = self.revise_arc(x, v, state)
                    if wiped:
                        return False
                    if deleted:
                        if state.counts[x] == 0:
                            return False
                        push_duals_of(x)
        else:
            for v in queue_seed:
                if v in idset:
                    queue.push(v)

        while queue:
            v = queue.pop()
            for x in enc.duals[v].scope:
                if assigned is not None and assigned[x]:
                    continue
                deleted, wiped = self.revise_arc(x, v, state)
                if wiped:
                    return False
                if deleted:
                    if state.counts[x] == 0:
                        return False
                    push_duals_of(x)
        return True


def hac(enc: EncodedProblem, state: Optional[DomainState] = None,
        queue_seed: Optional[Iterable[int]] = None,
        counters: Optional[Counters] = None,
        assigned: Optional[Sequence[bool]] = None) -> PropagationResult:
    """AC on the hidden variable encoding (HVE or the hidden part of a double)."""
    if state is None:
        state = enc.fresh_state()
    engine = Hac(enc, counters)
    ok = engine.run(state, queue_seed, assigned)
    return PropagationResult(ok, state, engine.counters)


# ---------------------------------------------------------------------------
# Generic AC-2001 over a binary view (DE, or the full double encoding)


class DeView:
    """Binary view of the dual encoding: variables are the duals, one arc per
    dual-dual constraint, compatibility is equal projection keys.

    index[arc][side] is a (group_of, members) table for revising that side:
    the peer values compatible with value a are members[group_of[a]], in
    ascending order. A dual-dual arc reuses its pair's decompositions.
    """

    def __init__(self, enc: EncodedProblem):
        self.enc = enc
        self.bvars = [("dual", v.id) for v in enc.duals]
        self.arcs = [("pair", pair) for pair in enc.dual_pairs]
        self.ends = [(pair.v1, pair.v2) for pair in enc.dual_pairs]
        self.index = [_pair_index(pair) for pair in enc.dual_pairs]
        self._build_adjacency()

    def _build_adjacency(self):
        self.adjacency = [[] for _ in self.bvars]
        for arc_id, (b0, b1) in enumerate(self.ends):
            self.adjacency[b0].append((arc_id, 0))
            self.adjacency[b1].append((arc_id, 1))

    def mask(self, b, state):
        return state.dual_masks[b]

    def remove(self, b, val, state, counters, trail=None):
        kind, ident = self.bvars[b]
        if kind == "dual":
            if trail is not None:
                trail.append(("dt", ident, val))
            state.dual_masks[ident][val] = 0
            state.dual_counts[ident] -= 1
            counters.tuple_removals += 1
            return state.dual_counts[ident]
        if trail is not None:
            trail.append(("ov", ident, val))
        state.remove_value(ident, val)
        counters.value_removals += 1
        return state.counts[ident]


def _pair_index(pair):
    return ((pair.side1.tuple_group, pair.side2.members),
            (pair.side2.tuple_group, pair.side1.members))


class DoubleView(DeView):
    """Binary view of the double encoding: originals + duals, hidden arcs
    (projection equality) plus the dual-dual arcs. A hidden arc (v, x, pos)
    indexes a tuple by its value at pos, and a value a of x by
    tuples_by_pos_val[pos][a]."""

    def __init__(self, enc: EncodedProblem):
        self.enc = enc
        n = enc.problem.n
        self.bvars = [("orig", x) for x in range(n)] + [("dual", v.id) for v in enc.duals]
        self._n = n
        self.arcs = [("hidden", h) for h in enc.hidden] + \
                    [("pair", pair) for pair in enc.dual_pairs]
        self.ends = [(n + v, x) for v, x, pos in enc.hidden] + \
                    [(n + pair.v1, n + pair.v2) for pair in enc.dual_pairs]
        singletons = {}
        self.index = []
        for v, x, pos in enc.hidden:
            dual = enc.duals[v]
            size = enc.problem.domain_size(x)
            if size not in singletons:
                singletons[size] = [[b] for b in range(size)]
            self.index.append((([t[pos] for t in dual.tuples], singletons[size]),
                               (range(size), dual.tuples_by_pos_val[pos])))
        self.index += [_pair_index(pair) for pair in enc.dual_pairs]
        self._build_adjacency()

    def mask(self, b, state):
        n = self._n
        return state.masks[b] if b < n else state.dual_masks[b - n]


class Ac2001:
    """Generic AC-2001 with a variable-based queue over a binary view.

    The support of a is looked up in the view's index: the first compatible
    peer value after the stored pointer whose mask byte is live. Checks and
    micro-ops are counted as the lexicographic scan over the peer's whole
    domain would count them, from pointer + 1 up to the support (or to the
    end): one check per live value, one micro-op per dead one. Masks hold
    only 0 and 1 bytes, so the live values are `ymask.count(1, start, end)`.
    Values of one group with equal pointers share one lookup per revision.
    """

    def __init__(self, view, counters: Optional[Counters] = None,
                 pointers=None, trail=None):
        self.view = view
        self.counters = counters if counters is not None else Counters()
        if pointers is None:
            pointers = [[[-1] * len(side0[0]), [-1] * len(side1[0])]
                        for side0, side1 in view.index]
        self.pointers = pointers
        self.trail = trail

    def revise(self, arc_id, side, state) -> tuple:
        """Revise the `side` endpoint against the other; (deleted, remaining)."""
        view, counters, trail = self.view, self.counters, self.trail
        ends = view.ends[arc_id]
        bx, by = ends[side], ends[1 - side]
        xmask = view.mask(bx, state)
        ymask = view.mask(by, state)
        group_of, members = view.index[arc_id][side]
        pointers = self.pointers[arc_id][side]
        ysize = len(ymask)
        log = counters.search_log
        checks = microops = 0
        deleted = False
        remaining = None
        # ymask does not change during the call, so the search result is a
        # function of (group, pointer): values of one group share it
        searched = {}
        for a in compress(range(len(xmask)), xmask):
            ptr = pointers[a]
            if ptr >= 0:
                microops += 1
                if ymask[ptr]:
                    continue
            gid = group_of[a]
            key = (gid, ptr)
            hit = searched.get(key)
            if hit is None:
                found = -1
                cands = members[gid]
                for b in islice(cands, bisect_right(cands, ptr), None):
                    if ymask[b]:
                        found = b
                        break
                start = ptr + 1
                end = found + 1 if found >= 0 else ysize
                live = ymask.count(1, start, end)
                hit = searched[key] = (found, live, end - start - live)
            found, live, dead = hit
            checks += live
            microops += dead
            if log is not None:
                log.append({"bvar": bx, "value": a, "arc": arc_id, "peer": by,
                            "checks": live, "found": found >= 0})
            if found >= 0:
                if trail is not None:
                    trail.append(("ap", arc_id, side, a, ptr))
                pointers[a] = found
                continue
            remaining = view.remove(bx, a, state, counters, trail)
            deleted = True
        counters.checks += checks
        counters.microops += microops
        return deleted, remaining

    def run(self, state, queue_seed=None) -> bool:
        view = self.view
        queue = _Queue()
        for b in range(len(view.bvars)):
            if not any(view.mask(b, state)):
                return False

        if queue_seed is None:
            for arc_id in range(len(view.arcs)):
                for side in (0, 1):
                    deleted, remaining = self.revise(arc_id, side, state)
                    if deleted:
                        if remaining == 0:
                            return False
                        queue.push(view.ends[arc_id][side])
        else:
            for b in queue_seed:
                queue.push(b)

        while queue:
            by = queue.pop()
            for arc_id, yside in view.adjacency[by]:
                side = 1 - yside
                deleted, remaining = self.revise(arc_id, side, state)
                if deleted:
                    if remaining == 0:
                        return False
                    queue.push(view.ends[arc_id][side])
        return True


def ac2001(view_or_enc, state: Optional[DomainState] = None,
           queue_seed: Optional[Iterable[int]] = None,
           counters: Optional[Counters] = None) -> PropagationResult:
    """AC-2001 on a binary view. An EncodedProblem of kind DE is viewed as
    its dual-dual network; anything else gets the full double view."""
    if isinstance(view_or_enc, EncodedProblem):
        view = DeView(view_or_enc) if view_or_enc.kind == DE else DoubleView(view_or_enc)
        if state is None:
            state = view_or_enc.fresh_state()
    else:
        view = view_or_enc
        if state is None:
            state = view.enc.fresh_state()
    engine = Ac2001(view, counters)
    ok = engine.run(state, queue_seed)
    return PropagationResult(ok, state, engine.counters)


# ---------------------------------------------------------------------------
# PW-AC on the dual encoding


class PwState:
    """Per-run mutable part of the piecewise machinery: one live-tuple counter
    per group and side, plus the propagation queue of emptied groups."""

    def __init__(self, enc: EncodedProblem, state: DomainState):
        self.counts = []
        for pair in enc.dual_pairs:
            self.counts.append((pair.side1.fresh_counters(state),
                                pair.side2.fresh_counters(state)))

    def counter(self, pair_index, side_bit, gid):
        return self.counts[pair_index][side_bit][gid]


class PwAc:
    """PW-AC: groups of the piecewise decompositions drive propagation.

    A queue entry (pair, side, gid) means group gid on that side has no live
    tuples, so every live tuple of the same-keyed group on the other side
    loses its support and is deleted.
    """

    def __init__(self, enc: EncodedProblem, counters: Optional[Counters] = None,
                 pw: Optional[PwState] = None, trail=None,
                 on_tuple_deleted=None):
        self.enc = enc
        self.counters = counters if counters is not None else Counters()
        self.pw = pw
        self.trail = trail
        self.queue = _Queue()
        self.on_tuple_deleted = on_tuple_deleted  # hook for the double encoding

    def init_counts(self, state: DomainState) -> None:
        self.pw = PwState(self.enc, state)
        for pair in self.enc.dual_pairs:
            for side_bit in (0, 1):
                counts = self.pw.counts[pair.index][side_bit]
                for gid in range(len(counts)):
                    if counts[gid] == 0:
                        self.queue.push((pair.index, side_bit, gid))

    def delete_tuple(self, state: DomainState, v: int, idx: int) -> bool:
        """Shared deletion path; decrements every group counter the tuple
        sits in and queues the groups that reach zero. False on wipeout."""
        enc, counters = self.enc, self.counters
        mask = state.dual_masks[v]
        if not mask[idx]:
            return True
        if self.trail is not None:
            self.trail.append(("dt", v, idx))
        mask[idx] = 0
        state.dual_counts[v] -= 1
        counters.tuple_removals += 1
        for pair_index in enc.pairs_of_dual[v]:
            pair = enc.dual_pairs[pair_index]
            side_bit = 0 if pair.v1 == v else 1
            gid = pair.side_for(v).tuple_group[idx]
            counts = self.pw.counts[pair_index][side_bit]
            if self.trail is not None:
                self.trail.append(("gc", pair_index, side_bit, gid))
            counts[gid] -= 1
            counters.group_updates += 1
            if counts[gid] == 0:
                self.queue.push((pair_index, side_bit, gid))
        if self.on_tuple_deleted is not None:
            self.on_tuple_deleted(state, v, idx)
        return state.dual_counts[v] > 0

    def propagate(self, state: DomainState) -> bool:
        enc = self.enc
        while self.queue:
            pair_index, side_bit, gid = self.queue.pop()
            pair = enc.dual_pairs[pair_index]
            peer_side = pair.side2 if side_bit == 0 else pair.side1
            vj = peer_side.owner
            mask = state.dual_masks[vj]
            for idx in peer_side.members[gid]:
                if mask[idx]:
                    if not self.delete_tuple(state, vj, idx):
                        return False
        return True

    def check_counters(self, state: DomainState) -> None:
        """Debug scan: every group counter must equal its live member count."""
        for pair in self.enc.dual_pairs:
            for side_bit, side in ((0, pair.side1), (1, pair.side2)):
                mask = state.dual_masks[side.owner]
                for gid, members in enumerate(side.members):
                    live = sum(1 for i in members if mask[i])
                    actual = self.pw.counts[pair.index][side_bit][gid]
                    if actual != live:
                        raise AssertionError(
                            f"counter drift: pair {pair.index} side {side_bit} "
                            f"group {gid}: {actual} != {live}")

    def run(self, state: DomainState, queue_seed=None) -> bool:
        if any(state.dual_counts[v.id] == 0 for v in self.enc.duals):
            return False
        if queue_seed is None:
            self.init_counts(state)
        else:
            for entry in queue_seed:
                self.queue.push(entry)
        return self.propagate(state)


def pwac(enc: EncodedProblem, state: Optional[DomainState] = None,
         queue_seed=None, counters: Optional[Counters] = None) -> PropagationResult:
    """AC on the dual encoding via the piecewise-functional structure."""
    if state is None:
        state = enc.fresh_state()
    engine = PwAc(enc, counters)
    ok = engine.run(state, queue_seed)
    return PropagationResult(ok, state, engine.counters)


# ---------------------------------------------------------------------------
# Value supports for the double encoding


class ValueSupports:
    """Live-support counters per (dual, position, value): how many live tuples
    of the dual carry that value. Zero means the value lost its last support
    in that dual variable."""

    def __init__(self, enc: EncodedProblem, state: DomainState):
        self.counts = []
        for v in enc.duals:
            mask = state.dual_masks[v.id]
            if state.dual_counts[v.id] == len(mask):  # every tuple live
                self.counts.append([list(map(len, bypv)) for bypv in v.tuples_by_pos_val])
                continue
            # masks hold 0/1 bytes, so summing them counts the live tuples
            live = mask.__getitem__
            self.counts.append([[sum(map(live, idxs)) for idxs in bypv]
                                for bypv in v.tuples_by_pos_val])


# ---------------------------------------------------------------------------
# Singleton GAC


def sgac_check(problem: Problem, counters: Optional[Counters] = None) -> bool:
    """Is the problem singleton generalized arc consistent? GAC must already
    hold: a GAC wipeout reports False."""
    base = gac2001(problem, counters=counters)
    if not base.consistent:
        return False
    state = base.state
    for x in range(problem.n):
        for a in state.live_values(x):
            probe = state.clone()
            probe.assign_value(x, a)
            seeded = gac2001(problem, probe,
                             queue_seed=list(problem.constraints_of_var[x]),
                             counters=counters)
            if not seeded.consistent:
                return False
    return True


# ---------------------------------------------------------------------------
# Assignment seeding helpers (shared by tests and the search engines)


def seed_assignment_nonbinary(problem: Problem, state: DomainState,
                              x: int, a: int) -> list:
    """Restrict D(x) to {a}; returns the constraint-queue seed."""
    state.assign_value(x, a)
    return list(problem.constraints_of_var[x])


def seed_assignment_hve(enc: EncodedProblem, state: DomainState, x: int, a: int,
                        counters: Optional[Counters] = None) -> tuple:
    """Restrict D(x) to {a} and push the deletions through the dual domains.
    Returns (ok, dual queue seed)."""
    engine = Hac(enc, counters if counters is not None else Counters())
    ok = True
    for b in list(state.live_values(x)):
        if b != a:
            if not engine.delete_value(state, x, b):
                ok = False
    return ok, list(enc.duals_of_var[x])
