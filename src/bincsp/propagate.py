"""Arc consistency engines: GAC-2001, HAC, AC-2001 and PW-AC.

GAC-2001 and HAC are one algorithm on two representations, and share one
constraint-queue fixpoint, `UnitFixpoint`: its units are the constraints
(GAC-2001) or the duals (HAC), `run` sweeps then drains the queue,
`revise_units` is one revision pass over the units it is given, and each
engine supplies only its per-arc step, `revise_arc(unit, pos, state) ->
(deleted, wiped)`. Both delete values through their engine's one value
deletion, a required hook `delete_value(x, a) -> bool`: False is the
wipe-out of x or of a dual that the deletion caused, which the arc reports
at once, so the fixpoint stops there.

Counting discipline shared by GAC-2001 and HAC: a support search counts as
the scan of the sorted tuple list from the stored pointer onward, every
scanned index one tuple check; testing the stored support itself costs
micro-ops only. Neither engine scans. Each reads the ascending indices of
the tuples holding the value at the position (HAC the dual side of the
hidden arc, GAC-2001 a value index it builds per relation on first
use), bisects past the pointer, and tests only those tuples, paying the
scan's micro-ops for each. The first valid one is the tuple the scan would
have stopped at, so the scan's checks are the index distance to it from
the pointer, or to the end of the list when there is none. The two engines
therefore differ in micro-ops (per-position probes vs one dual-domain
lookup) but never in checks, which is what the check-count comparisons
rely on. On a predicate, GAC-2001 enumerates candidate tuples instead (see
`_pred_enum`). The separation kinds read byte-lane rows of `core.GapRows`
there, step over a value that leaves a later position without candidates
without counting its subtree (forward checking: supports and checks stay
those of the plain enumeration, micro-ops fall), and count the last two
levels from their candidate sets (`_gap_enum`, with `core.GapPair.union`)
without walking them. PW-AC performs no tuple checks at all: its work is
counter updates.

AC-2001 runs on the binary constraints of any encoding: its variables are
the originals, when the encoding has them, and the duals, and its arcs are
`EncodedProblem.arcs`, which `Ac2001` reads itself. It deletes through its
engine's `delete_value` (the same hook) and `delete_tuples`. It keeps one
support pointer per piecewise group and revises the live values of a
group together, but counts checks and micro-ops exactly as the
lexicographic scan with one pointer per value would (see `Ac2001`), which
relies on domain masks holding only 0 and 1 bytes.

PW-AC keeps one counter array per piecewise decomposition, and a
decomposition is shared by every pair in which its dual shares the same
variables (see `encode`), so a tuple deletion updates each decomposition of
its dual once.

Propagation on the double encoding (PW-AC between duals plus the rule that
an original value dies with its last supporting tuple) is
`search.DoubleEngine`; `search.pwac` is its root-only call. This module
supplies its parts: `Hac`, `PwAc` (which counts the value supports on the
hidden arcs' dual sides, revises dFC's pair sides and is the engine's
`delete_tuples`) and, for hybrids, `Gac2001`, both given the engine's value
deletion. `Ac2001`, `PwAc`, `Hac` and the value rule all read one list
of arcs, `EncodedProblem.arcs`, with two decompositions as each arc's sides
(see `encode`).

This module holds the propagators only. None of them tests for a domain
that is empty before it starts: `UnitFixpoint.run`, `Ac2001.run` and
`PwAc.propagate` expect no original or dual domain to be empty on entry,
and detect only the wipe-outs they cause, as the deletions report them.
`search.Engine.root_propagate` guarantees this at the root, and it is the
one empty-domain test; below
the root, an assignment that wipes a domain out fails before lookahead
runs. The root entry points (`gac2001`, `hac`, `ac2001`, `pwac`,
`sgac_check`) live in `search`: each is the root propagation of its MAC
lane's engine.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, compress, islice
from operator import itemgetter, not_
from typing import Iterable, Optional, Sequence

from .core import (Counters, DomainState, GapRows, Problem, is_valid,
                   value_index)
from .encode import EncodedProblem


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


def _sweep_then_queue(sweep: Iterable, queue: _Queue):
    """The items of `sweep` in order, then those popped from `queue` until
    it is empty; items pushed during the sweep wait for it to end."""
    yield from sweep
    while queue:
        yield queue.pop()


# ---------------------------------------------------------------------------
# The constraint-queue fixpoint of GAC-2001 and HAC


class UnitFixpoint:
    """The revision fixpoint GAC-2001 and HAC share. Its units are the
    constraints of a non-binary problem (GAC-2001) or the duals of a hidden
    encoding (HAC).

    A subclass sets `scopes` (per unit, its variables in scope order) and
    `units_of_var` (per original variable, the units over it in ascending
    order), and supplies its one per-arc step, `revise_arc(unit, pos,
    state) -> (deleted, wiped)`: revise the variable at `pos` of the unit
    against the unit, reporting whether a value was deleted and whether a
    deletion wiped out a domain: every deletion goes through the engine's
    `delete_value(x, a) -> bool`, and the arc returns (True, True) at its
    first False.
    """

    def revise_units(self, units: Iterable[int], state: DomainState,
                     assigned: Sequence[bool], requeue=None) -> bool:
        """One revision pass: each unassigned variable of each unit once,
        units in the order given and variables in scope order. False on a
        wipeout. `requeue(x)` is called after each arc that deleted a value
        of x; `run` feeds its queue in as `units`, so that one call revises
        every unit it pops."""
        revise_arc, scopes = self.revise_arc, self.scopes
        for unit in units:
            for pos, x in enumerate(scopes[unit]):
                if assigned[x]:
                    continue
                deleted, wiped = revise_arc(unit, pos, state)
                if wiped:
                    return False
                if deleted and requeue is not None:
                    requeue(x)
        return True

    def run(self, state: DomainState, assigned: Sequence[bool],
            queue_seed: Optional[Iterable[int]] = None,
            subset: Optional[Sequence[int]] = None) -> bool:
        """Revise every unit once in index order, then the queued ones to a
        fixpoint; with `queue_seed`, start from the queue of those units
        instead. With `subset`, only those units are revised and queued.
        A deletion queues the units over the variable it came from. False
        on a wipeout it causes: no domain may be empty on entry, which the
        engine's root test and its failing assignments guarantee."""
        ids = list(subset) if subset is not None else range(len(self.scopes))
        idset = set(ids)
        if queue_seed is None:
            sweep, queue = ids, _Queue()
        else:
            sweep, queue = (), _Queue(u for u in queue_seed if u in idset)
        units_of_var = self.units_of_var

        def requeue(x):
            for u in units_of_var[x]:
                if u in idset:
                    queue.push(u)

        return self.revise_units(_sweep_then_queue(sweep, queue), state, assigned,
                                 requeue)


# ---------------------------------------------------------------------------
# GAC-2001 on the non-binary representation


def _pred_enum(problem, c, pos, a, state, after, tight0, counters, tables):
    """Lex-smallest valid satisfying tuple of a predicate constraint with
    value a at position pos (pos < 0: unconstrained), strictly after `after`
    when tight0 is set. `tables` are the constraint's `GapRows.tables` (None
    for kinds without gaps).

    The count is that of one depth-first search. A level's candidates are
    its live values (only a at pos); it visits them in ascending order, from
    after[depth] while the prefix equals `after` and from 0 otherwise. Each
    completed candidate evaluated is one check; a level costs one micro-op
    per value index it steps over, from its start to the value it returns
    at, or to the end of the domain. Gap kinds are searched by `_gap_enum`,
    which forward checks: it does not enter, and so does not count, the
    subtree of a value that leaves a later position without a compatible
    live value. It finds the same tuple at the same checks.
    """
    scope = c.scope
    k = len(scope)
    doms = [problem.domains[x] for x in scope]
    sizes = [len(dom) for dom in doms]
    lives = [int.from_bytes(state.masks[x], "little") for x in scope]
    if pos >= 0:
        lives[pos] &= 1 << 8 * a
    if tables is not None:
        return _gap_enum(doms, sizes, lives, after, tight0, counters, tables)
    holds = c.predicate.holds
    labels = [None] * k
    values = [0] * k
    last = k - 1

    def rec(depth, tight):
        lo = after[depth] if tight else 0
        live = lives[depth] >> 8 * lo
        if tight and depth == last:
            live &= ~1  # drop the value equal to `after`; we need strictly greater
        dom = doms[depth]
        while live:
            low = live & -live
            v = lo + ((low.bit_length() - 1) >> 3)
            labels[depth] = dom[v]
            values[depth] = v
            if depth == last:
                counters.checks += 1
                if not holds(labels):
                    live ^= low
                    continue
                found = tuple(values)
            else:
                found = rec(depth + 1, tight and v == lo)
                if found is None:
                    live ^= low
                    continue
            counters.microops += v - lo + 1
            return found
        counters.microops += sizes[depth] - lo
        return None

    return rec(0, tight0)


def _gap_enum(doms, sizes, lives, after, tight0, counters, tables):
    """`_pred_enum` on a gap kind, with forward checking. Each level holds
    one byte-lane candidate int per later position: its live values far
    enough from every label placed so far. A full tuple reached that way
    holds, so a last level with candidates returns its first one at one
    check.

    A level steps as `_pred_enum` describes, except that a value whose
    placement leaves some later position without candidates is stepped over
    without entering its subtree: no tuple completes under it, so the
    support and the checks are those of the plain enumeration, and only the
    micro-ops of the levels under it are not counted. The root level is
    always walked.

    Once the prefix leaves `after`, the last two levels p and q are closed
    arithmetically from their candidates c_p and c_q. hit = c_p &
    `GapPair.union`(c_q) holds the values of p that some value of q
    completes, and every other value of c_p is stepped over. If hit is set,
    its lowest value v is the answer at p and the lowest w of c_q
    compatible with v the answer at q: v + 1 and w + 1 micro-ops.
    Otherwise level p fails at size[p].
    """
    k = len(sizes)
    last, later, pair = k - 1, tables.later, tables.pair
    values = [0] * k

    def close(cands):
        # the free search of the last one or two levels
        if len(cands) == 1:
            cand = cands[0]
            if not cand:
                counters.microops += sizes[last]
                return None
            values[last] = w = ((cand & -cand).bit_length() - 1) >> 3
            counters.checks += 1
            counters.microops += w + 1
            return tuple(values)
        cand_p, cand_q = cands
        hit = cand_p & pair.union(cand_q)
        if not hit:
            counters.microops += sizes[last - 1]
            return None
        values[last - 1] = v = ((hit & -hit).bit_length() - 1) >> 3
        cand_q &= pair.fwd[doms[last - 1][v]]
        values[last] = w = ((cand_q & -cand_q).bit_length() - 1) >> 3
        counters.checks += 1
        counters.microops += v + w + 2
        return tuple(values)

    def rec(depth, tight, cands):
        # cands[j] is the candidate set of position depth + j
        if not tight and depth >= last - 1:
            return close(cands)
        lo = after[depth] if tight else 0
        live = cands[0] >> 8 * lo
        if depth == last:  # tight: we need strictly greater than `after`
            live &= ~1
            if not live:
                counters.microops += sizes[last] - lo
                return None
            values[last] = w = lo + (((live & -live).bit_length() - 1) >> 3)
            counters.checks += 1
            counters.microops += w - lo + 1
            return tuple(values)
        dom, rows_later, rest = doms[depth], later[depth], cands[1:]
        while live:
            low = live & -live
            live ^= low
            v = lo + ((low.bit_length() - 1) >> 3)
            label = dom[v]
            kept = []
            for cand, by_label in zip(rest, rows_later):
                cand &= by_label[label]
                if not cand:
                    break
                kept.append(cand)
            else:
                values[depth] = v
                found = rec(depth + 1, tight and v == lo, kept)
                if found is not None:
                    counters.microops += v - lo + 1
                    return found
        counters.microops += sizes[depth] - lo
        return None

    return rec(0, tight0, lives)


class Gac2001(UnitFixpoint):
    """Constraint-queue GAC-2001: the units are the constraints. Does not
    maintain tuple liveness; validity is per-position work.

    `supports[ci][pos][a]` is the current support of value a at position
    pos of constraint ci: a relation's tuple index (-1 before the first
    search), or a predicate's last support tuple (None before).

    A value that lost its support is deleted through the engine's
    `delete_value(x, a) -> bool` (a hybrid's also deletes the tuples
    carrying it). Pointer moves and deletions go through the state, which
    trails them when a search has attached a trail.
    """

    def __init__(self, problem: Problem, counters: Counters, delete_value):
        self.problem = problem
        self.counters = counters
        self.scopes = [c.scope for c in problem.constraints]
        self.units_of_var = problem.constraints_of_var
        self.supports = [[[-1 if c.relation is not None else None]
                          * problem.domain_size(x) for x in c.scope]
                         for c in problem.constraints]
        self.rels = [c.relation for c in problem.constraints]
        rows = GapRows()
        self.gap_tables = [rows.tables(problem, c) for c in problem.constraints]
        # per relation, its `value_index`, built when it is first revised
        self.index = [None] * len(problem.constraints)
        self.delete_value = delete_value

    def revise_arc(self, ci: int, pos: int, state: DomainState) -> tuple:
        """Revise one (variable, constraint) arc. Returns (deleted, wiped),
        wiped as soon as `delete_value` reports a wipe-out.

        On a relation, the support search reads the tuples holding a at pos
        after the pointer from the value index and tests each for validity.
        It counts the checks of the lexicographic scan from the pointer, one
        per tuple index from pointer + 1 up to the support, or to the end of
        the relation."""
        problem, counters = self.problem, self.counters
        c = problem.constraints[ci]
        scope = c.scope
        x = scope[pos]
        rel = self.rels[ci]
        pointers = self.supports[ci][pos]
        if rel is not None:
            if self.index[ci] is None:
                self.index[ci] = value_index(rel, map(problem.domain_size, scope))
            by_value = self.index[ci][pos]
            end = len(rel) - 1
        else:
            tables = self.gap_tables[ci]
        deleted = False
        for a in state.live_values(x):
            ptr = pointers[a]
            if rel is not None:
                if ptr >= 0 and is_valid(rel[ptr], scope, state, counters, skip_pos=pos):
                    continue
                cands = by_value[a]
                support = -1
                for idx in islice(cands, bisect_right(cands, ptr), None):
                    if is_valid(rel[idx], scope, state, counters, skip_pos=pos):
                        support = idx
                        break
                counters.checks += (support if support >= 0 else end) - ptr
                if support >= 0:
                    state.set_slot(pointers, a, support)
                    continue
            else:
                if ptr is not None and is_valid(ptr, scope, state, counters, skip_pos=pos):
                    continue
                t = _pred_enum(problem, c, pos, a, state, ptr or (-1,) * c.arity,
                               ptr is not None, counters, tables)
                if t is not None:
                    state.set_slot(pointers, a, t)
                    continue
            deleted = True
            if not self.delete_value(x, a):
                return True, True
        return deleted, False


# ---------------------------------------------------------------------------
# HAC on the hidden variable encoding


class Hac(UnitFixpoint):
    """HAC: GAC-2001 adapted to the HVE, the units being the duals. Tuple
    validity is a dual-domain lookup, and a value is deleted through the
    engine's `delete_value(x, a) -> bool`, which also deletes the tuples
    carrying it from every adjacent dual and reports a dual wipe-out at
    once. Both read the dual sides of the hidden arcs in `arcs`, group a
    holding the tuples carrying a: `dual_sides[v][pos]` is that of arc (v,
    x, pos), and `var_sides[x]`, which the engine's deletion walks, lists
    those on x by dual.
    """

    def __init__(self, enc: EncodedProblem, counters: Counters, delete_value):
        self.enc = enc
        self.counters = counters
        self.scopes = [v.scope for v in enc.duals]
        self.units_of_var = enc.duals_of_var
        sizes = [enc.problem.domain_size(x) for x in range(enc.problem.n)]
        self.supports = [[[-1] * sizes[x] for x in v.scope] for v in enc.duals]
        self.dual_sides = [[] for _ in enc.duals]
        self.var_sides = [[] for _ in sizes]
        for arc in enc.arcs[:len(enc.hidden)]:
            self.dual_sides[arc.side1.owner].append(arc.side1)
            self.var_sides[arc.side2.owner].append(arc.side1)
        self.delete_value = delete_value

    def revise_arc(self, v: int, pos: int, state: DomainState) -> tuple:
        """Revise the original at `pos` of dual v against v. Returns
        (deleted, wiped).

        The support search reads the tuples holding a at that position
        after the pointer from the arc's dual side, one micro-op per tuple
        it tests for liveness. It counts the checks of the lexicographic
        scan from the pointer, which steps over every tuple index from
        pointer + 1 up to the support, or to the end of the dual's
        tuples."""
        counters = self.counters
        dual = self.enc.duals[v]
        x = dual.scope[pos]
        by_value = self.dual_sides[v][pos].members
        end = len(dual.tuples) - 1
        pointers = self.supports[v][pos]
        dmask = state.dual_masks[v]
        deleted = False
        for a in state.live_values(x):
            ptr = pointers[a]
            if ptr >= 0:
                counters.microops += 1
                if dmask[ptr]:
                    continue
            cands = by_value[a]
            start = bisect_right(cands, ptr)
            support = -1
            for i in range(start, len(cands)):
                if dmask[cands[i]]:
                    support = cands[i]
                    counters.microops += i - start + 1
                    break
            else:
                counters.microops += len(cands) - start
            counters.checks += (support if support >= 0 else end) - ptr
            if support >= 0:
                state.set_slot(pointers, a, support)
                continue
            deleted = True
            if not self.delete_value(x, a):
                return True, True
        return deleted, False

# ---------------------------------------------------------------------------
# Generic AC-2001 over the binary constraints of an encoding


class Ac2001:
    """Generic AC-2001 with a variable-based queue over the binary
    constraints of an encoding. Its binary variables are the originals,
    when the encoding has them, then the duals: dual v is `first_dual + v`,
    `first_dual` being n on an encoding with originals and 0 on a dual
    encoding. Its arcs are the encoding's `arcs`: the hidden arcs
    (projection equality), then one per dual-dual constraint (equal
    projection keys). `ends[arc]` holds the arc's two binary variables, and
    `adjacency[b]` the (arc, side) pairs with b on that side.

    sides[arc][side] is a (group_of, members, peer_members) triple for
    revising that side, read from the arc's two decompositions: value a is
    in group group_of[a], members[g] lists the values of group g, and
    peer_members[g] the peer values compatible with every one of them, each
    in ascending order. On a hidden arc each value of x is a group of its
    own, and the dual's group a holds its tuples carrying a.

    Every value of a group has the same supports, so the engine keeps one
    support pointer per (arc, side, group), and `revise` visits each live
    group of the revised side once. Checks and micro-ops are still those of
    the lexicographic scan with one pointer per value, because the live
    values of a group always share a pointer: they start at -1, are revised
    together against the same peer mask, and an undo returns them together
    to a state in which they shared one. Each of a group's n live values
    pays one micro-op to probe a set pointer; when the probe fails, it pays
    one check per live and one micro-op per dead peer value from pointer + 1
    up to the support (or to the end of the peer domain). Masks hold only 0
    and 1 bytes, so the live values are `ymask.count(1, start, end)`. The
    support is the first of the group's peer members after the pointer
    whose mask byte is live; without one, every live value of the group is
    deleted, through the engine's `delete_value(x, a) -> bool` on an
    original and its `delete_tuples(v, idxs) -> bool` on a dual, each False
    on the wipe-out it causes. `search_log` gets one entry per searched
    value, in value order.
    """

    def __init__(self, enc: EncodedProblem, counters: Counters, delete_value,
                 delete_tuples):
        n = self.first_dual = enc.problem.n if enc.has_originals else 0
        self.counters = counters
        self.delete_value = delete_value
        self.delete_tuples = delete_tuples
        self.ends = [(n + v, x) for v, x, _ in enc.hidden] + \
                    [(n + pair.v1, n + pair.v2) for pair in enc.dual_pairs]
        self.sides = [((arc.side1.tuple_group, arc.side1.members, arc.side2.members),
                       (arc.side2.tuple_group, arc.side2.members, arc.side1.members))
                      for arc in enc.arcs]
        self.adjacency = [[] for _ in range(n + len(enc.duals))]
        for arc_id, (b0, b1) in enumerate(self.ends):
            self.adjacency[b0].append((arc_id, 0))
            self.adjacency[b1].append((arc_id, 1))
        self.pointers = [[[-1] * len(side0[1]), [-1] * len(side1[1])]
                         for side0, side1 in self.sides]

    def delete(self, b, vals) -> bool:
        """Delete the live values vals of binary variable b; False on the
        wipe-out this causes."""
        if b >= self.first_dual:
            return self.delete_tuples(b - self.first_dual, vals)
        return all(self.delete_value(b, a) for a in vals)

    def revise(self, arc_id, side, state, masks) -> tuple:
        """Revise the `side` endpoint against the other; (deleted, wiped),
        wiped as soon as a deletion reports a wipe-out."""
        counters = self.counters
        ends = self.ends[arc_id]
        bx, by = ends[side], ends[1 - side]
        xmask, ymask = masks[bx], masks[by]
        group_of, members, peer_members = self.sides[arc_id][side]
        pointers = self.pointers[arc_id][side]
        gids = list(compress(group_of, xmask))
        log = counters.search_log
        entries = []
        checks = 0
        # each live value probes its group's pointer, unless that is -1
        microops = len(gids)
        deleted = wiped = False
        for gid in set(gids):
            ptr = pointers[gid]
            if ptr >= 0 and ymask[ptr]:
                continue
            n = gids.count(gid)
            cands = peer_members[gid]
            if ptr < 0:
                microops -= n
            else:
                cands = islice(cands, bisect_right(cands, ptr), None)
            found = -1
            for b in cands:
                if ymask[b]:
                    found = b
                    break
            start = ptr + 1
            end = found + 1 if found >= 0 else len(ymask)
            live = ymask.count(1, start, end)
            checks += n * live
            microops += n * (end - start - live)
            if log is not None:
                entries += [{"bvar": bx, "value": a, "arc": arc_id, "peer": by,
                             "checks": live, "found": found >= 0}
                            for a in members[gid] if xmask[a]]
            if found >= 0:
                state.set_slot(pointers, gid, found)
                continue
            deleted = True
            if not self.delete(bx, [a for a in members[gid] if xmask[a]]):
                wiped = True
                break
        counters.checks += checks
        counters.microops += microops
        if log is not None:
            log += sorted(entries, key=itemgetter("value"))
        return deleted, wiped

    def run(self, state, queue_seed=None) -> bool:
        """Revise every arc, both sides, in arc order, then the arcs of the
        queued binary variables to a fixpoint; with `queue_seed`, start from
        those variables instead. False on a wipeout it causes: no domain may
        be empty on entry, which the engine's root test and its failing
        assignments guarantee."""
        masks = state.masks + state.dual_masks if self.first_dual else state.dual_masks
        ends, adjacency, revise = self.ends, self.adjacency, self.revise
        if queue_seed is None:
            sweep = ((arc_id, side) for arc_id in range(len(ends)) for side in (0, 1))
            queue = _Queue()
        else:
            sweep, queue = (), _Queue(queue_seed)
        # after the sweep, the arcs of each popped variable, revised on the far side
        popped = ((arc_id, 1 - yside) for by in _sweep_then_queue((), queue)
                  for arc_id, yside in adjacency[by])
        for arc_id, side in chain(sweep, popped):
            deleted, wiped = revise(arc_id, side, state, masks)
            if wiped:
                return False
            if deleted:
                queue.push(ends[arc_id][side])
        return True


# ---------------------------------------------------------------------------
# PW-AC on the dual encoding


class PwAc:
    """PW-AC: groups of the piecewise decompositions drive propagation.

    `counts` holds one live-tuple counter array per decomposition in use,
    keyed by the Decomposition, so pairs that share a decomposition share
    its counters and a deletion decrements each of them once. When group
    gid of a decomposition reaches zero, each pair side on it is queued, in
    pairs_of_dual order, as (peer, gid), the peer being the other side of
    the pair: every live tuple of the peer's group gid has lost its support
    and is deleted. An item is queued only while that peer group still has
    live tuples, and `propagate` skips a popped item whose peer group has
    none left. Within one propagation counts only fall, so an item left out
    or skipped would have deleted nothing, and the order of the other items
    on the LIFO queue is the same. `queue` is a plain stack: a group
    reaches zero at most once between two undos (what root propagation
    deletes never comes back), so no item is queued twice.

    When `propagating`, the dual sides of the hidden arcs are counted too
    (the value rule): a zero there means value a of x lost its last
    supporting tuple in that dual, and (x, a) goes on `value_queue`, which
    the caller drains. A dual encoding has no hidden arcs, so there the
    rule is empty. Without `propagating` (forward checking, which revises
    pair sides through `revise_pairs`) nothing is queued.

    Every deletion is a batch of live tuples of one dual, `delete_tuples`,
    which the state trails as one entry; counter decrements and pushes
    still happen tuple by tuple, in the batch's order. The counters are not
    trailed: `restore_tuples` re-counts a batch that an undo brings back.
    group_updates counts one update per pair side of the dual and tuple, as
    if each side kept its own counters.
    """

    def __init__(self, enc: EncodedProblem, counters: Optional[Counters] = None,
                 propagating: bool = True):
        self.enc = enc
        self.counters = counters if counters is not None else Counters()
        self.propagating = propagating
        self.queue = []
        self.value_queue = _Queue() if propagating else None
        self.counts: dict = {}

    def init_counts(self, state: DomainState) -> None:
        """Count on `state` every side in use of the encoding's `arcs` (the
        pairs, and when propagating the hidden arcs' dual sides) and, when
        propagating, queue the groups and values that start out empty."""
        enc, counts = self.enc, self.counts
        counts.clear()
        hidden = len(enc.hidden)

        def counted(dec):
            if dec not in counts:
                counts[dec] = dec.fresh_counters(state)
            return counts[dec]

        # sides_of_dual[v]: (counters, tuple_group, peer, members) of each
        # pair side v owns, in pairs_of_dual order, the peer being the
        # (owner, members, counters) of the other side of its pair
        self.sides_of_dual = [[] for _ in enc.duals]
        for arc in enc.arcs[hidden:]:
            for side, other in ((arc.side1, arc.side2), (arc.side2, arc.side1)):
                own = counted(side)
                peer = (other.owner, other.members, counted(other))
                self.sides_of_dual[side.owner].append(
                    (own, side.tuple_group, peer, side.members))
                if self.propagating:
                    for gid, (live, peer_live) in enumerate(zip(own, peer[2])):
                        if not live and peer_live:
                            self.queue.append((peer, gid))
        # values_of_dual[v]: (x, counters, tuple_group) per hidden arc of v
        self.values_of_dual = [[] for _ in enc.duals]
        if self.value_queue is not None:
            masks = state.masks
            for arc in enc.arcs[:hidden]:
                dec, x = arc.side1, arc.side2.owner
                own = counted(dec)
                self.values_of_dual[dec.owner].append((x, own, dec.tuple_group))
                for a, live in enumerate(own):
                    if not live and masks[x][a]:
                        self.value_queue.push((x, a))
        self.parts_of_dual = [[] for _ in enc.duals]
        for dec, own in counts.items():
            self.parts_of_dual[dec.owner].append((own, dec.tuple_group))

    def delete_tuples(self, state: DomainState, v: int, idxs: list) -> bool:
        """Shared deletion path for the live tuples idxs of dual v, trailed
        as one batch. Each tuple in turn decrements every counter it sits
        in and queues what reached zero. False on wipeout."""
        state.remove_tuples(v, idxs)
        counters = self.counters
        counters.tuple_removals += len(idxs)
        sides = self.sides_of_dual[v]
        counters.group_updates += len(idxs) * len(sides)
        parts = self.parts_of_dual[v]
        if not self.propagating:
            for counts, tuple_group in parts:
                for idx in idxs:
                    counts[tuple_group[idx]] -= 1
            return state.dual_counts[v] > 0
        push = self.queue.append
        values_of = self.values_of_dual[v]  # empty without hidden arcs
        masks = state.masks
        for idx in idxs:
            emptied = False
            for counts, tuple_group in parts:
                gid = tuple_group[idx]
                live = counts[gid] - 1
                counts[gid] = live
                if not live:
                    emptied = True
            if not emptied:
                continue
            for counts, tuple_group, peer, _ in sides:
                gid = tuple_group[idx]
                if not counts[gid] and peer[2][gid]:
                    push((peer, gid))
            for x, counts, values in values_of:
                a = values[idx]
                if not counts[a] and masks[x][a]:
                    self.value_queue.push((x, a))
        return state.dual_counts[v] > 0

    def revise_pairs(self, state: DomainState, v: int, peers) -> bool:
        """Forward checking's revision of dual v against the peers it is
        given, pair side by pair side: delete v's live tuples in the groups
        whose peer group is empty. A side with no such group live on v's
        side has nothing to delete and is skipped. False on wipeout."""
        mask = state.dual_masks[v]
        for own_counts, _, (peer, _, peer_counts), members in self.sides_of_dual[v]:
            if peer not in peers or not any(
                    compress(own_counts, map(not_, peer_counts))):
                continue
            doomed = [idx for gid, (peer_live, own_live)
                      in enumerate(zip(peer_counts, own_counts))
                      if not peer_live and own_live
                      for idx in members[gid] if mask[idx]]
            if not self.delete_tuples(state, v, doomed):
                return False
        return True

    def restore_tuples(self, v: int, idxs) -> None:
        """Undo hook: count a restored batch in its groups again."""
        for counts, tuple_group in self.parts_of_dual[v]:
            for idx in idxs:
                counts[tuple_group[idx]] += 1

    def clear_queues(self) -> None:
        """Drop queued work, which an undo makes stale."""
        self.queue = []
        if self.value_queue is not None:
            self.value_queue = _Queue()

    def propagate(self, state: DomainState) -> bool:
        queue, dual_masks = self.queue, state.dual_masks
        while queue:
            (vj, members, counts), gid = queue.pop()
            if not counts[gid]:  # emptied since it was queued
                continue
            mask = dual_masks[vj]
            if not self.delete_tuples(state, vj,
                                      [idx for idx in members[gid] if mask[idx]]):
                return False
        return True
