"""Centralized assembly of local partial matches.

Partial matches from different fragments are merged wherever they share
a crossing edge, flipping internal and extended roles between the two
sides.  Two strategies produce the complete crossing matches: a naive
fixpoint that adds the partial matches one at a time, and a
partitioning-based pass that groups them by an anchor query vertex so
that members of one group never join each other.  A dynamic program
picks the anchor order minimizing the modeled cost.

Neither strategy compares all pairs.  Partial matches sit in a
PartialMatchIndex keyed by the crossing edges they could join on, and a
match is tried only against the members that index returns for it.
PartialMatchIndex.close is the one join loop: both strategies feed it
batches (one match, or one part), and BSP assembly keeps one index per
site and closes each superstep's arrivals into it.  The
``pairs_examined`` stat counts the probed pairs, each then checked by
joinable() once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .matcher import DEADLINE_EVERY, LocalPartialMatch, is_complete_match


class NotJoinable(Exception):
    pass


class UnassignedLpm(Exception):
    """A partial match with no internally-matched query vertex cannot be
    placed in any part."""


class QueryTooLarge(Exception):
    """The anchor-order search is exponential in the query size, so it
    refuses queries above MAX_ORDERED_VERTICES that have matches to
    partition."""


MAX_ORDERED_VERTICES = 30


def joinable(a, b, q):
    """True when two partial matches can merge.

    They must agree wherever both bind, and some query edge must be
    realized on the same crossing edge from both sides with the internal
    and extended roles swapped.  Two matches from one fragment give the
    same vertex internal and extended roles at once, so the role swap
    can never hold for them.
    """
    for x, (ua, ub) in enumerate(zip(a.fn, b.fn)):
        if ua is not None and ub is not None and ua != ub:
            return False
    for e in q.edges:
        x, y = e.src, e.dst
        if a.fn[x] is None or a.fn[y] is None:
            continue
        if b.fn[x] is None or b.fn[y] is None:
            continue
        if (x in a.internal and y in b.internal
                and x not in b.internal and y not in a.internal):
            return True
        if (x in b.internal and y in a.internal
                and x not in a.internal and y not in b.internal):
            return True
    return False


def join(a, b, q):
    """Merge two joinable partial matches; raises NotJoinable otherwise."""
    if not joinable(a, b, q):
        raise NotJoinable("%r / %r" % (a, b))
    return merge(a, b)


def merge(a, b):
    """join() without the joinable() test, for callers that have just
    made it: bound values win over None, internal roles and contributing
    fragments accumulate."""
    fn = tuple(ua if ua is not None else ub
               for ua, ub in zip(a.fn, b.fn))
    return LocalPartialMatch(fn, a.internal | b.internal,
                             a.fragments | b.fragments)


class PartialMatchIndex:
    """Partial matches bucketed by the crossing edges they can join on.

    A member offers one key per query edge bound at both ends with
    exactly one endpoint internal: (edge, src image, dst image, whether
    the internal endpoint is the source).  joinable() needs a query edge
    that one match holds with its source internal and the other with
    its destination internal, on the same images, so every member
    joinable with w offers one of w's keys with the side flipped.
    probe(w) returns exactly the members that do, each once; joinable()
    stays the final check.  close() is the one join loop built on it;
    pairs_examined counts the pairs it has probed, over all its calls.
    """

    def __init__(self, q, members=()):
        self._edges = [(ei, e.src, e.dst) for ei, e in enumerate(q.edges)
                       if e.src != e.dst]
        self._buckets = {}
        self.pairs_examined = 0
        for pm in members:
            self.add(pm)

    def _keys(self, pm):
        fn = pm.fn
        internal = pm.internal
        keys = []
        for ei, x, y in self._edges:
            a = fn[x]
            b = fn[y]
            if a is None or b is None:
                continue
            src_internal = x in internal
            if src_internal != (y in internal):
                keys.append((ei, a, b, src_internal))
        return keys

    def add(self, pm):
        for key in self._keys(pm):
            self._buckets.setdefault(key, []).append(pm)

    def probe(self, pm):
        found = {}
        for ei, a, b, src_internal in self._keys(pm):
            for m in self._buckets.get((ei, a, b, not src_internal), ()):
                found[id(m)] = m
        return found.values()

    def close(self, batch, q, keep, deadline=None):
        """Join the sequence batch into the index, then every merge that
        keep(merged) accepts.

        Each item of batch probes the members present, and only then
        does the whole batch join, so no two items of one batch are
        tried against each other.  Accepted merges are queued and join
        the same way, one at a time.  So every pair is probed once, and
        keep decides what is new.  deadline, if given, is checked every
        DEADLINE_EVERY probed pairs.
        """
        queue = deque()
        for w in batch:
            queue.extend(self._merges(w, q, keep, deadline))
        for w in batch:
            self.add(w)
        while queue:
            w = queue.popleft()
            queue.extend(self._merges(w, q, keep, deadline))
            self.add(w)

    def _merges(self, w, q, keep, deadline):
        out = []
        for m in self.probe(w):
            self.pairs_examined += 1
            if (deadline is not None
                    and self.pairs_examined % DEADLINE_EVERY == 0):
                deadline.check("assembly")
            if joinable(w, m, q):
                merged = merge(w, m)
                if keep(merged):
                    out.append(merged)
        return out


def naive_iterative_join(omega, q, g, stats=None, deadline=None):
    """Fixpoint join of all local partial matches against each other.

    Each match joins the index alone, in _lpm_key order, and every
    intermediate it yields joins in turn, so every pair of the working
    set is probed once.  A join strictly grows the internal set, which
    the query size bounds, so the closure ends.  deadline, if given, is
    checked every DEADLINE_EVERY probed pairs.
    """
    return _join_batches(([pm] for pm in sorted(omega, key=_lpm_key)),
                         q, g, stats, deadline)


def _join_batches(batches, q, g, stats, deadline):
    """Close each batch into one index in turn.  A new partial result is
    kept for further joins; a fully bound one either validates into a
    complete match or dies."""
    index = PartialMatchIndex(q)
    seen = set()
    rs = set()

    def keep(merged):
        if merged in seen:
            return False
        if None in merged.fn:
            seen.add(merged)
            return True
        if is_complete_match(q, merged.fn, g.labels_between):
            rs.add(merged.fn)
        return False

    for batch in batches:
        seen.update(batch)
        index.close(batch, q, keep, deadline)
    if stats is not None:
        stats["pairs_examined"] = (stats.get("pairs_examined", 0)
                                   + index.pairs_examined)
        stats["working_set"] = len(seen)
    return frozenset(rs)


def _lpm_key(pm):
    return (tuple(-2 if u is None else u for u in pm.fn),
            tuple(sorted(pm.internal)), tuple(sorted(pm.fragments)))


@dataclass(frozen=True)
class LpmPartitioning:
    """Ordered grouping of partial matches by anchor query vertex.

    Each part holds the matches whose internal vertices include its
    anchor and that no earlier part claimed.  Parts are disjoint and
    cover the input; empty parts are fine.
    """

    parts: tuple  # of (anchor query vertex id, frozenset[LocalPartialMatch])

    def sizes(self):
        return tuple(len(members) for _, members in self.parts)


def build_partitioning(omega, vertex_order):
    remaining = set(omega)
    parts = []
    for v in vertex_order:
        members = frozenset(pm for pm in remaining if v in pm.internal)
        parts.append((v, members))
        remaining -= members
    if remaining:
        raise UnassignedLpm("%d matches claim no anchor" % len(remaining))
    return LpmPartitioning(tuple(parts))


def join_cost(p):
    """Modeled cost of a partitioning: the product of part sizes, with
    empty parts contributing a neutral factor of one."""
    cost = 1
    for _, members in p.parts:
        cost *= max(len(members), 1)
    return cost


def optimal_partitioning(omega, q, stats=None, deadline=None):
    """Anchor order minimizing the modeled join cost.

    Top-down search over which vertex anchors next, memoized on the set
    of vertices already used: the matches still unassigned are exactly
    those avoiding every used vertex internally, so the used set
    determines the whole subproblem.  Ties fall to the lowest vertex id.
    deadline, if given, is checked every DEADLINE_EVERY memo misses.
    """
    n = q.n
    if omega and n > MAX_ORDERED_VERTICES:
        raise QueryTooLarge(
            "the partitioned join orders at most %d query vertices, got "
            "%d; distributed assembly or the naive join take it"
            % (MAX_ORDERED_VERTICES, n))
    # a subproblem needs only how many matches have each internal set
    counts = {}
    for pm in omega:
        if not pm.internal:
            raise UnassignedLpm("match with no internal vertex: %r" % pm)
        mask = 0
        for v in pm.internal:
            mask |= 1 << v
        counts[mask] = counts.get(mask, 0) + 1
    groups = list(counts.items())
    memo = {}
    misses = 0

    def solve(used):
        nonlocal misses
        if used in memo:
            return memo[used]
        misses += 1
        if deadline is not None and misses % DEADLINE_EVERY == 0:
            deadline.check("assembly")
        left = [(mask, count) for mask, count in groups if not mask & used]
        if not left:
            tail = tuple(v for v in range(n) if not used & (1 << v))
            return 1, tail
        best = None
        for v in range(n):
            bit = 1 << v
            if used & bit:
                continue
            size = sum(count for mask, count in left if mask & bit)
            sub_cost, sub_order = solve(used | bit)
            cost = max(size, 1) * sub_cost
            if best is None or cost < best[0]:
                best = (cost, (v,) + sub_order)
        memo[used] = best
        return best

    cost, order = solve(0)
    if stats is not None:
        stats["memo_keys"] = len(memo)
    return build_partitioning(omega, order), cost


def partitioning_based_join(p, q, g, stats=None, deadline=None):
    """Join pass over an anchor partitioning.

    Each part joins the index as one batch: its members probe the
    accumulated working set, never each other.  Intermediates produced
    inside a part also join before the part closes, so chains whose
    pieces straddle one part still complete.  deadline, if given, is
    checked every DEADLINE_EVERY probed pairs.
    """
    return _join_batches((sorted(members, key=_lpm_key)
                          for _, members in p.parts), q, g, stats, deadline)


def assemble(omega, q, g, stats=None, deadline=None):
    """Optimal partitioning followed by the partitioned join."""
    p, cost = optimal_partitioning(omega, q, stats=stats, deadline=deadline)
    if stats is not None:
        stats["join_cost"] = cost
    return partitioning_based_join(p, q, g, stats=stats, deadline=deadline)
