"""Centralized assembly of local partial matches.

Partial matches from different fragments are merged wherever they share
a crossing edge, flipping internal and extended roles between the two
sides.  Two strategies produce the complete crossing matches: a naive
fixpoint that repeatedly joins the working set against the input, and a
partitioning-based pass that groups the partial matches by an anchor
query vertex so that members of one group never join each other.  A
dynamic program picks the anchor order minimizing the modeled cost.

Neither strategy compares all pairs.  Partial matches sit in a
PartialMatchIndex keyed by the crossing edges they could join on, and a
match is tried only against the members that index returns for it; BSP
assembly keeps one such index per site.  The ``pairs_examined`` stat
counts those probed candidates, each then checked by joinable().
"""

from __future__ import annotations

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
    stays the final check.
    """

    def __init__(self, q, members=()):
        self._edges = [(ei, e.src, e.dst) for ei, e in enumerate(q.edges)
                       if e.src != e.dst]
        self._buckets = {}
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


def _absorb(merged, q, g, complete, intermediates):
    """Classify a join result: a fully bound function either validates
    into a complete match or dies; anything else stays an intermediate."""
    if all(u is not None for u in merged.fn):
        if is_complete_match(q, merged.fn, g.labels_between):
            complete.add(merged.fn)
        return
    intermediates.add(merged)


def naive_iterative_join(omega, q, g, stats=None, deadline=None):
    """Fixpoint join of all local partial matches against each other.

    The working set starts as the whole input and grows by every new
    intermediate; each round joins the working set against the input.
    A complete crossing match made of m constituents appears after at
    most m-1 rounds, and m never exceeds the query size.  deadline, if
    given, is checked every DEADLINE_EVERY probed pairs.
    """
    base = PartialMatchIndex(q, omega)
    ms = set(omega)
    rs = set()
    examined = 0
    for _ in range(max(q.n, 1)):
        new = set()
        for a in sorted(ms, key=_lpm_key):
            for b in base.probe(a):
                examined += 1
                if deadline is not None and examined % DEADLINE_EVERY == 0:
                    deadline.check("assembly")
                if not joinable(a, b, q):
                    continue
                merged = merge(a, b)
                if merged not in ms:
                    _absorb(merged, q, g, rs, new)
        new -= ms
        if not new:
            break
        ms |= new
    if stats is not None:
        stats["pairs_examined"] = stats.get("pairs_examined", 0) + examined
        stats["working_set"] = len(ms)
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

    Members of each part join only against the accumulated working set,
    never against each other.  Intermediates produced inside a part are
    queued and also joined against the working set before the part
    closes, so chains whose pieces straddle one part still complete.
    Part members and processed intermediates then feed the working set
    for later parts.  deadline, if given, is checked every
    DEADLINE_EVERY probed pairs.
    """
    ms = PartialMatchIndex(q)
    ms_seen = set()
    rs = set()
    examined = 0

    def scan(w, new):
        nonlocal examined
        for m in ms.probe(w):
            examined += 1
            if deadline is not None and examined % DEADLINE_EVERY == 0:
                deadline.check("assembly")
            if not joinable(w, m, q):
                continue
            merged = merge(w, m)
            if merged not in ms_seen:
                _absorb(merged, q, g, rs, new)

    for _, members in p.parts:
        ordered = sorted(members, key=_lpm_key)
        pending = []
        fresh = set()
        for w in ordered:
            scan(w, fresh)
        for w in ordered:
            ms.add(w)
            ms_seen.add(w)
        pending.extend(sorted(fresh - ms_seen, key=_lpm_key))
        while pending:
            w = pending.pop(0)
            if w in ms_seen:
                continue
            fresh = set()
            scan(w, fresh)
            ms.add(w)
            ms_seen.add(w)
            pending.extend(sorted(fresh - ms_seen, key=_lpm_key))
    if stats is not None:
        stats["pairs_examined"] = stats.get("pairs_examined", 0) + examined
        stats["working_set"] = len(ms_seen)
    return frozenset(rs)


def assemble(omega, q, g, stats=None, deadline=None):
    """Optimal partitioning followed by the partitioned join."""
    p, cost = optimal_partitioning(omega, q, stats=stats, deadline=deadline)
    if stats is not None:
        stats["join_cost"] = cost
    return partitioning_based_join(p, q, g, stats=stats, deadline=deadline)
