"""Bulk-synchronous assembly of local partial matches.

Each fragment acts as a site.  Sites are totally ordered by the size of
their partial-match sets (ties by fragment id), and every message climbs
that order: an item is sent to the topology-adjacent sites ranked above
everything in its provenance.  An item's provenance is the set of homes
of its internal images: a fragment's partial match is internal exactly
on the vertices that fragment owns, and a join unions internal sets.  A
site admits a join only when the merged provenance peaks at the site
itself, and a finished match is emitted only at the highest-ranked
fragment among its image vertices' homes (its top home), so each match
surfaces at exactly one site.

A complete item, one that binds every query vertex, joins into nothing
but its own vector, so it travels only to its top home, which ranks
above the sender (the sender is one of its homes).  The top home owns an
image vertex, which a provenance fragment stores as extended, so it is
one of the sites the partial-item rule would pick.  No complete item
enters a pool: the top home emits an arriving one at once.  No site
sends one that the top home's own search must already have found
(held_at, decided from vertex homes alone): the top home emitted it at
start-up.  One rule (_settle) settles a complete item, whether a site's
search found it or a join made it: drop it when its top home holds it,
then when it fails the site's local check, else emit it at its top home
or send it there.  At start-up the check runs only where some query
edge lies between two extended images, since the search already checked
every edge with an internal endpoint.

Supersteps alternate computation and a barriered exchange; the run ends
when a superstep posts nothing, without a barrier, so a run whose
start-up posts nothing makes no exchange round at all.  A compute step
closes the site's arrivals into its PartialMatchIndex, the join loop
that centralized assembly runs too; what is particular to BSP (the
provenance peak, the emission rule, the outbox) is the keep() it
passes.  The exchange moves a run's records, all of one RecordLayout,
through an in-process mailbox or over loopback TCP, where the barrier
carries each site's buffer in one send-then-read loop over its own
connection, with no selector and no end frame: both ends are in this
process, so the receiver reads exactly its site's buffer, and a site
with nothing posted is skipped.  A record carries the vector and its
internal flags only; every site derives provenance from vertex homes.
Before partial evaluation, the same exchange can carry one admission
round, in which sites share which boundary vertices pass their checks.
It carries no verdicts on a query's anchor, which each site binds only
to its own vertices, so a radius-1 query whose anchor is its one
filterable vertex makes no round.  The caller owns the exchange.
The engine keeps one loopback exchange per DistributedGraph
(take_tcp_exchange / keep_tcp_exchange): a component takes it out of
the graph, so concurrent queries never share one, and gives it back
only after a clean finish.
"""

from __future__ import annotations

import select
import socket
import struct
import weakref

from .matcher import (LocalPartialMatch, _connected_through,
                      checked_by_search, is_complete_match)
from .assembly_central import PartialMatchIndex, _lpm_key
from .assembly_central import join, joinable  # noqa: F401  (re-exported)

NULL_ID = 0xFFFFFFFF
_LENGTH = struct.Struct(">I")   # the frame header of the TCP transport


class NonTermination(Exception):
    """The superstep guard tripped; indicates a routing or admission bug,
    never expected on any input."""


def fragment_order(omega):
    """Total order over fragments as {fragment id: rank}: fewer partial
    matches first, ties by fragment id."""
    fids = sorted(omega, key=lambda fid: (len(omega[fid]), fid))
    return {fid: i for i, fid in enumerate(fids)}


def provenance(dg, pm):
    """The fragments an item comes from: the homes of its internal
    images."""
    return frozenset(dg.home(pm.fn[v]) for v in pm.internal)


def route(prov, rank, topo):
    """Destination sites for an item of provenance prov: strictly above
    every fragment of prov, and topology-adjacent to one of them."""
    top = max(rank[f] for f in prov)
    dests = set()
    for fid in topo.nodes:
        if rank[fid] <= top:
            continue
        if any(fid in topo.adjacency.get(f, frozenset()) for f in prov):
            dests.add(fid)
    return dests


class RecordLayout:
    """The wire layout every local-partial-match record of one run
    shares, fixed by the query size n: n vertex ids (NULL_ID for
    unmatched), then an internal-flag bitmap of max(1, ceil(n/32))
    words, all big-endian.  A record has no header: both transports
    deliver each record as its own payload, and its size,
    4n + 4 max(1, ceil(n/32)) bytes, grows strictly with n, so a record
    of another run has another size."""

    def __init__(self, n):
        self.flag_bytes = 4 * max(1, (n + 31) // 32)
        self.struct = struct.Struct(">%dI%ds" % (n, self.flag_bytes))


def encode_lpm(pm, layout):
    """pm as one record of layout."""
    flags = 0
    for v in pm.internal:
        flags |= 1 << v
    return layout.struct.pack(
        *(NULL_ID if u is None else u for u in pm.fn),
        flags.to_bytes(layout.flag_bytes, "big"))


def decode_lpm(data, layout):
    """The partial match in one record of layout; a record that does
    not fit layout is a ValueError."""
    if len(data) != layout.struct.size:
        raise ValueError("bad record length")
    *ids, flags = layout.struct.unpack(data)
    flags = int.from_bytes(flags, "big")
    fn = tuple(None if u == NULL_ID else u for u in ids)
    internal = frozenset(v for v in range(len(ids)) if flags & (1 << v))
    return LocalPartialMatch(fn, internal)


def encode_admission(v, ids):
    """Wire record of one admission verdict: query vertex v, then the
    ids of the sender's vertices admitted for it."""
    return struct.pack(">H%dI" % len(ids), v, *ids)


def decode_admission(data):
    if len(data) < 2 or (len(data) - 2) % 4:
        raise ValueError("bad admission record length")
    (v,) = struct.unpack_from(">H", data, 0)
    return v, struct.unpack_from(">%dI" % ((len(data) - 2) // 4), data, 2)


def exchange_admission(dg, own, exchange, home_only=None):
    """The admission round, one barrier before superstep 0.

    own[fid] is matcher.admitted() at site fid.  Each site tells each
    topology neighbour, in one record per filterable query vertex, which
    of the vertices it admitted the neighbour stores as extended
    vertices.  A site's extended vertices are all owned by neighbours, so
    what it holds afterwards is the global admitted set cut to its own
    vertices.  The verdicts on home_only, a query vertex that the search
    binds only to internal vertices (the engine's anchor), are not sent:
    every id a site receives is extended there, so they would change no
    search.  A record with no ids would add nothing and is not sent;
    when no site sends anything, the barrier is skipped too.  A site's
    own frozensets are kept; only a query vertex that received ids gets
    a new one.  Returns (per-site admitted sets, messages, bytes).
    """
    messages = 0
    byte_count = 0
    for fid in range(dg.k):
        verdicts = sorted((v, hosts) for v, hosts in own[fid].items()
                          if v != home_only)
        for dst in sorted(dg.topo.adjacency[fid]):
            boundary = dg.fragments[dst].extended
            for v, hosts in verdicts:
                ids = sorted(hosts & boundary)
                if not ids:
                    continue
                payload = encode_admission(v, ids)
                exchange.post(dst, payload)
                messages += 1
                byte_count += len(payload)
    delivered = exchange.flush() if messages else {}
    admit = {}
    for fid in range(dg.k):
        received = {}
        for payload in delivered.get(fid, ()):
            v, ids = decode_admission(payload)
            received.setdefault(v, []).append(ids)
        # a site keeps its own sets where nothing arrived
        admit[fid] = sets = dict(own[fid])
        for v, parts in received.items():
            sets[v] = sets[v].union(*parts)
    return admit, messages, byte_count


class InProcessExchange:
    """Mailbox exchange: payloads accumulate per destination and are
    handed over at the barrier."""

    def __init__(self, k):
        self.k = k
        self._boxes = {i: [] for i in range(k)}

    def post(self, dst, payload):
        self._boxes[dst].append(payload)

    def flush(self):
        out = self._boxes
        self._boxes = {i: [] for i in range(self.k)}
        return out

    def close(self):
        pass


class TcpLoopbackExchange:
    """The same barrier contract carried over real loopback sockets, one
    connection per site.  Each record travels as a 4-byte big-endian
    length and its payload; a round has no end frame.

    Posted records wait in a per-site buffer until the barrier, where
    flush() carries each site's round over its own connection (_carry).
    Both ends are in this process, so the receiver knows its round's
    length and reads exactly its site's buffer; a site with nothing
    posted is skipped.  The connections last as long as the exchange.
    An exchange whose round failed midway may hold part of that round
    and must be closed.
    """

    def __init__(self, k):
        self.k = k
        self._senders = []
        self._receivers = []
        self._outboxes = [bytearray() for _ in range(k)]
        # closes the sockets once the exchange is collected, if not before
        self._finalizer = weakref.finalize(self, _close_all, self._senders,
                                           self._receivers)
        servers = []
        try:
            for _ in range(k):
                srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                servers.append(srv)
                srv.bind(("127.0.0.1", 0))
                srv.listen(1)
            for srv in servers:
                snd = socket.create_connection(srv.getsockname())
                self._senders.append(snd)
                snd.setblocking(False)
            for srv in servers:
                self._receivers.append(srv.accept()[0])
        except BaseException:
            self.close()
            raise
        finally:
            for srv in servers:
                srv.close()

    def post(self, dst, payload):
        box = self._outboxes[dst]
        box += _LENGTH.pack(len(payload))
        box += payload

    def flush(self):
        boxes = self._outboxes
        self._outboxes = [bytearray() for _ in range(self.k)]
        return {dst: _carry(snd, conn, box) for dst, (snd, conn, box)
                in enumerate(zip(self._senders, self._receivers, boxes))}

    def close(self):
        self._finalizer()


def _carry(sender, receiver, box):
    """The records of one site's round, box, carried from the
    non-blocking sender to the blocking receiver.  Each pass writes what
    the sender takes, or waits until it is writable when it takes
    nothing, then reads exactly the bytes sent, so a round may be larger
    than the socket buffers and no read waits on a byte not yet sent.
    An empty round makes no system call.  The end of the stream before
    the round is complete is a ConnectionError."""
    data = memoryview(box)
    inbox = memoryview(bytearray(len(box)))
    got = 0
    while got < len(box):
        sent = got + _send(sender, data[got:])
        if sent == got:
            select.select((), (sender,), ())
        while got < sent:
            n = receiver.recv_into(inbox[got:sent])
            if not n:
                raise ConnectionError("peer closed mid-round")
            got += n
    return _frames(inbox)


def _send(sock, data):
    """Bytes of data that one send on the non-blocking sock takes."""
    try:
        return sock.send(data)
    except BlockingIOError:
        return 0


def _close_all(*socket_lists):
    for socks in socket_lists:
        for sock in socks:
            sock.close()


_GRAPH_SLOT = "_tcp_exchange"


def take_tcp_exchange(dg):
    """Take dg's loopback exchange out of the graph, or open one when the
    graph holds none (first use, or another query has it)."""
    exchange = vars(dg).pop(_GRAPH_SLOT, None)
    if exchange is None:
        exchange = TcpLoopbackExchange(dg.k)
    return exchange


def keep_tcp_exchange(dg, exchange):
    """Give back an exchange whose last round finished, for dg's next
    component; when the graph already holds one again, close this one."""
    if vars(dg).setdefault(_GRAPH_SLOT, exchange) is not exchange:
        exchange.close()


def _frames(data):
    """Split one round's stream, a memoryview, into its records."""
    out = []
    pos = 0
    end = len(data)
    while pos < end:
        (size,) = _LENGTH.unpack_from(data, pos)
        pos += 4
        out.append(data[pos:pos + size].tobytes())
        pos += size
    return out


def is_complete_locally(q, dg, fn):
    """is_complete_match against local state only: the labels on a pair
    come from the home fragment of its source vertex, which stores every
    edge of the vertices it owns."""
    return is_complete_match(q, fn, lambda a, b: dg.fragments[
        dg.home(a)].edges.get((a, b), frozenset()))


def top_home(dg, rank, fn):
    """The highest-ranked home among the image vertices of fn, the one
    site that may emit it."""
    return max(map(dg.home, fn), key=rank.__getitem__)


def held_at(q, dg, site, fn):
    """True when site's own search finds the complete match fn as a
    local partial match, internal on I, the query vertices whose images
    site owns.

    For a match, six of the eight conditions of is_local_partial_match
    hold at any of its homes, as its edges with an endpoint in I are
    stored there.  The other two are that I is connected in the query
    and that every query vertex outside I neighbours it; with some
    vertex outside I, the edge to it is a crossing edge.  Admission
    keeps fn too: every image of a match passes at its home, and site
    learns its topology neighbours' verdicts.  For a vector that is not
    a match this may say True while site lacks it, so a caller may only
    drop a record on its word, never emit one.
    """
    inside = frozenset(v for v, u in enumerate(fn) if dg.home(u) == site)
    return (0 < len(inside) < q.n
            and all(v in inside or not q.adj[v].isdisjoint(inside)
                    for v in range(q.n))
            and _connected_through(q, inside, inside))


def _settle(q, dg, rank, site, pm, emitted, send, found=False):
    """Settle the complete item pm at site: drop it when its top home
    holds it (held_at) or when it fails the local check, else emit it
    into emitted when site is its top home, or send(pm).  found says
    that pm is as site's own search found it, whose checked edges the
    check then trusts (checked_by_search).  True when pm was newly
    emitted."""
    top = top_home(dg, rank, pm.fn)
    if top != site and held_at(q, dg, top, pm.fn):
        return False
    if not ((found and checked_by_search(q, pm.internal))
            or is_complete_locally(q, dg, pm.fn)):
        return False
    if top != site:
        send(pm)
        return False
    if pm.fn in emitted:
        return False
    emitted.add(pm.fn)
    return True


def local_computation(site, delta_in, pool, q, dg, rank, seen, emitted,
                      deadline=None):
    """One site's compute superstep.

    The received partial items close into the site's pool (a
    PartialMatchIndex kept across supersteps) as one batch.  No two of
    them are tried against each other: all lie below the site, so their
    merge could not peak at it.  A merge is admitted when its provenance
    peaks at the site and it is new to seen.  A complete admitted
    result is settled (_settle), its sending readied for the outbox; a
    partial one is readied for routing and joins the pool in turn.
    seen holds every item the site has pooled or produced, emitted every
    vector it has emitted; both are updated in place.  Returns (newly
    emitted vectors, items for the outbox).
    """
    site_rank = rank[site]
    out = []
    new_emits = set()

    def keep(merged):
        if merged in seen:
            return False
        if max(rank[dg.home(merged.fn[v])]
               for v in merged.internal) != site_rank:
            return False
        seen.add(merged)
        if None in merged.fn:
            out.append(merged)
            return True
        if _settle(q, dg, rank, site, merged, emitted, out.append):
            new_emits.add(merged.fn)
        return False

    seen.update(delta_in)
    pool.close(delta_in, q, keep, deadline)
    return new_emits, out


def run_bsp(dg, q, omega, stats=None, exchange=None, deadline=None):
    """Drive the sites to quiescence and collect every emission.

    Superstep 0 settles each site's complete matches (_settle) and sends
    its partial ones along the routing rule; compute and exchange then
    alternate until a superstep posts nothing, at most k-1
    times.  Every record of the run has one RecordLayout.  The returned
    set is the union of all sites' emissions, pairwise disjoint by the
    emission rule.  omega holds each fragment's local partial matches as
    compute_local_partial_matches found them, which lets start-up trust
    the edges the search checked (checked_by_search) and a site trust
    that a top home holds what its search must find (held_at).
    """
    topo = dg.topo
    rank = fragment_order({fid: omega.get(fid, frozenset())
                           for fid in range(dg.k)})
    own_exchange = exchange is None
    if exchange is None:
        exchange = InProcessExchange(dg.k)

    pools = {}
    seen = {}
    emitted = {fid: set() for fid in range(dg.k)}
    messages = 0
    byte_count = 0
    routes = {}   # provenance -> destinations, which depend on nothing else
    layout = RecordLayout(q.n)

    def post(pm, dests):
        nonlocal messages, byte_count
        if not dests:
            return
        payload = encode_lpm(pm, layout)
        for dst in dests:
            exchange.post(dst, payload)
        messages += len(dests)
        byte_count += len(dests) * len(payload)

    def send(pm):
        if None not in pm.fn:
            post(pm, (top_home(dg, rank, pm.fn),))
            return
        prov = provenance(dg, pm)
        dests = routes.get(prov)
        if dests is None:
            dests = routes[prov] = sorted(route(prov, rank, topo))
        post(pm, dests)

    for fid in range(dg.k):
        base = []
        for pm in sorted(omega.get(fid, ()), key=_lpm_key):
            if None in pm.fn:
                base.append(pm)
                send(pm)
            else:
                _settle(q, dg, rank, fid, pm, emitted[fid], send, found=True)
        pools[fid] = PartialMatchIndex(q, base)
        seen[fid] = set(base)

    productive = 0
    supersteps_run = 0
    flushed = 0   # messages posted before the last barrier
    try:
        while messages > flushed:
            flushed = messages
            delivered = exchange.flush()
            if deadline is not None:
                deadline.check("assembly")
            supersteps_run += 1
            # what arrives in superstep t was sent by a site that computed
            # in t-1 (so ranks t-1 or more) to a site ranked strictly
            # higher, so only sites of rank t or more compute in t
            if supersteps_run > dg.k - 1:
                raise NonTermination("still exchanging after %d supersteps"
                                     % supersteps_run)
            was_productive = False
            for fid in range(dg.k):
                arrivals = set()
                for payload in delivered.get(fid, []):
                    pm = decode_lpm(payload, layout)
                    if None in pm.fn:
                        if pm not in seen[fid]:
                            arrivals.add(pm)
                    elif pm.fn not in emitted[fid]:
                        # only its top home is sent a complete item
                        emitted[fid].add(pm.fn)
                        was_productive = True
                if not arrivals:
                    continue
                arrivals = sorted(arrivals, key=_lpm_key)
                new_emits, out = local_computation(
                    fid, arrivals, pools[fid], q, dg, rank,
                    seen=seen[fid], emitted=emitted[fid], deadline=deadline)
                if new_emits or out:
                    was_productive = True
                for pm in out:
                    send(pm)
            if was_productive:
                productive += 1
    finally:
        if own_exchange:
            exchange.close()

    all_vectors = set()
    total = 0
    for fid in range(dg.k):
        all_vectors |= emitted[fid]
        total += len(emitted[fid])
    if total != len(all_vectors):
        raise RuntimeError("a match was emitted at two sites")

    if stats is not None:
        stats["supersteps_used"] = productive
        stats["supersteps_run"] = supersteps_run
        stats["messages_sent"] = messages
        stats["bytes_sent"] = byte_count
        stats["emissions_per_site"] = {fid: len(emitted[fid])
                                       for fid in range(dg.k)}
        stats["topology_diameter"] = topo.diameter
    return frozenset(all_vectors)
