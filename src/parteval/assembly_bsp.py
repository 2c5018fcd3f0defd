"""Bulk-synchronous assembly of local partial matches.

Each fragment acts as a site.  Sites are totally ordered by the size of
their partial-match sets (ties by fragment id), and every message climbs
that order: an item is sent to the topology-adjacent sites ranked above
everything in its provenance.  A site admits a join only when the merged
provenance peaks at the site itself, and a finished match is emitted
only at the highest-ranked fragment among its image vertices' homes (its
top home), so each match surfaces at exactly one site.

A complete item, one that binds every query vertex, joins into nothing
but its own vector, so it travels only to its top home, and only when
that home ranks above the sender (else it could never be emitted).  The
top home owns an image vertex, which a provenance fragment stores as
extended, so it is one of the sites the partial-item rule would pick.
No complete item enters a pool: the top home emits an arriving one at
once, and at start-up a site drops one that fails its local check and
emits, without sending, one whose top home it is.

Supersteps alternate computation and a barriered exchange; the run ends
when an exchange delivers nothing.  A compute step closes the site's
arrivals into its PartialMatchIndex, the join loop that centralized
assembly runs too; what is particular to BSP (the provenance peak, the
emission rule, the outbox) is the keep() it passes.  The exchange moves
encoded byte records, either through an in-process mailbox or over
loopback TCP.  Before partial evaluation, the same exchange can carry
one admission round, in which sites share which boundary vertices pass
their checks.  The caller owns the exchange.  The engine keeps one
loopback exchange per DistributedGraph (take_tcp_exchange /
keep_tcp_exchange): a component takes it out of the graph, so
concurrent queries never share one, and gives it back only after a
clean finish.
"""

from __future__ import annotations

import selectors
import socket
import struct
import weakref

from .matcher import LocalPartialMatch, is_complete_match
from .assembly_central import PartialMatchIndex, _lpm_key
from .assembly_central import join, joinable  # noqa: F401  (re-exported)

NULL_ID = 0xFFFFFFFF


class NonTermination(Exception):
    """The superstep guard tripped; indicates a routing or admission bug,
    never expected on any input."""


def fragment_order(omega):
    """Total order over fragments as {fragment id: rank}: fewer partial
    matches first, ties by fragment id."""
    fids = sorted(omega, key=lambda fid: (len(omega[fid]), fid))
    return {fid: i for i, fid in enumerate(fids)}


def route(pm, rank, topo):
    """Destination sites for an item: strictly above the item's whole
    provenance, and topology-adjacent to some provenance fragment."""
    top = max(rank[f] for f in pm.fragments)
    dests = set()
    for fid in topo.nodes:
        if rank[fid] <= top:
            continue
        if any(fid in topo.adjacency.get(f, frozenset())
               for f in pm.fragments):
            dests.add(fid)
    return dests


def encode_lpm(pm, src):
    """Wire record: length, vertex count, source fragment, provenance
    bitmap, vertex ids (NULL_ID for unmatched), internal-flag bitmap.

    The provenance bitmap takes as many 32-bit words as its highest
    fragment id needs, at least one; the decoder works its width out
    from the record length.  The internal-flag bitmap takes as many
    words as the vertex count needs, at least one.
    """
    n = len(pm.fn)
    prov = 0
    for f in pm.fragments:
        prov |= 1 << f
    flags = 0
    for v in pm.internal:
        flags |= 1 << v
    body = struct.pack(">HH", n, src)
    words = max(1, (prov.bit_length() + 31) // 32)
    body += prov.to_bytes(4 * words, "big")
    body += struct.pack(">%dI" % n,
                        *(NULL_ID if u is None else u for u in pm.fn))
    body += flags.to_bytes(_flag_bytes(n), "big")
    return struct.pack(">I", len(body)) + body


def _flag_bytes(n):
    return 4 * max(1, (n + 31) // 32)


def decode_lpm(data):
    (length,) = struct.unpack_from(">I", data, 0)
    if length != len(data) - 4:
        raise ValueError("bad record length")
    n, src = struct.unpack_from(">HH", data, 4)
    flag_bytes = _flag_bytes(n)
    width = length - 4 - 4 * n - flag_bytes
    if width < 4 or width % 4:
        raise ValueError("bad record length")
    prov = int.from_bytes(data[8:8 + width], "big")
    ids = struct.unpack_from(">%dI" % n, data, 8 + width)
    flags = int.from_bytes(data[8 + width + 4 * n:], "big")
    fn = tuple(None if u == NULL_ID else u for u in ids)
    internal = frozenset(v for v in range(n) if flags & (1 << v))
    fragments = frozenset(f for f in range(prov.bit_length())
                          if prov & (1 << f))
    return LocalPartialMatch(fn, internal, fragments), src


def encode_admission(v, ids):
    """Wire record of one admission verdict: query vertex v, then the
    ids of the sender's vertices admitted for it."""
    return struct.pack(">H%dI" % len(ids), v, *ids)


def decode_admission(data):
    if len(data) < 2 or (len(data) - 2) % 4:
        raise ValueError("bad admission record length")
    (v,) = struct.unpack_from(">H", data, 0)
    return v, struct.unpack_from(">%dI" % ((len(data) - 2) // 4), data, 2)


def exchange_admission(dg, own, exchange):
    """The admission round, one barrier before superstep 0.

    own[fid] is matcher.admitted() at site fid.  Each site tells each
    topology neighbour, in one record per filterable query vertex, which
    of the vertices it admitted the neighbour stores as extended
    vertices.  A site's extended vertices are all owned by neighbours, so
    what it holds afterwards is the global admitted set cut to its own
    vertices.  A record with no ids would add nothing and is not sent;
    when no site sends anything, the barrier is skipped too.  Returns
    (per-site admitted sets, messages, bytes).
    """
    messages = 0
    byte_count = 0
    for fid in range(dg.k):
        verdicts = sorted(own[fid].items())
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
        sets = {v: set(hosts) for v, hosts in own[fid].items()}
        for payload in delivered.get(fid, []):
            v, ids = decode_admission(payload)
            sets[v].update(ids)
        admit[fid] = {v: frozenset(hosts) for v, hosts in sets.items()}
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
    connection per site.  An empty frame ends each round.

    Posted records wait in a per-site buffer until the barrier.  flush()
    then writes every buffer through a non-blocking sender while reading
    the receiving ends, so a round may carry more than the socket
    buffers hold.  The connections and their selector last as long as
    the exchange: receivers stay registered, senders only while they
    have bytes left to write.  An exchange whose round failed midway may
    hold part of that round and must be closed.
    """

    _END = struct.pack(">I", 0)

    def __init__(self, k):
        self.k = k
        self._senders = []
        self._receivers = []
        self._outboxes = [bytearray() for _ in range(k)]
        self._sel = selectors.DefaultSelector()
        # closes the sockets once the exchange is collected, if not before
        self._finalizer = weakref.finalize(self, _close_all, self._sel,
                                           self._senders, self._receivers)
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
            for dst, srv in enumerate(servers):
                conn, _ = srv.accept()
                self._receivers.append(conn)
                self._sel.register(conn, selectors.EVENT_READ, dst)
        except BaseException:
            self.close()
            raise
        finally:
            for srv in servers:
                srv.close()

    def post(self, dst, payload):
        box = self._outboxes[dst]
        box += struct.pack(">I", len(payload))
        box += payload

    def flush(self):
        sel = self._sel
        unsent = {}
        inbox = [bytearray() for _ in range(self.k)]
        for dst, box in enumerate(self._outboxes):
            box += self._END
            unsent[dst] = memoryview(box)
            sel.register(self._senders[dst], selectors.EVENT_WRITE, dst)
        reading = self.k
        while reading:
            for key, _ in sel.select():
                dst = key.data
                if key.events == selectors.EVENT_WRITE:
                    sent = key.fileobj.send(unsent[dst])
                    unsent[dst] = unsent[dst][sent:]
                    if not unsent[dst]:
                        sel.unregister(key.fileobj)
                    continue
                chunk = key.fileobj.recv(1 << 16)
                if not chunk:
                    raise ConnectionError("peer closed mid-round")
                inbox[dst] += chunk
                if len(inbox[dst]) == len(self._outboxes[dst]):
                    reading -= 1
        self._outboxes = [bytearray() for _ in range(self.k)]
        return {dst: _frames(inbox[dst]) for dst in range(self.k)}

    def close(self):
        self._finalizer()


def _close_all(sel, *socket_lists):
    sel.close()
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
    """Split one round's stream into its records, up to the empty frame."""
    out = []
    pos = 0
    while True:
        (size,) = struct.unpack_from(">I", data, pos)
        pos += 4
        if size == 0:
            break
        out.append(bytes(data[pos:pos + size]))
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


def local_computation(site, delta_in, pool, q, dg, rank, seen, emitted,
                      deadline=None):
    """One site's compute superstep.

    The received partial items close into the site's pool (a
    PartialMatchIndex kept across supersteps) as one batch.  No two of
    them are tried against each other: all lie below the site, so their
    merge could not peak at it.  A merge is admitted when its provenance
    peaks at the site and it is new to seen.  A complete admitted
    result is either emitted (valid, and this site is the top home) or
    readied for routing to its top home (valid); a partial one is
    readied for routing and joins the pool in turn.  seen holds every
    item the site has pooled or produced, emitted every vector it has
    emitted; both are updated in place.  deadline, if given, is checked
    every DEADLINE_EVERY probed pairs.  Returns (newly emitted vectors,
    items for the outbox).
    """
    site_rank = rank[site]
    out = []
    new_emits = set()

    def keep(merged):
        if merged in seen:
            return False
        if max(rank[f] for f in merged.fragments) != site_rank:
            return False
        seen.add(merged)
        if None in merged.fn:
            out.append(merged)
            return True
        if not is_complete_locally(q, dg, merged.fn):
            return False
        if top_home(dg, rank, merged.fn) != site:
            out.append(merged)
        elif merged.fn not in emitted:
            emitted.add(merged.fn)
            new_emits.add(merged.fn)
        return False

    seen.update(delta_in)
    pool.close(delta_in, q, keep, deadline)
    return new_emits, out


def run_bsp(dg, q, omega, stats=None, exchange=None, deadline=None):
    """Drive the sites to quiescence and collect every emission.

    Superstep 0 only sends the initial partial matches along the routing
    rule, after each site has emitted its own complete ones; compute and
    exchange then alternate until a barrier delivers no messages.  The
    returned set is the union of all sites' emissions, which are
    pairwise disjoint by the emission rule.  deadline, if given, has
    check(phase) called once per superstep and inside long compute
    steps.
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

    def send(pm, fid):
        nonlocal messages, byte_count
        if None not in pm.fn:
            dst = top_home(dg, rank, pm.fn)
            dests = (dst,) if rank[dst] > rank[fid] else ()
        else:
            dests = routes.get(pm.fragments)
            if dests is None:
                dests = routes[pm.fragments] = sorted(route(pm, rank, topo))
        if not dests:
            return
        payload = encode_lpm(pm, fid)
        for dst in dests:
            exchange.post(dst, payload)
        messages += len(dests)
        byte_count += len(dests) * len(payload)

    for fid in range(dg.k):
        base = []
        for pm in sorted(omega.get(fid, frozenset()), key=_lpm_key):
            if None in pm.fn:
                base.append(pm)
            elif not is_complete_locally(q, dg, pm.fn):
                continue
            elif top_home(dg, rank, pm.fn) == fid:
                emitted[fid].add(pm.fn)   # and send() drops it
            send(pm, fid)
        pools[fid] = PartialMatchIndex(q, base)
        seen[fid] = set(base)

    productive = 0
    supersteps_run = 0
    superstep = 0
    try:
        while True:
            delivered = exchange.flush()
            if not any(delivered.get(fid) for fid in range(dg.k)):
                break
            if deadline is not None:
                deadline.check("assembly")
            superstep += 1
            if superstep > dg.k + 2:
                raise NonTermination("still exchanging after %d supersteps"
                                     % superstep)
            supersteps_run += 1
            was_productive = False
            for fid in range(dg.k):
                arrivals = set()
                for payload in delivered.get(fid, []):
                    pm = decode_lpm(payload)[0]
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
                    send(pm, fid)
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
