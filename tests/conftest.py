"""Shared instance generators for the randomized suites.

Everything is driven by explicit numpy generators so failures replay from
the seed alone. Dependency draws keep parents arriving and expiring no
later than their children. Unless gaps are asked for, they also start every
child no later than one slot after its parent expires, so no reference
resumes after a slot gap in which the parent's delivery bit is only carried.
"""

from itertools import combinations

from mediasched import (
    ChannelModel,
    ChannelState,
    MediaTrace,
    Packet,
    reachable_states,
)


def rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def random_channel(rng, n_states: int | None = None) -> ChannelModel:
    n = int(rng.integers(2, 5)) if n_states is None else n_states
    states = tuple(
        ChannelState(
            id=i,
            gain=float(rng.uniform(0.3, 4.0)),
            rate=float(rng.uniform(0.3, 2.0)),
            loss_prob=float(rng.uniform(0.0, 0.3)),
        )
        for i in range(n)
    )
    transition = rng.uniform(0.05, 1.0, size=(n, n))
    transition /= transition.sum(axis=1, keepdims=True)
    initial = rng.uniform(0.05, 1.0, size=n)
    initial /= initial.sum()
    return ChannelModel(states=states, transition=transition, initial=initial)


def random_trace(
    rng,
    n: int | None = None,
    horizon: int | None = None,
    deps: bool = False,
    uniform: bool = False,
    gaps: bool = False,
) -> MediaTrace:
    n = int(rng.integers(2, 7)) if n is None else n
    horizon = int(rng.integers(3, 9)) if horizon is None else horizon
    base = int(rng.integers(0, 3))  # ids need not start at zero
    packets: list[Packet] = []
    for j in range(n):
        a = int(rng.integers(0, horizon))
        d = int(rng.integers(a + 1, horizon + 1))
        parents = frozenset()
        if deps:
            parents = frozenset(
                pk.id
                for pk in packets
                if pk.arrival <= a
                and pk.deadline <= d
                and (gaps or a <= pk.deadline + 1)
                and rng.random() < 0.4
            )
        packets.append(
            Packet(
                id=base + j,
                size_bits=1.0 if uniform else float(rng.uniform(0.5, 2.0)),
                distortion=float(rng.uniform(1.0, 10.0)),
                arrival=a,
                deadline=d,
                parents=parents,
            )
        )
    return MediaTrace(packets=tuple(packets))


def has_reference_gap(trace: MediaTrace) -> bool:
    """Some packet is referenced again after a slot, past its deadline, in
    which none of its children is live."""
    for p in trace.packets:
        kids = [c for c in trace.packets if p.id in c.parents]
        for t in range(p.deadline + 1, max((c.deadline for c in kids), default=0)):
            if not any(c.arrival <= t <= c.deadline for c in kids):
                return True
    return False


# -- pairwise-only filters ----------------------------------------------------
#
# The closed-form pending-set count (nodes plus unordered pairs) holds only
# when no three nodes are mutually unordered; these filters scope the suites
# that assert it.


def incomparable_pairs(nodes, succ) -> set[tuple[int, int]]:
    """Unordered pairs with no directed path either way under succ edges."""
    reach: dict[int, set[int]] = {}
    for start in nodes:
        seen: set[int] = set()
        frontier = list(succ.get(start, ()))
        while frontier:
            x = frontier.pop()
            if x not in seen:
                seen.add(x)
                frontier.extend(succ.get(x, ()))
        reach[start] = seen
    return {
        (a, b)
        for a, b in combinations(sorted(nodes), 2)
        if b not in reach[a] and a not in reach[b]
    }


def pairwise_only(nodes, succ) -> bool:
    """True when no three nodes are mutually unordered."""
    inc = incomparable_pairs(nodes, succ)
    adj: dict[int, set[int]] = {}
    for a, b in inc:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return not any(
        c in adj.get(b, ()) for a, b in inc for c in adj.get(a, ()) if c != b
    )


def slotwise_pairwise_only(trace: MediaTrace) -> bool:
    """Every slot's carried-packet graph is free of mutually unordered triples."""
    for t in range(trace.horizon + 1):
        _, aux = reachable_states(trace, t)
        succ: dict[int, set[int]] = {}
        for a, b in aux.edges:
            succ.setdefault(a, set()).add(b)
        if not pairwise_only(aux.nodes, succ):
            return False
    return True
