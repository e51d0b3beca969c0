"""Media packet traces.

A trace is a finite set of packets, each carrying a payload size, a
distortion reduction earned on timely decoding, an arrival slot, a deadline
slot (the last slot in which transmission is still useful), and an optional
set of parent packets that must be decoded first.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_TRACE_FIELDS = {"packets"}
_PACKET_FIELDS = {"id", "size_bits", "distortion", "arrival", "deadline", "parents"}
# Every per-slot table is sized by the largest deadline, so this bounds the
# memory and time of indexing, planning and simulating a valid trace.
MAX_DEADLINE = 2**16
# What validate_trace requires of each scalar packet field; NumPy's numbers pass.
_INTEGER, _REAL = (int, np.integer), (int, float, np.integer, np.floating)
_FIELD_TYPES = {"id": (_INTEGER, "an integer"), "arrival": (_INTEGER, "an integer"),
                "deadline": (_INTEGER, "an integer"), "size_bits": (_REAL, "a real number"),
                "distortion": (_REAL, "a real number")}


def _bits(mask: int):
    """Set bit positions of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def close(rel: list[int], nodes=None) -> list[int]:
    """Transitive closure of a relation given as one mask per node (Warshall).

    nodes, when given, are the only nodes whose masks are not closed yet:
    no other mask names one of them, so only these need passing through.
    """
    reach = list(rel)
    nodes = range(len(reach)) if nodes is None else nodes
    for k in nodes:
        bit, via = 1 << k, reach[k]
        for i in nodes:
            if reach[i] & bit:
                reach[i] |= via
    return reach


class TraceFormatError(ValueError):
    """The document could not be parsed into packets."""


class TraceValidationError(ValueError):
    """A parsed trace violates structural invariants."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid trace: " + "; ".join(self.violations))


@dataclass(frozen=True)
class Packet:
    id: int
    size_bits: float
    distortion: float
    arrival: int
    deadline: int
    parents: frozenset[int] = field(default_factory=frozenset)


@dataclass(frozen=True)
class MediaTrace:
    packets: tuple[Packet, ...]

    @cached_property
    def _hash(self) -> int:  # the generated hash, which walks every packet, once
        return hash((self.packets,))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def horizon(self) -> int:
        """Largest deadline in the trace, 0 when empty."""
        return max((p.deadline for p in self.packets), default=0)

    @cached_property
    def by_id(self) -> dict[int, Packet]:
        return {p.id: p for p in self.packets}

    @cached_property
    def _pos(self) -> dict[int, int]:
        """Position of each id; a repeated id names its last packet, as by_id does."""
        return {p.id: i for i, p in enumerate(self.packets)}

    @cached_property
    def parent_masks(self) -> list[int]:
        """Per position, the positions of its parents; unknown parents are skipped."""
        pos = self._pos
        return [sum(1 << pos[x] for x in p.parents if x in pos) for p in self.packets]

    @cached_property
    def topo_order(self) -> list[int]:
        """Positions in Kahn order: the parentless ones by position, then each
        packet once its last parent is placed. A packet on a dependency cycle,
        or depending on one, is never placed and is left out."""
        parents = self.parent_masks
        kids: list[list[int]] = [[] for _ in parents]
        for i, pm in enumerate(parents):
            for p in _bits(pm):
                kids[p].append(i)
        indeg = [pm.bit_count() for pm in parents]
        order = [i for i, d in enumerate(indeg) if d == 0]
        for node in order:  # the list grows while it is walked
            for kid in kids[node]:
                indeg[kid] -= 1
                if indeg[kid] == 0:
                    order.append(kid)
        return order

    @cached_property
    def ancestor_masks(self) -> list[int]:
        """Per position, the positions it transitively depends on (bit i is
        packets[i]); unknown parents are skipped, and a packet on a dependency
        cycle is its own ancestor.

        One pass in Kahn order closes every placed packet over its parents'
        closed masks; only the packets Kahn's pass leaves behind (on or below
        a cycle) need the Warshall closure, and only among themselves.
        """
        parents, order = self.parent_masks, self.topo_order
        placed = set(order)
        left = [i for i in range(len(parents)) if i not in placed]
        anc = [0] * len(parents)
        for i in order + left:
            mask = parents[i]
            for p in _bits(mask):
                mask |= anc[p]
            anc[i] = mask
        return close(anc, left)

    @cached_property
    def descendant_masks(self) -> list[int]:
        """Per position, the positions that transitively depend on it: the
        packets Kahn's pass leaves behind (on or below a cycle) join their
        ancestors' masks, then a reverse pass in Kahn order does the rest."""
        parents, order = self.parent_masks, self.topo_order
        desc = [0] * len(parents)
        for i in set(range(len(parents))).difference(order):
            for a in _bits(self.ancestor_masks[i]):
                desc[a] |= 1 << i
        for i in reversed(order):
            for p in _bits(parents[i]):
                desc[p] |= 1 << i | desc[i]
        return desc

    @cached_property
    def has_dependencies(self) -> bool:
        return any(p.parents for p in self.packets)

    def live(self, t: int) -> frozenset[int]:
        return frozenset(p.id for p in self.packets if p.arrival <= t <= p.deadline)


def validate_trace(trace: MediaTrace) -> list[str]:
    """Return a list of invariant violations, empty when the trace is sound."""
    if not isinstance(trace.packets, tuple):
        return ["packets must be a tuple"]
    out = [f"packet {p.id}: {name} must be {what}" for p in trace.packets
           for name, (kinds, what) in _FIELD_TYPES.items()
           if not isinstance(getattr(p, name), kinds)]
    out += [f"packet {p.id}: parents must be a frozenset of integer ids" for p in trace.packets
            if not isinstance(p.parents, frozenset)
            or not all(isinstance(x, _INTEGER) for x in p.parents)]
    if out:  # reported alone: the checks below compare and hash these fields
        return out
    seen: set[int] = set()
    for p in trace.packets:
        if p.id in seen:
            out.append(f"packet {p.id}: duplicate id")
        seen.add(p.id)
    for p in trace.packets:
        for name in ("size_bits", "distortion"):
            if not math.isfinite(getattr(p, name)):
                out.append(f"packet {p.id}: {name} must be finite")
        if p.size_bits <= 0:
            out.append(f"packet {p.id}: size_bits must be positive")
        if p.distortion < 0:
            out.append(f"packet {p.id}: distortion must be nonnegative")
        if p.arrival < 0:
            out.append(f"packet {p.id}: arrival must be nonnegative")
        if not p.arrival < p.deadline:
            out.append(f"packet {p.id}: arrival must precede deadline")
        if p.deadline > MAX_DEADLINE:
            out.append(f"packet {p.id}: deadline above {MAX_DEADLINE}")
        for parent in sorted(p.parents):
            if parent == p.id:
                out.append(f"packet {p.id}: depends on itself")
                continue
            if parent not in trace.by_id:
                out.append(f"packet {p.id}: unknown parent {parent}")
                continue
            par = trace.by_id[parent]
            if par.arrival > p.arrival:
                out.append(
                    f"packet {p.id}: parent {parent} arrives later ({par.arrival} > {p.arrival})"
                )
            if par.deadline > p.deadline:
                out.append(
                    f"packet {p.id}: parent {parent} expires later ({par.deadline} > {p.deadline})"
                )
    if not math.isfinite(sum(p.distortion for p in trace.packets if math.isfinite(p.distortion))):
        out.append("distortions must add up to a finite total, which bounds every value")
    anc = trace.ancestor_masks
    looped = sorted(p.id for i, p in enumerate(trace.packets) if anc[i] >> i & 1)
    if looped:
        out.append("dependency cycle through packets " + ", ".join(map(str, looped)))
    return out


def _read_object(doc, fields, error, where: str | None = None, optional=frozenset()) -> dict:
    """doc as a JSON object with every field but the optional ones, and no other.

    With where None, doc is the document itself (bytes, text or a readable
    file) and is parsed first; otherwise doc is an entry already parsed and
    where names it in messages. Every failure raises error, so no parser
    exception escapes a loader.
    """
    if where is None:
        where = "top level"
        try:
            raw = doc.read() if hasattr(doc, "read") else doc
            doc = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
        except (ValueError, RecursionError) as exc:  # also bad UTF-8 and overlong numbers
            raise error(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{where} is not an object")
    unknown = set(doc) - fields
    if unknown:
        raise error(f"{where}: unknown fields {sorted(unknown)}")
    missing = fields - optional - set(doc)
    if missing:
        raise error(f"{where}: missing fields {sorted(missing)}")
    return doc


def _json_int(value) -> int:
    """A JSON integer: not a bool, a string or a number with a fraction or exponent."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def load_trace(source) -> MediaTrace:
    """Parse a trace document (bytes, text, or a readable file) and validate it.

    Raises TraceFormatError on malformed documents and TraceValidationError
    when the parsed packets break trace invariants.
    """
    doc = _read_object(source, _TRACE_FIELDS, TraceFormatError)
    if not isinstance(doc["packets"], list):
        raise TraceFormatError("'packets' must be a list")

    packets = []
    for pos, entry in enumerate(doc["packets"]):
        where = f"packet at position {pos}"
        entry = _read_object(entry, _PACKET_FIELDS, TraceFormatError, where, {"parents"})
        try:
            parents = entry.get("parents", [])
            if not isinstance(parents, list):
                raise TypeError("parents must be a list")
            packets.append(
                Packet(
                    id=_json_int(entry["id"]),
                    size_bits=float(entry["size_bits"]),
                    distortion=float(entry["distortion"]),
                    arrival=_json_int(entry["arrival"]),
                    deadline=_json_int(entry["deadline"]),
                    parents=frozenset(map(_json_int, parents)),
                )
            )
        except (TypeError, ValueError, OverflowError) as exc:
            raise TraceFormatError(f"{where}: bad field value ({exc})") from exc

    trace = MediaTrace(packets=tuple(packets))
    violations = validate_trace(trace)
    if violations:
        raise TraceValidationError(violations)
    return trace


def dump_trace(trace: MediaTrace) -> str:
    """Serialize a trace back to its document form."""
    doc = {
        "packets": [
            {
                "id": p.id,
                "size_bits": p.size_bits,
                "distortion": p.distortion,
                "arrival": p.arrival,
                "deadline": p.deadline,
                "parents": sorted(p.parents),
            }
            for p in trace.packets
        ]
    }
    return json.dumps(doc, indent=2)


def synth_trace(
    n_gops: int,
    frames_per_gop: int,
    slots_per_frame: int,
    distortion_profile,
    seed: int,
) -> MediaTrace:
    """Build a synthetic trace of chained groups.

    Each group holds frames_per_gop packets forming one dependency chain,
    all arriving when the group starts and sharing the group-end deadline.
    The profile fixes the per-position distortion ordering; a per-group
    scale drawn from the seed keeps instances distinguishable without
    breaking the within-group ordering.
    """
    if n_gops < 1 or frames_per_gop < 1 or slots_per_frame < 1:
        raise ValueError("n_gops, frames_per_gop and slots_per_frame must be >= 1")
    profile = [float(x) for x in distortion_profile]
    if len(profile) != frames_per_gop:
        raise ValueError("distortion_profile length must equal frames_per_gop")
    if any(x <= 0 for x in profile):
        raise ValueError("distortion_profile values must be positive")
    if any(a < b for a, b in zip(profile, profile[1:])):
        raise ValueError("distortion_profile must be nonincreasing")

    rng = np.random.default_rng(seed)
    gop_len = frames_per_gop * slots_per_frame
    packets = []
    for g in range(n_gops):
        scale = 1.0 + 0.2 * float(rng.random())
        start = g * gop_len
        for f in range(frames_per_gop):
            pid = g * frames_per_gop + f
            packets.append(
                Packet(
                    id=pid,
                    size_bits=1.0,
                    distortion=profile[f] * scale,
                    arrival=start,
                    deadline=start + gop_len,
                    parents=frozenset() if f == 0 else frozenset({pid - 1}),
                )
            )
    return MediaTrace(packets=tuple(packets))
