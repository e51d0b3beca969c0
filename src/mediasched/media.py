"""Media packet traces.

A trace is a finite set of packets, each carrying a payload size, a
distortion reduction earned on timely decoding, an arrival slot, a deadline
slot (the last slot in which transmission is still useful), and an optional
set of parent packets that must be decoded first.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_TRACE_FIELDS = {"packets"}
_PACKET_FIELDS = {"id", "size_bits", "distortion", "arrival", "deadline", "parents"}


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
    def horizon(self) -> int:
        """Largest deadline in the trace, 0 when empty."""
        return max((p.deadline for p in self.packets), default=0)

    @cached_property
    def by_id(self) -> dict[int, Packet]:
        return {p.id: p for p in self.packets}

    @cached_property
    def children(self) -> dict[int, frozenset[int]]:
        """Direct dependents per packet id."""
        kids: dict[int, set[int]] = {p.id: set() for p in self.packets}
        for p in self.packets:
            for parent in p.parents:
                if parent in kids:
                    kids[parent].add(p.id)
        return {i: frozenset(s) for i, s in kids.items()}

    @cached_property
    def has_dependencies(self) -> bool:
        return any(p.parents for p in self.packets)

    def live(self, t: int) -> frozenset[int]:
        return frozenset(p.id for p in self.packets if p.arrival <= t <= p.deadline)

    def arrivals(self, t: int) -> frozenset[int]:
        return frozenset(p.id for p in self.packets if p.arrival == t)


def validate_trace(trace: MediaTrace, require_uniform_size: bool = False) -> list[str]:
    """Return a list of invariant violations, empty when the trace is sound.

    Set require_uniform_size when the trace is destined for a solver that
    prices transmissions by packet count rather than by individual size.
    """
    out: list[str] = []
    seen: set[int] = set()
    for p in trace.packets:
        if p.id in seen:
            out.append(f"packet {p.id}: duplicate id")
        seen.add(p.id)
    ids = {p.id for p in trace.packets}
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
        for parent in sorted(p.parents):
            if parent == p.id:
                out.append(f"packet {p.id}: depends on itself")
                continue
            if parent not in ids:
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
    cycle = _find_cycle(trace)
    if cycle:
        out.append("dependency cycle: " + " -> ".join(str(i) for i in cycle))
    if require_uniform_size and trace.packets:
        sizes = {p.size_bits for p in trace.packets}
        if len(sizes) > 1:
            out.append(f"nonuniform packet sizes {sorted(sizes)} not supported here")
    return out


def _find_cycle(trace: MediaTrace) -> list[int] | None:
    ids = {p.id for p in trace.packets}
    color: dict[int, int] = {}  # 0 unvisited, 1 on stack, 2 done

    for start in sorted(ids):
        if color.get(start):
            continue
        stack: list[tuple[int, list[int]]] = [(start, [start])]
        while stack:
            node, path = stack.pop()
            if node < 0:
                color[-node - 1] = 2
                continue
            if color.get(node) == 2:
                continue
            color[node] = 1
            stack.append((-node - 1, path))
            for parent in sorted(trace.by_id[node].parents):
                if parent not in ids:
                    continue
                if color.get(parent) == 1:
                    return path + [parent]
                if not color.get(parent):
                    stack.append((parent, path + [parent]))
    return None


def load_trace(source) -> MediaTrace:
    """Parse a trace document (bytes, text, or a readable file) and validate it.

    Raises TraceFormatError on malformed documents and TraceValidationError
    when the parsed packets break trace invariants.
    """
    if hasattr(source, "read"):
        raw = source.read()
    else:
        raw = source
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TraceFormatError("top level must be an object")
    unknown = set(doc) - _TRACE_FIELDS
    if unknown:
        raise TraceFormatError(f"unknown top-level fields {sorted(unknown)}")
    if "packets" not in doc or not isinstance(doc["packets"], list):
        raise TraceFormatError("missing or non-list 'packets' field")

    packets = []
    for pos, entry in enumerate(doc["packets"]):
        if not isinstance(entry, dict):
            raise TraceFormatError(f"packet at position {pos} is not an object")
        unknown = set(entry) - _PACKET_FIELDS
        if unknown:
            raise TraceFormatError(
                f"packet at position {pos}: unknown fields {sorted(unknown)}"
            )
        missing = _PACKET_FIELDS - {"parents"} - set(entry)
        if missing:
            raise TraceFormatError(
                f"packet at position {pos}: missing fields {sorted(missing)}"
            )
        try:
            packets.append(
                Packet(
                    id=int(entry["id"]),
                    size_bits=float(entry["size_bits"]),
                    distortion=float(entry["distortion"]),
                    arrival=int(entry["arrival"]),
                    deadline=int(entry["deadline"]),
                    parents=frozenset(int(x) for x in entry.get("parents", [])),
                )
            )
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(f"packet at position {pos}: bad field value ({exc})") from exc

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


def descendants(trace: MediaTrace, packet_id: int) -> set[int]:
    """All packets that transitively depend on packet_id."""
    if packet_id not in trace.by_id:
        raise ValueError(f"unknown packet id {packet_id}")
    out: set[int] = set()
    frontier = [packet_id]
    while frontier:
        node = frontier.pop()
        for kid in trace.children[node]:
            if kid not in out:
                out.add(kid)
                frontier.append(kid)
    return out


def ancestors(trace: MediaTrace, packet_id: int) -> set[int]:
    """All packets that packet_id transitively depends on."""
    if packet_id not in trace.by_id:
        raise ValueError(f"unknown packet id {packet_id}")
    out: set[int] = set()
    frontier = [packet_id]
    while frontier:
        node = frontier.pop()
        for parent in trace.by_id[node].parents:
            if parent in trace.by_id and parent not in out:
                out.add(parent)
                frontier.append(parent)
    return out


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
