"""Events and partially ordered event structures over process wires.

An :class:`Event` groups some input wires and some output wires of a process
into one party/site.  Either side may be empty (a source emits only, a sink
absorbs only), and either side may span several wires, which is simply the
event of the fused system.

An :class:`EventPoset` adds a partial order; the order is given as a set of
``(below, above)`` generating pairs and queries work on the reflexive-
transitive closure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import BadPartition, CyclicOrder, FormatError, UnknownEvent


def _as_tuple(v, what: str = "wire labels") -> tuple[str, ...]:
    """A string, a sequence of strings or None as a tuple (else TypeError)."""
    labels = () if v is None else (v,) if isinstance(v, str) else tuple(v)
    bad = [l for l in labels if not isinstance(l, str)]
    if bad:
        raise TypeError(f"{what} must be strings, not {bad[0]!r}")
    return labels


@dataclass(frozen=True)
class Event:
    """One site of a multipartite process: its input wires and output wires."""

    name: str
    ins: tuple[str, ...] = ()
    outs: tuple[str, ...] = ()

    def __post_init__(self):
        _as_tuple((self.name,), "event names")
        object.__setattr__(self, "ins", _as_tuple(self.ins))
        object.__setattr__(self, "outs", _as_tuple(self.outs))


def check_partition(events: Sequence[Event], process) -> None:
    """Events must tile the process wires exactly (each wire in one event)."""
    _check_partition(events, process.out_wires, process.in_wires)


def _check_partition(events: Sequence[Event], out_wires, in_wires) -> None:
    """:func:`check_partition` for a process with these output and input wires."""
    ins: list[str] = []
    outs: list[str] = []
    for e in events:
        ins.extend(e.ins)
        outs.extend(e.outs)
    want_in = sorted(w.label for w in in_wires)
    want_out = sorted(w.label for w in out_wires)
    if sorted(ins) != want_in or sorted(outs) != want_out:
        raise BadPartition(
            f"events cover inputs {sorted(ins)} / outputs {sorted(outs)} "
            f"but the process has inputs {want_in} / outputs {want_out}"
        )
    names = [e.name for e in events]
    if len(set(names)) != len(names):
        raise BadPartition(f"event names must be unique: {names}")


class EventPoset:
    """A finite set of events with a partial order between them."""

    def __init__(self, events: Sequence[Event], order: Iterable[tuple[str, str]] = ()):
        self.events: tuple[Event, ...] = tuple(events)
        self.names: tuple[str, ...] = tuple(e.name for e in self.events)
        if len(set(self.names)) != len(self.names):
            raise BadPartition(f"event names must be unique: {list(self.names)}")
        self._by_name = {e.name: e for e in self.events}
        self._succ: dict[str, set[str]] = {n: set() for n in self.names}
        for below, above in order:
            if below not in self._by_name:
                raise UnknownEvent(f"order mentions unknown event {below!r}")
            if above not in self._by_name:
                raise UnknownEvent(f"order mentions unknown event {above!r}")
            if below != above:
                self._succ[below].add(above)
        self._below: dict[str, frozenset[str]] = self._transitive_closure()

    def _transitive_closure(self) -> dict[str, frozenset[str]]:
        # below[x] = all events <= x, computed by DFS; a back edge means the
        # declared order is cyclic.
        pred: dict[str, set[str]] = {n: set() for n in self.names}
        for b, succs in self._succ.items():
            for a in succs:
                pred[a].add(b)

        below: dict[str, frozenset[str]] = {}
        visiting: set[str] = set()

        def visit(n: str) -> frozenset[str]:
            if n in below:
                return below[n]
            if n in visiting:
                raise CyclicOrder(f"the order relation has a cycle through {n!r}")
            visiting.add(n)
            acc = {n}
            for b in pred[n]:
                acc |= visit(b)
            visiting.discard(n)
            below[n] = frozenset(acc)
            return below[n]

        for n in self.names:
            visit(n)
        return below

    def __len__(self) -> int:
        return len(self.events)

    def event(self, name: str) -> Event:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownEvent(f"no event named {name!r}") from None

    def past(self, subset: Iterable[str]) -> frozenset[str]:
        """All events lying at-or-below some event of ``subset``."""
        acc: set[str] = set()
        for n in subset:
            acc |= self._below[self.event(n).name]
        return frozenset(acc)

    def is_down_closed(self, subset: Iterable[str]) -> bool:
        s = {self.event(n).name for n in subset}
        return all(self._below[n] <= s for n in s)

    def down_closed_subsets(self) -> list[frozenset[str]]:
        """All down-closed subsets (the lattice of "completed pasts")."""
        names = self.names
        out = []
        for mask in range(1 << len(names)):
            s = frozenset(names[i] for i in range(len(names)) if mask >> i & 1)
            if self.is_down_closed(s):
                out.append(s)
        return out

    def linear_extensions(self) -> Iterable[tuple[str, ...]]:
        """All total orders refining the partial order, lazily."""
        names = list(self.names)

        def rec(remaining: list[str], acc: tuple[str, ...]):
            if not remaining:
                yield acc
                return
            placed = set(acc)
            for n in remaining:
                if all(b in placed or b == n for b in self._below[n]):
                    rest = [m for m in remaining if m != n]
                    yield from rec(rest, acc + (n,))

        yield from rec(names, ())


# -- serialization -------------------------------------------------------------


def event_from_json_dict(doc: Mapping) -> Event:
    try:
        return Event(doc["name"], doc.get("in"), doc.get("out"))
    except (KeyError, TypeError) as e:
        raise FormatError(f"bad event entry {doc!r}: {e}") from e


def poset_from_json_dict(doc: Mapping) -> EventPoset:
    """Deserialize an event poset.

    Schema::

        {"events": [{"name": str, "in": wire | [wires] | null,
                     "out": wire | [wires] | null}, ...],
         "order": [[below, above], ...]}
    """
    try:
        events = [event_from_json_dict(e) for e in doc["events"]]
        order = [_as_tuple((b, a), "order pair entries") for b, a in doc.get("order", [])]
    except (KeyError, TypeError, ValueError) as e:
        raise FormatError(f"poset document must have events/order: {e}") from e
    return EventPoset(events, order)


def load_poset(path) -> EventPoset:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as e:  # not UTF-8, not JSON, or a number too long to convert
            raise FormatError(f"{path}: {e}") from e
    return poset_from_json_dict(doc)
