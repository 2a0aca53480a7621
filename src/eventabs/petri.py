"""Labeled Petri nets with token-game semantics, stochastic playout, and a
hierarchical generator producing annotated low-level event logs.

The built-in two-level example is a household routine: a high-level net
alternating "Taking medicine" and "Eating", each expanded by a low-level
subprocess over the alphabet {MC, DCC, W, CD, D}. The two subprocesses
share the DCC event type, so no per-event-type lookup can recover the
high-level activity; context is required.

Each net is compiled once, when it is constructed: places and transitions
are numbered in sorted name order, and presets, postsets, labels, the
initial marking and the final markings become tuples over those numbers.
A playout runs on markings that are tuples of place counts, and looks up
each marking's enabled transitions and finality in a memo that lives for
one call of :func:`random_playout` or :func:`generate_annotated_log`. So
memory grows with the markings one call visits, even on an unbounded net,
and is freed when the call returns. :func:`enabled_transitions` and
:func:`fire` are the same token game behind :class:`Marking` objects.

Playouts draw from the generator in a fixed order: at a final marking
with transitions enabled, one ``rng.random()`` for the stop decision; then
one ``rng.randrange`` over the enabled transitions sorted by name; then,
in the generator, one delay draw per emitted low-level event. A seed
therefore fixes every generated log byte for byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import EventabsError, read_text
from .xes import (
    CONCEPT_NAME,
    LABEL,
    TIME_TIMESTAMP,
    AttributeValue,
    Event,
    EventLog,
    SharedStrings,
    Trace,
)

__all__ = [
    "Marking",
    "LabeledPetriNet",
    "HierarchicalProcess",
    "ExponentialDelays",
    "PetriNetError",
    "FiringError",
    "PlayoutError",
    "NetFormatError",
    "ProcessConfigError",
    "enabled_transitions",
    "fire",
    "random_playout",
    "generate_annotated_log",
    "medicine_eating_process",
    "parse_net",
    "load_net",
]


class PetriNetError(EventabsError):
    """Base class for Petri net errors."""


class FiringError(PetriNetError):
    """A transition was fired while disabled."""


class PlayoutError(PetriNetError):
    """A playout deadlocked in a non-final marking, or did not end within
    ``MAX_PLAYOUT_STEPS`` firings."""


class NetFormatError(PetriNetError):
    """A textual net description could not be parsed."""


class ProcessConfigError(PetriNetError):
    """A hierarchical process definition is incomplete."""


class Marking:
    """A token multiset over places; counts are non-negative integers.

    Immutable and hashable; places with zero tokens are dropped from the
    canonical form so equal markings compare and hash equal.
    """

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        cleaned: dict[str, int] = {}
        for place, count in dict(counts).items():
            if not isinstance(count, int) or count < 0:
                raise PetriNetError(
                    f"marking count for place {place!r} must be a non-negative "
                    f"integer, got {count!r}"
                )
            if count > 0:
                cleaned[place] = count
        self._counts = cleaned

    def count(self, place: str) -> int:
        return self._counts.get(place, 0)

    def items(self) -> Iterable[tuple[str, int]]:
        return self._counts.items()

    def places(self) -> frozenset[str]:
        return frozenset(self._counts)

    def total(self) -> int:
        return sum(self._counts.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Marking) and self._counts == other._counts

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{c}" for p, c in sorted(self._counts.items()))
        return f"{{{inner}}}"


TAU = None  # labeling value for invisible transitions


class _TokenGame:
    """A net's token game on count tuples.

    Places and transitions are numbered in sorted name order, so a marking
    is a tuple of counts over the places, and enabled transitions come out
    in the name order that playouts draw from.
    """

    __slots__ = ("places", "transitions", "index", "presets", "postsets",
                 "labels", "initial", "finals")

    def __init__(self, net: "LabeledPetriNet") -> None:
        self.places = tuple(sorted(net.places))
        self.transitions = tuple(sorted(net.transitions))
        self.index = {t: i for i, t in enumerate(self.transitions)}
        place_index = {p: i for i, p in enumerate(self.places)}
        self.presets = tuple(
            tuple(place_index[p] for p in net.preset(t)) for t in self.transitions
        )
        self.postsets = tuple(
            tuple(place_index[p] for p in net.postset(t)) for t in self.transitions
        )
        self.labels = tuple(net.label_of(t) for t in self.transitions)
        self.initial = self.counts(net.initial_marking)
        self.finals = frozenset(self.counts(m) for m in net.final_markings)

    def counts(self, marking: Marking) -> tuple[int, ...]:
        return tuple(marking.count(p) for p in self.places)

    def marking(self, counts: tuple[int, ...]) -> Marking:
        return Marking(zip(self.places, counts))

    def enabled(self, counts: tuple[int, ...]) -> tuple[int, ...]:
        """Indices of the transitions whose every input place holds a token."""
        return tuple(
            t for t, inputs in enumerate(self.presets) if all(counts[p] for p in inputs)
        )

    def fire(self, counts: tuple[int, ...], t: int) -> tuple[int, ...]:
        """The counts after firing enabled transition ``t``."""
        after = list(counts)
        for p in self.presets[t]:
            after[p] -= 1
        for p in self.postsets[t]:
            after[p] += 1
        return tuple(after)


@dataclass(frozen=True)
class LabeledPetriNet:
    """A labeled Petri net with an initial marking and final markings.

    ``labeling`` maps each transition to a visible label string or ``None``
    for an invisible (tau) transition. Places and transitions are disjoint
    name sets; arcs connect places to transitions or transitions to places.
    """

    places: frozenset[str]
    transitions: frozenset[str]
    arcs: frozenset[tuple[str, str]]
    labeling: Mapping[str, str | None]
    initial_marking: Marking
    final_markings: frozenset[Marking]
    _preset: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _postset: dict[str, tuple[str, ...]] = field(init=False, repr=False, compare=False)
    _game: _TokenGame = field(init=False, repr=False, compare=False)

    @classmethod
    def of(
        cls,
        places: Iterable[str],
        transitions: Iterable[str],
        arcs: Iterable[tuple[str, str]],
        labeling: Mapping[str, str | None],
        initial_marking: Marking | Mapping[str, int],
        final_markings: Iterable[Marking | Mapping[str, int]],
    ) -> "LabeledPetriNet":
        finals = frozenset(
            m if isinstance(m, Marking) else Marking(m) for m in final_markings
        )
        initial = (
            initial_marking
            if isinstance(initial_marking, Marking)
            else Marking(initial_marking)
        )
        return cls(
            places=frozenset(places),
            transitions=frozenset(transitions),
            arcs=frozenset(arcs),
            labeling=MappingProxyType(dict(labeling)),
            initial_marking=initial,
            final_markings=finals,
        )

    def __post_init__(self) -> None:
        overlap = self.places & self.transitions
        if overlap:
            raise PetriNetError(f"places and transitions overlap: {sorted(overlap)}")
        nodes = self.places | self.transitions
        for src, dst in self.arcs:
            if src not in nodes or dst not in nodes:
                raise PetriNetError(f"arc ({src!r}, {dst!r}) references unknown node")
            if (src in self.places) == (dst in self.places):
                raise PetriNetError(
                    f"arc ({src!r}, {dst!r}) must connect a place and a transition"
                )
        unknown = set(self.labeling) - self.transitions
        if unknown:
            raise PetriNetError(f"labeling references unknown transitions: {sorted(unknown)}")
        for marking in (self.initial_marking, *self.final_markings):
            bad = marking.places() - self.places
            if bad:
                raise PetriNetError(f"marking references unknown places: {sorted(bad)}")
        preset: dict[str, list[str]] = {n: [] for n in nodes}
        postset: dict[str, list[str]] = {n: [] for n in nodes}
        for src, dst in self.arcs:
            postset[src].append(dst)
            preset[dst].append(src)
        object.__setattr__(
            self, "_preset", {n: tuple(sorted(v)) for n, v in preset.items()}
        )
        object.__setattr__(
            self, "_postset", {n: tuple(sorted(v)) for n, v in postset.items()}
        )
        object.__setattr__(self, "_game", _TokenGame(self))

    def preset(self, node: str) -> tuple[str, ...]:
        return self._preset[node]

    def postset(self, node: str) -> tuple[str, ...]:
        return self._postset[node]

    def label_of(self, transition: str) -> str | None:
        return self.labeling.get(transition, TAU)

    @property
    def visible_labels(self) -> frozenset[str]:
        return frozenset(l for l in self.labeling.values() if l is not None)


def enabled_transitions(net: LabeledPetriNet, marking: Marking) -> frozenset[str]:
    """Transitions whose every input place holds at least one token."""
    game = net._game
    return frozenset(game.transitions[t] for t in game.enabled(game.counts(marking)))


def fire(net: LabeledPetriNet, marking: Marking, transition: str) -> Marking:
    """Fire ``transition``: remove one token per input place, add one per
    output place. Raises :class:`FiringError` if the transition is disabled.
    """
    game = net._game
    t = game.index.get(transition)
    if t is None:
        raise FiringError(f"unknown transition {transition!r}")
    counts = game.counts(marking)
    if t not in game.enabled(counts):
        raise FiringError(
            f"transition {transition!r} is not enabled in marking {marking}"
        )
    # tokens on places outside the net stay where they are
    return Marking({**dict(marking.items()), **dict(zip(game.places, game.fire(counts, t)))})


# firings after which a playout that has not ended fails
MAX_PLAYOUT_STEPS = 10_000
# chance that a playout stops at each visit to a final marking, unless a
# caller chooses its own
STOP_PROBABILITY = 0.5

# marking -> (its enabled transitions in name order, whether it is final)
_Memo = dict[tuple[int, ...], tuple[tuple[int, ...], bool]]


def _playout(
    net: LabeledPetriNet, rng: random.Random, stop_probability: float, memo: _Memo
) -> list[str]:
    """One playout of ``net``. ``memo`` belongs to ``net`` and to one call
    of a public function, so it holds at most the markings that call visits."""
    game = net._game
    marking = game.initial
    emitted: list[str] = []
    for _ in range(MAX_PLAYOUT_STEPS):
        state = memo.get(marking)
        if state is None:
            state = memo[marking] = (game.enabled(marking), marking in game.finals)
        enabled, final = state
        if final:
            if not enabled or rng.random() < stop_probability:
                return emitted
        elif not enabled:
            raise PlayoutError(f"deadlock in non-final marking {game.marking(marking)}")
        t = enabled[rng.randrange(len(enabled))]
        marking = game.fire(marking, t)
        label = game.labels[t]
        if label is not None:
            emitted.append(label)
    raise PlayoutError(f"playout did not end within {MAX_PLAYOUT_STEPS} steps")


def random_playout(net: LabeledPetriNet, seed: int) -> list[str]:
    """Play the token game from the initial marking, firing a uniformly
    random enabled transition each step.

    At every visit to a final marking the playout stops with probability
    ``STOP_PROBABILITY`` (always, if nothing is enabled). Invisible
    transitions fire but emit nothing. Raises :class:`PlayoutError` on a
    deadlock in a non-final marking and when ``MAX_PLAYOUT_STEPS`` firings
    do not end the playout. Deterministic for a fixed seed.
    """
    return _playout(net, random.Random(seed), STOP_PROBABILITY, {})


@dataclass(frozen=True)
class HierarchicalProcess:
    """A high-level net whose visible labels are expanded by subprocesses."""

    high_level_net: LabeledPetriNet
    subprocess_map: Mapping[str, LabeledPetriNet]

    def __post_init__(self) -> None:
        missing = self.high_level_net.visible_labels - set(self.subprocess_map)
        if missing:
            raise ProcessConfigError(
                f"no subprocess defined for high-level labels: {sorted(missing)}"
            )


@dataclass(frozen=True)
class ExponentialDelays:
    """Exponentially distributed inter-event delays in seconds."""

    mean_seconds: float = 60.0

    def __post_init__(self) -> None:
        if not 0 < self.mean_seconds < math.inf:
            raise ProcessConfigError(f"mean delay {self.mean_seconds} is not positive and finite")

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean_seconds)


_GENERATOR_EPOCH = datetime(2015, 11, 3, 8, 0, 0, tzinfo=timezone.utc)


def generate_annotated_log(
    proc: HierarchicalProcess,
    num_traces: int,
    seed: int,
    timestamp_model: ExponentialDelays | None = None,
    stop_probability: float = STOP_PROBABILITY,
) -> EventLog:
    """Generate an annotated low-level log by playing out the hierarchy.

    Each trace is one playout of the high-level net; every fired visible
    high-level transition is expanded by a playout of its subprocess. Each
    emitted low-level event carries its low-level name as ``concept:name``,
    its high-level activity as ``label``, and a monotone timestamp drawn
    from the delay model. Trace ``i`` starts ``i`` days after a fixed
    epoch. Each playout stops at a final marking with ``stop_probability``,
    which must lie in [0, 1], and fails as :func:`random_playout` does. A
    timestamp past the year 9999 raises :class:`ProcessConfigError`.
    Fully reproducible from the seed.
    """
    if num_traces <= 0:
        raise ProcessConfigError("num_traces must be positive")
    if not 0.0 <= stop_probability <= 1.0:
        raise ProcessConfigError(f"stop_probability {stop_probability} is not in [0, 1]")
    delays = timestamp_model or ExponentialDelays()
    rng = random.Random(seed)
    high_memo: _Memo = {}
    memos: dict[str, _Memo] = {label: {} for label in proc.subprocess_map}
    values = SharedStrings()
    traces = []
    for i in range(num_traces):
        high_sequence = _playout(proc.high_level_net, rng, stop_probability, high_memo)
        clock = _GENERATOR_EPOCH + timedelta(days=i)
        events = []
        for high_label in high_sequence:
            subnet = proc.subprocess_map.get(high_label)
            if subnet is None:
                raise ProcessConfigError(f"no subprocess for label {high_label!r}")
            for low_label in _playout(subnet, rng, stop_probability, memos[high_label]):
                try:
                    clock = clock + timedelta(seconds=delays.sample(rng))
                except OverflowError as exc:
                    raise ProcessConfigError(
                        f"timestamps run past the year 9999 at a mean delay of "
                        f"{delays.mean_seconds} s"
                    ) from exc
                events.append(Event({
                    CONCEPT_NAME: values[low_label],
                    TIME_TIMESTAMP: AttributeValue.date(clock),
                    LABEL: values[high_label],
                }))
        traces.append(Trace(
            {CONCEPT_NAME: AttributeValue.string(f"case_{i + 1}")}, events
        ))
    return EventLog(
        attributes={CONCEPT_NAME: AttributeValue.string("generated annotated log")},
        extensions={"Concept", "Time"},
        classifiers={"Activity": (CONCEPT_NAME,)},
        global_trace_attributes={CONCEPT_NAME: AttributeValue.string("")},
        global_event_attributes={
            CONCEPT_NAME: AttributeValue.string(""),
            TIME_TIMESTAMP: AttributeValue.date(_GENERATOR_EPOCH),
            LABEL: AttributeValue.string(""),
        },
        traces=traces,
    )


def medicine_eating_process() -> HierarchicalProcess:
    """The built-in two-level household process.

    High level: "Taking medicine" and "Eating" strictly alternate, starting
    and ending with "Taking medicine". The medicine subprocess runs MC and
    DCC in parallel, joins on W, and may loop back (repeating MC and W).
    The eating subprocess fires D exactly once while CD and DCC may occur
    any number of times in any order.
    """
    medicine = LabeledPetriNet.of(
        places=["p1", "p2", "p3", "p4", "p5", "p6"],
        transitions=["t1", "t2", "t3", "t4", "t5"],
        arcs=[
            ("p1", "t1"), ("t1", "p2"), ("t1", "p3"),
            ("p2", "t2"), ("t2", "p4"),
            ("p3", "t3"), ("t3", "p5"),
            ("p4", "t4"), ("p5", "t4"), ("t4", "p6"),
            ("p6", "t5"), ("t5", "p2"), ("t5", "p5"),
        ],
        labeling={"t1": None, "t2": "MC", "t3": "DCC", "t4": "W", "t5": None},
        initial_marking={"p1": 1},
        final_markings=[{"p6": 1}],
    )
    eating = LabeledPetriNet.of(
        places=["e0", "e1", "e2"],
        transitions=["u0", "u1", "u2", "u3"],
        arcs=[
            ("e0", "u0"), ("u0", "e1"), ("u0", "e2"),
            ("e1", "u1"), ("u1", "e1"),
            ("e1", "u2"), ("u2", "e1"),
            ("e2", "u3"),
        ],
        labeling={"u0": None, "u1": "CD", "u2": "DCC", "u3": "D"},
        initial_marking={"e0": 1},
        final_markings=[{"e1": 1}],
    )
    high = LabeledPetriNet.of(
        places=["h0", "h1"],
        transitions=["tm", "ea"],
        arcs=[("h0", "tm"), ("tm", "h1"), ("h1", "ea"), ("ea", "h0")],
        labeling={"tm": "Taking medicine", "ea": "Eating"},
        initial_marking={"h0": 1},
        final_markings=[{"h1": 1}],
    )
    return HierarchicalProcess(
        high_level_net=high,
        subprocess_map=MappingProxyType({"Taking medicine": medicine, "Eating": eating}),
    )


# --- Plain-text net descriptions --------------------------------------------
#
#   place <name> [init=<count>]
#   transition <name> [label=<text to end of line>]
#   arc <src> <dst>
#   final <place>[*<count>] ...
#
# Transitions without a label line are invisible. Each place and transition
# is declared once, a place line holds at most one init=, and each arc is
# declared once. Each "final" line declares one final marking and names each
# of its places once (q*2, not q q, puts two tokens on q). Lines starting
# with "#" and blank lines are ignored.


def parse_net(text: str) -> LabeledPetriNet:
    # name -> line of its declaration
    places: dict[str, int] = {}
    transitions: dict[str, int] = {}
    labeling: dict[str, str | None] = {}
    arcs: dict[tuple[str, str], int] = {}  # arc -> line of its declaration
    initial: dict[str, int] = {}
    finals: list[dict[str, int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        try:
            if keyword == "place":
                name, *opts = rest.split()
                if name in places:
                    raise NetFormatError(
                        f"place {name!r} is already declared on line {places[name]}"
                    )
                places[name] = lineno
                for opt in opts:
                    if opt.startswith("init="):
                        if name in initial:
                            raise NetFormatError(f"place {name!r} has more than one init=")
                        initial[name] = int(opt[5:])
                    else:
                        raise NetFormatError(f"unknown place option {opt!r}")
            elif keyword == "transition":
                name, _, tail = rest.partition(" ")
                if not name:
                    raise NetFormatError("transition needs a name")
                if name in transitions:
                    raise NetFormatError(
                        f"transition {name!r} is already declared on line {transitions[name]}"
                    )
                transitions[name] = lineno
                tail = tail.strip()
                if tail.startswith("label="):
                    labeling[name] = tail[6:]
                elif tail:
                    raise NetFormatError(f"unexpected transition text {tail!r}")
                else:
                    labeling[name] = None
            elif keyword == "arc":
                src, dst = rest.split()
                if (src, dst) in arcs:
                    raise NetFormatError(
                        f"arc {src!r} -> {dst!r} is already declared on line {arcs[src, dst]}"
                    )
                arcs[src, dst] = lineno
            elif keyword == "final":
                marking: dict[str, int] = {}
                for token in rest.split():
                    name, _, count = token.partition("*")
                    if name in marking:
                        raise NetFormatError(
                            f"place {name!r} is named twice in one final marking"
                        )
                    marking[name] = int(count) if count else 1
                finals.append(marking)
            else:
                raise NetFormatError(f"unknown keyword {keyword!r}")
        except (ValueError, NetFormatError) as exc:
            raise NetFormatError(f"line {lineno}: {exc}") from exc

    if not finals:
        raise NetFormatError("net description declares no final marking")
    try:
        return LabeledPetriNet.of(
            places, transitions, arcs, labeling, initial, finals
        )
    except PetriNetError as exc:
        raise NetFormatError(str(exc)) from exc


def load_net(path: str | Path) -> LabeledPetriNet:
    """:func:`parse_net` of the file at ``path``; the message of a
    :class:`NetFormatError` starts with that path."""
    text = read_text(path, NetFormatError)
    try:
        return parse_net(text)
    except NetFormatError as exc:
        raise NetFormatError(f"{path}: {exc}") from exc
