"""Token-game semantics, playout, and the hierarchical generator."""

import hashlib
import inspect
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eventabs import petri
from eventabs.petri import (
    MAX_PLAYOUT_STEPS,
    ExponentialDelays,
    FiringError,
    HierarchicalProcess,
    LabeledPetriNet,
    Marking,
    NetFormatError,
    PetriNetError,
    PlayoutError,
    ProcessConfigError,
    enabled_transitions,
    fire,
    generate_annotated_log,
    load_net,
    medicine_eating_process,
    parse_net,
    random_playout,
)
from eventabs.xes import serialize_xes

from oracles import is_valid_run, playout_reference


def medicine_net() -> LabeledPetriNet:
    return medicine_eating_process().subprocess_map["Taking medicine"]


class TestTokenGame:
    def test_initially_only_tau_split_enabled(self):
        net = medicine_net()
        assert enabled_transitions(net, net.initial_marking) == {"t1"}

    def test_empty_marking_enables_nothing(self):
        net = medicine_net()
        assert enabled_transitions(net, Marking()) == frozenset()

    def test_enabled_matches_brute_force_on_random_nets(self):
        rng = random.Random(17)
        for _ in range(25):
            places = [f"p{i}" for i in range(5)]
            transitions = [f"t{i}" for i in range(4)]
            arcs = set()
            for t in transitions:
                for p in places:
                    if rng.random() < 0.35:
                        arcs.add((p, t))
                    if rng.random() < 0.35:
                        arcs.add((t, p))
            marking = Marking({p: rng.randrange(0, 2) for p in places})
            net = LabeledPetriNet.of(
                places, transitions, arcs, {t: t for t in transitions},
                marking, [marking],
            )
            expected = set()
            for t in transitions:
                inputs = [p for (p, tt) in arcs if tt == t]
                if all(marking.count(p) >= 1 for p in inputs):
                    expected.add(t)
            assert enabled_transitions(net, marking) == expected

    def test_fire_tau_split(self):
        net = medicine_net()
        after = fire(net, net.initial_marking, "t1")
        assert after == Marking({"p2": 1, "p3": 1})

    def test_fire_disabled_raises(self):
        net = medicine_net()
        with pytest.raises(FiringError, match="not enabled"):
            fire(net, net.initial_marking, "t4")

    def test_fire_sequence_reaches_final_marking(self):
        net = medicine_net()
        m = net.initial_marking
        for t in ["t1", "t2", "t3", "t4"]:
            m = fire(net, m, t)
        assert m == Marking({"p6": 1})
        assert m in net.final_markings

    def test_self_loop_place_count_unchanged(self):
        net = LabeledPetriNet.of(
            ["p"], ["t"], [("p", "t"), ("t", "p")], {"t": "a"},
            {"p": 2}, [{"p": 2}],
        )
        assert fire(net, net.initial_marking, "t") == Marking({"p": 2})

    def test_fire_preserves_non_negativity_and_token_delta(self):
        net = medicine_net()
        m = fire(net, net.initial_marking, "t1")
        for t in sorted(enabled_transitions(net, m)):
            after = fire(net, m, t)
            assert all(c >= 0 for _, c in after.items())
            delta = len(net.postset(t)) - len(net.preset(t))
            assert after.total() - m.total() == delta

    def test_enabled_set_equals_fireable_set(self):
        net = medicine_net()
        rng = random.Random(3)
        m = net.initial_marking
        for _ in range(30):
            fireable = set()
            for t in net.transitions:
                try:
                    fire(net, m, t)
                    fireable.add(t)
                except FiringError:
                    pass
            assert fireable == enabled_transitions(net, m)
            if not fireable:
                break
            m = fire(net, m, rng.choice(sorted(fireable)))

    def test_places_transitions_disjoint(self):
        with pytest.raises(PetriNetError, match="overlap"):
            LabeledPetriNet.of(["x"], ["x"], [], {}, {}, [{}])

    def test_arc_endpoints_validated(self):
        with pytest.raises(PetriNetError, match="unknown node"):
            LabeledPetriNet.of(["p"], ["t"], [("p", "zzz")], {}, {}, [{}])

    def test_arc_lists_are_derived_not_given(self):
        net = LabeledPetriNet.of(["p"], ["t"], [("p", "t")], {}, {"p": 1}, [{}])
        parameters = inspect.signature(LabeledPetriNet).parameters
        assert "_preset" not in parameters and "_postset" not in parameters
        with pytest.raises(TypeError):
            LabeledPetriNet(
                net.places, net.transitions, net.arcs, net.labeling, net.initial_marking,
                net.final_markings, _preset={"t": ("x",)},
            )
        assert net.preset("t") == ("p",) and net.postset("p") == ("t",)


class TestPlayout:
    def test_medicine_playouts_are_valid_runs(self):
        net = medicine_net()
        for seed in range(20):
            labels = random_playout(net, seed=seed)
            assert is_valid_run(net, labels), labels
            # one W per cycle; MC and DCC both precede the first W
            first_w = labels.index("W")
            assert {"MC", "DCC"} <= set(labels[:first_w])
            assert labels.count("W") == labels.count("MC")

    def test_eating_playouts_are_valid_runs(self):
        net = medicine_eating_process().subprocess_map["Eating"]
        for seed in range(20):
            labels = random_playout(net, seed=seed)
            assert is_valid_run(net, labels), labels
            assert labels.count("D") == 1

    def test_single_visible_transition(self):
        net = LabeledPetriNet.of(
            ["p0", "p1"], ["t"], [("p0", "t"), ("t", "p1")],
            {"t": "only"}, {"p0": 1}, [{"p1": 1}],
        )
        for seed in range(5):
            assert random_playout(net, seed=seed) == ["only"]

    def test_same_seed_same_sequence(self):
        net = medicine_net()
        assert random_playout(net, seed=123) == random_playout(net, seed=123)

    def test_deadlock_in_non_final_marking_raises(self):
        net = LabeledPetriNet.of(
            ["p0", "p1", "p2"], ["t"], [("p0", "t"), ("t", "p1")],
            {"t": "a"}, {"p0": 1}, [{"p2": 1}],
        )
        with pytest.raises(PlayoutError, match="deadlock"):
            random_playout(net, seed=0)

    def test_a_playout_that_never_ends_fails_at_the_step_cap(self):
        # a two-transition cycle that never reaches its final marking
        net = LabeledPetriNet.of(
            ["a", "b", "c"], ["ab", "ba"], [("a", "ab"), ("ab", "b"), ("b", "ba"), ("ba", "a")],
            {"ab": "x", "ba": "y"}, {"a": 1}, [{"c": 1}],
        )
        with pytest.raises(PlayoutError, match=f"within {MAX_PLAYOUT_STEPS} steps"):
            random_playout(net, seed=0)


@st.composite
def random_nets(draw) -> LabeledPetriNet:
    """Small nets with tau transitions, self-loops (an arc each way between
    a place and a transition), several final markings, deadlocks, and
    transitions without inputs, which fill their output places forever."""
    places = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    transitions = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
    arcs = draw(st.sets(st.sampled_from(
        [(p, t) for p in places for t in transitions]
        + [(t, p) for p in places for t in transitions]
    )))
    labeling = {t: draw(st.sampled_from([None, "a", "b"])) for t in transitions}
    markings = st.dictionaries(st.sampled_from(places), st.integers(0, 2))
    return LabeledPetriNet.of(
        places, transitions, arcs, labeling,
        draw(markings), draw(st.lists(markings, min_size=1, max_size=3)),
    )


def playouts(play, seed: int) -> tuple[list, object]:
    """Three playouts from one generator, or those before the first
    failure and its type and message; and the generator's state after."""
    rng = random.Random(seed)
    runs: list = []
    try:
        for _ in range(3):
            runs.append(play(rng))
    except PlayoutError as exc:
        runs.append((type(exc), str(exc)))
    return runs, rng.getstate()


# a transition without inputs fills q until the step cap
_GROWING = LabeledPetriNet.of(["p", "q"], ["t"], [("t", "q")], {"t": "a"}, {"p": 1}, [{"p": 2}])
# a tau step into a marking that enables nothing and is not final
_DEADLOCK = LabeledPetriNet.of(
    ["p", "q", "r"], ["t"], [("p", "t"), ("t", "q")], {"t": None}, {"p": 1}, [{"r": 1}]
)
# a self-loop on a final marking, which only the stop draw ends
_LOOP = LabeledPetriNet.of(
    ["p"], ["u"], [("p", "u"), ("u", "p")], {"u": "a"}, {"p": 1}, [{"p": 1}, {"p": 2}]
)


class TestCompiledPlayout:
    @given(random_nets(), st.sampled_from([0.3, 0.5, 1.0]), st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    @example(_GROWING, 0.5, 0)
    @example(_DEADLOCK, 0.5, 0)
    @example(_LOOP, 0.3, 0)
    @example(_LOOP, 0.0, 0)
    def test_matches_the_marking_reference(self, net, stop_probability, seed):
        # one memo across the playouts of a call, as the generator keeps it
        memo = {}
        compiled = playouts(lambda rng: petri._playout(net, rng, stop_probability, memo), seed)
        reference = playouts(lambda rng: playout_reference(net, rng, stop_probability), seed)
        assert compiled == reference


class TestGenerator:
    @pytest.mark.parametrize("n_traces, seed, digest", [
        (40, 7, "ecc4e200f7a79ae9adeafabcdcd85eaea6b8ad0ec5792e89ae705456a3ffd105"),
        (300, 5, "6c0f4ef2ff841f6134427f71147b521133733f5702c53b61e8151a6ac5e668e5"),
    ])
    def test_output_bytes_are_pinned(self, n_traces, seed, digest):
        # every benchmark input and the criterion-7 log come from these
        # playouts; a change that moves one RNG draw alters them all
        data = serialize_xes(generate_annotated_log(medicine_eating_process(), n_traces, seed))
        assert hashlib.sha256(data).hexdigest() == digest

    def test_label_runs_are_contiguous_blocks(self):
        log = generate_annotated_log(medicine_eating_process(), 1, seed=42)
        labels = [ev.label for ev in log.traces[0].events]
        # each maximal run is one subprocess expansion; collapsed runs alternate
        runs = [labels[0]]
        for l in labels[1:]:
            if l != runs[-1]:
                runs.append(l)
        assert all(a != b for a, b in zip(runs, runs[1:]))

    def test_low_level_alphabet(self):
        log = generate_annotated_log(medicine_eating_process(), 50, seed=9)
        names = {ev.name for tr in log.traces for ev in tr.events}
        assert names <= {"MC", "DCC", "W", "CD", "D"}

    def test_collapsed_labels_alternate_per_high_level_net(self):
        log = generate_annotated_log(medicine_eating_process(), 100, seed=7)
        pattern = re.compile(r"^T(ET)*$")
        for trace in log.traces:
            runs = []
            for ev in trace.events:
                short = "T" if ev.label == "Taking medicine" else "E"
                if not runs or runs[-1] != short:
                    runs.append(short)
            assert pattern.match("".join(runs)), runs

    def test_reproducible(self):
        proc = medicine_eating_process()
        spec = ExponentialDelays(30.0)
        a = generate_annotated_log(proc, 10, seed=5, timestamp_model=spec)
        b = generate_annotated_log(proc, 10, seed=5, timestamp_model=spec)
        assert a == b

    def test_dcc_occurs_under_both_labels(self):
        log = generate_annotated_log(medicine_eating_process(), 100, seed=7)
        labels_of_dcc = {
            ev.label for tr in log.traces for ev in tr.events if ev.name == "DCC"
        }
        assert labels_of_dcc == {"Taking medicine", "Eating"}

    def test_timestamps_monotone(self):
        log = generate_annotated_log(medicine_eating_process(), 20, seed=1)
        for tr in log.traces:
            stamps = [ev.timestamp for ev in tr.events]
            assert all(a <= b for a, b in zip(stamps, stamps[1:]))

    def test_missing_subprocess_rejected(self):
        proc = medicine_eating_process()
        with pytest.raises(ProcessConfigError, match="Eating"):
            HierarchicalProcess(
                high_level_net=proc.high_level_net,
                subprocess_map={"Taking medicine": proc.subprocess_map["Taking medicine"]},
            )

    def test_zero_traces_rejected(self):
        with pytest.raises(ProcessConfigError, match="positive"):
            generate_annotated_log(medicine_eating_process(), 0, seed=1)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_stop_probability_outside_the_unit_interval_rejected(self, p):
        with pytest.raises(ProcessConfigError, match="stop_probability"):
            generate_annotated_log(medicine_eating_process(), 1, seed=1, stop_probability=p)

    @pytest.mark.parametrize("mean", [0.0, -30.0, float("nan")])
    def test_non_positive_mean_delay_rejected(self, mean):
        # a zero mean would divide by zero, and a negative one would run
        # timestamps backwards
        with pytest.raises(ProcessConfigError, match="mean delay"):
            ExponentialDelays(mean)

    def test_a_process_that_never_stops_fails_at_the_step_cap(self):
        # the household nets reach their final markings with transitions
        # still enabled, so a zero stop probability never ends a playout
        with pytest.raises(PlayoutError, match="steps"):
            generate_annotated_log(medicine_eating_process(), 1, seed=1, stop_probability=0.0)


NET_TEXT = """
# tiny sequential net
place p0 init=1
place p1
place p2
transition t0 label=first step
transition t1
arc p0 t0
arc t0 p1
arc p1 t1
arc t1 p2
final p2
"""


class TestNetFormat:
    def test_parse_and_play(self):
        net = parse_net(NET_TEXT)
        assert net.label_of("t0") == "first step"
        assert net.label_of("t1") is None
        assert random_playout(net, seed=0) == ["first step"]

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(NET_TEXT)
        assert load_net(path).places == {"p0", "p1", "p2"}

    @pytest.mark.parametrize("text, message", [
        ("place p0 init=1\narc a b c\nfinal p0\n", "line 2: too many values to unpack"),
        ("place p0 init=1\n", "net description declares no final marking"),
    ], ids=["bad-arc", "no-final"])
    def test_load_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "bad.net"
        path.write_text(text)
        with pytest.raises(NetFormatError, match=re.escape(f"{path}: {message}")):
            load_net(path)

    def test_bad_keyword_reports_line(self):
        with pytest.raises(NetFormatError, match="line 1"):
            parse_net("bogus p0")

    def test_final_marking_required(self):
        with pytest.raises(NetFormatError, match="final"):
            parse_net("place p0 init=1")

    def test_final_with_multiplicity(self):
        net = parse_net("place p0 init=2\nfinal p0*2\n")
        assert Marking({"p0": 2}) in net.final_markings

    def test_place_declared_twice_rejected(self):
        with pytest.raises(NetFormatError, match="line 2: place 'p0' is already declared on line 1"):
            parse_net("place p0 init=1\nplace p0 init=3\nfinal p0\n")

    def test_transition_declared_twice_rejected(self):
        text = "place p0 init=1\ntransition t label=A\ntransition t label=B\nfinal p0\n"
        with pytest.raises(NetFormatError, match="line 3: transition 't' is already declared"):
            parse_net(text)

    def test_repeated_init_rejected(self):
        with pytest.raises(NetFormatError, match="line 1: place 'p0' has more than one init="):
            parse_net("place p0 init=1 init=3\nfinal p0\n")

    def test_place_repeated_in_one_final_rejected(self):
        with pytest.raises(NetFormatError, match="line 2: place 'p0' is named twice"):
            parse_net("place p0 init=2\nfinal p0 p0\n")

    def test_arc_declared_twice_rejected(self):
        text = "place p0 init=1\ntransition t\narc p0 t\narc p0 t\nfinal p0\n"
        with pytest.raises(
            NetFormatError, match="line 4: arc 'p0' -> 't' is already declared on line 3"
        ):
            parse_net(text)
