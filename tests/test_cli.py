"""End-to-end command-line pipeline runs."""

import json
import random
import re
from dataclasses import dataclass

import pytest
from click.testing import CliRunner

from eventabs import abstraction, evaluation, petri
from eventabs.cli import _abstraction_config, main
from eventabs.errors import EventabsError
from eventabs.features import CatalogConfig
from eventabs.owlqn import OwlqnConfig
from eventabs.xes import parse_xes, serialize_xes, EventLog

from factories import make_log, sequence_trace


@pytest.fixture
def runner():
    return CliRunner()


FAST_CONFIG = """
# experiment settings
traces = 12
seed = 7
ngrams = 1,2
views = day
kmax = 2
l1 = 0.1
max_iterations = 60
"""


# one n-gram size, no time views, one mixture component: a fit in milliseconds
TINY_CONFIG = abstraction.AbstractionConfig(
    catalog=CatalogConfig(ngram_sizes=(1,), time_views=(), gmm_max_components=1),
    optimizer=OwlqnConfig(max_iterations=20),
)


def write_config(tmp_path, text=FAST_CONFIG):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return str(path)


class TestGenerate:
    def test_deterministic_output(self, runner, tmp_path):
        config = write_config(tmp_path)
        out1, out2 = tmp_path / "a.xes", tmp_path / "b.xes"
        r1 = runner.invoke(main, ["generate", "--config", config, "-o", str(out1)])
        r2 = runner.invoke(main, ["generate", "--config", config, "-o", str(out2)])
        assert r1.exit_code == 0, r1.output
        assert r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "12 traces" in r1.output

    def test_generated_file_reparses(self, runner, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "log.xes"
        assert runner.invoke(
            main, ["generate", "--config", config, "-o", str(out)]
        ).exit_code == 0
        log = parse_xes(out.read_bytes())
        assert len(log.traces) == 12
        assert serialize_xes(log) == out.read_bytes()

    def test_zero_traces_is_config_error(self, runner, tmp_path):
        out = tmp_path / "log.xes"
        result = runner.invoke(main, ["generate", "--traces", "0", "-o", str(out)])
        assert result.exit_code != 0
        assert "positive" in result.output

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        config = write_config(tmp_path, "bogus = 1\n")
        result = runner.invoke(
            main, ["generate", "--config", config, "-o", str(tmp_path / "x.xes")]
        )
        assert result.exit_code != 0
        assert "bogus" in result.output

    def test_file_defined_process(self, runner, tmp_path):
        (tmp_path / "high.net").write_text(
            "place h0 init=1\nplace h1\n"
            "transition t label=Step\n"
            "arc h0 t\narc t h1\nfinal h1\n"
        )
        (tmp_path / "sub.net").write_text(
            "place s0 init=1\nplace s1\n"
            "transition u label=leaf\n"
            "arc s0 u\narc u s1\nfinal s1\n"
        )
        config = write_config(
            tmp_path,
            "process = from-files\n"
            f"high_net = {tmp_path}/high.net\n"
            f"subprocesses = Step={tmp_path}/sub.net\n"
            "traces = 3\nseed = 1\n",
        )
        out = tmp_path / "log.xes"
        result = runner.invoke(main, ["generate", "--config", config, "-o", str(out)])
        assert result.exit_code == 0, result.output
        log = parse_xes(out.read_bytes())
        assert {ev.name for tr in log.traces for ev in tr.events} == {"leaf"}
        assert {ev.label for tr in log.traces for ev in tr.events} == {"Step"}


class TestDefaults:
    """A setting left unset takes the library's own default, so a default
    changed there changes the command line too."""

    def test_abstraction_settings(self, monkeypatch):
        @dataclass(frozen=True)
        class Other(abstraction.AbstractionConfig):
            l1_coefficient: float = 0.25
            optimizer: OwlqnConfig = OwlqnConfig(max_iterations=7)

        monkeypatch.setattr(abstraction, "AbstractionConfig", Other)
        assert _abstraction_config({}) == Other()

    def test_generator_delay(self, runner, tmp_path, monkeypatch):
        @dataclass(frozen=True)
        class Other(petri.ExponentialDelays):
            mean_seconds: float = 5.0

        real, models = petri.generate_annotated_log, []

        def generate(*args, **kwargs):
            models.append(kwargs["timestamp_model"])
            return real(*args, **kwargs)

        monkeypatch.setattr(petri, "ExponentialDelays", Other)
        monkeypatch.setattr(petri, "generate_annotated_log", generate)
        result = runner.invoke(main, ["generate", "--traces", "1", "-o", str(tmp_path / "g.xes")])
        assert result.exit_code == 0, result.output
        assert models == [Other()]

    def test_generator_stop_probability(self, runner, tmp_path, monkeypatch):
        real, chances = petri.generate_annotated_log, []

        def generate(*args, **kwargs):
            chances.append(kwargs["stop_probability"])
            return real(*args, **kwargs)

        monkeypatch.setattr(petri, "STOP_PROBABILITY", 0.75)
        monkeypatch.setattr(petri, "generate_annotated_log", generate)
        result = runner.invoke(main, ["generate", "--traces", "1", "-o", str(tmp_path / "g.xes")])
        assert result.exit_code == 0, result.output
        assert chances == [0.75]


class TestConvert:
    def test_sensor_csv_roundtrip(self, runner, tmp_path):
        csv_path = tmp_path / "sensors.csv"
        csv_path.write_text(
            "sensor,timestamp,value\n"
            "door,2015-11-03T08:00:00Z,1\n"
            "door,2015-11-03T08:05:00Z,0\n"
            "tap,2015-11-04T09:00:00Z,1\n"
            "tap,2015-11-04T09:01:00Z,0\n"
        )
        out = tmp_path / "sensors.xes"
        result = runner.invoke(main, ["convert", str(csv_path), str(out)])
        assert result.exit_code == 0, result.output
        log = parse_xes(out.read_bytes())
        assert len(log.traces) == 2
        assert log.event_count() == 4

    def test_malformed_csv_reports_row(self, runner, tmp_path):
        csv_path = tmp_path / "sensors.csv"
        csv_path.write_text("sensor,timestamp,value\ndoor,nope,1\n")
        result = runner.invoke(
            main, ["convert", str(csv_path), str(tmp_path / "out.xes")]
        )
        assert result.exit_code != 0
        assert "row 2" in result.output


@pytest.fixture
def trained(runner, tmp_path):
    config = write_config(tmp_path)
    log_path = tmp_path / "train.xes"
    model_path = tmp_path / "model.json"
    assert runner.invoke(
        main, ["generate", "--config", config, "-o", str(log_path)]
    ).exit_code == 0
    result = runner.invoke(
        main, ["train", str(log_path), str(model_path), "--config", config]
    )
    assert result.exit_code == 0, result.output
    return config, log_path, model_path, result


class TestBadValues:
    """A value that cannot be read ends the command with an ``Error:`` line
    (a ``SystemExit`` from click), not a Python traceback."""

    @pytest.fixture
    def log_path(self, tmp_path):
        path = tmp_path / "g.xes"
        path.write_bytes(serialize_xes(make_log([sequence_trace([("A", "X"), ("B", "Y")])])))
        return str(path)

    @staticmethod
    def assert_error(result, message):
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code != 0
        assert result.output.count("Error:") == 1 and message in result.output, result.output
        assert "Traceback" not in result.output

    def test_unreadable_declared_encoding_for_train(self, runner, tmp_path):
        path = tmp_path / "bogus.xes"
        path.write_bytes(b"<?xml version='1.0' encoding='bogus'?><log/>")
        result = runner.invoke(main, ["train", str(path), str(tmp_path / "m.json")])
        self.assert_error(result, "declared encoding 'bogus'")

    def test_bad_ngrams_flag_for_train(self, runner, tmp_path, log_path):
        result = runner.invoke(main, ["train", log_path, str(tmp_path / "m.json"), "--ngrams", "a"])
        self.assert_error(result, "ngrams")

    def test_bad_ngrams_flag_for_kfold(self, runner, log_path):
        result = runner.invoke(
            main, ["evaluate", log_path, "--protocol", "kfold", "--ngrams", "x"]
        )
        self.assert_error(result, "ngrams")

    @pytest.mark.parametrize("line", ["l1 = abc", "kmax = 2.5", "max_iterations = many",
                                      "max_iterations = -5", "max_iterations = 0",
                                      "alpha = ?", "alpha = nan", "alpha = inf",
                                      "seed = x"])
    def test_bad_config_value_for_train(self, runner, tmp_path, log_path, line):
        config = write_config(tmp_path, line + "\n")
        result = runner.invoke(
            main, ["train", log_path, str(tmp_path / "m.json"), "--config", config]
        )
        self.assert_error(result, line.split()[0])
        assert not (tmp_path / "m.json").exists()

    def test_bad_fold_count_in_config(self, runner, tmp_path, log_path):
        config = write_config(tmp_path, "folds = three\n")
        result = runner.invoke(
            main, ["evaluate", log_path, "--protocol", "kfold", "--config", config]
        )
        self.assert_error(result, "folds")

    def test_negative_l1_is_refused_before_training(self, runner, tmp_path, log_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("trained with a negative L1 coefficient")

        monkeypatch.setattr(abstraction, "fit", never)
        result = runner.invoke(main, ["train", log_path, str(tmp_path / "m.json"), "--l1", "-1"])
        self.assert_error(result, "l1_coefficient must be non-negative and finite")

    @pytest.mark.parametrize("line, message", [
        ("traces = many", "traces"), ("delay_mean = slow", "delay_mean"),
        ("delay_mean = 0", "mean delay"),
        ("stop_probability = half", "stop_probability"),
        ("stop_probability = 1.5", "stop_probability"),
    ])
    def test_bad_generator_value(self, runner, tmp_path, line, message):
        config = write_config(tmp_path, line + "\n")
        result = runner.invoke(
            main, ["generate", "--config", config, "-o", str(tmp_path / "x.xes")]
        )
        self.assert_error(result, message)

    def test_net_file_declaring_a_place_twice(self, runner, tmp_path):
        net = tmp_path / "twice.net"
        net.write_text("place p init=1\nplace p init=3\ntransition t label=A\narc p t\nfinal p\n")
        config = write_config(
            tmp_path,
            f"process = from-files\nhigh_net = {net}\nsubprocesses = A={net}\n",
        )
        result = runner.invoke(
            main, ["generate", "--config", config, "-o", str(tmp_path / "x.xes")]
        )
        self.assert_error(result, f"{net}: line 2: place 'p' is already declared on line 1")
        assert not (tmp_path / "x.xes").exists()

    @pytest.mark.parametrize("args, message", [
        (["generate", "--traces", "2", "-o", "{tmp}/missing/g.xes"], "No such file or directory"),
        (["train", "{log}", "{tmp}/missing/m.json", "--ngrams", "1"], "No such file or directory"),
        (["annotate", "{model}", "{log}", "{tmp}/missing/a.xes"], "No such file or directory"),
        (["evaluate", "{log}", "--protocol", "loocv", "--ngrams", "1", "--kmax", "1",
          "--report", "{tmp}/missing/r.json"], "No such file or directory"),
        (["train", "{log}", "{tmp}/m.json", "--config", "{tmp}"], "Is a directory"),
        (["train", "{log}", "{tmp}/m.json", "--config", "{tmp}/latin1.cfg"],
         "latin1.cfg:2: not UTF-8 text"),
        (["convert", "{tmp}", "{tmp}/s.xes"], "Is a directory"),
        (["convert", "{tmp}/latin1.csv", "{tmp}/s.xes"], "latin1.csv:3: not UTF-8 text"),
    ])
    def test_an_unusable_path_is_an_error_line(self, runner, tmp_path, args, message):
        log = make_log([sequence_trace([("A", "X"), ("B", "Y")]),
                        sequence_trace([("B", "Y"), ("A", "X")])])
        (tmp_path / "g.xes").write_bytes(serialize_xes(log))
        abstraction.save_model(abstraction.fit(log, TINY_CONFIG), tmp_path / "model.json")
        (tmp_path / "latin1.cfg").write_bytes("# settings\nviews = d\xe9j\xe0\n".encode("latin-1"))
        (tmp_path / "latin1.csv").write_bytes(
            "sensor,timestamp,value\ndoor,2015-11-03T08:00:00Z,1\nd\xf6r,2015-11-03T08:05:00Z,1\n"
            .encode("latin-1")
        )
        paths = {"tmp": tmp_path, "log": tmp_path / "g.xes", "model": tmp_path / "model.json"}
        result = runner.invoke(main, [arg.format(**paths) for arg in args])
        self.assert_error(result, message)


class TestTrain:
    def test_summary_reports_sparsity(self, trained):
        *_, result = trained
        assert "features" in result.output
        assert "% dense" in result.output
        assert "objective" in result.output

    def test_summary_reports_optimizer_run(self, trained):
        *_, result = trained
        summary = result.output.strip().splitlines()[-1]
        assert re.search(r"after \d+ iterations and \d+ evaluations \(stop: "
                         r"(stationary|stalled|iteration_cap|line_search_failed)\)$", summary)

    def test_unannotated_log_rejected(self, runner, tmp_path):
        bare = make_log([sequence_trace([("A", None), ("B", None)])])
        # events without label
        log_path = tmp_path / "bare.xes"
        log_path.write_bytes(serialize_xes(bare))
        result = runner.invoke(
            main, ["train", str(log_path), str(tmp_path / "m.json")]
        )
        assert result.exit_code != 0
        assert "label" in result.output

    def test_reload_predicts_identically(self, runner, tmp_path, trained):
        config, log_path, model_path, _ = trained
        out1 = tmp_path / "pred1.xes"
        out2 = tmp_path / "pred2.xes"
        for out in (out1, out2):
            assert runner.invoke(
                main, ["annotate", str(model_path), str(log_path), str(out)]
            ).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestAnnotate:
    def test_table_shape_end_to_end(self, runner, tmp_path, trained):
        config, log_path, model_path, _ = trained
        out = tmp_path / "high.xes"
        result = runner.invoke(
            main,
            ["annotate", str(model_path), str(log_path), str(out), "--collapse"],
        )
        assert result.exit_code == 0, result.output
        high = parse_xes(out.read_bytes())
        for trace in high.traces:
            assert len(trace.events) % 2 == 0
            lifecycles = [ev.lifecycle for ev in trace.events]
            assert lifecycles[::2] == ["start"] * (len(trace.events) // 2)
            assert lifecycles[1::2] == ["complete"] * (len(trace.events) // 2)
            names = {ev.name for ev in trace.events}
            assert names <= {"Taking medicine", "Eating"}

    def test_empty_log_gives_empty_output(self, runner, tmp_path, trained):
        *_, model_path, _ = trained
        empty_path = tmp_path / "empty.xes"
        empty_path.write_bytes(serialize_xes(EventLog()))
        out = tmp_path / "out.xes"
        result = runner.invoke(
            main, ["annotate", str(model_path), str(empty_path), str(out)]
        )
        assert result.exit_code == 0, result.output
        assert parse_xes(out.read_bytes()).traces == []

    def test_annotate_twice_idempotent(self, runner, tmp_path, trained):
        config, log_path, model_path, _ = trained
        once = tmp_path / "once.xes"
        twice = tmp_path / "twice.xes"
        assert runner.invoke(
            main, ["annotate", str(model_path), str(log_path), str(once)]
        ).exit_code == 0
        assert runner.invoke(
            main, ["annotate", str(model_path), str(once), str(twice)]
        ).exit_code == 0
        assert once.read_bytes() == twice.read_bytes()

    def test_collapse_of_an_untimed_event_is_an_error_line(self, runner, tmp_path, trained):
        config, log_path, model_path, _ = trained
        untimed = tmp_path / "untimed.xes"
        untimed.write_bytes(re.sub(rb' *<date key="time:timestamp"[^>]*/>\n', b"",
                                   log_path.read_bytes()))
        out = tmp_path / "out.xes"
        plain = runner.invoke(main, ["annotate", str(model_path), str(untimed), str(out)])
        assert plain.exit_code == 0, plain.output
        assert "warning:" in plain.output
        result = runner.invoke(
            main, ["annotate", str(model_path), str(untimed), str(tmp_path / "c.xes"), "--collapse"]
        )
        TestBadValues.assert_error(result, "trace 'case_1' event 0 has no timestamp")
        assert not (tmp_path / "c.xes").exists()


    def test_a_model_whose_mixture_weights_do_not_sum_to_one_is_an_error_line(
        self, runner, tmp_path, trained
    ):
        config, log_path, model_path, _ = trained
        payload = json.loads(model_path.read_text())
        [gmm, *_] = payload["catalog"]["time_models"]["day"]["gmms"].values()
        gmm["weights"][0] *= 1.5
        model_path.write_text(json.dumps(payload))
        result = runner.invoke(main, ["annotate", str(model_path), str(log_path), str(tmp_path / "o.xes")])
        TestBadValues.assert_error(result, "mixture weights must sum to 1")
        assert not (tmp_path / "o.xes").exists()


class TestEvaluate:
    def test_loocv_runs_and_writes_report(self, runner, tmp_path, trained):
        config, log_path, _, _ = trained
        report_path = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "evaluate", str(log_path), "--protocol", "loocv",
                "--config", config, "--report", str(report_path),
            ],
        )
        assert result.exit_code == 0, result.output
        assert "mean Levenshtein similarity" in result.output
        assert "confusion matrix" in result.output
        payload = json.loads(report_path.read_text())
        recomputed = sum(r["similarity"] for r in payload["per_trace"]) / len(
            payload["per_trace"]
        )
        assert abs(payload["mean_similarity"] - recomputed) < 1e-12
        folds = payload["folds"]
        assert [f["held_out"] for f in folds] == [[i] for i in range(len(payload["per_trace"]))]
        assert f"optimizer over {len(folds)} folds: " in result.output

    def test_kfold_reproducible(self, runner, tmp_path, trained):
        config, log_path, _, _ = trained
        outputs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            result = runner.invoke(
                main,
                [
                    "evaluate", str(log_path), "--protocol", "kfold",
                    "--folds", "3", "--seed", "5",
                    "--config", config, "--report", str(path),
                ],
            )
            assert result.exit_code == 0, result.output
            outputs.append(path.read_text())
        assert outputs[0] == outputs[1]

    def test_seed_flag_shuffles_without_reseeding_the_mixtures(
        self, runner, trained, monkeypatch
    ):
        config, log_path, _, _ = trained
        calls = []

        def capture(log, k, seed, config):
            calls.append((seed, config.abstraction.catalog.gmm_seed))
            raise EventabsError("captured")

        monkeypatch.setattr(evaluation, "k_fold", capture)
        for extra in ([], ["--seed", "5"]):
            result = runner.invoke(
                main,
                ["evaluate", str(log_path), "--protocol", "kfold", "--folds", "3",
                 "--config", config, *extra],
            )
            assert "captured" in result.output
        (_, gmm_seed_without), (shuffle_seed, gmm_seed_with) = calls
        assert shuffle_seed == 5
        assert gmm_seed_with == gmm_seed_without == 7  # the config file's seed

    def test_invalid_fold_count(self, runner, tmp_path, trained):
        config, log_path, _, _ = trained
        result = runner.invoke(
            main,
            ["evaluate", str(log_path), "--protocol", "kfold", "--folds", "99",
             "--config", config],
        )
        assert result.exit_code != 0
        assert "exceeds" in result.output

    @pytest.mark.parametrize("flag", [["--folds", "3"], ["--seed", "5"]])
    def test_loocv_refuses_kfold_flags(self, runner, tmp_path, trained, flag):
        config, log_path, _, _ = trained
        report_path = tmp_path / "r.json"
        result = runner.invoke(
            main,
            ["evaluate", str(log_path), "--protocol", "loocv", *flag,
             "--config", config, "--report", str(report_path)],
        )
        assert result.exit_code == 2, result.output
        assert "--protocol kfold only" in result.output
        assert not report_path.exists()

    def test_loocv_on_two_traces_runs_two_folds(self, runner, tmp_path):
        config = write_config(tmp_path, "traces = 2\nseed = 3\nngrams = 1\nviews = day\nkmax = 1\nmax_iterations = 30\n")
        log_path = tmp_path / "two.xes"
        assert runner.invoke(
            main, ["generate", "--config", config, "-o", str(log_path)]
        ).exit_code == 0
        report_path = tmp_path / "r.json"
        result = runner.invoke(
            main,
            ["evaluate", str(log_path), "--protocol", "loocv",
             "--config", config, "--report", str(report_path)],
        )
        assert result.exit_code == 0, result.output
        assert len(json.loads(report_path.read_text())["per_trace"]) == 2



def _mutated(rng: random.Random, data: bytes, tokens: list[bytes]) -> bytes:
    """``data`` after one to three byte-level edits: a short span deleted,
    repeated, or replaced by one of ``tokens``, or a token inserted."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(out) + 1)
        span = slice(i, i + rng.randint(1, 12))
        edit = rng.randrange(4)
        if edit == 0:
            del out[span]
        elif edit == 1:
            out[i:i] = out[span]
        elif edit == 2:
            out[span] = rng.choice(tokens)
        else:
            out[i:i] = rng.choice(tokens)
    return bytes(out)


def _lines_edited(rng: random.Random, data: bytes, fields: bytes, values: list[bytes]) -> bytes:
    """``data`` after one to three line-level edits: a line deleted or
    repeated elsewhere, or the first match of the regular expression
    ``fields`` on a line replaced by one of ``values``."""
    lines = data.split(b"\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        edit = rng.randrange(3)
        if edit == 0:
            del lines[i]
        elif edit == 1:
            lines.insert(i, rng.choice(lines))
        else:
            lines[i] = re.sub(fields, rng.choice(values), lines[i], count=1)
        if not lines:
            lines = [b""]
    return b"\n".join(lines)


XES_TOKENS = [
    b"<", b">", b"/>", b'"', b"'", b"&", b"\x00", b"\xff", b"9", b"-",
    b"<event>", b"</event>", b"<trace>", b"</trace>", b"<log>",
    b'<string key="label" value="L"/>', b'<int key="n" value="x"/>',
    b'<list key="l"><values>', b"</values></list>",
    b"<?xml version='1.0' encoding='latin-1'?>",
]
XES_VALUES = [
    b'value=""', b'value="x"', b'value="-1"', b'value="1e308"', b'value="nan"',
    b'value="start"', b'value="complete"', b'value="Eating"',
    b'value="9999-12-31T23:59:59.999+00:00"', b'value="0001-01-01T00:00:00-14:00"',
    b'value="2015-11-03T08:00:00+14:00"', b'value="2015-02-30T00:00:00"',
    b'key="org:resource"', b'key="lifecycle:transition"', b'key="label"',
    b'key="time:timestamp"', b'key="concept:name"',
]
# stand-ins for one value of a model file: other types, and non-finite and
# extreme numbers
MODEL_VALUES = [
    "x", "", 1.5, -1.0, 0, 2, -3, None, True, [], {}, [1.0], ["a"], {"a": 1},
    10**30, 1e308, -1e308, 1e-300, float("nan"), float("inf"), -float("inf"),
]
CONFIG_VALUES = {
    "traces": ["2", "0", "-1", "x", "3.5"],
    "seed": ["1", "-4", "x", ""],
    "delay_mean": ["60", "0", "-1", "1e300", "nan", "inf", "x"],
    "stop_probability": ["0.5", "1", "0", "2", "nan", "x"],
    "l1": ["0.1", "0", "-1", "inf", "nan", "x"],
    "ngrams": ["1", "1,2", "0", "a", "", "1 1"],
    "kmax": ["1", "2", "0", "-2", "1.5"],
    "alpha": ["1", "0", "-1", "nan", "inf", "x"],
    "views": ["day", "week month", "bogus", "", "day day"],
    "folds": ["2", "0", "x"],
    "similarity_mode": ["events", "runs", "x"],
    "max_iterations": ["1", "3", "0", "-5", "x"],
    "process": ["medicine-eating", "from-files", "x"],
    "high_net": ["absent.net", "."],
    "subprocesses": ["A=absent.net", "x", ""],
}
# the settings every fuzzed config starts from, so that a run takes milliseconds
FUZZ_BASE_CONFIG = "traces = 2\nngrams = 1\nviews = day\nkmax = 1\nmax_iterations = 5\n"
HIGH_NET = b"place h0 init=1\nplace h1\ntransition t label=Step\narc h0 t\narc t h1\nfinal h1\n"
SUB_NET = (b"place s0 init=1\nplace s1\ntransition u label=leaf\ntransition v\n"
           b"arc s0 u\narc u s1\narc s1 v\narc v s0\nfinal s1\n")
NET_TOKENS = [
    b"place", b"transition", b"arc", b"final", b"init=", b"init=2", b"init=-1", b"label=",
    b"label=Step", b"s1*2", b"s1*0", b"h0", b"h1", b"s0", b"t", b"u", b"x", b"#", b"=", b"\xff",
]

SENSOR_CSV = (
    "sensor,timestamp,value\n"
    "door,2015-11-03T08:00:00Z,1\ndoor,2015-11-03T08:05:00.250+01:00,0\n"
    "tap,2015-11-04T03:59:00Z,1\ntap,2015-11-04T04:01:00Z,0\ndoor,2015-11-04T09:00:00,1\n"
)
CSV_FIELDS = [
    b"", b"0", b"1", b"2", b"-1", b"door", b'"a,b"', b"2015-11-03T08:00:00Z",
    b"9999-12-31T23:59:59-14:00", b"0001-01-01T00:00:00+14:00", b"2015-11-04T03:59:59.9999999",
]


def _model_edit(rng: random.Random, payload: dict) -> None:
    """One random edit of a parsed model file, in place: a value replaced
    by one of ``MODEL_VALUES``, a key or item deleted, or an item repeated
    or wrapped in a list."""
    paths = []

    def walk(node, path):
        paths.append(path)
        if isinstance(node, (dict, list)):
            for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
                walk(child, path + (key,))

    walk(payload, ())
    *parents, key = rng.choice(paths[1:])
    node = payload
    for step in parents:
        node = node[step]
    edit = rng.randrange(4)
    if edit == 0:
        node[key] = rng.choice(MODEL_VALUES)
    elif edit == 1:
        del node[key]
    elif edit == 2 and isinstance(node, list):
        node.insert(key, node[key])
    else:
        node[key] = [node[key]]


class TestErrorBoundary:
    """A seeded fuzz of the command line's one error boundary: every run on
    mutated XES bytes, model files, config files and net files ends with
    exit 0 or in exactly one ``Error:`` line, with no exception other than
    ``SystemExit``. A fault of the program keeps its traceback."""

    CASES = 300

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        log = petri.generate_annotated_log(petri.medicine_eating_process(), 3, seed=5)
        (root / "g.xes").write_bytes(serialize_xes(log))
        model = abstraction.fit(log, abstraction.AbstractionConfig(
            catalog=CatalogConfig(ngram_sizes=(1, 2), gmm_max_components=2),
            optimizer=OwlqnConfig(max_iterations=30),
        ))
        abstraction.save_model(model, root / "model.json")
        (root / "base.cfg").write_text(FUZZ_BASE_CONFIG)
        return root

    @staticmethod
    def held(result) -> bool:
        if result.exception is None:
            return result.exit_code == 0
        return (isinstance(result.exception, SystemExit)
                and result.output.count("Error:") == 1 and "Traceback" not in result.output)

    def fuzz(self, runner, seed, case):
        """Run ``case(rng, i)`` for each case number ``i``; it writes its
        inputs and returns the command line. Returns the cases whose
        outcome broke the boundary, with their exception."""
        rng = random.Random(seed)
        broken = []
        for i in range(self.CASES):
            result = runner.invoke(main, [str(arg) for arg in case(rng, i)])
            if not self.held(result):
                broken.append((i, repr(result.exception), result.output[-300:]))
        return broken

    def test_mutated_xes(self, runner, files):
        data = (files / "g.xes").read_bytes()

        def case(rng, i):
            if i % 2:
                mutated = _lines_edited(rng, data, rb'(key|value)="[^"]*"', XES_VALUES)
            else:
                mutated = _mutated(rng, data, XES_TOKENS)
            (files / "x.xes").write_bytes(mutated)
            base = ["--config", files / "base.cfg"]
            return [
                ["train", files / "x.xes", files / "o.json", *base],
                ["annotate", files / "model.json", files / "x.xes", files / "o.xes"],
                ["annotate", files / "model.json", files / "x.xes", files / "o.xes", "--collapse"],
                ["evaluate", files / "x.xes", "--protocol", "kfold", "--folds", "2", *base],
            ][i // 2 % 4]

        assert self.fuzz(runner, 1, case) == []

    def test_mutated_model(self, runner, files):
        text = (files / "model.json").read_text()

        def case(rng, i):
            payload = json.loads(text)
            for _ in range(rng.randint(1, 2)):
                _model_edit(rng, payload)
            data = json.dumps(payload).encode()
            if i % 5 == 0:
                data = _mutated(rng, data, [b"{", b"]", b",", b'"', b"\xff", b"-", b"e9"])
            (files / "m.json").write_bytes(data)
            return ["annotate", files / "m.json", files / "g.xes", files / "o.xes"]

        assert self.fuzz(runner, 2, case) == []

    def test_mutated_config(self, runner, files):
        def case(rng, i):
            keys = rng.sample(sorted(CONFIG_VALUES), rng.randint(1, 4))
            lines = [f"{key} = {rng.choice(CONFIG_VALUES[key])}" for key in keys]
            data = (FUZZ_BASE_CONFIG + "\n".join(lines) + "\n").encode()
            if i % 4 == 0:
                data = _mutated(rng, data, [b"=", b"\n", b"#", b"\xff", b" = ", b"traces"])
            (files / "f.cfg").write_bytes(data)
            if i % 2:
                return ["generate", "--config", files / "f.cfg", "-o", files / "o.xes"]
            return ["train", files / "g.xes", files / "o.json", "--config", files / "f.cfg"]

        assert self.fuzz(runner, 3, case) == []

    def test_mutated_nets(self, runner, files):
        (files / "nets.cfg").write_text(
            f"process = from-files\nhigh_net = {files}/h.net\nsubprocesses = Step={files}/s.net\n"
        )

        def case(rng, i):
            nets = {"h.net": HIGH_NET, "s.net": SUB_NET}
            for _ in range(rng.randint(1, 2)):
                name = rng.choice(sorted(nets))
                if rng.randrange(2):
                    nets[name] = _lines_edited(rng, nets[name], rb"\S+", NET_TOKENS)
                else:
                    nets[name] = _mutated(rng, nets[name], [b" " + t for t in NET_TOKENS])
            for name, data in nets.items():
                (files / name).write_bytes(data)
            return ["generate", "--config", files / "nets.cfg", "--traces", "2",
                    "--seed", i, "-o", files / "o.xes"]

        assert self.fuzz(runner, 4, case) == []

    def test_mutated_sensor_csv(self, runner, files):
        data = SENSOR_CSV.encode()

        def case(rng, i):
            if i % 2:
                mutated = _lines_edited(rng, data, rb"[^,]+", CSV_FIELDS)
            else:
                mutated = _mutated(rng, data, CSV_FIELDS + [b",", b"\n", b'"', b"\r", b"\x00", b"\xff"])
            (files / "s.csv").write_bytes(mutated)
            return ["convert", files / "s.csv", files / "o.xes", "--day-boundary", "04:00"]

        assert self.fuzz(runner, 5, case) == []

    def test_a_model_whose_scores_overflow_is_an_error_line(self, runner, files, tmp_path):
        payload = json.loads((files / "model.json").read_text())
        payload["weights"] = [1e308] * len(payload["weights"])
        (tmp_path / "m.json").write_text(json.dumps(payload))
        result = runner.invoke(
            main, ["annotate", str(tmp_path / "m.json"), str(files / "g.xes"), str(tmp_path / "o.xes")]
        )
        TestBadValues.assert_error(result, "the model's scores overflow")
        assert not (tmp_path / "o.xes").exists()

    @pytest.mark.parametrize("module, name, args", [
        (evaluation, "leave_one_trace_out", ["evaluate", "{log}", "--protocol", "loocv"]),
        (abstraction, "fit", ["train", "{log}", "{tmp}/m.json"]),
    ])
    def test_a_fault_of_the_program_keeps_its_traceback(
        self, runner, tmp_path, monkeypatch, module, name, args
    ):
        boom = ValueError("boom")

        def fail(*args, **kwargs):
            raise boom

        monkeypatch.setattr(module, name, fail)
        log = tmp_path / "g.xes"
        log.write_bytes(serialize_xes(make_log([sequence_trace([("A", "X")])] * 2)))
        result = runner.invoke(main, [arg.format(log=log, tmp=tmp_path) for arg in args])
        assert result.exception is boom
