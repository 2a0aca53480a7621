"""End-to-end command-line pipeline runs."""

import json
import re

import pytest
from click.testing import CliRunner

from eventabs import abstraction, evaluation
from eventabs.cli import main
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
        self.assert_error(result, "line 2: place 'p' is already declared on line 1")
        assert not (tmp_path / "x.xes").exists()


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
            raise ValueError("captured")

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
