"""Command-line entry point wiring the pipeline: generate synthetic logs,
convert sensor data, train, annotate, collapse, and evaluate.

Configuration is a plain ``key = value`` file; command-line flags override
file values. Summaries go to stdout, warnings to stderr, artifacts to
files. Every command is deterministic given its inputs and seeds. A
command that fails on its input, with an ``OSError`` or an error of the
package's family (:mod:`eventabs.errors`), ends in one ``Error:`` line;
any other exception is a fault of the program and keeps its traceback.
"""

from __future__ import annotations

import sys
from datetime import time
from pathlib import Path
from typing import Callable, TypeVar

import click

from . import abstraction, evaluation, petri, xes
from .errors import EventabsError, read_text
from .features import CatalogConfig
from .owlqn import OwlqnConfig

CONFIG_KEYS = {
    "process", "high_net", "subprocesses", "traces", "seed", "delay_mean",
    "stop_probability", "l1", "ngrams", "kmax", "alpha", "views", "folds",
    "similarity_mode", "max_iterations",
}

T = TypeVar("T")


def _read_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    values: dict[str, str] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise click.ClickException(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise click.ClickException(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _merged(config_path: str | None, **overrides: object) -> dict[str, str]:
    values = _read_config(config_path)
    for key, value in overrides.items():
        if value is not None:
            values[key] = str(value)
    return values


def _parsed(values: dict[str, str], key: str, parse: Callable[[str], T], default: T) -> T:
    """``parse`` of the value of ``key``, or ``default`` when it is unset; a
    value that ``parse`` refuses ends the command with an error."""
    if key not in values:
        return default
    try:
        return parse(values[key])
    except ValueError as exc:
        raise click.ClickException(f"bad {key} value {values[key]!r}") from exc


def _words(text: str) -> tuple[str, ...]:
    return tuple(text.replace(",", " ").split())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in _words(text))


def _abstraction_config(values: dict[str, str]) -> abstraction.AbstractionConfig:
    defaults = abstraction.AbstractionConfig()
    catalog = defaults.catalog
    return abstraction.AbstractionConfig(
        catalog=CatalogConfig(
            ngram_sizes=_parsed(values, "ngrams", _parse_ints, catalog.ngram_sizes),
            time_views=_parsed(values, "views", _words, catalog.time_views),
            smoothing_alpha=_parsed(values, "alpha", float, catalog.smoothing_alpha),
            gmm_max_components=_parsed(values, "kmax", int, catalog.gmm_max_components),
            gmm_seed=_parsed(values, "seed", int, catalog.gmm_seed),
        ),
        l1_coefficient=_parsed(values, "l1", float, defaults.l1_coefficient),
        optimizer=OwlqnConfig(max_iterations=_parsed(
            values, "max_iterations", int, defaults.optimizer.max_iterations
        )),
    )


def _load_process(values: dict[str, str]) -> petri.HierarchicalProcess:
    name = values.get("process", "medicine-eating")
    if name == "medicine-eating":
        return petri.medicine_eating_process()
    if name != "from-files":
        raise click.ClickException(
            f"unknown process {name!r}; use 'medicine-eating' or 'from-files' "
            "with high_net= and subprocesses="
        )
    if "high_net" not in values or "subprocesses" not in values:
        raise click.ClickException(
            "process = from-files needs high_net= and subprocesses= entries"
        )
    high = petri.load_net(values["high_net"])
    submap = {}
    for entry in values["subprocesses"].split(";"):
        label, sep, net_path = entry.partition("=")
        if not sep:
            raise click.ClickException(f"bad subprocesses entry {entry!r}; expected 'label=path'")
        submap[label.strip()] = petri.load_net(net_path.strip())
    return petri.HierarchicalProcess(high, submap)


def _emit_diagnostics(diagnostics: tuple[str, ...] | list[str]) -> None:
    for message in dict.fromkeys(diagnostics):
        click.echo(f"warning: {message}", err=True)


class _Commands(click.Group):
    """The command group, and the one place that turns an error of the
    package's family, or an ``OSError`` such as a missing output
    directory, into an ``Error:`` line."""

    def invoke(self, ctx: click.Context) -> object:
        try:
            return super().invoke(ctx)
        except (OSError, EventabsError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands)
def main() -> None:
    """Supervised abstraction of low-level event logs."""


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--output", "-o", required=True, type=click.Path())
@click.option("--traces", type=int, default=None, help="Number of traces.")
@click.option("--seed", type=int, default=None)
def generate(config_path: str | None, output: str, traces: int | None, seed: int | None) -> None:
    """Generate an annotated low-level XES log from a hierarchical process."""
    values = _merged(config_path, traces=traces, seed=seed)
    log = petri.generate_annotated_log(
        _load_process(values),
        num_traces=_parsed(values, "traces", int, 100),
        seed=_parsed(values, "seed", int, 0),
        timestamp_model=petri.ExponentialDelays(_parsed(
            values, "delay_mean", float, petri.ExponentialDelays().mean_seconds
        )),
        stop_probability=_parsed(values, "stop_probability", float, petri.STOP_PROBABILITY),
    )
    Path(output).write_bytes(xes.serialize_xes(log))
    click.echo(f"wrote {len(log.traces)} traces, {log.event_count()} events to {output}")


@main.command()
@click.argument("sensor_csv", type=click.Path(exists=True))
@click.argument("output", type=click.Path())
@click.option("--day-boundary", default="00:00", show_default=True,
              help="Clock time HH:MM at which a new case day starts.")
def convert(sensor_csv: str, output: str, day_boundary: str) -> None:
    """Convert a sensor change-point CSV (sensor,timestamp,value) to XES."""
    try:
        boundary = time.fromisoformat(day_boundary)
    except ValueError as exc:
        raise click.ClickException(f"bad day boundary {day_boundary!r}") from exc
    diagnostics: list[str] = []
    log = xes.sensor_series_to_log(xes.read_sensor_csv(sensor_csv), boundary, diagnostics)
    _emit_diagnostics(diagnostics)
    Path(output).write_bytes(xes.serialize_xes(log))
    click.echo(f"wrote {len(log.traces)} traces, {log.event_count()} events to {output}")


@main.command()
@click.argument("log_path", type=click.Path(exists=True))
@click.argument("model_path", type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--l1", type=float, default=None, help="L1 regularization coefficient.")
@click.option("--ngrams", default=None, help="Comma-separated n-gram sizes.")
@click.option("--kmax", type=int, default=None, help="Maximum mixture components.")
@click.option("--seed", type=int, default=None, help="Seed for sub-model fits.")
def train(log_path: str, model_path: str, config_path: str | None,
          l1: float | None, ngrams: str | None, kmax: int | None, seed: int | None) -> None:
    """Train an abstraction model on a fully annotated XES log."""
    values = _merged(config_path, l1=l1, ngrams=ngrams, kmax=kmax, seed=seed)
    config = _abstraction_config(values)
    log = xes.parse_xes(log_path)
    model = abstraction.fit(log, config)
    _emit_diagnostics(model.catalog.notes)
    abstraction.save_model(model, model_path)
    total = len(model.weights)
    nonzero = model.nonzero_weight_count
    training = model.training
    assert training is not None
    click.echo(
        f"trained on {len(log.traces)} traces: {total} features, "
        f"{nonzero} nonzero weights ({100.0 * nonzero / total:.1f}% dense), "
        f"final objective {training.objective:.6f} after {training.iterations} "
        f"iterations and {training.evaluations} evaluations (stop: {training.stop})"
    )


@main.command()
@click.argument("model_path", type=click.Path(exists=True))
@click.argument("log_path", type=click.Path(exists=True))
@click.argument("output", type=click.Path())
@click.option("--collapse", "do_collapse", is_flag=True,
              help="Write the collapsed high-level start/complete log.")
def annotate(model_path: str, log_path: str, output: str, do_collapse: bool) -> None:
    """Annotate a low-level XES log with predicted high-level labels."""
    model = abstraction.load_model(model_path)
    diagnostics: list[str] = []
    annotated = abstraction.annotate(model, xes.parse_xes(log_path), diagnostics)
    result = abstraction.collapse(annotated) if do_collapse else annotated
    _emit_diagnostics(diagnostics)
    Path(output).write_bytes(xes.serialize_xes(result))
    click.echo(f"wrote {len(result.traces)} traces, {result.event_count()} events to {output}")


@main.command()
@click.argument("log_path", type=click.Path(exists=True))
@click.option("--protocol", type=click.Choice(["loocv", "kfold"]), required=True)
@click.option("--folds", type=int, default=None, help="Fold count for kfold only.")
@click.option("--seed", type=int, default=None, help="Shuffle seed for kfold only.")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--l1", type=float, default=None)
@click.option("--ngrams", default=None)
@click.option("--kmax", type=int, default=None)
@click.option("--similarity-mode", type=click.Choice(["events", "runs"]), default=None)
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Write the JSON report here.")
def evaluate(log_path: str, protocol: str, folds: int | None, seed: int | None,
             config_path: str | None, l1: float | None, ngrams: str | None,
             kmax: int | None, similarity_mode: str | None, report_path: str | None) -> None:
    """Cross-validate abstraction quality on an annotated XES log."""
    if protocol == "loocv" and (folds is not None or seed is not None):
        raise click.UsageError("--folds and --seed apply to --protocol kfold only")
    # --seed shuffles the folds only; a config file's seed also seeds the
    # sub-model fits, as it does for train
    values = _merged(
        config_path, l1=l1, ngrams=ngrams, kmax=kmax, folds=folds,
        similarity_mode=similarity_mode,
    )
    config = evaluation.EvalConfig(
        abstraction=_abstraction_config(values),
        similarity_on=values.get("similarity_mode", "events"),
    )
    log = xes.parse_xes(log_path)
    if protocol == "loocv":
        report = evaluation.leave_one_trace_out(log, config)
    else:
        report = evaluation.k_fold(
            log,
            k=_parsed(values, "folds", int, 10),
            seed=_parsed(values, "seed", int, 0) if seed is None else seed,
            config=config,
        )
    _emit_diagnostics(report.diagnostics)
    if report_path is not None:
        Path(report_path).write_text(report.to_json())
    click.echo(report.to_text())


if __name__ == "__main__":
    sys.exit(main())
