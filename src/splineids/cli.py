"""Command-line interface.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure. All randomness flows from explicit seed flags.
"""

import argparse
import csv
import sys
from pathlib import Path

from . import experiment as exp
from .errors import ConfigError, NumericalError, SplineIdsError
from .logistic import accuracy
from .simulate import ScenarioConfig, generate_dataset, read_json, scenario_from_dict, write_csv


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_scenario(path: str | None, seed: int | None, n_records: int | None = None) -> ScenarioConfig:
    """The scenario in the JSON file ``path`` (None: the default scenario), with the given overrides.

    A file that ``read_json`` cannot read is a ConfigError naming it."""
    data = {} if path is None else read_json(path, ConfigError, "scenario file")
    overrides = {name: value for name, value in (("seed", seed), ("n_records", n_records)) if value is not None}
    # scenario_from_dict rejects a document that is not an object
    return scenario_from_dict({**data, **overrides} if isinstance(data, dict) else data)


def _parse_models(text: str) -> tuple[exp.ModelKind, ...]:
    tokens = {m.value: m for m in exp.ModelKind}
    models = []
    for piece in text.split(","):
        piece = piece.strip()
        if piece not in tokens:
            raise ConfigError(f"unknown model '{piece}' (choose from {', '.join(tokens)})")
        models.append(tokens[piece])
    return tuple(models)


def _parse_probs(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse knot probabilities '{text}'")


def _scenario_of(args) -> ScenarioConfig | None:
    """The scenario that ``--scenario`` and ``--seed`` name, or None when the data come from ``--data``."""
    if args.data is None:
        return _load_scenario(args.scenario, args.seed)
    if args.seed is not None:
        raise ConfigError("--seed sets the scenario seed, so it cannot be used with --data")
    return None


def _experiment_config(args) -> exp.ExperimentConfig:
    return exp.ExperimentConfig(
        data_csv=args.data,
        scenario=_scenario_of(args),
        split_ratio=args.split_ratio,
        split_seed=args.split_seed,
        knot_probs=_parse_probs(args.knots),
        models=_parse_models(args.models),
        threshold=args.threshold,
        bspline_degree=args.bspline_degree,
        congestion_filter=args.filter,
    )


def _add_data_args(p):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--data", help="input traffic CSV")
    group.add_argument("--scenario", help="scenario config JSON (default: built-in scenario)")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed (not with --data)")


def _add_fit_args(p):
    knots = ",".join(map(str, exp.ExperimentConfig.knot_probs))
    p.add_argument("--knots", default=knots, help="comma-separated quantile probabilities")
    p.add_argument("--bspline-degree", type=int, default=exp.ExperimentConfig.bspline_degree)


def _add_experiment_args(p):
    defaults = exp.ExperimentConfig  # a dataclass field's default is its class attribute
    _add_data_args(p)
    p.add_argument("--split-ratio", type=float, default=defaults.split_ratio)
    p.add_argument("--split-seed", type=int, default=defaults.split_seed)
    p.add_argument("--models", default=",".join(m.value for m in exp.ALL_MODELS))
    _add_fit_args(p)
    p.add_argument("--threshold", type=float, default=defaults.threshold)
    p.add_argument("--filter", choices=exp.CONGESTION_FILTERS, default=defaults.congestion_filter)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splineids", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="generate a synthetic traffic CSV")
    p.add_argument("--config", help="scenario config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--n", type=int, default=None, help="override the record count")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("experiment", help="run the five-model comparison")
    _add_experiment_args(p)
    p.add_argument("--report", help="write the report here (default: stdout)")
    p.add_argument("--format", choices=exp.REPORT_FORMATS, default=exp.REPORT_FORMATS[0])
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("curves", help="emit prediction curves over a delay grid")
    _add_experiment_args(p)
    p.add_argument("--grid", type=int, default=exp.CURVE_GRID_POINTS)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("train", help="fit one model on a full dataset and save it")
    _add_data_args(p)
    p.add_argument("--model", required=True, choices=[m.value for m in exp.ModelKind])
    _add_fit_args(p)
    p.add_argument("--save", required=True, help="output model JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model against a dataset")
    p.add_argument("--load", required=True, help="model JSON path")
    p.add_argument("--data", required=True, help="input traffic CSV")
    p.add_argument("--threshold", type=float, default=exp.ExperimentConfig.threshold)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def _cmd_simulate(args) -> None:
    scenario = _load_scenario(args.config, args.seed, args.n)
    write_csv(generate_dataset(scenario), args.out)


def _cmd_experiment(args) -> None:
    config = _experiment_config(args)
    report = exp.run_experiment(config)
    text = exp.emit_report(report, args.format, args.report)
    if args.report is None:
        sys.stdout.write(text)


def _cmd_curves(args) -> None:
    config = _experiment_config(args)
    bundle = exp.emit_curves(config, args.grid)
    Path(args.out).write_text(bundle.to_csv(), encoding="utf-8")


def _cmd_train(args) -> None:
    config = exp.ExperimentConfig(
        data_csv=args.data,
        scenario=_scenario_of(args),
        knot_probs=_parse_probs(args.knots),
        models=_parse_models(args.model),
        bspline_degree=args.bspline_degree,
    )
    records = exp.load_records(config)
    sample = exp.group_sample(config, records.packet_delay_ms, records.label)
    del records  # the fit reads only the grouped sample
    (model,) = exp.fit_sample(config, sample).values()
    exp.save_model(model, args.save)


def _cmd_evaluate(args) -> None:
    config = exp.ExperimentConfig(data_csv=args.data, threshold=args.threshold)
    model = exp.load_model(args.load)
    records = exp.load_records(config)
    cm, clamped = exp.score_model(model, records.packet_delay_ms, records.label, config.threshold)
    sys.stdout.write(
        f"n: {cm.total}\n"
        f"tp: {cm.tp}\nfp: {cm.fp}\ntn: {cm.tn}\nfn: {cm.fn}\n"
        f"accuracy: {100.0 * accuracy(cm):.2f}%\n"
        f"clamped_points: {clamped}\n"
    )


def _fail(kind: str, err: Exception, code: int) -> int:
    # one line, even where the message quotes input that holds line breaks
    text = " ".join(str(err).splitlines())
    print(f"splineids: {kind}: {text}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as err:
        return _fail("config error", err, 1)
    except NumericalError as err:
        return _fail("numerical failure", err, 3)
    except (SplineIdsError, OSError, csv.Error) as err:
        return _fail("data error", err, 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
