import csv
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from csps import example_data
from csps.balancing import (
    ESTIMATORS,
    SUBCLASS_METHODS,
    AlgorithmConfig,
    BalanceReport,
    ContrastBalance,
    _error_text,
)
from csps.cli import _build_parser, main
from csps.contrasts import Contrast, assignment_indicators, read_contrast_file
from csps.data import Dataset, load_dataset, write_dataset_csv
from csps.errors import InvalidArgument, SeparationDetected
from csps.estimation import empirical_csps, model_csps
from csps.example_data import worked_example_dataset
from csps.simulation import SimulationConfig, mechanism_ii, sample_dataset

DATA = Path(__file__).parent / "data"
README = Path(__file__).parent.parent / "README.md"
BALANCING = "1/3 2/3 -1  # both-vs-3\n1 -1 0  # 1-vs-2\n"
TARGETS = BALANCING + "1 0 -1  # 1-vs-3\n0 1 -1  # 2-vs-3\n"


@pytest.fixture
def example_csv(tmp_path):
    path = tmp_path / "units.csv"
    write_dataset_csv(worked_example_dataset(), path)
    return path


@pytest.fixture
def contrast_file(tmp_path):
    path = tmp_path / "contrasts.txt"
    path.write_text("1/2 1/2 -1 # first-two-vs-third\n1 -1 0 # first-vs-second\n")
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


EXAMPLE_STDOUT = """\
worked example: 24 units, 3 treatments, 4 covariate cells
cell            units  score1  score2  chained  subclass
(0, 0, 0)           6     2/3     1/2      1/2         3
(0, 1, 1)           6     5/6     2/5      3/4         4
(1, 0, 1)           6     2/3     3/4      1/3         2
(1, 1, 1)           6     1/3     1/2      1/5         1

all values reproduced exactly (including the one-score counterexample)
"""


class TestExample:
    def test_exits_zero_and_reproduces(self, capsys):
        assert main(["example"]) == 0
        assert capsys.readouterr().out == EXAMPLE_STDOUT

    def test_table_and_checks_read_one_pass(self, monkeypatch, capsys):
        # one run_algorithm call for the target and one for the counterexample
        runs = []
        real = example_data.run_algorithm

        def counted(*args):
            runs.append(args)
            return real(*args)

        monkeypatch.setattr(example_data, "run_algorithm", counted)
        assert main(["example"]) == 0
        assert capsys.readouterr().out == EXAMPLE_STDOUT
        assert len(runs) == 2

    def test_failed_entry_is_a_mismatch(self, monkeypatch, capsys):
        def failing(dataset, balancing_set, targets, config):
            return BalanceReport(dataset.covariate_names, tuple(
                ContrastBalance(contrast=t, error="TooFewUnits: none left") for t in targets
            ))

        monkeypatch.setattr(example_data, "run_algorithm", failing)
        assert example_data.verify_worked_example() == ["target entry: TooFewUnits: none left"]
        assert main(["example"]) == 1
        assert capsys.readouterr().out == (
            "worked example: 24 units, 3 treatments, 4 covariate cells\n\nmismatches:\n"
            "  target entry: TooFewUnits: none left\n"
        )


def readme_options() -> dict:
    """README's "Command line" table: each subcommand's options, and the
    default written after an option, or None."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| subcommand | options (default) |\n|---|---|\n")[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines():
        name, options = re.fullmatch(r"\| `(\w+)` \| (.*) \|", line).groups()
        options = re.findall(r"`(--[a-z-]+)`(?: \(([^)]*)\))?", options)
        rows[name] = {option: default or None for option, default in options}
    return rows


def test_readme_option_table_matches_the_parser():
    # every option of every subcommand, and every default written as a
    # literal, such as (`logistic`) or (800), is the parser's
    table = readme_options()
    _, commands = _build_parser()
    assert sorted(table) == sorted(commands)
    for name, command in commands.items():
        actions = {
            a.option_strings[-1]: a for a in command._actions if "--help" not in a.option_strings
        }
        assert sorted(table[name]) == sorted(actions), name
        for option, written in table[name].items():
            literal = re.fullmatch(r"`([^`]+)`|(-?[0-9.]+)", written or "")
            if literal:
                action = actions[option]
                value = (action.type or str)(literal[1] or literal[2])
                assert value == action.default, (name, option, written)


def test_parser_reads_its_choices_and_defaults_from_the_configs():
    # the algorithm's and the simulation's settings are defined once, by
    # their config classes
    algorithm = AlgorithmConfig()
    want = {
        "--estimator": (ESTIMATORS, algorithm.estimator),
        "--ridge": (None, algorithm.ridge),
        "--subclasses": (None, algorithm.num_subclasses),
        "--method": (SUBCLASS_METHODS, algorithm.subclass_method),
        "--units": (None, SimulationConfig.num_units),
        "--reps": (None, SimulationConfig.replications),
        "--seed": (None, SimulationConfig.seed),
    }
    _, commands = _build_parser()
    seen = set()
    for command in commands.values():
        for action in command._actions:
            option = action.option_strings[-1] if action.option_strings else None
            if option in want:
                assert (action.choices, action.default) == want[option], option
                seen.add(option)
    assert seen == set(want)


def test_readme_quick_start_runs_as_written(capsys):
    # README's "Library quick start" block, on a sample of mechanism II, so
    # the block cannot name what the package does not export
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick start\n\n```python\n")[1].split("```\n")[0]
    dataset = sample_dataset(mechanism_ii(), 0)
    namespace = {"covariate_rows": dataset.covariates, "treatment_labels": dataset.treatments}
    exec(block, namespace)
    report = namespace["report"]
    assert report.error is None
    assert capsys.readouterr().out == f"{report.before} {report.after}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["example", "--config", "c.txt"],
        ["example", "--output-dir", "."],
        ["example", "--out", "x.csv"],
        ["example", "--format", "text"],
        ["estimate", "--format", "csv"],
    ],
)
def test_options_a_command_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestEstimate:
    def test_empirical_scores_csv(self, example_csv, contrast_file, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        code = main(
            [
                "estimate",
                "--data", str(example_csv),
                "--contrasts", str(contrast_file),
                "--estimator", "empirical",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 24
        first = rows[0]
        assert first["unit"] == "1"
        assert first["d[first-two-vs-third]"] == "1"
        assert float(first["csps[first-two-vs-third]"]) == pytest.approx(1 / 3)
        assert float(first["csps[first-vs-second]"]) == pytest.approx(1 / 2)

    def test_invalid_contrast_exits_two(self, example_csv, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1 -1\n")
        code = main(
            ["estimate", "--data", str(example_csv), "--contrasts", str(bad)]
        )
        assert code == 2
        assert "sum" in capsys.readouterr().err

    def test_contrast_too_long_to_describe_exits_two(self, example_csv, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 -1 0\n1e3000000 0 -1e3000000\n")
        start = time.perf_counter()
        code = main(["estimate", "--data", str(example_csv), "--contrasts", str(bad)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_data_file_exits_two(self, contrast_file, tmp_path):
        code = main(
            [
                "estimate",
                "--data", str(tmp_path / "nope.csv"),
                "--contrasts", str(contrast_file),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("given", ["--data", "--contrasts", None])
    def test_missing_flag_is_an_input_error(
        self, example_csv, contrast_file, tmp_path, capsys, given
    ):
        paths = {"--data": str(example_csv), "--contrasts": str(contrast_file)}
        args = ["estimate"] + ([given, paths[given]] if given else [])
        out = tmp_path / "scores.csv"
        assert main(args + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "input error: estimate: --data and --contrasts are required\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("ridge", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("estimator", ["empirical", "logistic"])
    def test_bad_ridge_is_an_input_error(
        self, example_csv, contrast_file, tmp_path, capsys, estimator, ridge
    ):
        out = tmp_path / "scores.csv"
        code = main(
            [
                "estimate",
                "--data", str(example_csv),
                "--contrasts", str(contrast_file),
                "--estimator", estimator,
                f"--ridge={ridge}",
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: ridge must be finite and nonnegative")
        assert not out.exists()

    def test_separation_exits_three(self, tmp_path, capsys):
        data = tmp_path / "sep.csv"
        lines = ["x1,w"]
        lines += [f"{v},1" for v in np.linspace(0.2, 2.0, 12)]
        lines += [f"{v},2" for v in np.linspace(-2.0, -0.2, 12)]
        data.write_text("\n".join(lines) + "\n")
        contrasts = tmp_path / "c.txt"
        contrasts.write_text("1 -1\n")
        code = main(
            [
                "estimate",
                "--data", str(data),
                "--contrasts", str(contrasts),
                "--estimator", "logistic",
                "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert code == 3
        assert "SeparationDetected" in capsys.readouterr().err

    def test_raised_failure_is_printed_as_a_report_records_it(self, tmp_path, capsys):
        # one error-text format: a failure that ends a command reads as the
        # error of a report entry
        data = tmp_path / "sep.csv"
        data.write_text("x1,w\n" + "".join(f"{v},{1 + (v < 0)}\n" for v in (-2, -1, 1, 2)))
        contrasts = tmp_path / "c.txt"
        contrasts.write_text("1 -1\n")
        with pytest.raises(SeparationDetected) as raised:
            model_csps(load_dataset(data), Contrast((1, -1)))
        argv = ["estimate", "--data", str(data), "--contrasts", str(contrasts),
                "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"estimation error: {_error_text(raised.value)}\n"

    @pytest.mark.parametrize(
        "contrasts, tag",
        [
            ("1 -1 0  # 1--1-0\n1 -1 0\n", "1--1-0"),
            ("0 1 -1\n1/2 1/2 -1\n1 0 -1  # 1/2-1/2--1\n", "1/2-1/2--1"),
        ],
        ids=["label-then-coefficients", "coefficients-then-label"],
    )
    def test_repeated_column_tag_is_an_input_error(
        self, example_csv, tmp_path, capsys, contrasts, tag
    ):
        # the columns are tagged by label, else by the joined coefficients;
        # two contrasts of one tag would write one column pair
        path = tmp_path / "tagged.txt"
        path.write_text(contrasts)
        out = tmp_path / "scores.csv"
        argv = ["estimate", "--data", str(example_csv), "--contrasts", str(path)]
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"input error: {path}: two contrasts are tagged {tag!r}\n"
        assert captured.out == ""
        assert not out.exists()


def reference_scores_csv(data_path, contrasts_path, estimator, path):
    """``csps estimate``'s scores.csv as the row-by-row writer made it."""
    dataset = load_dataset(data_path)
    columns = {}
    for c in read_contrast_file(contrasts_path):
        tag = c.label or "-".join(str(v) for v in c.coefficients)
        d = assignment_indicators(c, dataset.treatments)
        if estimator == "empirical":
            scores = empirical_csps(dataset, c)
        else:
            scores = model_csps(dataset, c)
        columns[f"d[{tag}]"] = d.tolist()
        undefined = set(scores.undefined_units.tolist())
        columns[f"csps[{tag}]"] = [
            "" if i in undefined else format(v, ".17g")
            for i, v in enumerate(scores.as_floats().tolist())
        ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit"] + list(columns))
        for i in range(dataset.n_units):
            writer.writerow([i + 1] + [col[i] for col in columns.values()])


@pytest.mark.parametrize("estimator", ["empirical", "logistic"])
def test_scores_csv_equals_row_writer(estimator, tmp_path, capsys):
    # x2 is continuous, so most empirical cells hold one unit and the scores
    # of units outside a contrast's groups are undefined (blank fields)
    rng = np.random.default_rng(500)
    X = np.column_stack([rng.integers(0, 4, 500), rng.standard_normal(500)])
    w = 1 + (rng.random(500) < 0.4) + (rng.random(500) < 0.3)
    data = tmp_path / "units.csv"
    write_dataset_csv(Dataset(X, w), data)
    contrasts = tmp_path / "targets.txt"
    contrasts.write_text(TARGETS + "1 -1 0\n")
    out, expected = tmp_path / "scores.csv", tmp_path / "expected.csv"
    code = main(
        [
            "estimate",
            "--data", str(data),
            "--contrasts", str(contrasts),
            "--estimator", estimator,
            "--out", str(out),
        ]
    )
    assert code == 0
    reference_scores_csv(data, contrasts, estimator, expected)
    assert out.read_bytes() == expected.read_bytes()
    if estimator == "empirical":
        assert b",," in out.read_bytes()


@pytest.mark.parametrize(
    "data, settings, golden, exit_code",
    [
        ("golden_units", ["--estimator", "logistic", "--method", "quantile"],
         "golden_units", 0),
        ("golden_cells", ["--estimator", "empirical", "--method", "exact"],
         "golden_cells", 0),
        # three of the four targets fail, so the error rows are pinned too
        ("golden_units", ["--estimator", "empirical"], "golden_units_empirical", 3),
    ],
    ids=["golden_units-settings0", "golden_cells-settings1", "golden_units-failing"],
)
def test_per_unit_csv_equals_golden_file(
    data, settings, golden, exit_code, tmp_path, capsys
):
    """``balance`` writes the committed text table and CSV files byte for byte."""
    balancing, targets = tmp_path / "balancing.txt", tmp_path / "targets.txt"
    balancing.write_text(BALANCING)
    targets.write_text(TARGETS)
    balance_csv, per_unit = tmp_path / "balance.csv", tmp_path / "per_unit.csv"
    code = main(
        [
            "balance",
            "--data", str(DATA / f"{data}.csv"),
            "--contrasts", str(balancing),
            "--targets", str(targets),
            "--out", str(balance_csv),
            "--per-unit", str(per_unit),
        ]
        + settings
    )
    assert code == exit_code
    table = (DATA / f"{golden}_balance.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == table + f"wrote {balance_csv}\nwrote {per_unit}\n"
    assert balance_csv.read_bytes() == (DATA / f"{golden}_balance.csv").read_bytes()
    assert per_unit.read_bytes() == (DATA / f"{golden}_per_unit.csv").read_bytes()


@pytest.mark.parametrize(
    "command, contrasts, lines",
    [
        ("balance", "1 -1 0  # a\n1 0 -1  # a\n", "1 and 2"),
        ("estimate", "1 -1 0\n0 1 -1\n1 -1 0\n", "1 and 3"),
        ("balance", "1 -1 0  # (1, 0, -1)\n1 0 -1\n", "1 and 2"),
    ],
    ids=["balance-labels", "estimate-coefficients", "balance-label-and-coefficients"],
)
def test_contrasts_of_one_name_are_an_input_error(
    command, contrasts, lines, example_csv, contrast_file, tmp_path, capsys
):
    # output columns are keyed by a contrast's name, so one would be lost
    path = tmp_path / "named.txt"
    path.write_text(contrasts)
    out, per_unit = tmp_path / "out.csv", tmp_path / "per_unit.csv"
    argv = [command, "--data", str(example_csv), "--out", str(out)]
    if command == "balance":
        argv += ["--contrasts", str(contrast_file), "--targets", str(path),
                 "--per-unit", str(per_unit)]
    else:
        argv += ["--contrasts", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"input error: {path}, lines {lines}: ")
    assert captured.out == ""
    assert not out.exists() and not per_unit.exists()


@pytest.mark.parametrize(
    "command, outputs, clobbered",
    [
        ("balance", {"--per-unit": "{data}"}, "--data"),
        ("balance", {"--per-unit": "{linked}"}, "--data"),
        ("balance", {"--per-unit": "{sub}/../units.csv"}, "--data"),
        ("balance", {"--out": "{contrasts}"}, "--contrasts"),
        ("balance", {"--out": "same.csv", "--per-unit": "same.csv"}, "--out"),
        ("balance", {"--output-dir": ".", "--per-unit": "balance.csv"}, "--output-dir"),
        ("estimate", {"--out": "{data}"}, "--data"),
        ("estimate", {"--out": "{linked}"}, "--data"),
    ],
    ids=["per_unit_is_data", "per_unit_is_a_hard_link_of_data", "per_unit_is_data_respelled",
         "out_is_contrasts", "per_unit_is_out", "per_unit_is_output_dir_csv",
         "estimate_out_is_data", "estimate_out_is_a_hard_link_of_data"],
)
def test_an_output_that_would_overwrite_a_file_is_an_input_error(
    command, outputs, clobbered, example_csv, contrast_file, tmp_path, capsys, monkeypatch
):
    # writing over the dataset, a contrast file or another output of the
    # run would lose it, so each is refused before any output
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    linked = tmp_path / "linked.csv"
    os.link(example_csv, linked)
    names = {"data": example_csv, "linked": linked, "sub": tmp_path / "sub",
             "contrasts": contrast_file}
    before = {p: p.read_bytes() for p in (example_csv, contrast_file)}
    argv = [command, "--data", str(example_csv), "--contrasts", str(contrast_file)]
    for option, path in outputs.items():
        argv += [option, path.format(**names)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ")
    assert "would overwrite " + clobbered in captured.err
    assert captured.out == ""
    assert {p: p.read_bytes() for p in before} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "contrasts.txt", "linked.csv", "sub", "units.csv"
    ]


class TestBalance:
    def test_matches_embedded_pipeline(self, example_csv, contrast_file, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("0 1 -1 # second-vs-third\n")
        out = tmp_path / "balance.csv"
        code = main(
            [
                "balance",
                "--data", str(example_csv),
                "--contrasts", str(contrast_file),
                "--targets", str(targets),
                "--estimator", "empirical",
                "--method", "exact",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_rows(out)
        overall = [r for r in rows if r["row_type"] == "overall"]
        assert len(overall) == 3
        assert all(float(r["after"]) == 0.0 for r in overall)
        subclass_rows = [r for r in rows if r["row_type"] == "subclass"]
        assert len(subclass_rows) == 4 * 3
        assert all(float(r["difference"]) == 0.0 for r in subclass_rows)
        table = capsys.readouterr().out
        assert "second-vs-third" in table

    def test_per_unit_output(self, example_csv, contrast_file, tmp_path, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("0 1 -1 # second-vs-third\n")
        per_unit = tmp_path / "units_scored.csv"
        code = main(
            [
                "balance",
                "--data", str(example_csv),
                "--contrasts", str(contrast_file),
                "--targets", str(targets),
                "--estimator", "empirical",
                "--method", "exact",
                "--out", str(tmp_path / "b.csv"),
                "--per-unit", str(per_unit),
            ]
        )
        assert code == 0
        rows = read_rows(per_unit)
        assert len(rows) == 24
        assert set(rows[0]) == {
            "x1", "x2", "x3", "w",
            "d[second-vs-third]", "score[second-vs-third]",
            "subclass[second-vs-third]",
        }
        first = rows[0]
        assert first["d[second-vs-third]"] == "0"
        assert float(first["score[second-vs-third]"]) == pytest.approx(1 / 5)
        assert first["subclass[second-vs-third]"] == ""  # not in either group
        scored = [r for r in rows if r["d[second-vs-third]"] != "0"]
        assert {r["subclass[second-vs-third]"] for r in scored} == {"1", "2", "3", "4"}

    @pytest.mark.parametrize("column, name", [(0, "d[1-vs-2]"), (2, "subclass[1-vs-2]")])
    def test_per_unit_column_clash_is_an_input_error(
        self, example_csv, tmp_path, capsys, column, name
    ):
        # a covariate named like a --per-unit column would be written twice,
        # and the file could not be read back
        lines = example_csv.read_text().splitlines(keepends=True)
        header = lines[0].rstrip("\r\n").split(",")
        header[column] = name
        data = tmp_path / "clash.csv"
        data.write_text(",".join(header) + "\n" + "".join(lines[1:]))
        contrasts = tmp_path / "c.txt"
        contrasts.write_text("1 -1 0  # 1-vs-2\n")
        out, per_unit = tmp_path / "b.csv", tmp_path / "p.csv"
        argv = ["balance", "--data", str(data), "--contrasts", str(contrasts),
                "--estimator", "empirical", "--out", str(out)]
        assert main(argv + ["--per-unit", str(per_unit)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"input error: {data}: --per-unit would write two columns named {name!r}\n"
        )
        assert captured.out == ""
        assert not out.exists() and not per_unit.exists()
        # without --per-unit the same names are no clash
        assert main(argv) == 0

    def test_treatment_column_named_like_a_per_unit_column_is_served(
        self, example_csv, tmp_path
    ):
        # the last column is the treatment whatever its name, and the
        # per-unit file calls it w, so it reads back with the same treatments
        lines = example_csv.read_text().splitlines(keepends=True)
        data = tmp_path / "units.csv"
        data.write_text("x1,x2,x3,subclass[1-vs-2]\n" + "".join(lines[1:]))
        contrasts = tmp_path / "c.txt"
        contrasts.write_text("1 -1 0  # 1-vs-2\n")
        per_unit = tmp_path / "p.csv"
        assert main(["balance", "--data", str(data), "--contrasts", str(contrasts),
                     "--estimator", "empirical", "--format", "text",
                     "--per-unit", str(per_unit)]) == 0
        header = per_unit.read_text().splitlines()[0]
        assert header == "x1,x2,x3,w,d[1-vs-2],score[1-vs-2],subclass[1-vs-2]"
        rows = read_rows(per_unit)
        assert [int(r["w"]) for r in rows] == load_dataset(data).treatments.tolist()

    @pytest.mark.parametrize(
        "balancing, targets, width",
        [
            ("1 -1\n", None, 2),
            ("1 -1 0 0\n", "1 0 -1\n", 4),
            (BALANCING, "0 1 -1 0\n", 4),
            (BALANCING, "1 -1\n", 2),
        ],
        ids=["narrow_balancing", "wide_balancing", "wide_target", "narrow_target"],
    )
    def test_contrast_width_is_an_input_error(
        self, example_csv, tmp_path, capsys, balancing, targets, width
    ):
        (tmp_path / "c.txt").write_text(balancing)
        args = ["balance", "--data", str(example_csv), "--contrasts", str(tmp_path / "c.txt")]
        if targets is not None:
            (tmp_path / "t.txt").write_text(targets)
            args += ["--targets", str(tmp_path / "t.txt")]
        out = tmp_path / "balance.csv"
        assert main(args + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: contrast ")
        assert f"has {width} treatments, dataset has 3" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("given", ["--data", "--contrasts", None])
    def test_missing_flag_is_an_input_error(
        self, example_csv, contrast_file, tmp_path, capsys, given
    ):
        paths = {"--data": str(example_csv), "--contrasts": str(contrast_file)}
        args = ["balance"] + ([given, paths[given]] if given else [])
        out = tmp_path / "balance.csv"
        assert main(args + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "input error: balance: --data and --contrasts are required\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("ridge", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_ridge_is_an_input_error(
        self, example_csv, contrast_file, tmp_path, capsys, source, ridge
    ):
        args = ["balance", "--data", str(example_csv), "--contrasts", str(contrast_file)]
        if source == "flag":
            args.append(f"--ridge={ridge}")
        else:
            (tmp_path / "cfg.txt").write_text(f"ridge = {ridge}\n")
            args += ["--config", str(tmp_path / "cfg.txt")]
        out = tmp_path / "balance.csv"
        assert main(args + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ridge must be finite and nonnegative")
        assert captured.out == ""
        assert not out.exists()

    def test_unknown_config_key_is_an_input_error(
        self, example_csv, contrast_file, tmp_path, capsys
    ):
        # a misspelt key would otherwise leave its option at the default
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("# defaults\nmethod = exact\nsubclasess = 1\n")
        out = tmp_path / "balance.csv"
        code = main(["balance", "--data", str(example_csv), "--contrasts",
                     str(contrast_file), "--config", str(cfg), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"input error: {cfg}, line 3: unknown key 'subclasess'\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("method = bogus", "method must be one of exact, quantile, not 'bogus'"),
            ("subclasses = 2.5", "invalid subclasses '2.5'"),
            ("format = all", "format must be one of text, csv, both, not 'all'"),
        ],
    )
    def test_bad_config_value_is_an_input_error(
        self, example_csv, contrast_file, tmp_path, capsys, line, message
    ):
        # a value is checked as its flag's would be, even where a flag overrides it
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"estimator = empirical\n{line}\n")
        out = tmp_path / "balance.csv"
        code = main(["balance", "--data", str(example_csv), "--contrasts", str(contrast_file),
                     "--config", str(cfg), "--method", "exact", "--subclasses", "3",
                     "--format", "csv", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"input error: {cfg}, line 2: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_text_and_csv_agree(self, example_csv, contrast_file, tmp_path, capsys):
        out = tmp_path / "balance.csv"
        code = main(
            [
                "balance",
                "--data", str(example_csv),
                "--contrasts", str(contrast_file),
                "--estimator", "empirical",
                "--method", "exact",
                "--out", str(out),
            ]
        )
        assert code == 0
        # CSV keeps full precision; the text table is the same numbers at 2dp
        from csps.balancing import AlgorithmConfig, run_algorithm
        from csps.contrasts import read_contrast_file
        from csps.data import load_dataset

        report = run_algorithm(
            load_dataset(example_csv),
            read_contrast_file(contrast_file),
            read_contrast_file(contrast_file),
            AlgorithmConfig(estimator="empirical", subclass_method="exact"),
        )
        rows = read_rows(out)
        for entry in report.entries:
            for k, name in enumerate(report.covariate_names):
                row = next(
                    r
                    for r in rows
                    if r["row_type"] == "overall"
                    and r["target"] == entry.contrast.describe()
                    and r["covariate"] == name
                )
                assert float(row["before"]) == entry.before[k]
                assert float(row["after"]) == entry.after[k]


    def test_mean_differences_beyond_float64(self, tmp_path, capsys):
        big = "1.7976931348623157e308"
        data = tmp_path / "units.csv"
        data.write_text(f"x1,x2,w\n{big},-{big},1\n-{big},{big},2\n" + f"{big},-{big},1\n" * 2
                        + f"-{big},{big},2\n")
        contrasts = tmp_path / "c.txt"
        contrasts.write_text("1 -1\n")
        args = ["balance", "--data", str(data), "--contrasts", str(contrasts),
                "--output-dir", str(tmp_path)]
        assert main(args + ["--estimator", "empirical"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        row = captured.out.splitlines()[1].split()
        assert row == ["(1,", "-1)", "3", "2", "1", "inf", "-inf", "inf", "-inf"]
        before = [r["before"] for r in read_rows(tmp_path / "balance.csv") if r["before"]]
        assert before == ["inf", "-inf"]
        # the logistic fit of such covariates fails typed
        assert main(args + ["--estimator", "logistic"]) == 3
        assert "SingularHessian: the Newton system is beyond float64" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "balance"])
def test_missing_flag_is_an_invalid_argument(command):
    # a bare ValueError before; main exits 2 on either
    args = _build_parser()[0].parse_args([command])
    with pytest.raises(InvalidArgument, match=f"{command}: --data and --contrasts are required"):
        args.run(args)


def test_null_byte_in_a_config_path_is_an_input_error(tmp_path, capsys):
    # open() refuses a path with a NUL byte as a bare ValueError, which is why
    # errors.INPUT_ERRORS keeps ValueError
    config = tmp_path / "run.cfg"
    config.write_text("data=a\0b.csv\ncontrasts=c.txt\n")
    assert main(["balance", "--config", str(config)]) == 2
    assert "embedded null byte" in capsys.readouterr().err


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate",
            "--mechanism", "II",
            "--units", "120",
            "--reps", "4",
            "--seed", "7",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_custom_coefficient_file(self, tmp_path, capsys):
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text("0 0 0\n0.5 0 0\n0 0.5 0\n")
        code = main(
            [
                "simulate",
                "--mechanism", str(coeffs),
                "--units", "150",
                "--reps", "3",
                "--seed", "1",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 0

    def test_config_file_defaults_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mechanism=II\nunits=120\nreps=4\nseed=7\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(
            [
                "simulate",
                "--mechanism", "II",
                "--units", "120",
                "--reps", "4",
                "--seed", "7",
                "--out", str(out2),
            ]
        ) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # a flag beats the config file
        out3 = tmp_path / "c.csv"
        assert main(
            ["simulate", "--config", str(cfg), "--seed", "8", "--out", str(out3)]
        ) == 0
        assert out3.read_bytes() != out1.read_bytes()

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CSPS_OUTPUT_DIR", str(tmp_path / "envout"))
        assert main(
            ["simulate", "--mechanism", "I", "--units", "60", "--reps", "2", "--seed", "3"]
        ) == 0
        assert (tmp_path / "envout" / "replications.csv").exists()

    def test_bad_mechanism_exits_two(self, tmp_path):
        assert main(
            ["simulate", "--mechanism", str(tmp_path / "missing.txt"), "--reps", "2"]
        ) == 2

    def test_out_naming_the_mechanism_file_is_an_input_error(self, tmp_path, capsys):
        coefficients = tmp_path / "coeffs.txt"
        coefficients.write_text("0 0 0\n1 0 0\n0 1 0\n")
        argv = ["simulate", "--mechanism", str(coefficients), "--units", "60", "--reps", "2"]
        assert main(argv + ["--out", str(coefficients)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"input error: --out {coefficients} would overwrite --mechanism {coefficients}\n"
        )
        assert captured.out == ""
        assert coefficients.read_text() == "0 0 0\n1 0 0\n0 1 0\n"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0 0\n1 nan\n0 1\n", "coefficients must be finite"),
            # the error names the coefficients; no numpy warning comes first
            ("0 0 0\n1e308 1e308 1e308\n0 0 0\n", "(1e+308, 1e+308, 1e+308), (0.0, 0.0, 0.0)) "
             "overflow float64"),
        ],
    )
    def test_unusable_coefficients_are_input_errors(self, tmp_path, capsys, rows, message):
        coeffs = tmp_path / "coeffs.txt"
        coeffs.write_text(rows)
        code = main(
            ["simulate", "--mechanism", str(coeffs), "--units", "60", "--reps", "2",
             "--out", str(tmp_path / "r.csv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "sizes, shape",
        [
            # beyond any address space, so nothing is allocated
            (["--units", "1000000000000000", "--reps", "1"], "(1000000000000000, 3)"),
            (["--reps", "1000000000000000"], "(1000000000000000, 4, 3)"),
            (["--units", "30", "--reps", "1", "--oracle", "1000000000000000"],
             "(1000000000000000, 3)"),
        ],
    )
    def test_unallocatable_size_is_an_input_error(self, tmp_path, capsys, sizes, shape):
        out = tmp_path / "r.csv"
        code = main(["simulate", "--mechanism", "II", "--out", str(out), *sizes])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error:") and f"shape {shape}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_format_selects_outputs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CSPS_OUTPUT_DIR", str(tmp_path / "none"))
        args = ["simulate", "--mechanism", "I", "--units", "60", "--reps", "2",
                "--seed", "3"]
        assert main(args + ["--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "before:x1" in out and "wrote" not in out
        assert not (tmp_path / "none").exists()
        assert main(args + ["--format", "csv", "--out", str(tmp_path / "r.csv")]) == 0
        out = capsys.readouterr().out
        assert "before:x1" not in out and "wrote" in out
        assert (tmp_path / "r.csv").exists()
