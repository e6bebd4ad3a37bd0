"""README.md's config example, config field table, command lines and layout
against the code: the example parses and holds every field a config has, the
table lists exactly the fields of ``harness._CONFIG_FIELDS`` with the code's
defaults, each command of "Command line" exits 0 when run in order, and
"Layout" names every module of the package."""

import dataclasses
import json
import re
import shlex
from pathlib import Path

from dffr import cli, harness
from dffr.algorithms import AlgorithmConfig, StepSchedule
from dffr.harness import ExperimentConfig, ProblemConfig, TopologyConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title: str) -> str:
    """The text of the README section headed ``## <title>``, up to the next one."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def first_block(text: str) -> str:
    """The body of the first fenced block in ``text``."""
    return re.search(r"^```[a-z]*\n(.*?)^```$", text, re.M | re.S).group(1)


def example_config() -> dict:
    """The config example of "Config format", its ``//`` comments taken out."""
    return json.loads(re.sub(r"\s*//.*$", "", first_block(section("Config format")), flags=re.M))


def field_paths(table: dict, path: str = "") -> list[str]:
    paths = []
    for key, row in table.items():
        paths.append(path + key)
        if row.fields:
            paths += field_paths(row.fields, f"{path}{key}.")
    return paths


def field_table() -> list[list[str]]:
    """The cells of each row of the config field table: field, type, default, null."""
    body = section("Config format").split("\n| field | type | default | null |\n|---|---|---|---|\n", 1)[1]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in body.split("\n\n", 1)[0].splitlines()]


NO_DEFAULT = object()


def code_default(path: str):
    """The value the code gives the config field at the dotted ``path`` when a
    config leaves it out, or NO_DEFAULT if it has none: a required field or a
    generator's parameter.  The algorithm section's come from its dataclasses;
    the rest from ``to_dict()`` of a config built from defaults alone."""
    head, *rest = path.split(".")
    row = harness._CONFIG_FIELDS[head]
    for key in rest:
        row = row.fields[key]
    if row.required:
        return NO_DEFAULT
    if head == "algorithm" and rest:
        owner = StepSchedule if rest[:-1] == ["step"] else AlgorithmConfig
        default = {f.name: f.default for f in dataclasses.fields(owner)}[rest[-1]]
        return NO_DEFAULT if default is dataclasses.MISSING else default
    value = ExperimentConfig(ProblemConfig(), topology=TopologyConfig() if rest else None).to_dict()
    for key in (head, *rest):
        if key not in value:
            return NO_DEFAULT
        value = value[key]
    return value


def test_the_config_example_parses_with_every_field_of_a_config():
    raw = example_config()
    config = ExperimentConfig.from_dict(raw).to_dict()
    assert raw.keys() == config.keys()
    for name in ("problem", "topology"):
        assert raw[name].keys() == config[name].keys(), name


def test_the_field_table_lists_exactly_the_config_fields():
    assert [re.fullmatch(r"`([\w.]+)`", row[0]).group(1) for row in field_table()] == field_paths(harness._CONFIG_FIELDS)


def test_the_field_tables_defaults_are_the_codes():
    for name, _, default, _ in field_table():
        path = name.strip("`")
        want = NO_DEFAULT if default == "" else json.loads(default.strip("`"))
        assert want == code_default(path), path


def test_the_command_lines_run_in_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my_experiment.json").write_text(json.dumps(example_config()))
    lines = first_block(section("Command line")).splitlines()
    assert len(lines) == 5 and all(line.startswith("dffr ") for line in lines)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
        capsys.readouterr()


def test_the_layout_names_every_module():
    package = Path(__file__).resolve().parents[1] / "src" / "dffr"
    named = re.findall(r"^  (\w+\.py) ", first_block(section("Layout")), re.M)
    assert sorted(named) == sorted(p.name for p in package.glob("*.py") if p.name != "__init__.py")
