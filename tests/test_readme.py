"""The README against the code: its commands parse, it names every public
export, every option has help, and every number it quotes is a contract
value that its limits table ties to the code."""

import argparse
import importlib
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import devexplain
from devexplain import cli
from devexplain.attribution import ExplainSettings
from devexplain.errors import ValidationError

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
LIMITS_HEADING = "## Limits and exit codes"
# a number standing alone: not part of a name such as UTF-8 or 1-D
NUMBER = re.compile(r"(?<![\w.^-])\d+(?:\.\d+)*(?![\w^-])")
CODE_SPAN = re.compile(r"`[^`]*`")


def _split_fences(text):
    """(fenced blocks, prose lines) of a Markdown text."""
    blocks, prose, block = [], [], None
    for line in text.splitlines():
        if line.startswith("```"):
            if block is None:
                block = []
            else:
                blocks.append(block)
                block = None
        elif block is None:
            prose.append(line)
        else:
            block.append(line)
    return blocks, prose


BLOCKS, PROSE = _split_fences(README)


def _commands():
    """Each `devexplain ...` command of the fenced blocks, continuations joined."""
    commands = []
    for block in BLOCKS:
        text = "\n".join(block).replace("\\\n", " ")
        commands += [line for line in text.splitlines() if line.startswith("devexplain ")]
    return commands


def _limits_lines():
    """The lines of the limits table, past its header and rule."""
    section = README.split(LIMITS_HEADING, 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    assert lines[0] == "| value | contract | source |"
    return lines[2:]


def _limits_rows():
    """The (value, contract, source) cells of the limits table."""
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in _limits_lines()]


def _subcommands():
    parser = cli._build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_command_parses():
    commands = _commands()
    assert {shlex.split(c)[1] for c in commands} == set(_subcommands())
    for command in commands:
        try:
            cli._build_parser().parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"the README command does not parse: {command}")


def test_every_export_is_named():
    named = set()
    for line in PROSE:
        for span in CODE_SPAN.findall(line):
            named.update(re.findall(r"[A-Za-z_]\w*", span))
    assert sorted(set(devexplain.__all__) - named) == []


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_every_option_has_help_and_its_default(command):
    parser = _subcommands()[command]
    formatter = parser._get_formatter()
    in_required_group = {
        action
        for group in parser._mutually_exclusive_groups
        if group.required
        for action in group._group_actions
    }
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        name = action.option_strings[-1] if action.option_strings else action.dest
        assert action.help, f"{command} {name} has no help"
        shown = formatter._get_help_string(action)
        if action.default is not None:
            assert "%(default)s" in shown, f"{command} {name} hides its default"
        elif not (action.required or action in in_required_group or action.nargs == "*"):
            assert "default" in shown, f"{command} {name} does not say its default"


def _least_accepted(make):
    for n in range(100):
        try:
            make(n)
        except ValidationError:
            continue
        return n


def _exit_code_of_success():
    with tempfile.TemporaryDirectory() as out:
        return cli.main(["compare", "--out", out])


def _exit_code_of_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli._build_parser().parse_args(["fit", "--no-such-option"])
    return exc.value.code


def _blas_threads():
    env = {k: v for k, v in os.environ.items() if k not in cli.BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), env.get("PYTHONPATH", "")])
    probe = "import os, devexplain.cli as c; print(*{os.environ[v] for v in c.BLAS_THREAD_VARS})"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def _oldest_python():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^requires-python = ">=([\d.]+)"$', pyproject, re.M).group(1)


# sources that are rules, not attributes: each returns the value the code has
RULES = {
    "cli.main": _exit_code_of_success,
    "cli._build_parser": _exit_code_of_usage_error,
    "ExplainSettings(np_count=n)": lambda: _least_accepted(
        lambda n: ExplainSettings(seed=0, np_count=n)
    ),
    "ExplainSettings(budget_runs=n)": lambda: _least_accepted(
        lambda n: ExplainSettings(seed=0, budget_runs=n)
    ),
    "cli.BLAS_THREAD_VARS": _blas_threads,
    "requires-python": _oldest_python,
}


def _resolve(source):
    if source in RULES:
        return RULES[source]()
    module, *attributes = source.split(".")
    value = importlib.import_module(f"devexplain.{module}")
    for attribute in attributes:
        value = getattr(value, attribute)
    return value


def test_limits_table_matches_the_code():
    sources = []
    for value, contract, source in _limits_rows():
        source = source.strip("`")
        sources.append(source)
        assert str(_resolve(source)) == value, f"{contract}: README {value}, {source}"
    roots = ("DevexplainError", "ValidationError", "IngestionError", "NumericalError")
    assert {f"errors.{root}.exit_code" for root in roots} <= set(sources)
    assert set(RULES) <= set(sources), "a rule no row reads"


def test_numbers_only_in_the_limits_table():
    limits = set(_limits_lines())
    quoted = []
    for line in PROSE:
        if "(illustrative)" in line:
            continue
        if line in limits:
            line = line.split("|", 2)[2]  # the value cell is checked against the code
        quoted += [(n, line) for n in NUMBER.findall(CODE_SPAN.sub("", line))]
    assert quoted == []
