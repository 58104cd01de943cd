"""The README's examples run as written.

The `python` block is executed, and each `gelsolve ...` command of the CLI
block goes through `cli.main`.  The README states exit code 0 for success,
and every command it shows is meant to succeed.  A name that leaves the
library, or a flag that leaves the CLI, while the README still shows it
fails here, and so does a CLI option that the README never names, or a
config key list that differs from the one the CLI checks a config file against.
"""
import re
import shlex
from pathlib import Path

import pytest

from gelsolve.cli import COMMANDS, CONFIG_KEYS, GRID_KEYS, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _commands():
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gelsolve"]:
                commands.append(words[1:])
    return commands


def test_python_block_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("argv", _commands(), ids=lambda argv: argv[0])
def test_cli_command_exits_zero(argv, capsys):
    assert main(argv) == 0, capsys.readouterr().err


def test_every_cli_example_is_collected():
    # moments, trajectory, two concentrations, limits, validate
    assert len(_commands()) == 6


def _long_options(command=None):
    """The long options of one command (all commands by default) in the option table."""
    return sorted({
        option
        for name, (_, _, options) in COMMANDS.items() if command in (None, name)
        for option in options
        if option.startswith("--") and option != "--help"
    })


@pytest.mark.parametrize("option", _long_options())
def test_every_cli_option_is_documented(option):
    assert re.search(rf"{option}(?![\w-])", README), f"README never names {option}"


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_help_names_every_option(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for option in _long_options(command):
        assert re.search(rf"{option}(?![\w-])", out), f"{command} --help never names {option}"


def test_config_keys_are_documented():
    # the README's list of the keys a config file may hold is the list the
    # CLI checks a config file against, in the same order
    top, grid = re.search(
        r"It may hold only the keys (.*?), and its `time_grid` object only (.*?):", README, re.S
    ).groups()
    assert re.findall(r"`(\w+)`", top) == list(CONFIG_KEYS)
    assert re.findall(r"`(\w+)`", grid) == list(GRID_KEYS)
