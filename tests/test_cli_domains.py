"""Every numeric CLI option declares its domain where it is declared.

The walk covers every int/float argument of every subcommand of
:func:`repro.cli.build_parser`, at each of nan, inf, -1 and 0.  A value
the table below lists as inside the option's domain must parse; it is
never run.  Any other value must fail the parse through :func:`main`:
exit 64 and one ``<command>: <message>`` line naming the flag.  An
option missing from the table fails the walk, so a new option cannot
skip declaring its domain.

Building the parser and failing a parse need only the standard library,
so this file also runs where numpy is not installed.
"""

import argparse

import pytest

from repro.cli import EXIT_USAGE, build_parser, main

VALUES = ("nan", "inf", "-1", "0")

FINITE = {"-1", "0"}
NON_NEGATIVE = {"0"}
POSITIVE: set = set()
COUNT: set = set()
NATURAL = {"0"}
PORT = {"0"}

#: flag (or positional dest) -> the values of VALUES inside its domain.
#: A flag several subcommands share has one domain everywhere.
IN_DOMAIN = {
    "--seed": {"-1", "0"},  # any integer is a seed
    "--workers": COUNT,
    "--serve": PORT,
    "--hold": NON_NEGATIVE,
    "--drift": POSITIVE,
    "--threshold": POSITIVE,
    "--period": POSITIVE,
    "--duration": POSITIVE,
    "--rate": NON_NEGATIVE,
    "--start": NON_NEGATIVE,
    "--at": FINITE,
    "--min-alarm-periods": NATURAL,
    "--networks": COUNT,
    "--sample-every": COUNT,
    "--baseline-tolerance": NON_NEGATIVE,
    "number": set(),  # the paper's table and figure numbers only
    "--trials": COUNT,
    "--aggregate": POSITIVE,
    "--sample": COUNT,
    "--attack-start": NON_NEGATIVE,
    "--attack-duration": POSITIVE,
    "--max-delay-ratio": NON_NEGATIVE,
    "--max-memory-events": NATURAL,
    "--sim-days": COUNT,
    "--periods-per-epoch": COUNT,
    "--tsdb-retention": set(),  # the TSDB keeps at least 8 samples
    "--client-rate": NON_NEGATIVE,
    "--backlog": COUNT,
    "--flaky": NATURAL,
    "--recovery-factor": NON_NEGATIVE,
    "--alert-cut": NON_NEGATIVE,
    "--drifts": POSITIVE,
    "--thresholds": POSITIVE,
    "--traces": COUNT,
    "--max-false-alarm-rate": NON_NEGATIVE,
    "--k-bar": POSITIVE,
}

#: The arguments each subcommand needs to parse at all.
REQUIRED = {
    "generate": ["--out", "x"],
    "attack": ["--counts", "x", "--rate", "1", "--out", "y"],
    "detect": ["--counts", "x"],
    "observe": ["--trace", "x"],
    "query": ["up", "--events", "x"],
    "alerts": ["--events", "x"],
    "report": ["x"],
    "table": ["2"],
    "figure": ["3"],
    "campaign": ["--networks", "2"],
    "theory": ["--k-bar", "100"],
}


def _subcommands():
    [action] = [action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)]
    return action.choices


def _numeric_arguments():
    """``(command, flag)`` for every typed argument: in this parser the
    typed arguments are exactly the int/float ones."""
    for command, parser in _subcommands().items():
        for action in parser._actions:
            if action.type is not None:
                yield command, (action.option_strings or [action.dest])[0]


NUMERIC = sorted(set(_numeric_arguments()))


def _argv(command, flag, value):
    if not flag.startswith("-"):  # the positional ``number``
        return [command, value]
    return [command, *REQUIRED.get(command, []), flag, value]


def test_every_numeric_argument_is_walked():
    # 71 options plus the two positional ``number``s.
    assert len(NUMERIC) == 73
    assert {flag for _, flag in NUMERIC} == set(IN_DOMAIN)


def test_only_seed_and_number_keep_a_bare_int():
    for command, parser in _subcommands().items():
        for action in parser._actions:
            if action.type in (int, float):
                assert action.type is int, (command, action.dest)
                assert action.dest in ("seed", "number"), (command, action.dest)
                assert action.dest == "seed" or action.choices


@pytest.mark.parametrize("value", VALUES)
@pytest.mark.parametrize("command,flag", NUMERIC,
                         ids=[f"{c}{f}" for c, f in NUMERIC])
def test_value_is_in_the_domain_or_one_line_usage_exit(
    command, flag, value, capsys
):
    argv = _argv(command, flag, value)
    if value in IN_DOMAIN[flag]:
        build_parser().parse_args(argv)
        return
    with pytest.raises(SystemExit):  # refused before anything runs
        build_parser().parse_args(argv)
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"{command}: ")
    assert err.count("\n") == 1
    assert flag in err and "Traceback" not in err
