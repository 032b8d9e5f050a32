"""No input ends in a traceback: every argv exits 0, 1 or 2 with no warning.

The argv come from a grammar of the five subcommands whose option values
mix valid ones with negative, empty, non-numeric, huge and non-finite
ones: every invalid value of every option on an otherwise valid argv,
and argv drawn by hypothesis.  The sizes that actually run stay small
(m <= 63 at r <= 4, or m <= 127 for a convergence mesh on an interval of
span 2), so every option that sets a size is always given.
"""

import contextlib
import io
import os
import tempfile
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nwidth.cli import main  # noqa: E402

#: empty, non-numeric, negative, zero, non-finite and huge values, tried on every option
BAD = ["", "x", "-1", "0", "nan", "inf", "-inf", "1e23", "2^62", "4611686018427387904"]
RANGES = (["1", "2", "1..3", "3,1..2", "40..41"], ["3..1", "-1..2", "1..1000000", "1.."])

#: the valid values of each option, and the invalid ones besides BAD
VALUES = {
    "--r": (["1", "2", "3", "4"], ["21"]),
    "--m": (["1", "2", "7", "15", "63"], []),
    "--interval": (["0,1", "-1,1", "-0.7313,1.2345", "-1e-20,1e-20", "0,1e20"],
                   ["1,0", "0,0", "0,nan", "-inf,1", "0,1,2", "a,b", "0,x", ",1", "-1,"]),
    "--format": (["csv", "json"], ["xml"]),
    "--n": RANGES,
    "--k": RANGES,
    "--tol": (["1e-10", "0.4", "1e-19"], []),
    "--r-max": (["1", "2", "4"], ["21"]),
    "--h-list": (["2^-3,2^-4", "2^-3,2^-4,2^-5,2^-6", "0.125,,0.0625"],
                 ["2^-3,-2^-4", "2^-60", "1e-300", "2^9999"]),
    "--h-ref": (["analytic", "2^-6"], ["2^-60"]),
    # in the run's fresh working directory: new files, one in a missing directory, the directory
    "--out": (["t.csv", "t"], ["missing/t.csv", "."]),
}

#: (options always given, so that no default size runs, and options given or not) per subcommand
GRAMMAR = {
    "compute": (["--m"], ["--r", "--n", "--interval", "--format", "--out"]),
    "conjecture-table": (["--m", "--r-max"], ["--interval", "--format", "--out"]),
    "convergence": (["--h-list", "--h-ref"], ["--r", "--n", "--interval", "--format", "--out"]),
    "knots": (["--m"], ["--r", "--k", "--tol", "--interval", "--format", "--out"]),
    "eigenfunctions": (["--m"], ["--r", "--k", "--interval", "--format", "--out"]),
}

STRAYS = ["--help", "-h", "--frobnicate", "--", "extra", "-1"]


@st.composite
def argvs(draw):
    """An argv of one subcommand."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    always, optional = GRAMMAR[command]
    names = always + [name for name in optional if draw(st.booleans())]
    # at most one fault: an invalid value of one option or a stray token, which
    # then reaches its own check instead of stopping at an earlier fault's
    fault = draw(st.sampled_from([None, "stray", *names]))
    tokens = []
    for name in draw(st.permutations(names)):
        valid, invalid = VALUES[name]
        value = draw(st.sampled_from(invalid + BAD if name == fault else valid))
        # abbreviated (which conjecture-table rejects), and joined by "=" or not
        flag = name[:5] if len(name) > 5 and draw(st.booleans()) else name
        tokens += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if fault == "stray":
        tokens.append(draw(st.sampled_from(STRAYS)))
    return [command, *tokens]


def check(argv: list[str]) -> None:
    """main(argv) in this process, in a fresh working directory, exits 0, 1 or 2 and warns nothing."""
    stderr, home = io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as directory, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        os.chdir(directory)  # where every --out value puts its files
        try:
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(home)
    err = stderr.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    assert not caught, (argv, [str(w.message) for w in caught])


@pytest.mark.parametrize("command", sorted(GRAMMAR))
def test_every_invalid_value_alone_exits_0_1_or_2_without_a_traceback_or_a_warning(command):
    # each fault on its own reaches its check; the drawn argv below may miss some
    always, optional = GRAMMAR[command]
    names = always + optional
    for name in names:
        for value in VALUES[name][1] + BAD:
            options = {other: VALUES[other][0][0] for other in names} | {name: value}
            check([command, *(f"{flag}={text}" for flag, text in options.items())])
            check([command, *(token for flag, text in options.items() for token in (flag, text))])


@settings(max_examples=300)
@given(argvs())
def test_every_argv_exits_0_1_or_2_without_a_traceback_or_a_warning(argv):
    check(argv)
