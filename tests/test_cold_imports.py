"""A cold CLI command imports only the modules it runs.  Each README
command, and a bare `import coringlab.cli`, runs in a fresh interpreter
(through `scripts/cold_cli.py`), which reports the modules it loaded;
nothing here is timed."""

import importlib.util
import os

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

_spec = importlib.util.spec_from_file_location(
    "cold_cli", os.path.join(ROOT, "scripts", "cold_cli.py"))
cold_cli = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cold_cli)


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """command name -> (exit code, set of loaded modules), the commands run
    in README order so that each check finds the session its build saved."""
    tmp = str(tmp_path_factory.mktemp("cold"))
    out = {}
    for name, argv in (cold_cli.IMPORT, *cold_cli.COMMANDS):
        _, code, modules = cold_cli.run_command(ROOT, argv, tmp)
        out[name] = code, set(modules)
    return out


def test_commands_succeed(loaded):
    codes = {name: code for name, (code, _) in loaded.items()}
    assert codes == {name: 1 if name == "check coring broken" else 0
                     for name, _ in (cold_cli.IMPORT, *cold_cli.COMMANDS)}


def test_bare_import_loads_no_tensor_machinery(loaded):
    """`import coringlab.cli` is the start-up of every command: the reader
    of a session and its scalars, and nothing that builds a tensor
    quotient, which a session loads on its first space reference."""
    _, modules = loaded[cold_cli.IMPORT[0]]
    assert {m for m in modules if m.startswith("coringlab.")} == {
        "coringlab.cli", "coringlab.session", "coringlab.exactla",
        "coringlab.reports"}


def test_check_coring_loads_only_the_coring_chain(loaded):
    _, modules = loaded["check coring C2"]
    for sub in ("cowreath", "entwine", "rcat", "wreath", "ore", "corpus"):
        assert f"coringlab.{sub}" not in modules
    assert "coringlab.coring" in modules


@pytest.mark.parametrize("name", ["ore check", "ore compare"])
def test_ore_loads_no_coring_or_wreath(loaded, name):
    _, modules = loaded[name]
    assert "coringlab.coring" not in modules
    assert "coringlab.wreath" not in modules
    assert "coringlab.ore" in modules


@pytest.mark.parametrize("name", ["ore check", "ore compare"])
def test_ore_loads_no_bimodule(loaded, name):
    """Skew polynomials need algebras only: no space reference is read."""
    _, modules = loaded[name]
    assert "coringlab.bimodule" not in modules


@pytest.mark.parametrize("name", ["check wreath signflip", "check twisting X=R"])
def test_wreath_checks_load_no_cowreath(loaded, name):
    _, modules = loaded[name]
    assert "coringlab.cowreath" not in modules
    assert "coringlab.wreath" in modules


@pytest.mark.parametrize("name", ["check wreath signflip", "check twisting X=R"])
def test_wreath_checks_load_no_coring(loaded, name):
    """The wreath checks sample no Hom space, so `coring.sample_maps` is
    not imported."""
    _, modules = loaded[name]
    assert "coringlab.coring" not in modules


def test_check_entwining_loads_no_rcat(loaded):
    _, modules = loaded["check entwining dk"]
    assert "coringlab.rcat" not in modules
    assert "coringlab.entwine" in modules


def test_adjoint_loads_no_entwine(loaded):
    _, modules = loaded["adjoint hat"]
    assert "coringlab.entwine" not in modules
    assert "coringlab.cowreath" in modules


def test_check_cowreath_loads_no_wreath_ore_or_writer(loaded):
    _, modules = loaded["check cowreath flip"]
    for sub in ("wreath", "ore", "session_write"):
        assert f"coringlab.{sub}" not in modules
    assert "coringlab.cowreath" in modules


def test_no_command_loads_the_solvers(loaded):
    """No README command builds an echelon form, so none compiles
    `coringlab.echelon`."""
    for name, (_, modules) in loaded.items():
        assert "coringlab.echelon" not in modules, name


def test_no_command_loads_dataclasses(loaded):
    for name, (_, modules) in loaded.items():
        assert "dataclasses" not in modules, name
        assert "inspect" not in modules, name


WRITING = ("build cowreath-product", "build lift")


def test_only_builds_load_the_session_writer(loaded):
    assert set(WRITING) <= set(loaded)
    for name, (_, modules) in loaded.items():
        assert ("coringlab.session_write" in modules) == (name in WRITING), name


def test_token_count_skips_comments_and_blank_lines():
    """The parser's count: comment tokens and non-logical newlines are not
    tokens of the grammar, so comment lines and blank lines add none."""
    plain = "x = 1\ny = (1, 2)\n"
    noisy = "x = 1  # one\n\n# a comment line\ny = (1,\n     2)\n"
    assert cold_cli.tokens(plain) == cold_cli.tokens(noisy) == 13
    assert cold_cli.compile_peak_kb(plain, "<plain>") > 0
