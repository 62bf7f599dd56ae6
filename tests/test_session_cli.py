import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from coringlab.cli import main
from coringlab.coring import check_coring, coalgebra_over_field
from coringlab.corpus import corpus_sessions
from coringlab.cowreath import cowreath_product, flip_cowreath
from coringlab.exactla import GF, QQ
from coringlab.session import (
    SECTIONS,
    SessionStore,
    parse_session,
    serialize_session,
    write_session,
)
from coringlab.reports import InputError

SESSIONS_DIR = os.path.join(os.path.dirname(__file__), "..", "sessions")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


@pytest.fixture(scope="module")
def session_files(tmp_path_factory):
    out = {}
    root = tmp_path_factory.mktemp("sessions")
    for fname, raw in corpus_sessions().items():
        path = root / fname
        write_session(raw, path)
        out[fname] = str(path)
    return out


class TestRoundTrip:
    def test_serialize_parse_serialize_is_stable(self, session_files):
        for fname, path in session_files.items():
            with open(path) as fh:
                text = fh.read()
            s = parse_session(path)
            assert serialize_session(s.raw).strip() == text.strip()

    def test_reserialization_from_parsed_objects(self, session_files):
        # rebuilding the session from the parsed objects reproduces the data
        for fname, path in session_files.items():
            s = parse_session(path)
            store = SessionStore.empty(s.field)
            for name, a in s.algebras.items():
                assert store.algebra_name(a) == name
            again = parse_session(store.raw)
            assert set(again.algebras) == set(s.algebras)

    def test_store_refuses_an_object_over_another_field(self):
        """An object over another field than the store's would be written
        as if over the store's field and read back over it: `add` raises
        `InputError` and writes nothing, for an algebra and for a cowreath
        whose base algebra is the first entry it adds."""
        from coringlab.algebra import group_algebra_cyclic
        from coringlab.coring import grouplike_coalgebra
        z3 = group_algebra_cyclic(GF(3), 3)
        store = SessionStore.empty(QQ)
        with pytest.raises(InputError, match=r"algebras entry k\[Z/3\] is over "
                                             r"GF\(3\), not the session's field QQ"):
            store.algebra_name(z3)
        assert store.raw == {"field": "QQ"}
        w = flip_cowreath(*(grouplike_coalgebra(GF(101), 2, name=n) for n in "CD"))
        with pytest.raises(InputError, match="over GF"):
            store.add_cowreath("W", w)
        assert store.raw == {"field": "QQ"}
        assert SessionStore.empty(GF(3)).algebra_name(z3) == "k[Z/3]"

    def test_empty_session_is_valid(self):
        s = parse_session({"field": "QQ"})
        assert s.field is QQ

    def test_dangling_reference(self):
        with pytest.raises(InputError):
            parse_session({"field": "QQ",
                           "maps": {"f": {"domain": "missing",
                                          "codomain": "missing",
                                          "matrix": []}}})

    def test_nonprime_modulus(self):
        with pytest.raises(InputError):
            parse_session({"field": "GF(8)"})

    def test_shipped_files_match_generator(self, session_files):
        for fname, path in session_files.items():
            shipped = os.path.join(SESSIONS_DIR, fname)
            assert os.path.exists(shipped), f"{fname} missing from sessions/"
            with open(shipped) as fh:
                a = json.load(fh)
            with open(path) as fh:
                b = json.load(fh)
            assert a == b, f"{fname} is stale; rerun scripts/build_sessions.py"

    def test_z2_file_parses_to_dim2_algebra(self, session_files):
        s = parse_session(session_files["z2_group_algebra.json"])
        assert s.algebras["kZ2"].dim == 2


class TestCliExitCodes:
    def test_pass_is_zero(self, session_files, capsys):
        code = main(["--session", session_files["grouplike_coalgebras.json"],
                     "check", "coring", "C2"])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_fail_is_one_with_witness(self, session_files, capsys):
        code = main(["--session", session_files["grouplike_coalgebras.json"],
                     "check", "coring", "broken"])
        assert code == 1
        out = capsys.readouterr().out
        assert "counit" in out and "g" in out

    def test_unknown_name_is_two(self, session_files, capsys):
        code = main(["--session", session_files["grouplike_coalgebras.json"],
                     "check", "coring", "nope"])
        assert code == 2

    def test_unknown_skewpoly_names_its_kind(self, session_files, capsys):
        code = main(["--session", session_files["ore_rational.json"],
                     "ore", "check", "--data", "nope", "--degree", "2"])
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: unknown skewpoly 'nope'"

    def test_sigma_of_another_algebra_names_its_entry(self, session_files, tmp_path,
                                                      capsys):
        """A `skewpoly` sigma that is a morphism of another algebra exits 2
        with its JSON path, as a dangling name does."""
        with open(session_files["ore_rational.json"]) as fh:
            raw = json.load(fh)
        raw["skewpoly"]["quantum-plane"]["sigma"] = "id"
        path = tmp_path / "bad_sigma.json"
        path.write_text(json.dumps(raw))
        code = main(["--session", str(path), "ore", "check", "--data",
                     "quantum-plane", "--degree", "2"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: $.skewpoly.quantum-plane.sigma: sigma must be an "
            "endomorphism of B\n")

    @pytest.mark.parametrize("fname, section, entry, swap, command, message", [
        ("sign_flip_ttp.json", "extensions", "QQ->R", ("base", "total"),
         ["check", "wreath", "signflip"],
         "$.extensions.QQ->R: iota must run from the base into the total ring"),
        ("cowreaths.json", "cowreaths", "broken-delta", ("xi", "delta"),
         ["check", "cowreath", "broken-delta"],
         "$.cowreaths.broken-delta: xi must map C(x)M to C"),
        ("sign_flip_ttp.json", "wreaths", "signflip.wreath", ("eta", "mu"),
         ["check", "wreath", "signflip.wreath"],
         "$.wreaths.signflip.wreath: eta must map T to R(x)T"),
        ("grouplike_coalgebras.json", "corings", "C2", ("comult", "counit"),
         ["check", "coring", "C2"],
         "$.corings.C2: comultiplication must map the carrier into the "
         "4-dimensional tensor square"),
    ])
    def test_constructor_error_names_its_entry(self, session_files, tmp_path, capsys,
                                               fname, section, entry, swap, command,
                                               message):
        """An entry that its section's constructor refuses while the session
        is parsed exits 2 with the entry's JSON path."""
        with open(session_files[fname]) as fh:
            raw = json.load(fh)
        data = raw[section][entry]
        data[swap[0]], data[swap[1]] = data[swap[1]], data[swap[0]]
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(raw))
        assert main(["--session", str(path), *command]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    KZ2 = {"dim": 2, "mult": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], "unit": [1, 0]}

    @pytest.mark.parametrize("raw, command, message", [
        ({"algebras": {"Z": {"dim": 0, "mult": [], "unit": []}}},
         ["check", "algebra", "Z"],
         "$.algebras.Z: algebra dimension must be positive"),
        ({"algebras": {"kZ2": KZ2},
          "bimodules": {"M": {"left": "kZ2", "right": "kZ2", "dim": 1,
                              "left_action": [[[1]]],
                              "right_action": [[[1]], [[1]]]}}},
         ["check", "bimodule", "M"],
         "$.bimodules.M: need one left action matrix per basis element"),
    ], ids=["zero-dim-algebra", "one-left-action"])
    def test_inline_constructor_error_names_its_entry(self, tmp_path, capsys, raw,
                                                      command, message):
        """The checks of `FinAlgebra` and `Bimodule` that the reader leaves
        to them name the entry's JSON path, as every section's do."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"field": "QQ", **raw}))
        assert main(["--session", str(path), *command]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_unknown_entry_messages_name_each_kind(self, session_files):
        """Every plural section names its kind without the trailing s, as
        it always has; `skewpoly` is singular and keeps its name."""
        s = parse_session(session_files["ore_rational.json"])
        for section in SECTIONS:
            kind = section if section == "skewpoly" else section[:-1]
            with pytest.raises(InputError) as err:
                s.lookup(section, "nope")
            assert str(err.value) == f"unknown {kind} 'nope'"
            with pytest.raises(InputError) as err:
                s.lookup(section, "nope", "$.x.y")
            assert str(err.value) == f"$.x.y: unknown {kind} 'nope'"

    def test_missing_session_is_two(self, capsys):
        code = main(["--session", "/no/such/file.json",
                     "check", "coring", "C2"])
        assert code == 2

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_session_is_two(self, tmp_path, capsys, kind):
        """A directory, or a file that is not UTF-8 (bytes ff fe 7b), exits
        2 with one error line naming the path, and prints nothing on
        stdout."""
        path = tmp_path / "session.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{")
        assert main(["--session", str(path), "check", "coring", "C2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1

    def test_overlong_json_integer_is_two(self, tmp_path, capsys):
        """json raises a plain ValueError, not a JSONDecodeError, for an
        integer literal of more digits than int() converts (4,300 by
        default): exit 2 with one error line naming the path."""
        path = tmp_path / "session.json"
        path.write_text('{"field": "QQ", "algebras": {"A": {"dim": %s}}}' % ("1" * 5000))
        assert main(["--session", str(path), "check", "coring", "C2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: a JSON integer literal is too long\n"

    def test_json_nested_past_the_recursion_limit_is_two(self, tmp_path, capsys):
        """json raises a RecursionError, not a ValueError, for arrays nested
        past the recursion limit: exit 2 with one error line naming the
        path."""
        path = tmp_path / "session.json"
        path.write_text('{"field":"QQ","x":' + "[" * 100000 + "]" * 100000 + "}")
        assert main(["--session", str(path), "check", "coring", "C2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {path}: JSON arrays or objects are nested "
                       f"too deeply\n")

    def test_space_reference_nested_past_the_recursion_limit_is_two(self, tmp_path):
        """A map's domain wrapped in 950 one-element lists, which json reads
        but `resolve_space` cannot recurse through, exits 2 with one error
        line naming the reference's JSON path.  It runs as a command in its
        own process, whose stack starts shallower than the test's."""
        raw = json.loads(json.dumps(corpus_sessions()["grouplike_coalgebras.json"]))
        raw["maps"]["C2.comult"]["domain"] = "@"
        path = tmp_path / "session.json"
        path.write_text(json.dumps(raw).replace('"@"', "[" * 950 + '"C2"' + "]" * 950))
        proc = subprocess.run(
            [sys.executable, "-m", "coringlab.cli", "--session", str(path),
             "check", "coring", "C2"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("error: $.maps.C2.comult.domain: space reference "
                               "is nested too deeply\n")

    def test_json_format(self, session_files, capsys):
        code = main(["--session", session_files["entwinings.json"],
                     "check", "entwining", "dk", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["status"] == "pass"

    def test_env_var_default(self, session_files, capsys, monkeypatch):
        monkeypatch.setenv("CORINGLAB_SESSION",
                           session_files["entwinings.json"])
        assert main(["check", "entwining", "flip"]) == 0

    def test_ttp_check_and_precondition(self, session_files, capsys):
        assert main(["--session", session_files["sign_flip_ttp.json"],
                     "check", "wreath", "signflip"]) == 0
        assert main(["--session", session_files["sign_flip_ttp.json"],
                     "check", "wreath", "broken"]) == 1
        out = capsys.readouterr().out
        assert "ttp-3" in out

    def test_twisting_check(self, session_files):
        assert main(["--session", session_files["sign_flip_ttp.json"],
                     "check", "twisting", "X=R"]) == 0

    def test_remaining_check_kinds(self, session_files):
        assert main(["--session", session_files["z2_group_algebra.json"],
                     "check", "algebra", "kZ2"]) == 0
        assert main(["--session", session_files["grouplike_coalgebras.json"],
                     "check", "comodule", "C2.self"]) == 0
        assert main(["--session", session_files["grouplike_coalgebras.json"],
                     "check", "bimodule", "C2"]) == 0
        assert main(["--session", session_files["cowreaths.json"],
                     "check", "r-object", "(D2,flip)"]) == 0

    def test_ore_commands(self, session_files):
        assert main(["--session", session_files["ore_rational.json"],
                     "ore", "check", "--data", "quantum-plane",
                     "--degree", "4"]) == 0
        assert main(["--session", session_files["ore_rational.json"],
                     "ore", "compare", "--data", "commutative",
                     "--degree", "4"]) == 0
        assert main(["--session", session_files["ore_gf3.json"],
                     "ore", "check", "--data", "weyl", "--degree", "4"]) == 0
        assert main(["--session", session_files["ore_rational.json"],
                     "ore", "check", "--data", "broken-derivation",
                     "--degree", "3"]) == 1


class TestCliBuilds:
    def test_build_then_check_products(self, session_files, tmp_path):
        saved = str(tmp_path / "with_product.json")
        assert main(["--session", session_files["cowreaths.json"],
                     "build", "cowreath-product", "flip",
                     "--out", "P", "--save", saved]) == 0
        assert main(["--session", saved, "check", "coring", "P"]) == 0

    def test_build_entwined_coring(self, session_files, tmp_path):
        saved = str(tmp_path / "with_coring.json")
        assert main(["--session", session_files["entwinings.json"],
                     "build", "entwined-coring", "dk",
                     "--out", "DK", "--save", saved]) == 0
        assert main(["--session", saved, "check", "coring", "DK"]) == 0

    def test_build_lift_then_check(self, session_files, tmp_path):
        saved = str(tmp_path / "with_lift.json")
        assert main(["--session", session_files["cowreaths.json"],
                     "build", "lift", "flip-ent", "flip",
                     "--out", "L", "--save", saved]) == 0
        assert main(["--session", saved, "check", "cowreath", "L"]) == 0

    def test_build_lift_saves_pinned_bytes(self, session_files, tmp_path):
        """The saved lift, with its two equal entwined corings, byte for byte."""
        saved = tmp_path / "lift.json"
        assert main(["--session", session_files["cowreaths.json"],
                     "build", "lift", "flip-ent", "flip",
                     "--out", "L", "--save", str(saved)]) == 0
        assert hashlib.sha256(saved.read_bytes()).hexdigest() == (
            "5ab29f61009264a0d6f30b3a8630a983cd6514a926550a0e70327e2dbe22ef65")

    def test_build_wreath_product_from_named_wreath(self, session_files,
                                                    tmp_path):
        saved = str(tmp_path / "with_wp.json")
        assert main(["--session", session_files["sign_flip_ttp.json"],
                     "build", "wreath-product", "signflip.wreath",
                     "--out", "WP", "--save", saved]) == 0
        assert main(["--session", saved, "check", "algebra", "WP"]) == 0

    def test_build_twisted_product(self, session_files, tmp_path):
        saved = str(tmp_path / "with_ttp.json")
        assert main(["--session", session_files["sign_flip_ttp.json"],
                     "build", "twisted-product", "signflip",
                     "--out", "P", "--save", saved]) == 0
        assert main(["--session", saved, "check", "algebra", "P"]) == 0

    def test_build_broken_ttp_fails(self, session_files, capsys):
        assert main(["--session", session_files["sign_flip_ttp.json"],
                     "build", "twisted-product", "broken",
                     "--out", "Q"]) == 1

    @pytest.mark.parametrize("fname, kind, names, message", [
        ("entwinings.json", "lift", ["flip"], "build lift takes 2 names, got 1"),
        ("cowreaths.json", "cowreath-product", ["flip", "extra"],
         "build cowreath-product takes 1 name, got 2"),
    ])
    def test_build_name_count_is_two(self, session_files, capsys, fname, kind,
                                     names, message):
        assert main(["--session", session_files[fname],
                     "build", kind, *names, "--out", "x"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_build_lift_over_another_coring_exits_2(self, session_files, capsys):
        """`unit` is a cowreath over the trivial kZ2 coring, which has the
        dimension of the entwining's C2 but another base."""
        assert main(["--session", session_files["cowreaths.json"],
                     "build", "lift", "flip-ent", "unit", "--out", "L"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: object over triv(kZ2) must live over the entwining "
                       "coalgebra C2\n")

    @pytest.mark.parametrize("fname, kind, names, out, stored", [
        ("cowreaths.json", "cowreath-product", ["flip"], "C2", "C22"),
        ("entwinings.json", "entwined-coring", ["dk"], "C2", "C22"),
        ("cowreaths.json", "lift", ["flip-ent", "flip"], "flip", "flip2"),
        ("sign_flip_ttp.json", "wreath-product", ["signflip.wreath"], "R", "R2"),
        ("sign_flip_ttp.json", "twisted-product", ["signflip"], "T|QQ", "T|QQ2"),
    ])
    def test_build_out_name_taken_exits_2(self, session_files, tmp_path, capsys,
                                          fname, kind, names, out, stored):
        """A taken --out name would store the result under another name, so
        a later check of --out would read the old entry: exit 2, save
        nothing."""
        saved = tmp_path / "taken.json"
        assert main(["--session", session_files[fname], "build", kind, *names,
                     "--out", out, "--save", str(saved)]) == 2
        assert capsys.readouterr().err == (
            f"error: --out {out} is already taken in the session "
            f"(the result would be stored as {stored})\n")
        assert not saved.exists()

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_build_save_to_unwritable_path_exits_2(self, session_files, tmp_path,
                                                   capsys, where):
        """--save into a directory that does not exist, or onto a
        directory, exits 2 with one error line naming the path, and prints
        no report."""
        saved = (tmp_path / "no" / "such" / "x.json" if where == "missing-dir"
                 else tmp_path)
        assert main(["--session", session_files["cowreaths.json"],
                     "build", "lift", "flip-ent", "flip",
                     "--out", "L", "--save", str(saved)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot write session file {saved}: " + (
            "No such file or directory\n" if where == "missing-dir"
            else "Is a directory\n")


class TestAdjointCommand:
    @pytest.fixture
    def hat_argv(self, tmp_path):
        """`adjoint hat` on a saved session of the flip cowreath over C2."""
        from coringlab.corpus import CORPUS
        from coringlab.coring import comodule_over_itself
        from coringlab.cowreath import (
            cowreath_product,
            induced_comodule_tensor,
            sample_adjunction_maps,
        )
        w = CORPUS.flip_cw
        prod, _ = cowreath_product(w)
        x = comodule_over_itself(CORPUS.c2)
        y = induced_comodule_tensor(w, x, prod)
        f = sample_adjunction_maps(w, x, y, count=1, seed=3)[0]
        store = SessionStore.empty(QQ)
        wn = store.add_cowreath("W", w)
        store.add_coring("P", prod)
        xn = store.add_comodule("X", x)
        yn = store.add_comodule("Y", y)
        store.add_comodule("XL", comodule_over_itself(CORPUS.c2, side="left"))
        store.add_comodule("XG", comodule_over_itself(CORPUS.gp))
        fn = store.map_name(f, "f")
        path = str(tmp_path / "adj.json")
        write_session(store.raw, path)
        return ["--session", path, "adjoint", "hat", "--cowreath", wn,
                "--x", xn, "--y", yn, "--map", fn]

    def test_hat_and_tilde(self, hat_argv, capsys):
        code = main(hat_argv + ["--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matrix"]

    def test_out_and_save_store_the_map(self, hat_argv, tmp_path, capsys):
        saved = tmp_path / "saved.json"
        assert main(hat_argv + ["--out", "g", "--save", str(saved)]) == 0
        assert "g" in parse_session(str(saved)).maps

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_save_to_unwritable_path_exits_2(self, hat_argv, tmp_path, capsys,
                                             where):
        """`--out g --save` to a path that cannot be written exits 2 with
        one error line naming it, and prints no matrix."""
        saved = tmp_path / "no" / "x.json" if where == "missing-dir" else tmp_path
        assert main(hat_argv + ["--out", "g", "--save", str(saved)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write session file {saved}: ")
        assert err.count("\n") == 1

    def test_fixture_session_save_to_unwritable_path_exits_2(self, tmp_path, capsys):
        """The same on the benchmark's session fixture."""
        fixture = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                               "fixtures", "my_session.json")
        argv = ["--session", fixture, "adjoint", "hat", "--cowreath", "W",
                "--x", "X", "--y", "Y", "--map", "f", "--out", "g"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--save", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot write session file {tmp_path}: Is a directory\n"

    def test_save_needs_out(self, hat_argv, tmp_path, capsys):
        saved = tmp_path / "saved.json"
        assert main(hat_argv + ["--save", str(saved)]) == 2
        assert "--save needs --out" in capsys.readouterr().err
        assert not saved.exists()

    def test_out_name_taken_exits_2(self, hat_argv, tmp_path, capsys):
        """`--out` naming a map the session holds would store the transpose
        under another name, as `build` would: exit 2 before anything is
        printed or written."""
        taken = hat_argv[hat_argv.index("--map") + 1]
        saved = tmp_path / "taken.json"
        assert main(hat_argv + ["--out", taken, "--save", str(saved)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (f"error: --out {taken} is already taken in the session "
                           f"(the result would be stored as {taken}2)\n")
        assert not saved.exists()

    @pytest.mark.parametrize("direction", ["hat", "tilde"])
    @pytest.mark.parametrize("role", ["--x", "--y"])
    def test_left_comodule_exits_2(self, hat_argv, capsys, direction, role):
        """The adjunction takes right comodules: a left one exits 2 with one
        error line naming it, and prints nothing on stdout."""
        argv = list(hat_argv)
        argv[argv.index("hat")] = direction
        argv[argv.index(role) + 1] = "XL"
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: the adjunction takes right comodules; "
                           "XL is a left comodule\n")

    @pytest.mark.parametrize("direction", ["hat", "tilde"])
    def test_comodule_over_another_coring_exits_2(self, hat_argv, capsys, direction):
        """X over C[g,x] against the flip cowreath over C2 is malformed
        input: exit 2 with one error line naming both corings, nothing on
        stdout."""
        argv = list(hat_argv)
        argv[argv.index("hat")] = direction
        argv[argv.index("--x") + 1] = "XG"
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("error: XG is a comodule over C[g,x], not over C2, "
                           "the coring of W\n")


class TestWitnessReevaluation:
    def test_counit_witness_recomputes(self):
        # the printed lhs/rhs of a failing counit law reproduce exactly when
        # the composite is evaluated again on the named basis element
        from coringlab.corpus import CORPUS
        from coringlab.coring import check_coring
        from coringlab.bimodule import pipe, regular_bimodule, space
        c = CORPUS.broken_coalgebra
        rep = check_coring(c)
        assert not rep.ok
        w = next(x for x in rep.witnesses if x.equation == "counit-left")
        C = c.carrier
        areg = regular_bimodule(c.base)
        left = (
            pipe(space(C))
            .apply(c.comult, 0, 1, [C, C])
            .apply(c.counit, 0, 1, [areg])
            .absorb_right(0)
            .done()
        )
        idx = C.labels.index(w.basis[0])
        assert C.fmt_vec(left.matrix.col(idx)) == w.lhs
        assert C.fmt_vec({idx: QQ.one()}) == w.rhs


class TestMalformedScalarsExitTwo:
    """Bad scalar text and a non-string field are malformed input."""

    @staticmethod
    def _run(tmp_path, mutate):
        raw = json.loads(json.dumps(corpus_sessions()["grouplike_coalgebras.json"]))
        mutate(raw)
        path = tmp_path / "bad.json"
        write_session(raw, path)
        return main(["--session", str(path), "check", "coring", "C2"])

    @pytest.mark.parametrize("text", ["1/0", "x", ""])
    def test_bad_algebra_unit(self, tmp_path, capsys, text):
        def mutate(raw):
            raw["algebras"]["kZ2"]["unit"] = [text, "0"]
        assert self._run(tmp_path, mutate) == 2
        assert repr(text) in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["QQ", "GF(5)"])
    @pytest.mark.parametrize("text", ["0.5", "1e3", "1e5000", "1e40000000", "3/-4",
                                      "1/ 2", " 1", "1_0", "\u0661", "0x1", "+-1"])
    def test_scalar_grammar_is_one_for_both_fields(self, tmp_path, capsys, field,
                                                    text):
        """A scalar string is an optionally signed integer in ASCII digits,
        optionally over an unsigned one, on every field: decimals and
        exponents (which QQ read, and "1e40000000" took the parser minutes)
        and a signed or spaced denominator (which GF(p) read) exit 2 with
        the JSON path."""
        def mutate(raw):
            raw["field"] = field
            raw["algebras"]["kZ2"]["unit"] = [text, "0"]
        assert self._run(tmp_path, mutate) == 2
        assert capsys.readouterr().err == (
            f'error: $.algebras.kZ2.unit[0]: expected an integer or a "p/q" '
            f"string, got {text!r}\n")

    @pytest.mark.parametrize("field", ["QQ", "GF(5)"])
    @pytest.mark.parametrize("text", ["1", "+1", "2/2", "4/4", "0001"])
    def test_scalar_grammar_reads_the_same_strings(self, tmp_path, capsys, field,
                                                   text):
        """The strings of the grammar that equal 1 leave C2 lawful on both
        fields."""
        def mutate(raw):
            raw["field"] = field
            raw["algebras"]["kZ2"]["unit"] = [text, "0"]
        assert self._run(tmp_path, mutate) == 0

    def test_gf_denominator_zero_mod_p(self, tmp_path, capsys):
        def mutate(raw):
            raw["field"] = "GF(5)"
            raw["algebras"]["kZ2"]["unit"] = ["1/5", "0"]
        assert self._run(tmp_path, mutate) == 2
        assert "'1/5'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", [5, None, ["QQ"], "GF(x)"])
    def test_bad_field(self, tmp_path, capsys, field):
        def mutate(raw):
            raw["field"] = field
        assert self._run(tmp_path, mutate) == 2
        assert capsys.readouterr().err.startswith("error: ")


def str_of_any_length(n):
    """str(n) with the interpreter's digit limit lifted for this one call:
    the oracle for the integers the program converts in pieces."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


class TestIntegersOfAnyLength:
    """Scalars whose integers pass the interpreter's limit on int() of a
    string and str() of an int (4,300 digits by default) are read and
    written exactly, with the limit left as it is."""

    def test_failing_witness_with_long_integers_is_one(self, tmp_path, capsys):
        """kZ2 with the 3,000-digit 77...7 as its unit and as e0.e0 breaks
        its laws; the witnesses hold it and its 6,000-digit square."""
        big = "7" * 3000
        square = str_of_any_length(int(big) ** 2)
        kz2 = json.loads(json.dumps(
            corpus_sessions()["grouplike_coalgebras.json"]["algebras"]["kZ2"]))
        kz2["unit"] = [big, "0"]
        kz2["mult"][0][0] = [big, "0"]
        raw = {"field": "QQ", "algebras": {"kZ2": kz2}}
        path = tmp_path / "big.json"
        write_session(raw, path)
        assert main(["--session", str(path), "check", "algebra", "kZ2"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert out == "\n".join([
            "algebra kZ2: fail",
            f"  assoc at ('1', '1', 'g'): lhs={big}*g rhs=g",
            f"  assoc at ('1', 'g', 'g'): lhs=1 rhs={big}*1",
            f"  assoc at ('g', '1', '1'): lhs=g rhs={big}*g",
            f"  assoc at ('g', 'g', '1'): lhs={big}*1 rhs=1",
            f"  unit-left at ('1',): lhs={square}*1 rhs=1",
            f"  unit-right at ('1',): lhs={square}*1 rhs=1",
            f"  unit-left at ('g',): lhs={big}*g rhs=g",
            f"  unit-right at ('g',): lhs={big}*g rhs=g", ""])

    @staticmethod
    def long_product_session():
        """The session of the flip cowreath W of two rescaled grouplike
        coalgebras over QQ, Delta(h_i) = lam_i^-1 h_i (x) h_i and
        eps(h_i) = lam_i with lam_i of 4,401 digits over 1 digit, and its
        product coring P, whose comultiplication has entries of more than
        8,800 digits."""
        def coalgebra(lams, name):
            return coalgebra_over_field(
                QQ, 2, [{3 * i: 1 / lam} for i, lam in enumerate(lams)],
                lams, ["h0", "h1"], name)
        big = 10 ** 4400
        w = flip_cowreath(
            coalgebra([Fraction(big + 1, 3), Fraction(-big - 2, 7)], "C"),
            coalgebra([Fraction(big + 3, 2), Fraction(big + 4, 9)], "D"))
        store = SessionStore.empty(QQ)
        store.add_cowreath("W", w)
        store.add_coring("P", cowreath_product(w)[0])
        return store.raw

    @staticmethod
    def save_read_save(raw, path):
        """The text of raw as written to path, and the text of the objects
        read back from path, added to a new store in the same order."""
        write_session(raw, path)
        text = path.read_text()
        s = parse_session(str(path))
        again = SessionStore.empty(s.field)
        again.add_cowreath("W", s.cowreaths["W"])
        again.add_coring("P", s.corings["P"])
        assert check_coring(s.corings["P"]).ok
        return text, serialize_session(again.raw) + "\n", s

    def test_long_entries_round_trip_over_qq(self, tmp_path):
        raw = self.long_product_session()
        text, again, _ = self.save_read_save(raw, tmp_path / "qq.json")
        entries = raw["maps"]["P.comult"]["matrix"]
        assert max(len(v) for row in entries for v in row) > 8800
        assert again == text

    def test_long_entries_round_trip_over_gf(self, tmp_path):
        """The QQ session read over GF(101): each long p/q entry is read
        as p * q^-1 mod 101, and the session written from it reads back and
        writes again byte-identically."""
        raw = self.long_product_session()
        raw["field"] = "GF(101)"
        path = tmp_path / "long.json"
        write_session(raw, path)
        s = parse_session(str(path))
        qq = parse_session(self.long_product_session())
        want = {i: {j: v.numerator * pow(v.denominator, -1, 101) % 101
                    for j, v in row.items()}
                for i, row in qq.maps["P.comult"].matrix.data.items()}
        assert s.maps["P.comult"].matrix.data == want
        store = SessionStore.empty(GF(101))
        store.add_cowreath("W", s.cowreaths["W"])
        store.add_coring("P", s.corings["P"])
        text, again, _ = self.save_read_save(store.raw, tmp_path / "gf.json")
        assert again == text


class TestMalformedShapesExitTwo:
    """A value of the wrong JSON kind, or a missing one, is malformed input
    reported with its JSON path."""

    @pytest.mark.parametrize("mutate, path", [
        (lambda raw: raw["algebras"]["kZ2"].pop("unit"), "$.algebras.kZ2.unit"),
        (lambda raw: raw["algebras"]["kZ2"].update(mult=None),
         "$.algebras.kZ2.mult"),
        (lambda raw: raw["algebras"]["kZ2"]["mult"][1].__setitem__(0, "1"),
         "$.algebras.kZ2.mult[1][0]"),
        (lambda raw: raw["algebras"]["kZ2"].update(dim="2"),
         "$.algebras.kZ2.dim"),
        (lambda raw: raw.update(corings=[]), "$.corings"),
        (lambda raw: raw["maps"].update({"C2.comult": 5}), "$.maps.C2.comult"),
        (lambda raw: raw["bimodules"]["C2"]["left_action"].__setitem__(0, None),
         "$.bimodules.C2.left_action[0]"),
        (lambda raw: raw["corings"]["C2"].pop("counit"),
         "$.corings.C2.counit"),
    ], ids=["no-unit", "mult-null", "mult-entry", "dim-string",
            "corings-array", "map-number", "action-null", "no-counit"])
    def test_bad_shape(self, tmp_path, capsys, mutate, path):
        assert TestMalformedScalarsExitTwo._run(tmp_path, mutate) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_session_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('[{"field": "QQ"}]')
        assert main(["--session", str(path), "check", "coring", "C2"]) == 2
        assert capsys.readouterr().err.startswith("error: $: expected an object")

    def test_reference_of_wrong_kind(self):
        raw = json.loads(json.dumps(corpus_sessions()["grouplike_coalgebras.json"]))
        raw["corings"]["C2"]["base"] = ["QQ"]
        with pytest.raises(InputError, match="unknown algebra"):
            parse_session(raw)
