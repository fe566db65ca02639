"""Command-line interface: subcommands, formats, exit codes, determinism."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gogz import __version__, cli, paths, verdicts, words
from gogz.cli import main
from gogz.engine import IDENTITY, Engine, _atom_pool
from gogz.graphs import parse_graph
from gogz.words import MAX_REPLAY_SYLLABLES, MAX_WORD_LETTERS
from families import K, chain, loops2, ring, wring
from helpers import run_capped
from test_golden_cli import _write_suite, golden_argvs

BS23 = 'vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^2" plus="a^3"\n'

TREFOIL = (
    "vertex 0 rank=1 gens=a\n"
    "vertex 1 rank=1 gens=b\n"
    'edge 0 0 1 minus="a^2" plus="b^3"\n'
)

THETA_SKEW = (
    "vertex 0 rank=1 gens=a\n"
    "vertex 1 rank=1 gens=b\n"
    'edge 0 0 1 minus="a^2" plus="b^2"\n'
    'edge 1 0 1 minus="a^2" plus="b^3"\n'
)

FREE_AMALGAM = (
    "vertex 0 rank=2 gens=a,b\n"
    "vertex 1 rank=2 gens=x,y\n"
    'edge 0 0 1 minus="a" plus="x"\n'
)


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="input.gog"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


@pytest.fixture
def built_chains(monkeypatch):
    """Every chain record the chain builder returns, in build order."""
    built = []
    original = paths._chain

    def counting(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(paths, "_chain", counting)  # the end table builds every chain
    return built


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCheck:
    def test_bs23_text(self, graph_file, capsys):
        code, out = run(capsys, "check", graph_file(BS23), "--format", "text")
        assert code == 0
        assert "balanced: false" in out and "BS(2,3)" in out
        assert "word hyperbolic: false" in out
        assert "acylindrically hyperbolic: false" in out
        assert "trichotomy: surjects_Z" in out

    def test_default_format_is_json(self, graph_file, capsys):
        code, out = run(capsys, "check", graph_file(BS23), "--no-timing")
        assert code == 0
        assert json.loads(out)["verdicts"]["bs_subgroup"] == "BS(2,3)"

    def test_trefoil_json(self, graph_file, capsys):
        path = graph_file(TREFOIL)
        code, out = run(capsys, "check", path, "--format", "json", "--no-timing")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 2
        assert doc["input"]["sha256"] == hashlib.sha256(TREFOIL.encode()).hexdigest()
        verdicts = doc["verdicts"]
        assert verdicts["balanced"] is True and verdicts["bs_subgroup"] is None
        assert verdicts["word_hyperbolic"] is False
        assert verdicts["acyl_hyperbolic"] is False
        assert verdicts["trichotomy"] == "cyclic_normal_subgroup"
        tri = doc["witnesses"]["trichotomy"]
        assert tri["central_element"] == "a^2"
        assert tri["vertex_exponents"] == {"0": 2, "1": 3}
        assert doc["witnesses"]["hyperbolicity"]["kind"] == "full"

    def test_central_witness_of_a_reduced_word_over_the_cap(self, graph_file, capsys):
        # contracting edge 0 makes edge 1 read a^1001000 = y^2, a word no graph file may spell
        text = (
            "vertex 0 rank=1 gens=a\nvertex 1 rank=1 gens=x\nvertex 2 rank=1 gens=y\n"
            'edge 0 0 1 minus="a^1000" plus="x"\nedge 1 1 2 minus="x^1001" plus="y^2"\n'
        )
        code, out = run(capsys, "check", graph_file(text), "--no-timing")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"]["trichotomy"] == "cyclic_normal_subgroup"
        assert doc["witnesses"]["trichotomy"]["vertex_exponents"] == {"0": 1001000, "2": 2}

    def test_free_amalgam_json(self, graph_file, capsys):
        code, out = run(capsys, "check", graph_file(FREE_AMALGAM), "--format", "json", "--no-timing")
        doc = json.loads(out)
        assert doc["verdicts"]["word_hyperbolic"] is True
        assert doc["verdicts"]["acyl_hyperbolic"] is True
        assert doc["verdicts"]["trichotomy"] == "acylindrically_hyperbolic"

    def test_deep_chain_verifies_its_witness(self, graph_file, capsys):
        # 1500 rank-two vertices in a row: the engine must not recurse per vertex
        code, out = run(capsys, "check", graph_file(chain(1500)), "--no-timing")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"]["word_hyperbolic"] is False
        witness = doc["witnesses"]["hyperbolicity"]
        assert witness["steps"] == ["e0+"] and witness["verified"] is True

    def test_ring_of_squares_replays_its_large_witness(self, graph_file, capsys):
        # x_i ~ x_(i+1)^2 around 8 vertices: the engine replays a0 ~ a0^256
        code, out = run(capsys, "check", graph_file(ring(8)), "--no-timing")
        assert code == 0
        witness = json.loads(out)["witnesses"]["balance"]
        assert witness["relation"]["exponents"] == [1, 256]
        assert witness["verified"] is True

    def test_each_witness_chain_is_built_once(self, graph_file, capsys, built_chains):
        # one closed chain is the balance and the hyperbolicity witness; it is
        # replayed and rendered twice from the conjugator built with it
        code, out = run(capsys, "check", graph_file(THETA_SKEW), "--no-timing")
        assert code == 0
        witnesses = json.loads(out)["witnesses"]
        (chain,) = built_chains
        assert chain.witness_exponents == (3, 2)
        for kind in ("balance", "hyperbolicity"):
            assert witnesses[kind]["steps"] == ["e0+", "e1-"]
            assert witnesses[kind]["relation"]["conjugator"] == "t_1^-1 t_0"

    def test_timing_present_by_default(self, graph_file, capsys):
        code, out = run(capsys, "check", graph_file(BS23), "--format", "json")
        assert "timing" in json.loads(out)

    def test_text_and_json_carry_the_same_witnesses(self, graph_file, capsys):
        path = graph_file(BS23)
        _, text_out = run(capsys, "check", path, "--format", "text")
        _, json_out = run(capsys, "check", path, "--format", "json", "--no-timing")
        doc = json.loads(json_out)
        witness = doc["witnesses"]["balance"]
        assert witness["base_word"] in text_out
        assert witness["relation"]["conjugator"] in text_out
        assert doc["verdicts"]["bs_subgroup"] in text_out
        for ratio in doc["verdicts"]["modulus"]:
            assert ratio in text_out


class TestDeterminism:
    def test_json_reports_are_byte_identical(self, graph_file):
        path = graph_file(TREFOIL)
        argv = [sys.executable, "-m", "gogz.cli", "check", path, "--format", "json", "--no-timing"]
        first = subprocess.run(argv, capture_output=True, text=True)
        second = subprocess.run(argv, capture_output=True, text=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout and first.stdout


# A fresh interpreter runs one check and prints its exit code, the input
# digest and which of the OpenSSL hash modules it loaded; with "fallback" it
# first blocks the built-in SHA-256 modules, so the import ladder ends at hashlib.
_HASH_CHILD = """
import contextlib, io, json, sys
if sys.argv[2] == "fallback":
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
from gogz.cli import main
report = io.StringIO()
with contextlib.redirect_stdout(report):
    code = main(["check", sys.argv[1], "--no-timing"])
loaded = sorted({"hashlib", "_hashlib"} & set(sys.modules))
print(json.dumps([code, json.loads(report.getvalue())["input"]["sha256"], loaded]))
"""


class TestInputDigest:
    def test_the_digest_skips_openssl(self, graph_file):
        path = graph_file(BS23)
        child = run_capped(["-c", _HASH_CHILD, path, "lean"])
        assert child.returncode == 0, child.stderr
        with open(path, "rb") as f:
            expected = hashlib.sha256(f.read()).hexdigest()
        assert json.loads(child.stdout) == [0, expected, []]

    def test_the_hashlib_fallback_gives_the_same_digest(self, graph_file):
        path = graph_file(BS23)
        child = run_capped(["-c", _HASH_CHILD, path, "fallback"])
        assert child.returncode == 0, child.stderr
        code, digest, loaded = json.loads(child.stdout)
        with open(path, "rb") as f:
            assert (code, digest) == (0, hashlib.sha256(f.read()).hexdigest())
        assert "hashlib" in loaded


_json_text = st.text() | st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f é\u2028😀'))
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | _json_text,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(_json_text, inner),
    max_leaves=40,
)


class TestJsonWriter:
    @settings(deadline=None)
    @given(_json_values)
    def test_writer_matches_json_dumps(self, value):
        assert cli._dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{1: "a"}, {"ratio": Fraction(3, 2)}, [{"ok": [Fraction(1)]}]])
    def test_writer_refuses_what_json_cannot_hold(self, value):
        with pytest.raises(TypeError):
            cli._dumps(value)

    def test_json_report_builds_no_text(self, graph_file, capsys, monkeypatch):
        def refuse(doc):
            raise AssertionError("text rendered for a JSON report")

        monkeypatch.setitem(cli._COMMANDS, "paths", (cli.cmd_paths, refuse))
        code, out = run(capsys, "paths", graph_file(BS23), "--kind", "complete", "--no-timing")
        assert code == 0 and json.loads(out)["count"] == 1


class TestPaths:
    def test_complete_listing(self, graph_file, capsys):
        code, out = run(capsys, "paths", graph_file(BS23), "--kind", "complete",
                        "--format", "json", "--no-timing")
        doc = json.loads(out)
        assert doc["count"] == 1
        entry = doc["paths"][0]
        assert entry["ratio"] == "3/2" and entry["level"] is False
        assert entry["relation"]["exponents"] == [2, 3]

    def test_tree_has_no_complete_paths(self, graph_file, capsys):
        code, out = run(capsys, "paths", graph_file(TREFOIL), "--kind", "complete",
                        "--format", "text")
        assert code == 0 and "no paths" in out

    def test_listed_relations_are_replayed(self, graph_file, capsys, monkeypatch):
        # "verified": true is earned: a wrong engine answer fails the replay
        path = graph_file(BS23)
        power = Engine.power
        monkeypatch.setattr(Engine, "power", lambda self, g, k: power(self, g, k + 1))
        assert main(["paths", path, "--kind", "complete"]) == 3
        monkeypatch.setattr(Engine, "power", power)
        # the full path's relation t a^2 t^-1 = a^3 survives the wrong power
        monkeypatch.setattr(Engine, "element_of", lambda self, items: IDENTITY)
        assert main(["paths", path, "--kind", "nonmaximal"]) == 3
        assert capsys.readouterr().err.count("internal error: witness failed") == 2

    def test_nonmaximal_listing(self, graph_file, capsys):
        code, out = run(capsys, "paths", graph_file(TREFOIL), "--kind", "nonmaximal",
                        "--format", "json", "--no-timing")
        doc = json.loads(out)
        assert doc["count"] == 1
        entry = doc["paths"][0]
        assert entry["kind"] == "full"
        assert entry["arrows"] == [[0, "minus"], [0, "plus"]]


class TestConj:
    def test_trefoil_edge_relation_with_oracle(self, graph_file, capsys):
        code, out = run(capsys, "conj", graph_file(TREFOIL),
                        "--from", "0:a", "--to", "1:b", "--oracle-bounds", "3,4",
                        "--format", "json", "--no-timing")
        doc = json.loads(out)
        assert doc["answer"]["exists"] is True
        assert doc["answer"]["exponents"] == [2, 3]
        assert doc["oracle"]["agreement"] == "confirmed"

    def test_self_conjugacy_surfaces_non_level_relations(self, graph_file, capsys):
        code, out = run(capsys, "conj", graph_file(BS23),
                        "--from", "0:a", "--to", "0:a",
                        "--format", "json", "--no-timing")
        doc = json.loads(out)
        assert doc["answer"]["exponents"] == [1, 1]
        pairs = {tuple(r["exponents"]) for r in doc["additional_relations"]}
        assert (2, 3) in pairs and (3, 2) in pairs
        by_pair = {tuple(r["exponents"]): r for r in doc["additional_relations"]}
        assert by_pair[(2, 3)]["conjugator"] == "t_0"

    def test_open_search_runs_once(self, graph_file, capsys, monkeypatch):
        calls = []
        original = paths.iter_conjugacy_paths

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in (paths, verdicts, cli):
            if hasattr(module, "iter_conjugacy_paths"):
                monkeypatch.setattr(module, "iter_conjugacy_paths", counting)
        code, out = run(capsys, "conj", graph_file(BS23), "--from", "0:a", "--to", "0:a",
                        "--oracle-bounds", "2,3", "--no-timing")
        assert code == 0
        assert len(calls) == 1
        pairs = [r["exponents"] for r in json.loads(out)["additional_relations"]]
        assert pairs == [[2, 3], [3, 2]]

    def test_each_relation_chain_is_built_once(self, graph_file, capsys, built_chains):
        # the vertex chain with no steps, then one path per pair the search
        # yields; replaying and rendering them builds nothing more
        code, out = run(capsys, "conj", graph_file(BS23), "--from", "0:a", "--to", "0:a", "--no-timing")
        assert code == 0
        doc = json.loads(out)
        assert doc["answer"]["route"] == "same_vertex"
        relations = [doc["answer"]] + doc["additional_relations"]
        assert [list(c.witness_exponents) for c in built_chains] == [r["exponents"] for r in relations]
        assert [len(c.steps) for c in built_chains] == [0, 1, 1]

    def test_a_corrupted_additional_relation_exits_3(self, graph_file, capsys, monkeypatch):
        # the answer (1, 1) replays; the additional relation (2, 3), bumped to
        # (2, 4), does not, so "verified": true is earned by every relation
        path = graph_file(BS23)
        argv = ["conj", path, "--from", "0:a", "--to", "0:a", "--no-timing"]
        assert main(argv) == 0
        capsys.readouterr()
        exponents = paths._witness_exponents

        def bumped(transitions):
            m, n = exponents(transitions)
            return (m, n + 1) if (m, n) == (2, 3) else (m, n)

        monkeypatch.setattr(paths, "_witness_exponents", bumped)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("internal error: witness failed engine verification") == 1
        assert "path relation (2, 4)" in captured.err

    def test_refutation_with_oracle(self, graph_file, capsys):
        code, out = run(capsys, "conj", graph_file(FREE_AMALGAM),
                        "--from", "0:b", "--to", "1:y", "--oracle-bounds", "2,3,3",
                        "--format", "json", "--no-timing")
        doc = json.loads(out)
        assert code == 0
        assert doc["answer"]["exists"] is False
        assert doc["oracle"]["hit"] is None
        assert doc["oracle"]["agreement"] == "refuted within bounds"

    def test_an_oracle_hit_the_decider_refuted_exits_3(self, graph_file, capsys, monkeypatch):
        # a refuting decider on BS(2,3) with a ~ a: the bounded search finds a^1 ~ a^1
        refuted = verdicts.ConjugacyAnswer(False, None, (), None, None)
        monkeypatch.setattr(cli, "power_conjugate", lambda graph, x, y: refuted)
        assert main(["conj", graph_file(BS23), "--from", "0:a", "--to", "0:a",
                     "--oracle-bounds", "2,3", "--no-timing"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: bounded search found a conjugacy the decider refuted\n"

    def test_bad_specs_exit_2(self, graph_file, capsys):
        path = graph_file(TREFOIL)
        assert main(["conj", path, "--from", "a", "--to", "1:b"]) == 2
        assert main(["conj", path, "--from", "7:a", "--to", "1:b"]) == 2
        assert main(["conj", path, "--from", "0:zz", "--to", "1:b"]) == 2
        assert main(["conj", path, "--from", "0:a", "--to", "1:b",
                     "--oracle-bounds", "0,4"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("bounds", ["12,3", "2,1001", "x", "0,3"])
    def test_oracle_bounds_past_the_caps_exit_2_before_searching(
        self, graph_file, capsys, monkeypatch, bounds
    ):
        # words of up to 24 letters at a rank-2 vertex are about 5.6e11 atoms;
        # 1001 exponents ask for 2002 powers of y.  Refused bounds are refused
        # before any search, the solver's included.
        def never(*args, **kwargs):
            raise AssertionError("a search ran on refused bounds")

        monkeypatch.setattr(cli, "brute_force_power_conjugacy", never)
        monkeypatch.setattr(cli, "power_conjugate", never)
        path = graph_file("vertex 0 rank=2 gens=a,b\n")
        assert main(["conj", path, "--from", "0:a", "--to", "0:b", "--oracle-bounds", bounds]) == 2
        assert "--oracle-bounds" in capsys.readouterr().err

    def test_oracle_tries_no_more_syllables_than_letters(self, graph_file):
        # every atom costs a letter, so S = 10^18 with L = 1 searches what S = 1
        # does, in a child that must finish within 10 s; the report keeps S
        path = graph_file(loops2(1))
        oracles = []
        for syllables in (1, 10**18):
            child = run_capped(["-m", "gogz.cli", "conj", path, "--from", "0:a", "--to", "0:b",
                                "--oracle-bounds", f"{syllables},3,1", "--no-timing"], timeout=10)
            assert child.returncode == 0, child.stderr
            oracles.append(json.loads(child.stdout)["oracle"])
        assert [o["bounds"]["syllables"] for o in oracles] == [1, 10**18]
        assert [(o["hit"], o["agreement"]) for o in oracles] == [(None, "refuted within bounds")] * 2

    @pytest.mark.parametrize("text", [BS23, TREFOIL, FREE_AMALGAM])
    @pytest.mark.parametrize("letters", [1, 2, 3])
    def test_oracle_atom_count_is_the_pool_size(self, text, letters):
        graph = parse_graph(text)
        assert cli._oracle_atom_count(graph, letters) == len(_atom_pool(Engine(graph), letters))


class TestOracle:
    @pytest.mark.parametrize(
        "text,relation,expected",
        [
            (BS23, "t a^2 t^-1 = a^3", "true"),
            (BS23, "t_0 a^2 t_0^-1 = a^3", "true"),
            (BS23, "t a^2 t^-1 = a^4", "false"),
            (TREFOIL, "b a^2 b^-1 = a^2", "true"),
            (TREFOIL, "a b a^-1 = b", "false"),
            (BS23, "1 = a a^-1", "true"),
        ],
    )
    def test_relations(self, graph_file, capsys, text, relation, expected):
        code, out = run(capsys, "oracle", graph_file(text), "--relation", relation,
                        "--format", "text")
        assert code == 0
        assert out.splitlines()[-1] == expected

    def test_relation_errors_exit_2(self, graph_file, capsys):
        path = graph_file(TREFOIL)
        assert main(["oracle", path, "--relation", "a = b = a"]) == 2
        assert main(["oracle", path, "--relation", "zz = a"]) == 2
        assert main(["oracle", path, "--relation", "a^0 = a"]) == 2
        assert main(["oracle", path, "--relation", "t_9 a t_9^-1 = a"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("name, relation", [("t", "t a t^-1 = a^2"), ("t_0", "t_0 a t_0^-1 = a^2")])
    def test_a_generator_spelled_like_a_stable_letter_is_ambiguous(self, graph_file, capsys, name, relation):
        path = graph_file(f'vertex 0 rank=2 gens=a,{name}\nedge 0 0 0 minus="a" plus="a^2"\n')
        assert main(["oracle", path, "--relation", relation]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: left side: ambiguous token {name!r}: {name!r} is a generator of vertex 0"
            " and the spelling of a stable letter\n"
        )
        # the graph file keeps the name, and a relation without it is answered
        code, out = run(capsys, "oracle", path, "--relation", "a = a", "--format", "text")
        assert code == 0 and out.splitlines()[-1] == "true"

    def test_bare_t_needs_single_edge(self, graph_file, capsys):
        two_edges = BS23 + 'edge 1 0 0 minus="a^2" plus="a^2"\n'
        assert main(["oracle", graph_file(two_edges), "--relation", "t a t^-1 = a"]) == 2
        capsys.readouterr()


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/file.gog"]) == 2
        capsys.readouterr()

    def test_parse_error_reports_location(self, graph_file, capsys):
        path = graph_file('vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^2" plus="b^3"\n')
        code = main(["check", path])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err

    def test_word_past_the_length_cap_exits_2(self, graph_file, capsys):
        past = MAX_WORD_LETTERS + 1
        too_long = f'vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^{past}" plus="a"\n'
        assert main(["check", graph_file(too_long)]) == 2
        path = graph_file(BS23, name="bs23.gog")
        assert main(["conj", path, "--from", f"0:a^{past}", "--to", "0:a"]) == 2
        assert capsys.readouterr().err.count("longer than") == 2
        # a stable letter's exponent meets the relation's cap, not a word's
        assert main(["oracle", path, "--relation", f"t^{past} a = a"]) == 2
        assert capsys.readouterr().err == (
            f"error: left side: relation longer than {MAX_WORD_LETTERS} letters at token 't^{past}'\n"
        )

    def test_a_replay_past_the_syllable_limit_exits_2_before_building_it(self, graph_file, capsys):
        # wring-64's balance witness (1, 2^64) would replay (a0 b0)^(2^64), 2^65 syllables
        started = time.perf_counter()
        assert main(["check", graph_file(wring(64))]) == 2
        assert time.perf_counter() - started < 1
        assert capsys.readouterr().err == (
            f"error: replaying the non-level closed chain (1, {2**64}) would build a power of {2**65} "
            f"syllables, past the limit of {MAX_REPLAY_SYLLABLES} syllables\n"
        )

    def test_replays_within_the_syllable_limit_verify(self, graph_file, capsys):
        # wring-16 replays (a0 b0)^65536, 2^17 syllables; any power of
        # b0 a0 b0^-1 is three syllables, so a ring of those replays 2^64
        conjugated_ring = "".join(f"vertex {i} rank=2 gens=a{i},b{i}\n" for i in range(64)) + "".join(
            f'edge {i} {i} {(i + 1) % 64} minus="b{i} a{i} b{i}^-1" '
            f'plus="b{(i + 1) % 64} a{(i + 1) % 64}^2 b{(i + 1) % 64}^-1"\n'
            for i in range(64)
        )
        for text, exponents in ((wring(16), [1, 2**16]), (conjugated_ring, [1, 2**64])):
            code, out = run(capsys, "check", graph_file(text), "--no-timing")
            assert code == 0
            witness = json.loads(out)["witnesses"]["balance"]
            assert witness["relation"]["exponents"] == exponents and witness["verified"] is True

    def test_relation_past_the_length_cap_exits_2(self, graph_file, capsys):
        # every token is within the cap; the relation as a whole is not
        path = graph_file(BS23)
        assert main(["oracle", path, "--relation", "a^600000 a^600000 = a"]) == 2
        assert main(["oracle", path, "--relation", "a^600000 = a^600000"]) == 2
        assert main(["oracle", path, "--relation", "t^600000 a t^-600000 = a"]) == 2
        assert capsys.readouterr().err.count(f"relation longer than {MAX_WORD_LETTERS} letters") == 3
        half = MAX_WORD_LETTERS // 2
        code, out = run(capsys, "oracle", path, "--relation", f"a^{half} = a^{half}", "--format", "text")
        assert code == 0 and out.splitlines()[-1] == "true"

    def test_stable_letters_count_their_edge_crossings(self, graph_file, capsys):
        # on a ring of 300 vertices t_150 closes the spanning tree: each copy
        # crosses 300 edges, so 10^6 copies are refused before the engine
        # builds them, in a child capped at 512 MiB
        lines = [f"vertex {i} rank=1 gens=x_{i}" for i in range(300)]
        lines += [f'edge {i} {i} {(i + 1) % 300} minus="x_{i}^2" plus="x_{(i + 1) % 300}^3"' for i in range(300)]
        path = graph_file("\n".join(lines) + "\n")
        child = run_capped(["-m", "gogz.cli", "oracle", path, "--relation", "t_150^1000000 = 1"])
        assert child.returncode == 2, child.stderr
        refusal = f"relation longer than {MAX_WORD_LETTERS} letters at token 't_150^1000000'"
        assert child.stderr == f"error: left side: {refusal}\n"  # no traceback
        # a word at tree depth 150 costs its letter and 300 crossings
        assert main(["oracle", path, "--relation", " ".join(["x_150"] * 3323) + " = 1"]) == 2
        assert "relation longer than" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, where",
        [
            ("vertex -1 rank=1 gens=a\n", "line 1, col 8: expected a vertex id, got '-1'"),
            ("vertex \u0663 rank=1 gens=a\n", "line 1, col 8: expected a vertex id, got '\u0663'"),
            (
                'vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^1_0" plus="a"\n',
                "line 2, col 12: bad exponent in token 'a^1_0'",
            ),
            (
                'vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^+2" plus="a^3"\n',
                "line 2, col 12: bad exponent in token 'a^+2'",
            ),
            (
                'vertex 0 rank=1 gens=a\nedge 0 0 0 minus="a^" plus="a^2"\n',
                "line 2, col 12: bad exponent in token 'a^'",
            ),
        ],
        ids=["negative-id", "arabic-indic-digit", "underscore-exponent", "plus-exponent", "empty-exponent"],
    )
    def test_integers_outside_the_grammar_exit_2(self, graph_file, capsys, text, where):
        assert main(["check", graph_file(text)]) == 2
        assert capsys.readouterr().err == f"error: {where}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["conj", "--from", "\u0660:a", "--to", "0:a"],
            ["conj", "--from", "0:a", "--to", "0:a^1_0"],
            ["conj", "--from", "0:a^+2", "--to", "0:a^3"],
            ["conj", "--from", "0:a^2", "--to", "0:a^3", "--oracle-bounds", "2,+3"],
            ["oracle", "--relation", "t_\u0660 a^2 t_\u0660^-1 = a^3"],
            ["oracle", "--relation", "t_+0 a^2 t^-1 = a^3"],
            ["oracle", "--relation", "t a^+2 t^-1 = a^3"],
            ["conj", "--from", "0:a^", "--to", "0:a"],
            ["oracle", "--relation", "t a^ t^-1 = a^3"],
            ["oracle", "--relation", "t^ a t^-1 = a^2"],
        ],
        ids=[
            "from-digit",
            "to-underscore",
            "from-plus",
            "bounds-plus",
            "t-digit",
            "t-plus",
            "relation-plus",
            "from-empty",
            "relation-empty",
            "t-empty",
        ],
    )
    def test_command_line_integers_outside_the_grammar_exit_2(self, graph_file, capsys, argv):
        command, *rest = argv
        assert main([command, graph_file(BS23), *rest]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_wrong_root_exits_3(self, graph_file, capsys, monkeypatch):
        # a smallest period of one letter roots "a b" as a^2: the recompose check
        # must reach exit 3, with or without python -O
        two_edges = (
            "vertex 0 rank=2 gens=a,b\nvertex 1 rank=1 gens=x\n"
            'edge 0 0 1 minus="a b" plus="x"\nedge 1 0 1 minus="a" plus="x^2"\n'
        )
        monkeypatch.setattr(words, "_smallest_period", lambda core: core[:1])
        words._root_cached.cache_clear()
        try:
            assert main(["check", graph_file(two_edges)]) == 3
        finally:
            words._root_cached.cache_clear()
        err = capsys.readouterr().err
        assert err.startswith("internal error: ") and "Traceback" not in err

    def test_commuting_edge_root_evidence_exits_3(self, graph_file, capsys, monkeypatch):
        # with every end table word its own maximal root, a^2 and a^3 seem to
        # disagree; they commute, so the evidence refutes the claim
        monkeypatch.setattr(paths, "_root_cached", lambda word: ((), word, 1))
        assert main(["check", graph_file(BS23)]) == 3
        err = capsys.readouterr().err
        assert err == "internal error: edge roots at vertex 0 commute\n"

    def test_wrong_snormal_exponent_exits_3(self, graph_file, capsys, monkeypatch):
        # a^3 read by the acylindricity verdict with exponent 4: a^2 and "a^4"
        # agree on a^4, and a^3 does not.  Only _acyl reads the skewed table:
        # the chain witnesses were built and replayed before
        acyl = verdicts._acyl

        def skewed(graph, classes):
            classes.k_origin = [4 if w.syllables == ((1, 3),) else k for w, k in zip(classes.words, classes.k_origin)]
            return acyl(graph, classes)

        monkeypatch.setattr(verdicts, "_acyl", skewed)
        assert main(["check", graph_file(BS23)]) == 3
        err = capsys.readouterr().err
        assert err == "internal error: s-normal generator fails in vertex group 0\n"

    def test_wrong_central_exponent_exits_3(self, graph_file, capsys, monkeypatch):
        # the exponent ratio across the trefoil's tree edge, 3/2, read as 5/2:
        # the s-normal checks do not read it, the edge's own engine refutes it
        fold = verdicts._fold
        monkeypatch.setattr(verdicts, "_fold", lambda f, k_in, k_out: fold(f, k_in + 2 * (k_out == 1), k_out))
        assert main(["check", graph_file(TREFOIL)]) == 3
        err = capsys.readouterr().err
        assert err == (
            "internal error: witness failed engine verification: central witness is "
            "generator^2 at vertex 0 and generator^5 at vertex 1\n"
        )

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.gog"
        path.write_bytes(b"vertex 0 rank=1 gens=\xff\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "error: graph file is not UTF-8 text (byte 21)\n"
        # the byte is counted in the file, a byte-order mark included
        path.write_bytes(b"\xef\xbb\xbfvertex 0 rank=1 gens=\xff\n")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "error: graph file is not UTF-8 text (byte 24)\n"

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.gog", tmp_path / "marked.gog"
        plain.write_bytes(TREFOIL.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + TREFOIL.encode())
        docs = []
        for path in (plain, marked):
            code, out = run(capsys, "check", str(path), "--no-timing")
            assert code == 0
            docs.append(json.loads(out))
        assert docs[1]["input"]["sha256"] == hashlib.sha256(marked.read_bytes()).hexdigest()
        for doc in docs:
            del doc["input"]["path"], doc["input"]["sha256"]
        assert docs[0] == docs[1]


class TestSharedParser:
    """``main`` parses with one parser built at import, and calls share no state."""

    def test_main_builds_no_parser_per_call(self, graph_file, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("main built an argument parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        path = graph_file(TREFOIL)
        assert run(capsys, "check", path, "--no-timing")[0] == 0
        assert run(capsys, "conj", path, "--from", "0:a", "--to", "1:b", "--no-timing")[0] == 0

    def test_oracle_bounds_do_not_carry_over(self, graph_file, capsys):
        conj = ["conj", graph_file(TREFOIL), "--from", "0:a", "--to", "1:b", "--no-timing"]
        code, out = run(capsys, *conj, "--oracle-bounds", "2,3")
        assert code == 0 and "oracle" in json.loads(out)
        code, out = run(capsys, *conj)
        assert code == 0 and "oracle" not in json.loads(out)

    @pytest.mark.parametrize(
        "before, status, stream, message",
        [
            (["paths", "{path}", "--kind", "complete"], None, "out", '"command": "paths"'),
            (["paths", "{path}", "--kind", "bogus"], 2, "err", "invalid choice: 'bogus'"),
            (["--version"], 0, "out", f"gogz {__version__}"),
        ],
    )
    def test_a_call_leaves_the_next_report_unchanged(
        self, graph_file, capsys, before, status, stream, message
    ):
        path = graph_file(BS23)
        check = ["check", path, "--no-timing"]
        alone = subprocess.run([sys.executable, "-m", "gogz.cli", *check],
                               capture_output=True, text=True).stdout
        assert alone
        argv = [arg.format(path=path) for arg in before]
        assert main(argv) == (0 if status is None else status)
        assert message in getattr(capsys.readouterr(), stream)
        assert run(capsys, *check) == (0, alone)

    @pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
    def test_commands_leave_no_cycles_and_the_collector_as_found(self, tmp_path, monkeypatch, enabled):
        """``main`` runs a command with the cyclic collector off, which only
        saves time if the command leaves no reference cycles for it."""
        _write_suite(tmp_path)
        monkeypatch.chdir(tmp_path)
        gc.collect()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv in golden_argvs():
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    main(argv)
                assert gc.isenabled() is enabled, argv
            # a collection that ran between the calls may have found cycles already
            assert enabled or gc.collect() == 0
        finally:
            gc.enable()


class TestBrokenPipe:
    def test_closed_stdout_exits_141_without_traceback(self, graph_file):
        # 117,500 bytes of JSON: more than a pipe holds, so the write must fail
        path = graph_file(K(5))
        proc = subprocess.Popen(
            [sys.executable, "-m", "gogz.cli", "paths", path, "--kind", "complete", "--no-timing"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
        )
        assert proc.stdout.read(10) == b'{\n  "schem'
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
        assert err == b""  # no traceback, and no "Exception ignored" at exit

    def test_replaced_stdout_is_left_to_its_caller(self, graph_file, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError

        def refuse(*args):
            raise AssertionError("main redirected a file descriptor")

        path = graph_file(BS23)
        # a StringIO has no file descriptor: fileno() would raise
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", ClosedPipe())
            patch.setattr(cli.os, "dup2", refuse)
            assert main(["check", path, "--no-timing"]) == cli.EXIT_BROKEN_PIPE
