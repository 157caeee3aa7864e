import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from vasslab.driver import (
    PipelineCaps,
    PipelineReport,
    cmd_reach,
    cmd_separate,
    dyck_words,
    main,
    oracle_bfs,
    reach_decide,
)
from vasslab.errors import ArgumentError, InvariantViolation
from vasslab.mgts import (
    PATH_CAP,
    Dmgts,
    dmgts_to_json,
    fold_to_mgts_list,
    initial_dmgts,
    initial_parts,
)
from vasslab.model import (
    EPSILON,
    Edge,
    GenConfig,
    InitVass,
    Run,
    Vass,
    dec_letter,
    dyck_alphabet,
    dyck_vas,
    inc_letter,
    init_vass_to_json,
    language_bounded,
)
from vasslab import semilinear
from vasslab.automata import first_mistake, run_word
from vasslab.values import OMEGA

from audits import is_dyck_word
from pump_search_oracle import oracle_pump_search
from conftest import (
    dyck_copy_graph,
    subject_counter_gap,
    subject_dyck_a1,
    subject_even_a1,
    subject_starts_with_abar1,
    subject_unbounded_dips,
)

A1, AB1 = inc_letter(1), dec_letter(1)


def dump_init_vass(iv: InitVass) -> str:
    return json.dumps(init_vass_to_json(iv), sort_keys=True, indent=2)


def dump_dmgts(d: Dmgts) -> str:
    return json.dumps(dmgts_to_json(d), sort_keys=True, indent=2)


# the cap flags each verb takes: the PipelineCaps fields it reads
_DECOMPOSE_CAP_FLAGS = ["--ilp-nodes", "--observer-states", "--variants"]
_CAP_FLAGS = {
    "separate": ["--" + f.name.replace("_", "-") for f in fields(PipelineCaps)],
    "reach": ["--max-run-len", "--counter-cap"] + _DECOMPOSE_CAP_FLAGS,
    "decompose": _DECOMPOSE_CAP_FLAGS,
}


def plus_loop_iv(target):
    v = Vass(["q"], ("x",), ["c"], [Edge("q", "x", {"c": 1}, "q")])
    return InitVass(v, GenConfig("q", {"c": 0}), GenConfig("q", {"c": target}))


def alternating_chain(k):
    """Nodes p0 … p(k−1); for each i < k−1 an edge p_i → p(i+1) and a
    self-loop at p(i+1), both reading a1 (+1) for even i and ā1 (−1) for odd
    i, from c = 0 to c = 1: every word has effect 1, so modulo 2 separates it
    from the Dyck language."""
    nodes = [f"p{i}" for i in range(k)]
    edges = []
    for i in range(k - 1):
        label, d = (A1, 1) if i % 2 == 0 else (AB1, -1)
        edges += [Edge(nodes[i], label, {"c": d}, nodes[i + 1]),
                  Edge(nodes[i + 1], label, {"c": d}, nodes[i + 1])]
    return InitVass(Vass(nodes, dyck_alphabet(1), ["c"], edges),
                    GenConfig(nodes[0], {"c": 0}), GenConfig(nodes[-1], {"c": 1}))


def diamonds(d):
    """d diamonds in series over Σ_1: 2^d simple paths from n0 to n(d)."""
    edges = []
    for i in range(d):
        for side in ("u", "v"):
            edges += [Edge(f"n{i}", A1, {}, f"{side}{i}"),
                      Edge(f"{side}{i}", AB1, {}, f"n{i + 1}")]
    nodes = {e.src for e in edges} | {e.dst for e in edges}
    return InitVass(Vass(nodes, dyck_alphabet(1), [], edges),
                    GenConfig("n0", {}), GenConfig(f"n{d}", {}))


class TestOracles:
    CAPS = PipelineCaps()

    def test_bfs_reaches(self):
        res = oracle_bfs(plus_loop_iv(3), self.CAPS.counter_cap, self.CAPS.max_run_len)
        assert res.status == "reachable" and res.word == ("x", "x", "x")

    def test_bfs_certified_unreachable(self):
        v = Vass(["q"], ("x",), ["c"], [Edge("q", "x", {"c": -1}, "q")])
        iv = InitVass(v, GenConfig("q", {"c": 1}), GenConfig("q", {"c": 2}))
        assert oracle_bfs(iv, self.CAPS.counter_cap, self.CAPS.max_run_len).status == "unreachable"

    def test_bfs_inconclusive_on_cap(self):
        res = oracle_bfs(plus_loop_iv(20), counter_cap=5, length_cap=5)
        assert res.status == "inconclusive"

    def test_omega_final_matches_freely(self):
        v = Vass(["q"], ("x",), ["c"], [Edge("q", "x", {"c": 1}, "q")])
        iv = InitVass(v, GenConfig("q", {"c": 0}), GenConfig("q", {"c": OMEGA}))
        assert oracle_bfs(iv, self.CAPS.counter_cap, self.CAPS.max_run_len).status == "reachable"

    def test_pump_search(self):
        found = oracle_pump_search(dyck_copy_graph())
        assert found.found and found.witness

    def test_dyck_words_small(self):
        ws = dyck_words(1, 4)
        assert set(ws) == {(), (A1, AB1), (A1, A1, AB1, AB1), (A1, AB1, A1, AB1)}


class TestReach:
    def test_plus_loop(self):
        verdict, hit = reach_decide(fold_to_mgts_list(plus_loop_iv(3)))
        assert verdict == "reachable"

    def test_unreachable(self):
        v = Vass(["q"], ("x",), ["c"], [Edge("q", "x", {"c": 2}, "q")])
        iv = InitVass(v, GenConfig("q", {"c": 0}), GenConfig("q", {"c": 3}))
        verdict, _ = reach_decide(fold_to_mgts_list(iv))
        assert verdict == "unreachable"

    def test_agreement_with_bfs(self, rng):
        agreements = 0
        for _ in range(15):
            nodes = [f"n{i}" for i in range(rng.randint(1, 2))]
            counters = ["c"]
            edges = [
                Edge(rng.choice(nodes), "x", {"c": rng.randint(-1, 1)}, rng.choice(nodes))
                for _ in range(rng.randint(1, 3))
            ]
            iv = InitVass(
                Vass(nodes, ("x",), counters, edges),
                GenConfig(rng.choice(nodes), {"c": rng.randint(0, 1)}),
                GenConfig(rng.choice(nodes), {"c": rng.randint(0, 2)}),
            )
            bfs = oracle_bfs(iv, counter_cap=20, length_cap=10)
            verdict, _ = reach_decide(fold_to_mgts_list(iv))
            if bfs.status == "reachable":
                assert verdict == "reachable"
                agreements += 1
            elif bfs.status == "unreachable":
                assert verdict == "unreachable"
                agreements += 1
        assert agreements > 5

    def test_cmd_reach_output(self):
        out = cmd_reach(plus_loop_iv(2))
        assert out["verdict"] == "reachable"

    def test_engines_disagreeing_is_an_invariant_violation(self, monkeypatch):
        # a BFS word planted on a VASS whose decomposition proves c = 3
        # unreachable from 0 in steps of 2
        import vasslab.driver as driver

        v = Vass(["q"], ("x",), ["c"], [Edge("q", "x", {"c": 2}, "q")])
        iv = InitVass(v, GenConfig("q", {"c": 0}), GenConfig("q", {"c": 3}))
        assert reach_decide(fold_to_mgts_list(iv))[0] == "unreachable"
        monkeypatch.setattr(driver, "_bfs_or_inconclusive",
                            lambda iv, caps: driver.BfsResult("reachable", ("x",)))
        with pytest.raises(InvariantViolation, match="engines disagree"):
            cmd_reach(iv)


class TestSeparatePipeline:
    def test_dyck_copy_inseparable(self):
        rep = cmd_separate(dyck_vas(1))
        assert rep.verdict == "inseparable"
        assert is_dyck_word(rep.witness, 1)
        d1 = dyck_vas(1)
        assert rep.witness in language_bounded(d1, max(4, len(rep.witness)),
                                               max_run_len=8, value_cap=8)

    def test_even_subject_separable(self):
        rep = cmd_separate(subject_even_a1())
        assert rep.verdict == "separable"
        sub = subject_even_a1()
        for w in language_bounded(sub, 10, max_run_len=22, value_cap=40):
            assert run_word(rep.separator, w)
        for w in dyck_words(1, 10):
            assert not run_word(rep.separator, w)

    def test_intersection_stage_is_one_reach_decide_over_the_parts(self, monkeypatch):
        import vasslab.driver as driver

        calls = []
        real = driver.reach_decide

        def spy(mgts_list, caps):
            calls.append(mgts_list)
            return real(mgts_list, caps)

        monkeypatch.setattr(driver, "reach_decide", spy)
        sub = subject_even_a1()
        assert cmd_separate(sub).verdict == "separable"
        as_json = lambda mgts_list: [init_vass_to_json(m.combined()[0]) for m in mgts_list]
        parts = as_json([p.mgts for p in initial_parts(sub)])
        assert parts and [as_json(c) for c in calls] == [parts]

    def test_empty_language_separable(self):
        v = Vass(["p", "q"], dyck_alphabet(1), [], [Edge("p", A1, {}, "q")])
        sub = InitVass(v, GenConfig("q", {}), GenConfig("p", {}))  # final unreachable
        rep = cmd_separate(sub)
        assert rep.verdict == "separable"

    def test_counter_gap_separable_via_modulo_lift(self):
        sub = subject_counter_gap()
        rep = cmd_separate(sub)
        assert rep.verdict == "separable"
        for w in language_bounded(sub, 8, max_run_len=20, value_cap=40):
            assert run_word(rep.separator, w)
        for w in dyck_words(1, 8):
            assert not run_word(rep.separator, w)
        assert any(s.get("strategy", "").startswith("modulo")
                   for s in rep.stages if s["stage"] == "zsep")

    def test_modulo_decided_members_separate_odd_powers(self):
        # p −ε, k+1→ p, p −a1→ q, q −a1→ p from (p, 0) to (q, 1): the odd
        # powers of a1. Its one SCC path p → q gives one part, which the
        # decomposition decides at once (a1^odd leaves y.1 odd, never 0) and
        # keeps none perfect, so the separator is its modulo automaton alone
        v = Vass(["p", "q"], dyck_alphabet(1), ["k"],
                 [Edge("p", EPSILON, {"k": 1}, "p"), Edge("p", A1, {"k": 0}, "q"),
                  Edge("q", A1, {"k": 0}, "p")])
        sub = InitVass(v, GenConfig("p", {"k": 0}), GenConfig("q", {"k": 1}))
        from vasslab.decomposition import decompose

        [part] = initial_parts(sub)
        res = decompose(part)
        assert not res.perfect
        assert [d.certificate for d in res.decided] == ["y-infeasible"]
        rep = cmd_separate(sub, PipelineCaps(max_word_len=10))
        assert rep.verdict == "separable"
        assert rep.stages[1:] == [
            {"stage": "decompose", "part": 0, "perfect": 0, "decided": 1},
            {"stage": "verify", "result": "ok", "len": 10}]
        words = language_bounded(sub, 12, max_run_len=30, value_cap=40)
        assert sorted(words) == [(A1,) * m for m in (1, 3, 5, 7, 9, 11)]
        assert first_mistake(rep.separator, sorted(words), dyck_words(1, 12)) is None

    def test_modulo_nonzero_members_separate_odd_powers(self):
        # the same odd powers of a1 on one node, with a token counter per node
        # of the two-node subject above; the decomposition decides every
        # member by a non-zero residue modulo 2, so the separator is the union
        # of the decided members' residue automata alone
        v = Vass(["q"], dyck_alphabet(1), ["k", "p", "s"],
                 [Edge("q", EPSILON, {"k": 1, "p": 0, "s": 0}, "q"),
                  Edge("q", A1, {"k": 0, "p": -1, "s": 1}, "q"),
                  Edge("q", A1, {"k": 0, "p": 1, "s": -1}, "q")])
        sub = InitVass(v, GenConfig("q", {"k": 0, "p": 1, "s": 0}),
                       GenConfig("q", {"k": 1, "p": 0, "s": 1}))
        from vasslab.decomposition import decompose

        res = decompose(initial_dmgts(sub))
        assert not res.perfect
        assert [d.certificate for d in res.decided] == ["modulo-nonzero"] * 4
        rep = cmd_separate(sub, PipelineCaps(max_word_len=10))
        assert rep.verdict == "separable"
        assert rep.stages[1:] == [
            {"stage": "decompose", "part": 0, "perfect": 0, "decided": 4},
            {"stage": "verify", "result": "ok", "len": 10}]
        words = language_bounded(sub, 12, max_run_len=30, value_cap=40)
        assert sorted(words) == [(A1,) * m for m in (1, 3, 5, 7, 9, 11)]
        assert first_mistake(rep.separator, sorted(words), dyck_words(1, 12)) is None

    def test_non_dyck_alphabet_rejected(self):
        v = Vass(["q"], ("z",), [], [Edge("q", "z", {}, "q")])
        with pytest.raises(ArgumentError):
            cmd_separate(InitVass(v, GenConfig("q", {}), GenConfig("q", {})))

    def test_dyck_shifted_subject_never_answers_wrongly(self):
        # L = Dyck · a1 is disjoint from the Dyck language but approximates it;
        # the decomposition decides its one part, and the separator must cover
        # L and miss the Dyck language up to the bound
        sub = subject_dyck_a1()
        rep = cmd_separate(sub, PipelineCaps(max_word_len=6))
        assert rep.verdict == "separable"
        for w in language_bounded(sub, 6, max_run_len=16, value_cap=40):
            assert run_word(rep.separator, w)
        for w in dyck_words(1, 6):
            assert not run_word(rep.separator, w)

    def test_self_loops_at_a_middle_node_separable(self):
        # the VAS fold fired the loops of q at every node and answered
        # inseparable with a1 ā1 a1 ā1, a word the subject does not read
        sub = subject_starts_with_abar1()
        rep = cmd_separate(sub)
        assert rep.verdict == "separable"
        words = language_bounded(sub, 8, max_run_len=16, value_cap=8)
        assert words
        for w in words:
            assert run_word(rep.separator, w)
        for w in dyck_words(1, 8):
            assert not run_word(rep.separator, w)

    def test_alternating_chain_separable(self):
        sub = alternating_chain(6)
        rep = cmd_separate(sub, PipelineCaps(max_word_len=8))
        assert rep.verdict == "separable"
        assert [s["part"] for s in rep.stages if s["stage"] == "decompose"] == [0]
        for w in language_bounded(sub, 8, max_run_len=16, value_cap=16):
            assert run_word(rep.separator, w)
        for w in dyck_words(1, 8):
            assert not run_word(rep.separator, w)

    def test_bfs_witness_outside_the_subject_raises(self, monkeypatch):
        # a Dyck word that the subject does not read, planted as the BFS word
        import vasslab.driver as driver

        monkeypatch.setattr(driver, "_bfs_or_inconclusive",
                            lambda iv, caps: driver.BfsResult("reachable", (A1, AB1, A1, AB1)))
        with pytest.raises(InvariantViolation, match="not a word of the subject"):
            cmd_separate(subject_starts_with_abar1())

    def test_pumped_witness_outside_the_dyck_language_raises(self, monkeypatch):
        # a1* from an ω-seeded counter to 0: the decomposition's witness is
        # planted as one a1 loop from k = 1, a subject word that is not a
        # Dyck word
        import vasslab.driver as driver

        v = Vass(["q"], dyck_alphabet(1), ["k"], [Edge("q", A1, {"k": -1}, "q")])
        sub = InitVass(v, GenConfig("q", {"k": OMEGA}), GenConfig("q", {"k": 0}))
        member = initial_dmgts(sub)
        assert member.mgts.combined()[0].vass.edges[0].label == A1
        monkeypatch.setattr(driver, "reach_decide",
                            lambda mgts_list, caps: ("reachable", (member, None)))
        monkeypatch.setattr(driver, "lambert_pump", lambda member, sol, k_cap: Run(
            GenConfig("r", {"x.k": 1, "y.1": 0}), (0,)))
        with pytest.raises(InvariantViolation, match="not a word of the Dyck language"):
            cmd_separate(sub)

    def test_unbounded_dips_never_separable(self):
        # the drift rung must not certify a1^n ā1^m (m > n) along (-1): its
        # separator would miss long subject words beyond the bounded checks
        from vasslab.errors import ResourceExhausted

        try:
            rep = cmd_separate(subject_unbounded_dips())
        except ResourceExhausted:
            return
        assert rep.verdict in ("inseparable", "unknown")

    def test_omega_initial_subject(self):
        # ω in the subject's initial valuation: the BFS stage steps aside and
        # the decomposition decides; a1* from an arbitrarily seeded counter
        # still intersects the Dyck language at ε
        v = Vass(["q"], dyck_alphabet(1), ["k"], [Edge("q", A1, {"k": -1}, "q")])
        sub = InitVass(v, GenConfig("q", {"k": OMEGA}), GenConfig("q", {"k": 0}))
        rep = cmd_separate(sub)
        assert rep.verdict == "inseparable"
        assert rep.witness == ()

    def test_coverage_check_sees_words_above_counter_cap(self, monkeypatch):
        # the initial value 50 exceeds --counter-cap 40: the bounded coverage
        # check must still walk subject words, not pass on an empty set
        import vasslab.driver as driver

        v = Vass(["q"], dyck_alphabet(1), ["k"],
                 [Edge("q", A1, {"k": 1}, "q"), Edge("q", AB1, {"k": -1}, "q")])
        sub = InitVass(v, GenConfig("q", {"k": 50}), GenConfig("q", {"k": 48}))
        walked = []

        def spy(iv, *args, **kwargs):
            words = language_bounded(iv, *args, **kwargs)
            if iv is sub:
                walked.append(words)
            return words

        monkeypatch.setattr(driver, "language_bounded", spy)
        rep = cmd_separate(sub)
        assert rep.verdict == "separable"
        assert walked and walked[0]
        assert all(run_word(rep.separator, w) for w in walked[0])

    def test_coverage_failure_word_independent_of_hash_seed(self):
        # the verify stage checks the subject's words in `dyck_words` order; in
        # set order the failing word depended on PYTHONHASHSEED
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(semilinear.__file__)))
        script = "\n".join([
            "import json, sys",
            f"sys.path[:0] = [{tests!r}, {src!r}]",
            "import vasslab.driver as driver",
            "from vasslab.automata import empty_nfa",
            "from conftest import subject_even_a1",
            "driver.union = lambda nfas, alphabet=None: empty_nfa(alphabet)",
            "print(json.dumps(driver.cmd_separate(subject_even_a1()).stages[-1]))",
        ])
        seen = set()
        for seed in range(1, 7):
            out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                 env=dict(os.environ, PYTHONHASHSEED=str(seed)))
            assert out.returncode == 0, out.stderr
            seen.add(out.stdout)
        assert [json.loads(line) for line in seen] == [
            {"stage": "verify", "result": "coverage-failed", "word": [A1, A1]}]

    def test_refine_step_cap_surfaces(self, monkeypatch):
        from vasslab import decomposition
        from vasslab.errors import ResourceExhausted
        from vasslab.mgts import initial_dmgts as idm

        v = Vass(["p", "q"], dyck_alphabet(1), [],
                 [Edge("p", A1, {}, "q"), Edge("q", A1, {}, "p")])
        dm = idm(InitVass(v, GenConfig("p", {}), GenConfig("p", {})))
        monkeypatch.setattr(decomposition, "REFINE_STEPS", 0)
        with pytest.raises(ResourceExhausted) as err:
            decomposition.decompose(dm)
        assert err.value.partial is not None


class TestCli:
    def run_cli(self, *args):
        # the child imports vasslab from this checkout's src/, whether or not
        # the parent found it through PYTHONPATH or the pytest configuration
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-m", "vasslab", *args],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert "RuntimeWarning" not in out.stderr
        return out

    def test_separate_roundtrip(self, tmp_path):
        path = tmp_path / "subject.json"
        path.write_text(dump_init_vass(subject_even_a1()))
        out = self.run_cli("separate", "--file", str(path))
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["verdict"] == "separable"
        assert doc["separator"]["transitions"]
        assert doc["caps"] == {"max_word_len": 10, "max_run_len": 12, "counter_cap": 40,
                               "ilp_nodes": 100_000, "observer_states": 100_000,
                               "variants": 10_000, "pump_k": 64}

    def test_separate_self_loop_subject(self, tmp_path):
        path = tmp_path / "subject.json"
        path.write_text(dump_init_vass(subject_starts_with_abar1()))
        out = self.run_cli("separate", "--file", str(path))
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["verdict"] == "separable"

    def test_separate_path_cap_exit_3(self, tmp_path):
        # 2^11 = 2048 simple paths, more than the unfolding keeps
        path = tmp_path / "subject.json"
        path.write_text(dump_init_vass(diamonds(11)))
        out = self.run_cli("separate", "--file", str(path))
        assert out.returncode == 3
        assert out.stdout == ""
        assert out.stderr == f"resource-exhausted: simple path cap {PATH_CAP} exceeded\n"

    def test_bad_json_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        out = self.run_cli("separate", "--file", str(path))
        assert out.returncode == 2
        assert "line" in out.stderr

    def test_subject_without_counters_exit_2(self, tmp_path, capsys):
        doc = json.loads(dump_init_vass(subject_even_a1()))
        del doc["counters"]
        path = tmp_path / "subject.json"
        path.write_text(json.dumps(doc))
        assert main(["separate", "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert "counters" in err and "Traceback" not in err

    def test_subject_json_array_exit_2(self, tmp_path, capsys):
        path = tmp_path / "subject.json"
        path.write_text("[]")
        assert main(["separate", "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert "object" in err and "Traceback" not in err

    @pytest.mark.parametrize("args, word", [
        (["decompose", "--file", "{array}"], "object"),
        (["separate", "--file", "{no_update}"], "update"),
        (["separate", "--file", "{text_update}"], "'x'"),
        (["approx", "--base", "0", "--periods", "x", "--k", "1"], "--periods"),
        (["separate", "--file", "{object_node}"], "node"),
        (["separate", "--file", "{array_counter}"], "counter"),
        (["separate", "--file", "{object_label}"], "label"),
        (["separate", "--file", "{array_letter}"], "letter"),
        (["basicsep", "--family", "cov", "--k", "1", "--i", "3", "--n", "1"], "1 <= i <= n"),
        (["basicsep", "--family", "cov", "--k", "1", "--i", "1", "--n", "0"], "1 <= i <= n"),
        (["basicsep", "--family", "cov", "--k", "1", "--i", "0", "--n", "1"], "1 <= i <= n"),
        (["basicsep", "--family", "mod", "--mu", "2", "--v", "1", "--n", "0"], "len(v)"),
        (["separate", "--file", "{foreign_letter}"], "Dyck alphabet"),
        (["decompose", "--file", "{incoherent}"], "DMGTS graph 0 is not a precovering graph"),
        (["decompose", "--file", "{unassigned}"], "assignment is not total over nodes"),
    ])
    def test_malformed_input_exit_2(self, tmp_path, capsys, args, word):
        docs = {key: json.loads(dump_init_vass(subject_even_a1()))
                for key in ("no_update", "text_update", "object_node", "array_counter",
                            "object_label", "array_letter", "foreign_letter")}
        del docs["no_update"]["edges"][0]["update"]
        docs["text_update"]["edges"][0]["update"] = {"k": "x"}
        docs["object_node"]["nodes"].append({"q": 1})
        docs["array_counter"]["counters"].append(["k"])
        docs["object_label"]["edges"][0]["label"] = {"a1": 1}
        docs["array_letter"]["alphabet"].append(["a1"])
        docs["foreign_letter"]["alphabet"].append("b")
        # the Dyck VAS's one-node graph: its a1 loop against a zero assignment,
        # and both loops with no assignment at all
        docs["incoherent"] = json.loads(dump_dmgts(initial_dmgts(dyck_vas(1))))
        graph = docs["incoherent"]["graphs"][0]
        del graph["base"]["edges"][1:]
        graph["assignment"] = {"r": {c: 0 for c in graph["base"]["counters"]}}
        docs["unassigned"] = json.loads(dump_dmgts(initial_dmgts(dyck_vas(1))))
        docs["unassigned"]["graphs"][0]["assignment"] = {}
        docs["array"] = []
        files = {}
        for key, doc in docs.items():
            files[key] = tmp_path / f"{key}.json"
            files[key].write_text(json.dumps(doc))
        assert main([a.format(**files) for a in args]) == 2
        err = capsys.readouterr().err
        assert word in err and "Traceback" not in err and len(err.splitlines()) == 1

    def test_basicsep_mu_zero_exit_2(self, capsys):
        assert main(["basicsep", "--family", "mod", "--mu", "0"]) == 2
        err = capsys.readouterr().err
        assert "mu" in err and "Traceback" not in err

    @pytest.mark.parametrize("cap", [f.name for f in fields(PipelineCaps)])
    def test_negative_cap_exit_2(self, tmp_path, capsys, cap):
        path = tmp_path / "subject.json"
        path.write_text(dump_init_vass(subject_even_a1()))
        flag = "--" + cap.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(["separate", "--file", str(path), flag, "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and ">= 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("verb, flags", list(_CAP_FLAGS.items()))
    def test_each_verb_takes_the_caps_it_reads(self, capsys, verb, flags):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        shown = {word.strip("[],") for word in capsys.readouterr().out.split()}
        assert {f for f in _CAP_FLAGS["separate"] if f in shown} == set(flags)

    @pytest.mark.parametrize("args", [
        ["reach", "--pump-k", "1"],
        ["reach", "--max-word-len", "1"],
        ["decompose", "--counter-cap", "1"],
    ])
    def test_cap_a_verb_does_not_read_exit_2(self, tmp_path, capsys, args):
        path = tmp_path / "input.json"
        path.write_text(dump_init_vass(subject_even_a1()))
        with pytest.raises(SystemExit) as exc:
            main([args[0], "--file", str(path)] + args[1:])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert args[1] in err and "Traceback" not in err

    def test_separate_takes_every_cap(self, tmp_path, capsys):
        path = tmp_path / "subject.json"
        path.write_text(dump_init_vass(subject_even_a1()))
        caps = [arg for flag in _CAP_FLAGS["separate"] for arg in (flag, "1")]
        assert main(["separate", "--file", str(path)] + caps) in (0, 3)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--trace-out", "--dot"])
    def test_decompose_unwritable_output_exit_2(self, tmp_path, capsys, flag):
        # the Dyck VAS's initial DMGTS is perfect, so --dot has a member to write
        path = tmp_path / "dm.json"
        path.write_text(dump_dmgts(initial_dmgts(dyck_vas(1))))
        target = str(tmp_path / "missing" / "out.txt")
        assert main(["decompose", "--file", str(path), flag, target]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and target in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("args", [
        ["basicsep", "--family", "drift", "--v", "1", "--k", "-1"],
        ["basicsep", "--family", "cov", "--k", "-3", "--i", "1", "--n", "1"],
        ["approx", "--base", "0", "--k", "-1"],
    ])
    def test_negative_k_exit_2(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--k" in err and ">= 0" in err and "Traceback" not in err

    def test_move_word_zero_builds_no_factors(self, capsys):
        # m_0 = a1 whatever ℓ; the factors of ℓ = 20 would have 21! letters each
        assert main(["counterexample", "--ell", "20", "--i", "0"]) == 0
        assert capsys.readouterr().out.split() == [A1]

    def test_counterexample_length_cap_exit_3(self, capsys):
        # |m_200| = 200! + 400 * 2 letters: refused before any letter is built
        assert main(["counterexample", "--ell", "1", "--i", "200"]) == 3
        err = capsys.readouterr().err
        assert "cap" in err and "Traceback" not in err and len(err.splitlines()) == 1

    def test_counterexample_exact_length_cap_exit_3(self, capsys):
        # |m_2| = 2! + 2 * 8 * 2² * 9! = 23,224,322 letters for ℓ = 8: printed exactly
        assert main(["counterexample", "--ell", "8", "--i", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource-exhausted:") and "23224322" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_counterexample_state_cap_exit_3(self, capsys):
        # ℓ = 100000 asks for ℓ² + 2ℓ + 2 = 10,000,200,002 states: refused unbuilt
        assert main(["counterexample", "--ell", "100000", "--member", A1]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource-exhausted:") and "10000200002" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["counterexample", "--ell", "1", "--i", "2000"],
        ["counterexample", "--ell", "1700", "--i", "1"],
        ["approx", "--base", ",".join(["0"] * 800), "--k", "1000000", "--member", A1],
        ["counterexample", "--ell", "9" * 2200, "--member", A1],
    ])
    def test_cap_on_a_count_of_thousands_of_digits_exit_3(self, capsys, argv):
        # 2000!, 1701!, 2000001^800 and ℓ² + 2ℓ + 2 for a 2,200-digit ℓ each have
        # more decimal digits than str() converts
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource-exhausted:") and "cap" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_approx_state_cap_exit_3(self, capsys, monkeypatch):
        # R(Λ, 100) in dimension 3 has 201³ = 8,120,601 states: refused before
        # the box is enumerated
        def enumerated(*args, **kwargs):
            raise AssertionError("the box of an approximation above the cap was enumerated")

        monkeypatch.setattr(semilinear, "product", enumerated)
        assert main(["approx", "--base", "0,0,0", "--k", "100", "--member", ""]) == 3
        err = capsys.readouterr().err
        assert err.startswith("resource-exhausted:") and "8120601" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_counterexample_words(self):
        out = self.run_cli("counterexample", "--ell", "2", "--i", "3")
        assert out.returncode == 0
        word = tuple(out.stdout.split())
        check = self.run_cli("counterexample", "--ell", "2", "--member", out.stdout.strip())
        assert json.loads(check.stdout)["member"] is True

    def test_approx_member(self):
        out = self.run_cli("approx", "--base", "0", "--periods", "2;-2",
                           "--k", "2", "--member", f"{A1} {A1}")
        assert json.loads(out.stdout)["member"] is True

    def test_basicsep_cli(self):
        out = self.run_cli("basicsep", "--family", "mod", "--mu", "2",
                           "--v", "1", "--n", "1", "--member", A1)
        assert json.loads(out.stdout)["member"] is True

    def test_trace_cli(self, tmp_path):
        from vasslab.mgts import initial_dmgts

        path = tmp_path / "dm.json"
        path.write_text(dump_dmgts(initial_dmgts(dyck_vas(1))))
        trace = tmp_path / "trace.jsonl"
        out = self.run_cli("decompose", "--file", str(path), "--trace-out", str(trace))
        assert out.returncode == 0
        lines = trace.read_text().strip().splitlines()
        assert [json.loads(line) for line in lines] == json.loads(out.stdout)["trace"]

    def test_reports_deterministic(self, tmp_path):
        path = tmp_path / "subject.json"
        path.write_text(dump_init_vass(subject_even_a1()))
        a = self.run_cli("separate", "--file", str(path)).stdout
        b = self.run_cli("separate", "--file", str(path)).stdout
        assert a == b


def test_report_z_pair_is_edge_index_json():
    pair = [((0, 1), (1, 0)), ((), (2,))]
    doc = PipelineReport(verdict="inseparable", z_pair=pair).to_json()
    assert doc["z_pair"] == [[[0, 1], [1, 0]], [[], [2]]]
    assert json.loads(json.dumps(doc))["z_pair"] == doc["z_pair"]


# -- fuzzing main() ------------------------------------------------------------------

_SMALL = st.integers(-4, 4).map(str)
_VECTOR = st.one_of(
    st.lists(st.integers(-4, 4), min_size=1, max_size=2).map(lambda v: ",".join(map(str, v))),
    st.text("0123456789-,; x", max_size=4),
)
_PERIODS = st.lists(_VECTOR, max_size=2).map(";".join)
_WORD = st.one_of(
    st.lists(st.sampled_from([A1, AB1, inc_letter(2), dec_letter(2), "b", ""]),
             max_size=4).map(" ".join),
    st.text("a1ā2 #", max_size=6),
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("pqka1ā", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("pqk", max_size=2), inner, max_size=3),
    max_leaves=6,
)


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def _mutated(draw, text):
    """The JSON document `text` with one value somewhere inside replaced by
    arbitrary JSON or deleted, or the whole file replaced by free text."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.text(max_size=12))
    doc = json.loads(text)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return json.dumps(draw(_JSON))
    if draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(_JSON)
    return json.dumps(doc)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["approx", "basicsep", "counterexample",
                                    "separate", "reach", "decompose"]))
    if command == "approx":
        return (["approx", "--base", draw(_VECTOR), "--k", draw(_SMALL)]
                + draw(_optional("--periods", _PERIODS)) + draw(_optional("--member", _WORD))
                + draw(st.sampled_from([[], ["--emit"]]))), None
    if command == "basicsep":
        # n = 4 with k = 4 and a member builds two 6,561-state approximations
        return (["basicsep", "--family", draw(st.sampled_from(["mod", "cov", "drift"])),
                 "--mu", draw(_SMALL), "--v", draw(_VECTOR), "--k", draw(_SMALL),
                 "--i", draw(_SMALL), "--n", str(draw(st.integers(-4, 3)))]
                + draw(_optional("--member", _WORD))), None
    if command == "counterexample":
        return (["counterexample", "--ell", str(draw(st.integers(1, 6)))]
                + draw(st.one_of(_optional("--i", _SMALL), _optional("--member", _WORD)))), None
    if command == "decompose":
        text = dump_dmgts(initial_dmgts(subject_even_a1()))
    else:
        text = dump_init_vass(subject_even_a1())
    # every cap at a small value, so that each run ends quickly
    caps = [arg for flag in _CAP_FLAGS[command] for arg in (flag, str(draw(st.integers(0, 4))))]
    return [command, "--file", "{file}"] + caps, draw(_mutated(text))


@given(_argv())
def test_main_fuzz_exits_with_a_documented_code(case):
    argv, document = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        if document is not None:
            with open(path, "w") as fh:
                fh.write(document)
        argv = [path if a == "{file}" else a for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 2, 3), (argv, document)
    assert "Traceback" not in err.getvalue()
