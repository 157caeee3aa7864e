import json
import subprocess
import sys

import pytest

from vasslab.driver import (
    PipelineCaps,
    cmd_reach,
    cmd_separate,
    dyck_words,
    main,
    oracle_bfs,
    oracle_pump_search,
    reach_decide,
)
from vasslab.errors import ArgumentError
from vasslab.model import (
    Edge,
    GenConfig,
    InitVass,
    Vass,
    dec_letter,
    dump_init_vass,
    dyck_alphabet,
    dyck_vas,
    inc_letter,
    is_dyck_word,
    language_bounded,
    nat_domain,
)
from vasslab.automata import run_word
from vasslab.values import OMEGA

from conftest import (
    dyck_copy_graph,
    subject_counter_gap,
    subject_dyck_a1,
    subject_even_a1,
)

A1, AB1 = inc_letter(1), dec_letter(1)


def plus_loop_iv(target):
    v = Vass(["q"], ("x",), ["c"], [Edge("q", "x", {"c": 1}, "q")])
    return InitVass(v, GenConfig("q", {"c": 0}), GenConfig("q", {"c": target}))


class TestOracles:
    def test_bfs_reaches(self):
        res = oracle_bfs(plus_loop_iv(3))
        assert res.status == "reachable" and res.word == ("x", "x", "x")

    def test_bfs_certified_unreachable(self):
        v = Vass(["q"], ("x",), ["c"], [Edge("q", "x", {"c": -1}, "q")])
        iv = InitVass(v, GenConfig("q", {"c": 1}), GenConfig("q", {"c": 2}))
        assert oracle_bfs(iv).status == "unreachable"

    def test_bfs_inconclusive_on_cap(self):
        res = oracle_bfs(plus_loop_iv(20), counter_cap=5, length_cap=5)
        assert res.status == "inconclusive"

    def test_omega_final_matches_freely(self):
        v = Vass(["q"], ("x",), ["c"], [Edge("q", "x", {"c": 1}, "q")])
        iv = InitVass(v, GenConfig("q", {"c": 0}), GenConfig("q", {"c": OMEGA}))
        assert oracle_bfs(iv).status == "reachable"

    def test_pump_search(self):
        found = oracle_pump_search(dyck_copy_graph())
        assert found.found and found.witness

    def test_dyck_words_small(self):
        ws = dyck_words(1, 4)
        assert set(ws) == {(), (A1, AB1), (A1, A1, AB1, AB1), (A1, AB1, A1, AB1)}


class TestReach:
    def test_plus_loop(self):
        verdict, hit = reach_decide(plus_loop_iv(3))
        assert verdict == "reachable"

    def test_unreachable(self):
        v = Vass(["q"], ("x",), ["c"], [Edge("q", "x", {"c": 2}, "q")])
        iv = InitVass(v, GenConfig("q", {"c": 0}), GenConfig("q", {"c": 3}))
        verdict, _ = reach_decide(iv)
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
            verdict, _ = reach_decide(iv)
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


class TestSeparatePipeline:
    def test_dyck_copy_inseparable(self):
        rep = cmd_separate(dyck_vas(1))
        assert rep.verdict == "inseparable"
        assert is_dyck_word(rep.witness, 1)
        d1 = dyck_vas(1)
        assert rep.witness in language_bounded(d1, max(4, len(rep.witness)),
                                               nat_domain(d1.vass),
                                               max_run_len=8, value_cap=8)

    def test_even_subject_separable(self):
        rep = cmd_separate(subject_even_a1())
        assert rep.verdict == "separable"
        sub = subject_even_a1()
        for w in language_bounded(sub, 10, nat_domain(sub.vass),
                                  max_run_len=22, value_cap=40):
            assert run_word(rep.separator, w)
        for w in dyck_words(1, 10):
            assert not run_word(rep.separator, w)

    def test_empty_language_separable(self):
        v = Vass(["p", "q"], dyck_alphabet(1), [], [Edge("p", A1, {}, "q")])
        sub = InitVass(v, GenConfig("q", {}), GenConfig("p", {}))  # final unreachable
        rep = cmd_separate(sub)
        assert rep.verdict == "separable"

    def test_counter_gap_separable_via_modulo_lift(self):
        sub = subject_counter_gap()
        rep = cmd_separate(sub)
        assert rep.verdict == "separable"
        for w in language_bounded(sub, 8, nat_domain(sub.vass),
                                  max_run_len=20, value_cap=40):
            assert run_word(rep.separator, w)
        for w in dyck_words(1, 8):
            assert not run_word(rep.separator, w)
        assert any(s.get("strategy", "").startswith("modulo")
                   for s in rep.stages if s["stage"] == "zsep")

    def test_non_dyck_alphabet_rejected(self):
        v = Vass(["q"], ("z",), [], [Edge("q", "z", {}, "q")])
        with pytest.raises(ArgumentError):
            cmd_separate(InitVass(v, GenConfig("q", {}), GenConfig("q", {})))

    def test_dyck_shifted_subject_never_answers_wrongly(self):
        # L = Dyck · a1 is disjoint from the Dyck language but approximates it;
        # the Z-separability ladder certifies it with modulo(2,1,y.1), and the
        # separator must cover L and miss the Dyck language up to the bound
        sub = subject_dyck_a1()
        rep = cmd_separate(sub, PipelineCaps(max_word_len=6))
        assert rep.verdict == "separable"
        assert {"stage": "zsep", "result": "separable",
                "strategy": "modulo(2,1,y.1)"} in rep.stages
        for w in language_bounded(sub, 6, nat_domain(sub.vass),
                                  max_run_len=16, value_cap=40):
            assert run_word(rep.separator, w)
        for w in dyck_words(1, 6):
            assert not run_word(rep.separator, w)

    def test_omega_initial_subject(self):
        # ω in the subject's initial valuation: the BFS stage steps aside and
        # the decomposition decides; a1* from an arbitrarily seeded counter
        # still intersects the Dyck language at ε
        v = Vass(["q"], dyck_alphabet(1), ["k"], [Edge("q", A1, {"k": -1}, "q")])
        sub = InitVass(v, GenConfig("q", {"k": OMEGA}), GenConfig("q", {"k": 0}))
        rep = cmd_separate(sub)
        assert rep.verdict == "inseparable"
        assert rep.witness == ()

    def test_refine_step_cap_surfaces(self):
        from vasslab.decomposition import DecideCaps, decompose
        from vasslab.errors import ResourceExhausted
        from vasslab.mgts import initial_dmgts as idm

        v = Vass(["p", "q"], dyck_alphabet(1), [],
                 [Edge("p", A1, {}, "q"), Edge("q", A1, {}, "p")])
        dm = idm(InitVass(v, GenConfig("p", {}), GenConfig("p", {})))
        with pytest.raises(ResourceExhausted) as err:
            decompose(dm, DecideCaps(refine_steps=0))
        assert err.value.partial is not None


class TestCli:
    def run_cli(self, *args):
        out = subprocess.run(
            [sys.executable, "-m", "vasslab", *args],
            capture_output=True, text=True,
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
    ])
    def test_malformed_input_exit_2(self, tmp_path, capsys, args, word):
        docs = {key: json.loads(dump_init_vass(subject_even_a1()))
                for key in ("no_update", "text_update", "object_node", "array_counter",
                            "object_label", "array_letter")}
        del docs["no_update"]["edges"][0]["update"]
        docs["text_update"]["edges"][0]["update"] = {"k": "x"}
        docs["object_node"]["nodes"].append({"q": 1})
        docs["array_counter"]["counters"].append(["k"])
        docs["object_label"]["edges"][0]["label"] = {"a1": 1}
        docs["array_letter"]["alphabet"].append(["a1"])
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
        from vasslab.mgts import dump_dmgts, initial_dmgts

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
