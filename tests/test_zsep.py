from vasslab.automata import Nfa, nfa_to_json, run_word
from vasslab.mgts import Dmgts, LanguageCaps, Mgts, Update, initial_dmgts, side_language_bounded
from vasslab.model import (
    Edge,
    GenConfig,
    InitVass,
    Vass,
    dec_letter,
    dyck_alphabet,
    dyck_vas,
    inc_letter,
    letter_index,
)
from vasslab.values import OMEGA
from vasslab import zsep
from vasslab.semilinear import desc_automaton, family_drift
from vasslab.separator import lift_separator
from vasslab.zsep import SepVerdict, _small_vectors, z_separability

from conftest import graph_loops

A1, AB1 = inc_letter(1), dec_letter(1)


def verify_separable(verdict: SepVerdict, dm, max_len=5):
    caps = LanguageCaps(max_run_len=10, value_cap=24)
    solx = side_language_bounded(dm, "x", max_len, "int", caps).words
    soly = side_language_bounded(dm, "y", max_len, "int", caps).words
    for w in solx:
        assert run_word(verdict.nfa, w)
    for w in soly:
        assert not run_word(verdict.nfa, w)


def test_y_infeasible_strategy():
    g1 = graph_loops([], ["y1"], {"y1": 0}, {"y1": 0},
                     assignment={"r1": {"y1": 0}}, alphabet=dyck_alphabet(1), root="r1")
    g2 = graph_loops([], ["y1"], {"y1": 0}, {"y1": 0},
                     assignment={"r2": {"y1": 0}}, alphabet=dyck_alphabet(1), root="r2")
    dm = Dmgts(Mgts([g1, g2], [Update(A1, {"y1": 1})]), 1, (), ("y1",), faithful=True)
    v = z_separability(dm)
    assert v.kind == "separable" and v.strategy == "y-infeasible"
    verify_separable(v, dm)


def test_x_infeasible_strategy():
    v1 = Vass(["q"], dyck_alphabet(1), ["c"], [Edge("q", "", {"c": 0}, "q")])
    sub = InitVass(v1, GenConfig("q", {"c": 0}), GenConfig("q", {"c": 1}))
    dm = initial_dmgts(sub)
    v = z_separability(dm)
    assert v.kind == "separable" and v.strategy == "x-infeasible"


def test_modulo_strategy():
    # X side realizes only odd visible counts, Y side only even ones: the
    # bridge carries a2... single counter version: in 0, out 1 on the X gate
    # with a ±2 loop. Build: X effects ≡ 1 mod 2 via a forced single a1 bridge.
    g1 = graph_loops([], ["y1"], {"y1": 0}, {"y1": OMEGA},
                     assignment={"r1": {"y1": OMEGA}}, alphabet=dyck_alphabet(1), root="r1")
    g2 = graph_loops([(A1, {"y1": 1}), (AB1, {"y1": -1})], ["y1"],
                     {"y1": OMEGA}, {"y1": 1}, root="r2")
    # Y-side: out|Y = 1 ≠ 0: not zero-reaching: instead craft via mu
    dm = Dmgts(Mgts([g1, g2], [Update(A1, {"y1": 1})]), 2, (), ("y1",), faithful=True)
    # Sol_X: words with a #a1 bridge and any balanced-mod-2 tail: total effect ≡ 1 mod 2?
    v = z_separability(dm)
    if v.kind == "separable":
        verify_separable(v, dm)
    # Sol_Y requires exact 0 -> 1: feasible; skip strict strategy assertion,
    # soundness of the verdict is what matters
    assert v.kind in ("separable", "inseparable", "unknown")


def test_modulo_strategy_clean():
    # X effects ≡ 1 mod 2 (out gate mod 2 = 1 with ±2 moves), Y effects = 0
    g = graph_loops([(A1, {"y1": 1})], ["y1"], {"y1": 0}, {"y1": OMEGA})
    # X side sees out ≡ ... build the decided-style member from refine i-y:
    from vasslab.decomposition import refine_case_i

    v2 = Vass(["p", "q"], dyck_alphabet(1), ["y1"],
              [Edge("p", A1, {"y1": 1}, "q"), Edge("q", AB1, {"y1": -1}, "p")])
    base = InitVass(v2, GenConfig("p", {"y1": 0}), GenConfig("p", {"y1": OMEGA}))
    from vasslab.mgts import PrecoveringGraph

    gg = PrecoveringGraph(base, {"p": {"y1": OMEGA}, "q": {"y1": OMEGA}})
    dm = Dmgts(Mgts([gg]), 2, (), ("y1",), faithful=True)
    out = refine_case_i(dm, 0, "y", "y1", "out")
    ym = out.y_set[0]  # out-marking 1 mod 2: Sol_X effects odd, Sol_Y infeasible
    v = z_separability(ym)
    assert v.kind == "separable"
    verify_separable(v, ym)


def test_inseparable_shared_loops():
    dm = initial_dmgts(dyck_vas(1))
    v = z_separability(dm)
    assert v.kind == "inseparable" and v.strategy == "shared-loops"
    assert v.z_pair is not None
    # the pair feeds the witness construction
    from vasslab.automata import Nfa
    from audits import inseparability_witness

    dfa = Nfa({"s"}, {("s", a, "s") for a in dyck_alphabet(1)}, {"s"}, {"s"},
              dyck_alphabet(1))
    w = inseparability_witness(dm, dfa, z_pair=v.z_pair)
    assert w.o_x is not None and w.o_y is not None


def test_drift_strategy():
    # two incomparable positive effects defeat single-residue counting, but
    # every subject effect drifts along (1, 1) while the Dyck side stays at 0
    A2 = inc_letter(2)
    v = Vass(["r"], dyck_alphabet(2), ["k"],
             [Edge("r", A1, {"k": 1}, "r"), Edge("r", A2, {"k": 1}, "r")])
    base = InitVass(v, GenConfig("r", {"k": 0}), GenConfig("r", {"k": 1}))
    dm = initial_dmgts(base)
    verdict = z_separability(dm)
    assert verdict.kind == "separable"
    assert verdict.strategy.startswith("drift")
    verify_separable(verdict, dm, max_len=4)
    # lifting reads the R(Λ, k) separator's moves through `successors`, never
    # its transition set, and gives the product its explicit copy gives
    lifted = lift_separator(verdict.nfa, dm)
    assert "transitions" not in vars(verdict.nfa)
    sep = verdict.nfa
    eager = Nfa(sep.states, sep.transitions, sep.initial, sep.final, sep.alphabet)
    assert nfa_to_json(lifted) == nfa_to_json(lift_separator(eager, dm))
    assert (len(lifted.states), len(lifted.transitions)) == (3822, 16228)


def test_drift_nfa_accepts_words_of_nonneg_letters():
    # the drift rung's premise: a word whose letters all weigh >= 0 along v
    # and which weighs >= 1 in total is in R(H_v, k'), already at k = 0
    for n, max_len in ((1, 8), (2, 6)):
        for v in _small_vectors(n, 2):
            nfa = desc_automaton(family_drift(v, 0), annotated=True)
            letters = []
            for a in dyck_alphabet(n):
                i, d = letter_index(a, n)
                if v[i - 1] * d >= 0:
                    letters.append(((a, False), v[i - 1] * d))
            stack = [((), nfa.eps_closure(nfa.initial), 0)]
            while stack:
                word, states, weight = stack.pop()
                if weight >= 1:
                    assert states & nfa.final, (v, word)
                if len(word) < max_len:
                    stack.extend((word + (a,), nfa.step(states, a), weight + w)
                                 for a, w in letters)


def test_modulo_strategy_via_counter_gap():
    from conftest import subject_counter_gap

    dm = initial_dmgts(subject_counter_gap())
    verdict = z_separability(dm)
    assert verdict.kind == "separable"
    assert verdict.strategy.startswith("modulo")
    verify_separable(verdict, dm, max_len=4)


def test_unknown_when_caps_too_small(monkeypatch):
    # the counter-gap subject needs modulus 3; with the modulo search capped at
    # 2 and the drift box too small for the deep-dipping words visible at
    # verification length 8, no strategy certifies and the ladder ends honestly
    from conftest import subject_counter_gap

    dm = initial_dmgts(subject_counter_gap())
    monkeypatch.setattr(zsep, "MODULO_MAX", 2)
    monkeypatch.setattr(zsep, "DRIFT_K", 0)
    monkeypatch.setattr(zsep, "VERIFY_LEN", 8)
    v = z_separability(dm)
    assert v.kind == "unknown"
    assert v.reason


def test_unknown_monotone_under_caps(monkeypatch):
    # raising caps never flips a certified verdict: run twice with growing caps
    dm = initial_dmgts(dyck_vas(1))
    monkeypatch.setattr(zsep, "VERIFY_LEN", 3)
    monkeypatch.setattr(zsep, "LOOP_LEN", 2)
    small = z_separability(dm)
    monkeypatch.setattr(zsep, "VERIFY_LEN", 5)
    monkeypatch.setattr(zsep, "LOOP_LEN", 4)
    big = z_separability(dm)
    if small.kind != "unknown":
        assert big.kind == small.kind
