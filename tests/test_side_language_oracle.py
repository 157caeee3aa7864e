"""The side-language walk over value ranges against the concrete walk it
replaced.

`side_language_oracle` holds the former `side_language_bounded` verbatim: one
memoized walk per entry valuation. On random small DMGTS and on the curated
suite with its decomposition members, both must return the same words and the
same `truncated` flag for every side and kind.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import side_language_oracle
from vasslab.mgts import Dmgts, LanguageCaps, Mgts, PrecoveringGraph, Update, side_language_bounded
from vasslab.model import EPSILON, Edge, GenConfig, InitVass, Vass, dyck_alphabet, letter_index
from vasslab.values import OMEGA

from test_acceptance import suite_results

SIDES = ("x", "y", "full")
KINDS = ("nat", "int")


def same_language(dm, max_len, caps):
    for side in SIDES:
        for kind in KINDS:
            got = side_language_bounded(dm, side, max_len, kind, caps)
            want = side_language_oracle.side_language_bounded(dm, side, max_len, kind, caps)
            assert (got.words, got.truncated) == (want.words, want.truncated), (side, kind)


@st.composite
def dmgts(draw):
    """1-3 graphs of 1-2 nodes; 0-2 X counters with updates in [-2, 2]; 0-2
    Y counters that the letters move Dyck-visibly; finite or ω markings."""
    xs = [f"x{i}" for i in range(draw(st.integers(0, 2)))]
    ys = [f"y{i}" for i in range(1, draw(st.integers(0, 2)) + 1)]
    counters = xs + ys
    alphabet = dyck_alphabet(max(1, len(ys)))
    marking_value = st.one_of(st.integers(0, 2), st.just(OMEGA))

    def move():
        label = draw(st.sampled_from(alphabet + (EPSILON,)))
        update = {c: draw(st.integers(-2, 2)) for c in xs}
        update.update({c: 0 for c in ys})
        if ys and label != EPSILON:
            i, d = letter_index(label, len(ys))
            update[ys[i - 1]] = d
        return label, update

    def marking():
        return {c: draw(marking_value) for c in counters}

    graphs = []
    for gi in range(draw(st.integers(1, 3))):
        nodes = [f"g{gi}n{j}" for j in range(draw(st.integers(1, 2)))]
        pairs = list(zip(nodes, nodes[1:] + nodes[:1])) if len(nodes) > 1 else []
        pairs += draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                               max_size=3))
        edges = [Edge(src, *move(), dst) for src, dst in pairs]
        base = InitVass(Vass(nodes, alphabet, counters, edges),
                        GenConfig(nodes[0], marking()), GenConfig(nodes[0], marking()))
        graphs.append(PrecoveringGraph(base, {q: {c: OMEGA for c in counters} for q in nodes}))
    bridges = [Update(*move()) for _ in graphs[1:]]
    return Dmgts(Mgts(graphs, bridges), draw(st.sampled_from([1, 2, 3])), xs, ys)


@settings(max_examples=800)
@given(dmgts(), st.integers(0, 5), st.integers(2, 8), st.integers(1, 6))
def test_random_dmgts_match_oracle(dm, max_len, run_len, value_cap):
    same_language(dm, max_len, LanguageCaps(run_len, value_cap))


def test_curated_suite_and_members_match_oracle():
    caps = LanguageCaps(max_run_len=12, value_cap=40)
    calls = 0
    for name, (dm, res) in suite_results().items():
        for m in [dm, *res.perfect, *(d.dmgts for d in res.decided)]:
            same_language(m, 6, caps)
            calls += len(SIDES) * len(KINDS)
    assert calls == 174
