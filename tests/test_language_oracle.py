"""The range walk of `model.language_bounded` and the `dyck_words` built on it,
against the concrete walks they replaced.

`language_oracle` holds the former `language_bounded` and `dyck_words`
verbatim: one memoized walk per admissible initial valuation, and a
prefix-pruned DFS. On random small VASS both walks must return the same
words; `dyck_words` must return the same list in the same order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import language_oracle
from vasslab.driver import dyck_words
from vasslab.model import EPSILON, Edge, GenConfig, InitVass, Vass, language_bounded, nat_domain
from vasslab.values import OMEGA


@st.composite
def init_vass(draw):
    """1-3 nodes, 0-2 counters with updates in [-2, 2], letters a and b and ε
    edges, finite (possibly above the value cap) or ω extremal values."""
    nodes = [f"n{j}" for j in range(draw(st.integers(1, 3)))]
    counters = [f"c{i}" for i in range(draw(st.integers(0, 2)))]
    edges = [Edge(draw(st.sampled_from(nodes)), draw(st.sampled_from(("a", "b", EPSILON))),
                  {c: draw(st.integers(-2, 2)) for c in counters}, draw(st.sampled_from(nodes)))
             for _ in range(draw(st.integers(1, 6)))]
    value = st.one_of(st.integers(0, 3), st.just(OMEGA))

    def config():
        return GenConfig(draw(st.sampled_from(nodes)), {c: draw(value) for c in counters})

    return InitVass(Vass(nodes, ("a", "b"), counters, edges), config(), config())


@settings(max_examples=600)
@given(init_vass(), st.integers(0, 5), st.integers(0, 8), st.integers(0, 5))
def test_random_vass_match_oracle(iv, max_len, run_len, value_cap):
    got = language_bounded(iv, max_len, max_run_len=run_len, value_cap=value_cap)
    want = language_oracle.language_bounded(iv, max_len, nat_domain(iv.vass),
                                            max_run_len=run_len, value_cap=value_cap)
    assert got == want


@settings(max_examples=100)
@given(init_vass(), st.integers(0, 4))
def test_default_run_len_matches_oracle(iv, max_len):
    got = language_bounded(iv, max_len, value_cap=4)
    want = language_oracle.language_bounded(iv, max_len, nat_domain(iv.vass), value_cap=4)
    assert got == want


def test_dyck_words_same_list_as_oracle():
    for n, top in ((1, 10), (2, 8)):
        for max_len in range(top + 1):
            assert dyck_words(n, max_len) == language_oracle.dyck_words(n, max_len), (n, max_len)
