"""Hand-counted cases for the reference code in reference.py.

    python3 bench/selftest.py

Prints "reference ok", or exits with the first failed case. run.py runs these
cases before every run, so a broken reference cannot pass a check.
"""

import inputs
from reference import (RefNfa, dyck_words, is_dyck, letter_effect, parse_letter, spell,
                       vass_words)

A1, AB1, A2, AB2 = "a1", "ā1", "a2", "ā2"


def check(condition, message):
    if not condition:
        raise SystemExit(f"reference self-test failed: {message}")


def test_letters():
    check(parse_letter("ā12") == (12, -1), "parse ā12")
    check(letter_effect((A1, AB2, A2, A2), 2) == (1, 1), "effect of a1 ā2 a2 a2")
    check(spell((2, -1)) == (A1, A1, AB2), "spell (2, -1)")
    check(letter_effect(spell((-3, 2)), 2) == (-3, 2), "spell then effect")


def test_dyck():
    # Dyck_1 words up to length 2m number sum_{i <= m} Catalan(i)
    catalan_sums = [1, 2, 4, 9, 23, 65, 197]
    for m, count in enumerate(catalan_sums):
        check(len(dyck_words(1, 2 * m)) == count, f"Dyck_1 up to length {2 * m}")
        check(len(dyck_words(1, 2 * m + 1)) == count, f"Dyck_1 up to length {2 * m + 1}")
    # Dyck_2 up to length 4: ε; a1 ā1 and a2 ā2; and of length 4 two words
    # within each pair plus the 6 interleavings of a1 ā1 with a2 ā2
    check(len(dyck_words(2, 4)) == 13, "Dyck_2 up to length 4")
    check(is_dyck((A1, A2, AB1, AB2), 2) and not is_dyck((AB1, A1), 1), "is_dyck")
    check(all(is_dyck(w, 2) for w in dyck_words(2, 6)), "Dyck_2 words are Dyck")


def test_vass_words():
    check(vass_words(inputs.dyck_copy(), 6) == set(dyck_words(1, 6)), "Dyck copy")
    check(vass_words(inputs.even_a1(), 6) == {(A1,) * 2, (A1,) * 4, (A1,) * 6}, "even a1")
    check(vass_words(inputs.odd_a1(), 5) == {(A1,), (A1,) * 3, (A1,) * 5}, "odd a1")
    check(vass_words(inputs.counter_gap(), 4) ==
          {(A1, A1), (A1, A1, A1, AB1), (A1, A1, AB1, A1), (A1, AB1, A1, A1)}, "counter gap")
    omega = dict(inputs.SEPARATE_SUBJECTS[1][1])
    check(vass_words(omega, 3) == {(), (A1,), (A1, A1), (A1, A1, A1)}, "ω initial entry")
    check(len(vass_words(inputs.two_letter(), 3)) == 1 + 3 + 9 + 27, "two-letter")


def test_nfa():
    doc = {"states": ["p", "q", "r"], "initial": ["p"], "final": ["r"],
           "transitions": [{"from": "p", "label": "", "hash": False, "to": "q"},
                           {"from": "q", "label": A1, "hash": False, "to": "q"},
                           {"from": "q", "label": AB1, "hash": False, "to": "r"}]}
    nfa = RefNfa.from_json(doc)
    check(nfa.accepts((AB1,)) and nfa.accepts((A1, A1, AB1)), "ε then a1* ā1")
    check(not nfa.accepts(()) and not nfa.accepts((AB1, A1)), "rejects")
    check(nfa.words([A1, AB1], 3) == {(AB1,), (A1, AB1), (A1, A1, AB1)}, "words")
    loop = RefNfa(["s"], [("s", A1, "s"), ("s", A2, "s")], ["s"], ["s"])
    check(len(loop.words([A1, AB1, A2, AB2], 3)) == 1 + 2 + 4 + 8, "two-letter loop")


def run_all():
    for test in (test_letters, test_dyck, test_vass_words, test_nfa):
        test()


if __name__ == "__main__":
    run_all()
    print("reference ok")
