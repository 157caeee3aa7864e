"""Regular separability between the Z-approximations Sol_X and Sol_Y of a
DMGTS, decided by one ladder of sound strategies tried in a fixed order;
verdicts carry bounded-verified certificates, never guesses."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automata import Nfa, empty_nfa, first_mistake, universal_nfa
from .chareq import build_char, edge_var
from .mgts import Dmgts, PipelineCaps, side_language_bounded
from .model import EPSILON, annotated_alphabet, letter_index
from .semilinear import desc_automaton, family_drift, residue_nfa
from .separator import LOOP_LEN, LOOP_PAIRS, loop_labels, loop_pair_search
from .solver import UNBOUNDED, LinSystem, ilp_feasible, lp_opt


VERIFY_LEN = 6  # word length of the bounded certificate check
MODULO_MAX = 6  # largest modulus of the modulo rung
DRIFT_NORM = 2  # largest |v|_1 of a drift direction
DRIFT_K = 8     # approximation index of a drift separator


@dataclass
class SepVerdict:
    kind: str                 # "separable" | "inseparable" | "unknown"
    nfa: Nfa = None           # annotated separator for "separable"
    z_pair: list = None       # per-graph loop pairs for "inseparable"
    strategy: str = None
    reason: str = None


def _bounded_certificate_ok(nfa: Nfa, dmgts: Dmgts, caps: PipelineCaps) -> bool:
    """Coverage of the bounded Sol_X and disjointness from the bounded Sol_Y."""
    solx = side_language_bounded(dmgts, "x", VERIFY_LEN, "int", caps.language()).words
    soly = side_language_bounded(dmgts, "y", VERIFY_LEN, "int", caps.language()).words
    return first_mistake(nfa, solx, soly) is None


def _effect_expression(dmgts: Dmgts, counter):
    """The word effect on one counter as (edge-coefficient dict, constant)."""
    coeffs = {}
    for gi, g in enumerate(dmgts.graphs):
        for ei, e in enumerate(g.vass.edges):
            if e.update[counter]:
                coeffs[edge_var(gi, ei)] = e.update[counter]
    const = sum(u.update.get(counter, 0) for u in dmgts.bridges)
    return coeffs, const


def _with_effect_congruence(system: LinSystem, coeffs, const, residue, mu):
    extra = (dict(coeffs), (residue - const) % mu, mu)
    return LinSystem(system.vars, system.eqs, system.nonneg, system.fixed,
                     tuple(system.congruences) + (extra,))


def z_separability(dmgts: Dmgts, caps: PipelineCaps = PipelineCaps()) -> SepVerdict:
    """The strategy ladder: Y-infeasible, X-infeasible, modulo counting, drift,
    equal-label inseparability pairs, then Unknown. Separable verdicts carry an
    NFA that passed the bounded coverage/disjointness checks; Inseparable ones
    carry loop pairs that solve both side systems."""
    n = len(dmgts.y_counters)
    ys = list(dmgts.y_counters)
    cs_x = build_char(dmgts, "x")
    cs_y = build_char(dmgts, "y")
    if ilp_feasible(cs_y.system, node_budget=caps.ilp_nodes) is None:
        nfa = universal_nfa(annotated_alphabet(n))
        if _bounded_certificate_ok(nfa, dmgts, caps):
            return SepVerdict("separable", nfa=nfa, strategy="y-infeasible")
    if ilp_feasible(cs_x.system, node_budget=caps.ilp_nodes) is None:
        nfa = empty_nfa(annotated_alphabet(n))
        if _bounded_certificate_ok(nfa, dmgts, caps):
            return SepVerdict("separable", nfa=nfa, strategy="x-infeasible")

    # modulo strategy: one counter whose Sol_X effects occupy a single non-zero
    # residue class avoided by Sol_Y
    for mu in range(2, MODULO_MAX + 1):
        for idx, c in enumerate(ys, start=1):
            coeffs, const = _effect_expression(dmgts, c)
            occupied = [
                r for r in range(mu)
                if ilp_feasible(
                    _with_effect_congruence(cs_x.system, coeffs, const, r, mu),
                    node_budget=caps.ilp_nodes,
                ) is not None
            ]
            if len(occupied) != 1:
                continue
            v = occupied[0]
            if ilp_feasible(
                _with_effect_congruence(cs_y.system, coeffs, const, v, mu),
                node_budget=caps.ilp_nodes,
            ) is not None:
                continue
            nfa = residue_nfa(mu, {idx: v}, n, annotated=True)
            if _bounded_certificate_ok(nfa, dmgts, caps):
                return SepVerdict("separable", nfa=nfa, strategy=f"modulo({mu},{v},{c})")

    # drift strategy: a direction with sign-definite Sol_X effects. The rungs
    # above rest on ILP infeasibility; this one rests on the letter check of
    # `_reads_nonneg_letters`, not on the bounded certificate check's samples
    for v in _small_vectors(n, DRIFT_NORM):
        if not _reads_nonneg_letters(dmgts, v):
            continue
        objective = {}
        const = 0
        for i, c in enumerate(ys):
            coeffs, cc = _effect_expression(dmgts, c)
            for var, k in coeffs.items():
                objective[var] = objective.get(var, 0) + v[i] * k
            const += v[i] * cc
        lo = lp_opt(cs_x.system, objective, maximize=False)
        if lo is None or lo is UNBOUNDED or lo + const < 1:
            continue
        nfa = desc_automaton(family_drift(v, DRIFT_K), annotated=True)
        if _bounded_certificate_ok(nfa, dmgts, caps):
            return SepVerdict("separable", nfa=nfa, strategy=f"drift({v})")

    # inseparability: equal-label per-graph loop pairs solving both sides,
    # which certify Sol_X ∩ Sol_Y ≠ ∅
    pair = loop_pair_search(dmgts, LOOP_LEN, loop_labels, LOOP_PAIRS)
    if pair is not None:
        return SepVerdict("inseparable", z_pair=pair, strategy="shared-loops")
    return SepVerdict("unknown", reason="strategy ladder exhausted")


def _reads_nonneg_letters(dmgts: Dmgts, v) -> bool:
    """Whether every graph edge and bridge reads a letter of v-weight >= 0 (ε
    weighs 0). Then no prefix of a Sol_X word dips below 0 or overshoots the
    word's own weight, and R(H_v, k') accepts the words of weight >= 1 whose
    prefixes stay in that band. A dip bound alone is not enough: at v = (-2),
    k = 0 it rejects ā1ā1ā1a1a1, which never dips but overshoots."""
    labels = [e.label for g in dmgts.graphs for e in g.vass.edges]
    labels += [u.label for u in dmgts.bridges]
    letters = (letter_index(a, len(v)) for a in labels if a != EPSILON)
    return all(v[i - 1] * d >= 0 for i, d in letters)


def _small_vectors(n: int, norm: int):
    vecs = itertools.product(range(-norm, norm + 1), repeat=n)
    out = [v for v in vecs if any(v) and sum(abs(x) for x in v) <= norm]
    out.sort(key=lambda v: (sum(abs(x) for x in v), v))
    return out
