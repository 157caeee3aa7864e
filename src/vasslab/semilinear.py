"""Linear sets, positivity-restricted sums, k-th regular approximations,
NFA-to-linear covers, basic separators, the M/K/D families, and the
counterexample family that needs unbounded concatenation length."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from math import gcd

from .automata import Nfa, reachable, run_word
from .errors import ArgumentError, InvariantViolation, ResourceExhausted
from .lattice import bezout, hermite, solve
from .model import (
    annotated_alphabet,
    dec_letter,
    dyck_alphabet,
    edge_walks,
    inc_letter,
    letter_index,
)
from .solver import LinSystem, ilp_feasible


@dataclass(frozen=True)
class LinearSet:
    """b + P*: a base vector plus non-negative combinations of the periods.
    Periods are deduplicated and sorted for deterministic behavior."""

    base: tuple
    periods: tuple
    # R(self, k) by (k, annotated), kept by approx_automaton
    _approx: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "base", tuple(self.base))
        object.__setattr__(
            self, "periods", tuple(sorted(set(tuple(p) for p in self.periods)))
        )
        for p in self.periods:
            if len(p) != len(self.base):
                raise ArgumentError("period dimension mismatch")

    @property
    def dim(self):
        return len(self.base)


def linear_set_to_json(lin: LinearSet) -> dict:
    return {"base": list(lin.base), "periods": [list(p) for p in lin.periods]}


def lin_member(lin: LinearSet, vec) -> bool:
    """vec = base + Σ λ_p p with integer λ >= 0, decided exactly."""
    vec = tuple(vec)
    if len(vec) != lin.dim:
        raise ArgumentError("dimension mismatch")
    if not lin.periods:
        return vec == lin.base
    vars = [("lam", i) for i in range(len(lin.periods))]
    eqs = []
    for d in range(lin.dim):
        coeffs = {("lam", i): lin.periods[i][d] for i in range(len(lin.periods))
                  if lin.periods[i][d]}
        eqs.append((coeffs, vec[d] - lin.base[d]))
    sys = LinSystem(vars, eqs, nonneg=vars)
    return ilp_feasible(sys) is not None


APPROX_STATE_CAP = 20_000  # states of the largest R(Λ, k) built, (2k+1)^n


def _count(x: int):
    """x for a cap message, or "at least 2^64" for a count that large, which
    may have more decimal digits than str() converts."""
    return x if x < 2 ** 64 else "at least 2^64"


def approx_automaton(lin: LinearSet, k: int, annotated=False) -> Nfa:
    """The k-th regular approximation R(lin, k): simulate letter effects inside
    [-k, k]^n and subtract period vectors without reading a symbol; final
    states are the box members of the linear set (see _box_members). Dyck
    letters reach every point of the box from 0, so the states of R(lin, k)
    are the (2k+1)^n points of the box; more than APPROX_STATE_CAP raise
    ResourceExhausted before any point is enumerated. An `ApproxNfa`,
    stepped from its move tables; memoized on `lin`, which it does not
    reference, so it is freed with `lin`."""
    nfa = lin._approx.get((k, annotated))
    if nfa is None:
        nfa = lin._approx[k, annotated] = ApproxNfa((lin,), k, annotated)
    return nfa


class ApproxNfa(Nfa):
    """R(Λ_1, k)⋯R(Λ_ℓ, k) for a chain of linear sets of one dimension n,
    stepped from per-move tables over the box [-k, k]^n.

    The box is enumerated in lexicographic order; the points v that a move δ
    keeps in the box form a sub-box, and v + δ sits a fixed number of places
    after v in that order, so each move's table comes from index arithmetic.
    A letter's table maps a point to the point it moves to, and letters of
    one effect, such as (a1, False) and (a1, True), share it; every factor
    reads the same letter tables. Factor i has its own ε table, mapping v to
    [v − p for each period p that keeps the box], and its final points, the
    box members of Λ_i (see _box_members).

    A state is a box point when ℓ = 1, else (i, point), tagged only when a
    step reaches it; a final point of factor i < ℓ − 1 also moves by ε to
    (i + 1, 0). `states` and `transitions` are made when first read, with
    those names. The automaton keeps no linear set."""

    def __init__(self, chain, k: int, annotated: bool):
        if k < 0:
            raise ArgumentError("k must be >= 0")
        n = chain[0].dim
        if any(lin.dim != n for lin in chain):
            raise ArgumentError("chain dimension mismatch")
        side = 2 * k + 1
        # side^n >= 2^(n * (bit length of side - 1)): a count of 64 bits or
        # more is bounded below by 2^64, not built
        size = side ** n if n * (side.bit_length() - 1) < 64 else 2 ** 64
        if size > APPROX_STATE_CAP:
            raise ResourceExhausted(f"R(Λ, {k}) in dimension {n} has {_count(size)} states, "
                                    f"above the cap {APPROX_STATE_CAP}")
        box = list(product(range(-k, k + 1), repeat=n))
        strides = [side ** (n - 1 - i) for i in range(n)]

        def shifted(delta):
            """(v, v + δ) for every box point v that δ keeps in the box."""
            idx = [0]
            for d, s in zip(delta, strides):
                lo, hi = max(0, -d), min(side, side - d)
                idx = [j + x for j in idx for x in range(lo * s, hi * s, s)]
            off = sum(d * s for d, s in zip(delta, strides))
            return [(box[j], box[j + off]) for j in idx]

        by_effect = {}
        self._letters = {}  # label -> {point: point}
        for lab, delta in _letter_shifts(n, range(1, n + 1), annotated):
            if delta not in by_effect:
                by_effect[delta] = dict(shifted(delta))
            self._letters[lab] = by_effect[delta]
        self._factors = []  # (ε table, final points) of each factor
        for lin in chain:
            eps = {}
            for p in lin.periods:
                for v, w in shifted(tuple(-y for y in p)):
                    eps.setdefault(v, []).append(w)
            self._factors.append((eps, _box_members(lin, box, eps)))
        self._box = box
        self._origin = (0,) * n
        self.alphabet = frozenset(annotated_alphabet(n) if annotated else dyck_alphabet(n))
        last = len(chain) - 1
        self.initial = frozenset([self._name(0, self._origin)])
        self.final = frozenset(self._name(last, v) for v in self._factors[last][1])
        self._start_memos()

    def successors(self, states, label) -> set:
        single = len(self._factors) == 1
        if label is not None:
            table = self._letters.get(label, ())
            if single:
                return {table[v] for v in states if v in table}
            return {(i, table[v]) for i, v in states if v in table}
        out = set()
        if single:
            eps = self._factors[0][0]
            for v in states:
                out.update(eps.get(v, ()))
            return out
        last = len(self._factors) - 1
        for i, v in states:
            eps, exits = self._factors[i]
            out.update([(i, w) for w in eps.get(v, ())])
            if i < last and v in exits:
                out.add((i + 1, self._origin))
        return out

    def _name(self, i: int, v):
        return v if len(self._factors) == 1 else (i, v)

    @cached_property
    def states(self):
        return frozenset(self._name(i, v) for i in range(len(self._factors)) for v in self._box)

    @cached_property
    def transitions(self):
        name, last, out = self._name, len(self._factors) - 1, set()
        for i, (eps, final) in enumerate(self._factors):
            out.update((name(i, v), a, name(i, w))
                       for a, table in self._letters.items() for v, w in table.items())
            out.update((name(i, v), None, name(i, w)) for v, ws in eps.items() for w in ws)
            if i < last:
                out.update(((i, v), None, (i + 1, self._origin)) for v in final)
        return frozenset(out)


def _box_members(lin: LinearSet, states, eps) -> set:
    """The points of the box `states` that lie in lin: v − base = Σ λ_p p for
    an integer λ >= 0; `eps` is R(lin, k)'s ε table, v -> [v − p for each
    period p that keeps the box], read only by the ε-orbit fallback.

    The box is decided on the canonical period set: zero periods dropped,
    and each ± pair {p, −p} one column whose coefficient may take either
    sign; the other periods are sign-restricted columns. One `lattice.solve`
    of C·λ = v − base over the whole box answers every point when all
    periods are paired, where the monoid they generate is a group and v is a
    member iff some integer λ exists, and when the columns of C are linearly
    independent (the rank of C's Hermite normal form), where λ is unique and
    v is a member iff λ >= 0 on the sign-restricted columns. Otherwise one
    ILP per point that no decided point settles: an ε-move v → v − p keeps
    the box, so v ∈ lin puts every point that reaches v by ε-moves in lin,
    and v ∉ lin puts every point that v reaches by ε-moves out of it."""
    nonzero = [p for p in lin.periods if any(p)]
    negated = {tuple(-x for x in p) for p in nonzero}
    paired = [p for p in nonzero if p in negated and p > (0,) * lin.dim]
    signed = [p for p in nonzero if p not in negated]
    columns = paired + signed
    matrix, m = [[p[i] for p in columns] for i in range(lin.dim)], len(columns)
    if not signed or len(hermite(matrix, m).pivots) == m:
        ys = [[v[i] - b for v in states] for i, b in enumerate(lin.base)]
        inside, lams = solve(matrix, m, ys, len(states))
        for row in lams[len(paired):]:
            inside = [ok and a >= 0 for ok, a in zip(inside, row)]
        return {v for v, ok in zip(states, inside) if ok}
    up = {}
    for v, ws in eps.items():
        for w in ws:
            up.setdefault(w, []).append(v)
    member = {}
    for v in states:
        if v not in member:
            verdict = lin_member(lin, v)
            spread = up if verdict else eps
            orbit, _ = reachable([v], lambda u: ((None, w) for w in spread.get(u, ())
                                                 if w not in member))
            member.update(dict.fromkeys(orbit, verdict))
    return {v for v in states if member[v]}


def _letter_shifts(n: int, counters, annotated: bool) -> list:
    """(label, effect on the given counter indices) of every letter of Σ_n,
    each letter twice, with hash flag False and True, if `annotated`."""
    shifts = []
    for a in dyck_alphabet(n):
        i, d = letter_index(a, n)
        delta = tuple(d if j == i else 0 for j in counters)
        shifts.extend((lab, delta) for lab in ([(a, False), (a, True)] if annotated else [a]))
    return shifts


def approx_member(lin: LinearSet, k: int, word) -> bool:
    return run_word(approx_automaton(lin, k), tuple(word))


COVER_STEP_CAP = 200_000  # steps of each enumeration of one linear cover


def nfa_to_linear_cover(nfa: Nfa):
    """(k, linear sets) with L(nfa) ⊆ ∪ R(Λ_ρ, k) and identical effect sets:
    one Λ per accepted run of length <= |Q|² + |Q| (its effect plus the effects
    of simple cycles touching its visited states); k = (|Q| + 1)². The run
    enumeration and the cycle enumeration may each take COVER_STEP_CAP steps."""
    if any(a is None for _, a, _ in nfa.transitions):
        raise ArgumentError("nfa_to_linear_cover needs an ε-free NFA")
    letters = sorted(nfa.alphabet, key=repr)
    n = _dyck_dim(letters, 0)
    index = {a: letter_index(a) for a in letters}
    q = len(nfa.states)
    max_len = q * q + q
    k = (q + 1) ** 2
    # p -> its moves in repr order, each keyed by its (letter, target) pair
    succ = {}
    for p, a, r in sorted(nfa.transitions, key=repr):
        succ.setdefault(p, []).append(((a, r), r))

    def effect(moves):
        eff = [0] * n
        for a, _ in moves:
            i, d = index[a]
            eff[i - 1] += d
        return tuple(eff)

    cycles = _simple_cycles(sorted(nfa.states, key=repr), succ, effect)
    runs = []
    steps = 0
    for init in sorted(nfa.initial, key=repr):
        for end, moves in edge_walks(succ, init, max_len):
            steps += 1
            if steps > COVER_STEP_CAP:
                raise ResourceExhausted(f"run enumeration cap {COVER_STEP_CAP} exceeded")
            if end in nfa.final:
                runs.append((effect(moves), frozenset([init, *(r for _, r in moves)])))

    out = []
    seen = set()
    for eff, visited in runs:
        periods = tuple(sorted({c_eff for c_states, c_eff in cycles
                                if c_states & visited}))
        lin = LinearSet(eff, periods)
        if lin not in seen:
            seen.add(lin)
            out.append(lin)
    return k, out


def _dyck_dim(letters, default: int) -> int:
    """The largest counter index among Dyck letters, at least `default`."""
    dim = default
    for a in sorted(letters, key=repr):
        hit = letter_index(a)
        if hit is None:
            raise ArgumentError(f"letter {a!r} is not a Dyck letter")
        dim = max(dim, hit[0])
    return dim


def _simple_cycles(states, succ, effect):
    """(state set, effect) of every simple cycle, where `succ` maps a state to
    its ((letter, target), target) moves: from each root, the simple paths
    through the states after it in `states`, one cycle per move from a path's
    end back to the root. More than COVER_STEP_CAP paths besides the roots
    raise ResourceExhausted."""
    into = {}  # state -> the moves into it, by their source
    for p, moves in succ.items():
        for move, r in moves:
            into.setdefault(r, {}).setdefault(p, []).append(move)
    cycles = set()
    steps = 0
    for i, root in enumerate(states):
        closing = into.get(root, {})
        for end, moves in edge_walks(succ, root, within=states[i + 1:]):
            if moves:
                steps += 1
                if steps > COVER_STEP_CAP:
                    raise ResourceExhausted(f"cycle enumeration cap {COVER_STEP_CAP} exceeded")
            for move in closing.get(end, ()):
                path = frozenset([root, *(r for _, r in moves)])
                cycles.add((path, effect(moves + (move,))))
    return cycles


# -- positivity-restricted sums and basic separators ---------------------------------

def pos_sum_contains_zero(chain) -> "Solution | None":
    """The witness for 0 ∈ Λ_1 ⊕ ... ⊕ Λ_ℓ (left fold, all prefix sums
    non-negative, total zero), or None. One exact ILP."""
    chain = list(chain)
    if not chain:
        raise ArgumentError("empty chain")
    dim = chain[0].dim
    if any(lin.dim != dim for lin in chain):
        raise ArgumentError("chain dimension mismatch")
    vars = []
    for i, lin in enumerate(chain):
        vars.extend(("lam", i, p) for p in range(len(lin.periods)))
    slacks = [("s", i, d) for i in range(len(chain) - 1) for d in range(dim)]
    vars.extend(slacks)
    eqs = []
    for i in range(len(chain)):
        for d in range(dim):
            coeffs = {}
            rhs = 0
            for j in range(i + 1):
                rhs -= chain[j].base[d]
                for p, period in enumerate(chain[j].periods):
                    if period[d]:
                        coeffs[("lam", j, p)] = coeffs.get(("lam", j, p), 0) + period[d]
            if i < len(chain) - 1:
                coeffs[("s", i, d)] = -1  # prefix sum = slack >= 0
            eqs.append((coeffs, rhs))
    sys = LinSystem(vars, eqs, nonneg=vars)
    return ilp_feasible(sys)


@dataclass(frozen=True)
class BasicSeparatorDesc:
    """R(Λ_1,k)...R(Λ_ℓ,k) with the certificate 0 ∉ Λ_1 ⊕ ... ⊕ Λ_ℓ."""

    k: int
    chain: tuple
    # its automaton by `annotated`, kept by desc_automaton
    _automata: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "chain", tuple(self.chain))


@dataclass(frozen=True)
class RejectedChain:
    witness: dict  # period multiplicities reaching zero


def make_basic_separator(chain, k: int):
    """Certify 0 ∉ ⊕-chain; a rejection carries the zero witness."""
    wit = pos_sum_contains_zero(chain)
    if wit is not None:
        return RejectedChain(dict(wit.assignment))
    return BasicSeparatorDesc(k, tuple(chain))


def desc_automaton(desc: BasicSeparatorDesc, annotated=False) -> Nfa:
    """The concatenation R(Λ_1,k)...R(Λ_ℓ,k) as one NFA: R(Λ_1, k) itself
    for one factor, else the chain's `ApproxNfa`, whose states are (i, point)
    with ε moves from the final points of factor i to (i + 1, 0). Memoized
    on the descriptor, which it does not reference; the tables of a longer
    chain are built afresh, so no linear set keeps a second copy of them."""
    if annotated not in desc._automata:
        if len(desc.chain) == 1:
            nfa = approx_automaton(desc.chain[0], desc.k, annotated)
        else:
            nfa = ApproxNfa(desc.chain, desc.k, annotated)
        desc._automata[annotated] = nfa
    return desc._automata[annotated]


def basic_member(desc: BasicSeparatorDesc, word) -> bool:
    """Membership in R(Λ_1,k)...R(Λ_ℓ,k)."""
    return run_word(desc_automaton(desc), tuple(word))


def family_mod(mu: int, v, n: int = None) -> BasicSeparatorDesc:
    """Words whose effect is ≡ v mod mu; requires v ≢ 0."""
    if mu < 1:
        raise ArgumentError("family_mod needs mu >= 1")
    v = tuple(v)
    n = len(v) if n is None else n
    if n != len(v):
        raise ArgumentError(f"family_mod needs n = len(v) = {len(v)}, got n = {n}")
    if all(x % mu == 0 for x in v):
        raise ArgumentError("family_mod needs v ≢ 0 mod mu")
    periods = []
    for i in range(n):
        unit = tuple(mu if j == i else 0 for j in range(n))
        periods.append(unit)
        periods.append(tuple(-x for x in unit))
    desc = make_basic_separator([LinearSet(v, periods)], mu)
    if isinstance(desc, RejectedChain):
        raise InvariantViolation("modulo family failed its own certificate")
    return desc


def family_cov(k: int, i: int, n: int) -> BasicSeparatorDesc:
    """Covers the words whose counter i dips below zero before exceeding k.

    The second factor is the full lattice (base 0, periods ±units), whose
    approximation accepts every suffix; the certificate only needs the first
    factor to miss the non-negative orthant.
    """
    if k < 0:
        raise ArgumentError(f"family_cov needs k >= 0, got k = {k}")
    if not 1 <= i <= n:
        raise ArgumentError(f"family_cov needs 1 <= i <= n, got i = {i}, n = {n}")
    units = [tuple(1 if j == d else 0 for j in range(n)) for d in range(n)]
    neg_units = [tuple(-x for x in u) for u in units]
    others = [u for d, u in enumerate(units) if d != i - 1] + [
        u for d, u in enumerate(neg_units) if d != i - 1
    ]
    lneg = LinearSet(neg_units[i - 1], others)
    lattice = LinearSet(tuple(0 for _ in range(n)), units + neg_units)
    desc = make_basic_separator([lneg, lattice], max(k, 1))
    if isinstance(desc, RejectedChain):
        raise InvariantViolation("coverability family failed its own certificate")
    return desc


def _halfspace_set(v) -> LinearSet:
    """{y : <y, v> > 0} as a linear set: a base with <b0,v> = gcd(v) plus the
    base itself and an integer kernel basis (both signs) as periods."""
    v = tuple(v)
    n = len(v)
    if all(x == 0 for x in v):
        raise ArgumentError("drift direction must be non-zero")
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    # Bezout base: build <b0, v> = g greedily
    b0 = [0] * n
    acc = 0
    for i, x in enumerate(v):
        if x == 0:
            continue
        if acc == 0:
            b0[i] = 1 if x > 0 else -1
            acc = abs(x)
        else:
            gg = gcd(acc, abs(x))
            # find s,t with s*acc + t*|x| = gg
            s, t = bezout(acc, abs(x))
            b0 = [s * y for y in b0]
            b0[i] = t * (1 if x > 0 else -1)
            acc = gg
    kernel = []
    for i in range(n):
        if v[i] == 0:
            kernel.append(tuple(1 if j == i else 0 for j in range(n)))
            continue
        for j in range(i + 1, n):
            if v[j] == 0:
                continue
            gij = gcd(abs(v[i]), abs(v[j]))
            vec = [0] * n
            vec[i] = v[j] // gij
            vec[j] = -v[i] // gij
            kernel.append(tuple(vec))
    periods = [tuple(b0)] + kernel + [tuple(-x for x in kvec) for kvec in kernel]
    return LinearSet(tuple(b0), periods)


def family_drift(v, k: int) -> BasicSeparatorDesc:
    """Covers the words drifting in direction v (effect inner product positive,
    bounded dips), as R(H_v, k') with k' = k·|v|₁ + max_p |p|₁ + 1 over the
    periods p of H_v."""
    if k < 0:
        raise ArgumentError(f"family_drift needs k >= 0, got k = {k}")
    v = tuple(v)
    h = _halfspace_set(v)
    norm = sum(abs(x) for x in v)
    pnorm = max((sum(abs(x) for x in p) for p in h.periods), default=0)
    k_prime = k * norm + pnorm + 1
    desc = make_basic_separator([h], k_prime)
    if isinstance(desc, RejectedChain):
        raise InvariantViolation("drift family failed its own certificate")
    return desc


# -- the counterexample family --------------------------------------------------------

COUNTEREXAMPLE_STATE_CAP = 100_000  # states of the largest counterexample NFA built


def counterexample_nfa(ell: int) -> Nfa:
    """The two-counter family a1+ . {a1 a2, ā1 ā2}* ... {a1 a2^ℓ, ā1 ā2^ℓ}*.
    It has ℓ² + 2ℓ + 2 states; more than COUNTEREXAMPLE_STATE_CAP raise
    ResourceExhausted before anything is built."""
    if ell < 1:
        raise ArgumentError("ell must be >= 1")
    size = ell * ell + 2 * ell + 2
    if size > COUNTEREXAMPLE_STATE_CAP:
        raise ResourceExhausted(f"the counterexample NFA for ℓ = {ell} has {_count(size)} "
                                f"states, above the cap {COUNTEREXAMPLE_STATE_CAP}")
    a1, abar1 = inc_letter(1), dec_letter(1)
    a2, abar2 = inc_letter(2), dec_letter(2)
    states = {"start", "plus"}
    transitions = {("start", a1, "plus"), ("plus", a1, "plus")}
    prev = "plus"
    for s in range(1, ell + 1):
        hub = f"h{s}"
        states.add(hub)
        transitions.add((prev, None, hub))
        for letters, tag in (((a1,) + (a2,) * s, "u"), ((abar1,) + (abar2,) * s, "d")):
            cur = hub
            for t, letter in enumerate(letters):
                nxt = hub if t == len(letters) - 1 else f"h{s}{tag}{t}"
                states.add(nxt)
                transitions.add((cur, letter, nxt))
                cur = nxt
        prev = hub
    return Nfa(states, transitions, {"start"}, {prev}, dyck_alphabet(2))


def counterexample_member(ell: int, word) -> bool:
    return run_word(counterexample_nfa(ell), tuple(word))


MOVE_WORD_CAP = 1_000_000  # letters of the longest move word built


def move_word(i: int, ell: int) -> tuple:
    """m_i = a1^{i!} . Π_{s=1..ℓ} (f_s^i b_s^i)^i with f_s = (a1 a2^s)^{L/(s+1)},
    b_s its barred twin, L = (ℓ+1)!. Both f_s and b_s have L letters, so
    |m_i| = i! + 2ℓ i² L; a longer word than MOVE_WORD_CAP raises
    ResourceExhausted before anything is built, i! and L included."""
    if ell < 1 or i < 0:
        raise ArgumentError("need ell >= 1 and i >= 0")
    if i == 0:  # 0! = 1, and every factor is repeated 0 times
        return (inc_letter(1),)
    fact_i, L = _factorial_to(i, MOVE_WORD_CAP), _factorial_to(ell + 1, MOVE_WORD_CAP)
    length = fact_i + 2 * ell * i * i * L  # a lower bound if a factorial stopped early
    if length > MOVE_WORD_CAP:
        exact = max(fact_i, L) <= MOVE_WORD_CAP
        count = f"{length} letters, above" if exact else "more letters than"
        raise ResourceExhausted(f"move word m_{i} has {count} the cap {MOVE_WORD_CAP}")
    word = [inc_letter(1)] * fact_i
    for s in range(1, ell + 1):
        f = ([inc_letter(1)] + [inc_letter(2)] * s) * (L // (s + 1))
        b = ([dec_letter(1)] + [dec_letter(2)] * s) * (L // (s + 1))
        word.extend((f * i + b * i) * i)
    return tuple(word)


def _factorial_to(m: int, cap: int) -> int:
    """m! if it is at most cap, else the first of the products 2·3·…·j that
    exceeds cap: enough to decide the cap without building m!."""
    f = 1
    for j in range(2, m + 1):
        f *= j
        if f > cap:
            break
    return f


# -- residue automata ------------------------------------------------------------------

def residue_nfa(mu: int, residues: dict, n: int, annotated=False) -> Nfa:
    """The words over Σ_n (annotated Σ_n if `annotated`) whose effect on
    counter i is ≡ residues[i] mod mu for every counter index i in
    `residues`, as a complete DFA: its states are the tuples of those
    counters' residues, in index order."""
    tracked = sorted(residues)
    shifts = _letter_shifts(n, tracked, annotated)

    def moves(r):
        for lab, delta in shifts:
            yield lab, tuple((x + y) % mu for x, y in zip(r, delta))

    start = tuple(0 for _ in tracked)
    states, transitions = reachable([start], moves)
    final = {tuple(residues[i] % mu for i in tracked)}
    alphabet = annotated_alphabet(n) if annotated else dyck_alphabet(n)
    return Nfa(states, transitions, {start}, final, alphabet)
