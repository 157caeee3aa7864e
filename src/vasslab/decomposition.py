"""The refine step (cases i, ii, iii), observers and their products, DEC-along,
and the top-level decompose loop returning perfect and decided DMGTS sets."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .automata import reachable
from .chareq import build_char, edge_var, io_var, support
from .errors import ArgumentError, InvariantViolation, ResourceExhausted
from .mgts import (
    PATH_CAP,
    Dmgts,
    Mgts,
    MgtsContext,
    PipelineCaps,
    PrecoveringGraph,
    canonical_key,
    perfectness_diagnosis,
    sccs,
    side_gates,
    substitute,
    unfold_paths,
    validate_precovering,
)
from .model import GenConfig, InitVass, Vass
from .solver import STATS, UNBOUNDED, enumerate_var_values, ilp_feasible, lp_max
from .structure import fixed_assignment, fixed_counters, rackoff_bound, rank, rank_less
from .values import OMEGA, is_omega

REFINE_STEPS = 200  # refine steps of one `decompose` call


class Bot:
    """The sink value below zero; absorbing under addition."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "bot"


BOT = Bot()


def ct(l: int, x):
    """The counting abstraction: negative to ⊥, above l to ω, else identity."""
    if x is BOT:
        return BOT
    if x is OMEGA:
        return OMEGA
    if x < 0:
        return BOT
    if x > l:
        return OMEGA
    return x


def ct_add(x, delta):
    if x is BOT:
        return BOT
    if x is OMEGA:
        return OMEGA
    return x + delta


def mod_residue_expansion(k: int, mu: int, mu_new: int) -> list:
    """All residues i in [0, mu_new) with i ≡ k (mod mu); requires mu | mu_new."""
    if mu_new % mu != 0:
        raise ArgumentError("mu must divide mu_new")
    return [i for i in range(mu_new) if (i - k) % mu == 0]


@dataclass(frozen=True)
class Observer:
    """A transition system over the edge indices of its target graph. `step`
    maps (state, edge index) to successor states."""

    initial: tuple
    step: callable


@dataclass
class ProductGraph:
    """The reachable part of P × O."""

    states: list
    transitions: dict  # state -> sorted list of (edge index, next state)
    initial: list


def observer_product(p: PrecoveringGraph, obs: Observer, state_cap: int) -> ProductGraph:
    """Simulate the observer along the edges of P, restricted to the part
    reachable from {root} × initial; more than state_cap states raise
    ResourceExhausted."""

    def moves(state):
        q, s = state
        for ei, e in p.vass.out_edges(q):
            for s2 in obs.step(s, ei):
                yield ei, (e.dst, s2)

    initial = sorted(((p.root, s) for s in obs.initial), key=repr)
    states, moved = reachable(initial, moves, state_cap, "observer product")
    transitions = {u: [] for u in states}
    for u, ei, v in moved:
        transitions[u].append((ei, v))
    for succ in transitions.values():
        succ.sort(key=repr)
    return ProductGraph(sorted(states, key=repr), transitions, initial)


def dec_along(p: PrecoveringGraph, obs: Observer, finals, state_cap: int) -> list:
    """Unfold P along the simple accepted paths of P × obs into MGTS: one
    precovering graph per visited product state (its SCC, rooted there, with
    the inherited assignment), joined by the path edges as bridges; the outer
    markings are reset to P's. Returns a deterministic list of Mgts; more than
    PATH_CAP paths raise ResourceExhausted."""
    prod = observer_product(p, obs, state_cap)
    obs_names = {}
    for _, s in prod.states:
        obs_names.setdefault(s, f"o{len(obs_names)}")
    accepts = finals if callable(finals) else set(finals).__contains__
    edges = [
        (u, p.vass.edges[ei].label, p.vass.edges[ei].update, v)
        for u in prod.states
        for ei, v in prod.transitions.get(u, ())
    ]
    return unfold_paths(
        edges, prod.initial, lambda st: st[0] == p.root and accepts(st[1]),
        lambda pos, st: f"p{pos}.{st[0]}#{obs_names[st[1]]}",
        lambda st: p.assignment[st[0]],
        p.in_marking, p.out_marking, p.vass.alphabet, p.vass.counters, PATH_CAP,
    )


@dataclass
class RefineOutcome:
    case: str
    target: dict
    x_set: list
    y_set: list
    y_certificates: list  # "y-infeasible" | "modulo-nonzero", aligned with y_set


def _set_markings(mgts: Mgts, values: dict) -> Mgts:
    """values: (gi, io, counter) -> value; rebuilds the MGTS."""
    graphs = []
    for gi, g in enumerate(mgts.graphs):
        in_val = dict(g.in_marking)
        out_val = dict(g.out_marking)
        for (gj, io, c), v in values.items():
            if gj == gi:
                (in_val if io == "in" else out_val)[c] = v
        base = InitVass(g.vass, GenConfig(g.root, in_val), GenConfig(g.root, out_val))
        graphs.append(PrecoveringGraph(base, g.assignment))
    return Mgts(graphs, mgts.bridges)


def refine_case_i(dmgts: Dmgts, gi: int, side: str, j, io: str,
                  caps: PipelineCaps = PipelineCaps()) -> RefineOutcome:
    g = dmgts.graphs[gi]
    marking = g.in_marking if io == "in" else g.out_marking
    if not is_omega(marking[j]):
        raise ArgumentError("case (i) needs an ω marking entry")
    cs = build_char(dmgts, side)
    var = io_var(gi, io, j)
    if var in support(cs):
        raise ArgumentError("case (i) needs the io variable outside the support")
    values = enumerate_var_values(cs.system, var, node_budget=caps.ilp_nodes)
    if values is UNBOUNDED:
        raise InvariantViolation("value set unbounded although outside the support")
    target = {"graph": gi, "side": side, "counter": j, "io": io}
    if side == "x":
        x_set = [
            dmgts.with_mgts(_set_markings(dmgts.mgts, {(gi, io, j): a}), faithful=True)
            for a in sorted(values)
        ]
        return RefineOutcome("i-x", target, x_set, [], [])

    # side Y: grow the modulus and expand all finite Y markings modulo the old one
    finite_entries = [
        v
        for gg in dmgts.graphs
        for m in (gg.in_marking, gg.out_marking)
        for v in m.values()
        if not is_omega(v)
    ]
    l = 1 + max(list(values) + finite_entries, default=0)
    mu_new = l * dmgts.mu
    ys = set(dmgts.y_counters)
    positions = []  # (gi, io, counter) -> iterable of choices
    last = len(dmgts.graphs) - 1
    for gj, gg in enumerate(dmgts.graphs):
        for io2, m in (("in", gg.in_marking), ("out", gg.out_marking)):
            for c in sorted(ys):
                v = m[c]
                if (gj, io2, c) == (gi, io, j):
                    positions.append(((gj, io2, c), list(range(mu_new))))
                elif is_omega(v):
                    continue
                elif gj == 0 and io2 == "in":
                    positions.append(((gj, io2, c), [v]))  # stays zero-reaching
                else:
                    positions.append(((gj, io2, c), mod_residue_expansion(v, dmgts.mu, mu_new)))
    count = 1
    for _, choices in positions:
        count *= len(choices)
        if count > caps.variants:
            raise ResourceExhausted(f"variant cap {caps.variants} exceeded")
    x_set, y_set, y_certs = [], [], []
    assignments = [{}]
    for key, choices in positions:
        assignments = [{**a, key: ch} for a in assignments for ch in choices]
    for a in assignments:
        mg = _set_markings(dmgts.mgts, a)
        member_out = mg.out_marking
        if all(member_out[c] == 0 for c in dmgts.y_counters):
            x_set.append(dmgts.with_mgts(mg, mu=mu_new, faithful=True))
        else:
            y_set.append(dmgts.with_mgts(mg, mu=mu_new, faithful=False))
            y_certs.append("modulo-nonzero")
    return RefineOutcome("i-y", target, x_set, y_set, y_certs)


def refine_case_ii(dmgts: Dmgts, gi: int, side: str,
                   caps: PipelineCaps = PipelineCaps()) -> RefineOutcome:
    g = dmgts.graphs[gi]
    cs = build_char(dmgts, side)
    sup = support(cs)
    eprime = [ei for ei in range(len(g.vass.edges)) if edge_var(gi, ei) not in sup]
    if not eprime:
        raise ArgumentError("case (ii) needs edges outside the support")
    bounds = []
    for ei in eprime:
        m = lp_max(cs.system, edge_var(gi, ei))
        if m is None:
            raise ArgumentError("case (ii) needs a feasible side system")
        if m is UNBOUNDED:
            raise InvariantViolation("edge variable unbounded although outside the support")
        bounds.append(int(m))
    l = max(bounds)
    order = {ei: k for k, ei in enumerate(sorted(eprime))}
    zero = tuple(0 for _ in eprime)

    def step(s, ei):
        if ei not in order:
            return (s,)
        lst = list(s)
        lst[order[ei]] = ct(l, ct_add(s[order[ei]], 1))
        return (tuple(lst),)

    obs = Observer(initial=(zero,), step=step)

    def final_u(s):
        return all(not is_omega(v) for v in s)

    def final_v(s):
        return any(is_omega(v) for v in s)

    ctx = MgtsContext.around(dmgts.mgts, gi)
    u_list = dec_along(g, obs, final_u, caps.observer_states)
    x_set = [substitute(ctx, dmgts.with_mgts(m, faithful=True)) for m in u_list]
    y_set, y_certs = [], []
    if side == "y":
        v_list = dec_along(g, obs, final_v, caps.observer_states)
        y_set = [substitute(ctx, dmgts.with_mgts(m, faithful=True)) for m in v_list]
        y_certs = ["y-infeasible"] * len(y_set)
    target = {"graph": gi, "side": side, "edges": sorted(eprime), "bound": l}
    return RefineOutcome(f"ii-{side}", target, x_set, y_set, y_certs)


def _case_iii_trackers(p: PrecoveringGraph, dmgts: Dmgts):
    """The per-counter observers of case (iii) and their U/V final predicates."""
    finite_in = [v for v in p.in_marking.values() if not is_omega(v)]
    C = max(2, max(finite_in, default=0) + 1)
    B = rackoff_bound(p, sorted(p.omega_counters), C)
    omega_in = {c for c in p.vass.counters if is_omega(p.in_marking[c])}
    ys = set(dmgts.y_counters)

    trackers = []
    for j in sorted(p.omega_counters - omega_in):
        def step(s, ei, j=j):
            e = p.vass.edges[ei]
            return (ct(B, ct_add(s, e.update[j])),)

        obs = Observer(initial=(p.in_marking[j],), step=step)
        out_j = p.out_marking[j]

        def final_u(s, out_j=out_j):
            return s is not BOT and not is_omega(s) and (is_omega(out_j) or s == out_j)

        def final_v(s, j=j, fu=final_u):
            if j not in ys or is_omega(s):
                return False
            return s is BOT or not fu(s)

        trackers.append((j, obs, final_u, final_v))
    return trackers


def refine_case_iii(dmgts: Dmgts, gi: int, direction: str,
                    caps: PipelineCaps = PipelineCaps()) -> RefineOutcome:
    g = dmgts.graphs[gi]
    work = g if direction == "up" else g.reverse()
    u_mgts, v_mgts, subcase = _case_iii_core(work, dmgts, caps)
    if direction == "down":
        u_mgts = [m.reverse() for m in u_mgts]
        v_mgts = [m.reverse() for m in v_mgts]
    ctx = MgtsContext.around(dmgts.mgts, gi)
    x_set = [substitute(ctx, dmgts.with_mgts(m, faithful=True)) for m in u_mgts]
    y_set = [substitute(ctx, dmgts.with_mgts(m, faithful=True)) for m in v_mgts]
    target = {"graph": gi, "direction": direction, "subcase": subcase}
    return RefineOutcome(f"iii-{subcase}", target, x_set, y_set,
                         ["y-infeasible"] * len(y_set))


def _case_iii_core(p: PrecoveringGraph, dmgts: Dmgts, caps: PipelineCaps):
    """U and V for a precovering graph without covering sequences (in the
    working orientation); returns (U, V, subcase tag)."""
    fixed = fixed_counters(p)
    fixed_fin = [j for j in sorted(fixed) if not is_omega(p.in_marking[j])]

    for j in fixed_fin:
        out_j = p.out_marking[j]
        if not is_omega(out_j) and out_j != p.in_marking[j]:
            raise InvariantViolation(
                "fixed counter with differing finite extremal markings contradicts feasibility"
            )

    # (b) before (c): an all-non-negative fixed assignment enriches; only when
    # none exists does a negative value trigger the edge deletion
    negatives = []
    for j in fixed_fin:
        phi = fixed_assignment(p, j)
        if all(v >= 0 for v in phi.values()):
            if j in p.omega_counters:
                return [Mgts([_enrich(p, j, phi)])], [], "b"
            # concretely decorated counters carry non-negative values already
        else:
            negatives.append((j, phi))
    if negatives:
        j, phi = negatives[0]
        v = min(q for q, val in phi.items() if val < 0)
        ei = min(i for i, e in enumerate(p.vass.edges) if e.dst == v)
        u_graph = _delete_edge_restrict(p, ei)
        # runs through the deleted edge dip counter j below zero; when j is a
        # Dyck counter they are captured by j's own tracker (X-side dips are
        # already excluded by positivity), so only that observer is unfolded
        v_mgts = []
        for j2, obs, _, final_v in _case_iii_trackers(p, dmgts):
            if j2 == j:
                v_mgts.extend(dec_along(p, obs, final_v, caps.observer_states))
        return [Mgts([u_graph])], v_mgts, "c"

    trackers = _case_iii_trackers(p, dmgts)
    u_out, v_out = [], []
    for _, obs, final_u, _ in trackers:
        u_out.extend(dec_along(p, obs, final_u, caps.observer_states))
    for _, obs, _, final_v in trackers:
        v_out.extend(dec_along(p, obs, final_v, caps.observer_states))
    return u_out, v_out, "d"


def _enrich(p: PrecoveringGraph, j, phi) -> PrecoveringGraph:
    assignment = {q: dict(val) for q, val in p.assignment.items()}
    for q in assignment:
        assignment[q][j] = phi[q]
    out_val = dict(p.out_marking)
    if is_omega(out_val[j]):
        out_val[j] = phi[p.root]
    base = InitVass(p.vass, GenConfig(p.root, dict(p.in_marking)), GenConfig(p.root, out_val))
    g = PrecoveringGraph(base, assignment)
    bad = validate_precovering(g)
    if bad:
        raise InvariantViolation(f"enrichment produced an invalid graph: {bad}")
    return g


def _delete_edge_restrict(p: PrecoveringGraph, ei: int) -> PrecoveringGraph:
    edges = [e for i, e in enumerate(p.vass.edges) if i != ei]
    succ = {}
    for k, e in enumerate(edges):
        succ.setdefault(e.src, []).append((k, e.dst))
    comp = sccs(succ, [p.root])[p.root]
    edges = [e for e in edges if e.src in comp and e.dst in comp]
    vass = Vass(sorted(comp), p.vass.alphabet, p.vass.counters, edges)
    base = InitVass(vass, GenConfig(p.root, dict(p.in_marking)),
                    GenConfig(p.root, dict(p.out_marking)))
    assignment = {q: dict(p.assignment[q]) for q in comp}
    g = PrecoveringGraph(base, assignment)
    bad = validate_precovering(g)
    if bad:
        raise InvariantViolation(f"edge deletion produced an invalid graph: {bad}")
    return g


def refine(dmgts: Dmgts, caps: PipelineCaps = PipelineCaps()) -> RefineOutcome:
    """Dispatch on the first failing perfectness condition; the outcome's X
    members strictly decrease the rank and inherit the faithful flag."""
    if not dmgts.faithful:
        raise ArgumentError("refine expects a faithful-flagged DMGTS")
    diag = perfectness_diagnosis(dmgts)
    if diag is None:
        raise ArgumentError("refine expects an imperfect DMGTS")
    if diag.case == "i":
        outcome = refine_case_i(dmgts, diag.graph, diag.side, diag.counter, diag.io, caps)
    elif diag.case == "ii":
        outcome = refine_case_ii(dmgts, diag.graph, diag.side, caps)
    elif diag.case == "iii":
        outcome = refine_case_iii(dmgts, diag.graph, diag.direction, caps)
    else:
        raise ArgumentError(f"cannot refine: {diag}")
    parent_rank = rank(dmgts)
    for member in outcome.x_set:
        if not rank_less(rank(member), parent_rank):
            raise InvariantViolation(
                f"refine case {outcome.case} did not decrease the rank: "
                f"{rank(member)} vs {parent_rank}"
            )
    return outcome


@dataclass(frozen=True)
class DecidedMember:
    dmgts: Dmgts
    certificate: str  # "y-infeasible" | "modulo-nonzero"


@dataclass
class DecomposeResult:
    perfect: list
    decided: list  # of DecidedMember
    trace: list


def decompose(dmgts: Dmgts, caps: PipelineCaps = PipelineCaps()) -> DecomposeResult:
    """Worklist decomposition: perfect members are collected, X-infeasible ones
    dropped, Y-infeasible ones decided, the rest refined (X recursed, Y decided).
    Terminates by rank well-foundedness; caps abort with the partial trace."""
    if not dmgts.faithful:
        raise ArgumentError("decompose expects a faithful-flagged DMGTS")
    worklist = [dmgts]
    perfect, decided, trace = [], [], []
    steps = 0
    while worklist:
        cur = worklist.pop(0)
        cur_rank = rank(cur)
        diag = perfectness_diagnosis(cur)
        if diag is None:
            perfect.append(cur)
            trace.append({"case": "perfect", "rank_before": list(cur_rank)})
            continue
        if ilp_feasible(build_char(cur, "x").system, node_budget=caps.ilp_nodes) is None:
            trace.append({"case": "drop-x-infeasible", "rank_before": list(cur_rank)})
            continue
        # a side without gates is solved by x = 0 (see perfectness_diagnosis)
        if side_gates(cur, "y") and ilp_feasible(build_char(cur, "y").system,
                                                 node_budget=caps.ilp_nodes) is None:
            decided.append(DecidedMember(cur, "y-infeasible"))
            trace.append({"case": "decide-y-infeasible", "rank_before": list(cur_rank)})
            continue
        steps += 1
        if steps > REFINE_STEPS:
            raise ResourceExhausted(
                f"refine step cap {REFINE_STEPS} exceeded",
                partial=DecomposeResult(perfect, decided, trace),
            )
        stats = {"lp_calls": 0, "ilp_calls": 0}
        token = STATS.set(stats)
        try:
            outcome = refine(cur, caps)
        finally:
            STATS.reset(token)
        trace.append({
            "case": outcome.case,
            "target": {k: (v if isinstance(v, (int, str, list)) else repr(v))
                       for k, v in outcome.target.items()},
            "rank_before": list(cur_rank),
            "rank_after": [list(rank(m)) for m in outcome.x_set],
            "x": len(outcome.x_set),
            "y": len(outcome.y_set),
            "solver_stats": stats,
        })
        worklist.extend(outcome.x_set)
        decided.extend(
            DecidedMember(m, cert) for m, cert in zip(outcome.y_set, outcome.y_certificates)
        )
    perfect.sort(key=canonical_key)
    decided.sort(key=lambda d: canonical_key(d.dmgts))
    return DecomposeResult(perfect, decided, trace)


def trace_to_jsonl(trace) -> str:
    return "\n".join(json.dumps(entry, sort_keys=True) for entry in trace)
