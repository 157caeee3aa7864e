"""The three SCC-path unfoldings that `vasslab` had before `mgts.unfold_paths`
replaced them, kept verbatim as a differential oracle for the tests:
`decomposition.dec_along` with its Tarjan SCCs and simple-path search,
`mgts.fold_to_mgts_list` and `semilinear.fold_nfa_to_dmgts_list`.
"""

from __future__ import annotations

from vasslab.decomposition import observer_product
from vasslab.errors import ArgumentError, InvariantViolation, ResourceExhausted
from vasslab.mgts import Mgts, PrecoveringGraph, Update, _scc_of, validate_precovering
from vasslab.model import Edge, GenConfig, InitVass, Vass, dyck_alphabet, letter_index
from vasslab.values import OMEGA


def _product_sccs(prod: ProductGraph) -> dict:
    """state -> frozenset of its strongly connected component (iterative Tarjan)."""
    index = {}
    low = {}
    onstack = {}
    stack = []
    comp = {}
    counter = [0]

    for root in prod.states:
        if root in index:
            continue
        work = [(root, iter(prod.transitions.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for _, w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(prod.transitions.get(w, ()))))
                    advanced = True
                    break
                elif onstack.get(w):
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                scc = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    scc.append(w)
                    if w == v:
                        break
                fs = frozenset(scc)
                for w in scc:
                    comp[w] = fs
    return comp


def _simple_paths(prod: ProductGraph, finals, path_cap, step_cap=2_000_000):
    """State-non-repeating paths from the initial to the final states, in a
    deterministic order (iterative DFS, pruned to states that can reach a
    final). Returns (state list, edge index list) pairs."""
    can_reach = set()
    back = {}
    for u, succ in prod.transitions.items():
        for _, v in succ:
            back.setdefault(v, set()).add(u)
    stack = [s for s in prod.states if finals(s)]
    can_reach.update(stack)
    while stack:
        v = stack.pop()
        for u in back.get(v, ()):
            if u not in can_reach:
                can_reach.add(u)
                stack.append(u)

    out = []
    steps = 0
    for init in prod.initial:
        if init not in can_reach:
            continue
        visited = {init}
        states = [init]
        edges = []
        iters = [iter(prod.transitions.get(init, ()))]
        if finals(init):
            out.append((list(states), list(edges)))
        while iters:
            steps += 1
            if steps > step_cap:
                raise ResourceExhausted(f"simple path step cap {step_cap} exceeded")
            advanced = False
            for ei, nxt in iters[-1]:
                if nxt in visited or nxt not in can_reach:
                    continue
                visited.add(nxt)
                states.append(nxt)
                edges.append(ei)
                iters.append(iter(prod.transitions.get(nxt, ())))
                if finals(nxt):
                    out.append((list(states), list(edges)))
                    if len(out) > path_cap:
                        raise ResourceExhausted(f"simple path cap {path_cap} exceeded")
                advanced = True
                break
            if not advanced:
                iters.pop()
                visited.remove(states.pop())
                if edges:
                    edges.pop()
    return out


def _state_name(pos, q, s, names):
    return f"p{pos}.{q}#{names[s]}"


def dec_along(p: PrecoveringGraph, mu: int, obs: Observer, finals,
              state_cap=100000, path_cap=2000) -> list:
    """Unfold P along the simple accepted paths of P × obs into MGTS: one
    precovering graph per visited product state (its SCC, rooted there, with
    the inherited assignment), joined by the path edges as bridges; the outer
    markings are reset to P's. Returns a deterministic list of Mgts."""
    prod = observer_product(p, obs, state_cap)
    comp = _product_sccs(prod)
    obs_names = {}
    for q, s in prod.states:
        if s not in obs_names:
            obs_names[s] = f"o{len(obs_names)}"

    if callable(finals):
        is_final = lambda st: st[0] == p.root and finals(st[1])
    else:
        fs = set(finals)
        is_final = lambda st: st[0] == p.root and st[1] in fs

    results = []
    for states, eis in _simple_paths(prod, is_final, path_cap):
        graphs = []
        for pos, st in enumerate(states):
            scc = sorted(comp[st], key=repr)
            node_of = {u: _state_name(pos, u[0], u[1], obs_names) for u in scc}
            edges = []
            for u in scc:
                for ei, v in prod.transitions.get(u, ()):
                    if v in comp[st]:
                        e = p.vass.edges[ei]
                        edges.append(Edge(node_of[u], e.label, e.update, node_of[v]))
            root_name = node_of[st]
            marking = dict(p.assignment[st[0]])
            in_val = dict(p.in_marking) if pos == 0 else dict(marking)
            out_val = dict(p.out_marking) if pos == len(states) - 1 else dict(marking)
            base = InitVass(
                Vass(node_of.values(), p.vass.alphabet, p.vass.counters, edges),
                GenConfig(root_name, in_val),
                GenConfig(root_name, out_val),
            )
            assignment = {node_of[u]: dict(p.assignment[u[0]]) for u in scc}
            g = PrecoveringGraph(base, assignment)
            bad = validate_precovering(g)
            if bad:
                raise InvariantViolation(f"dec_along produced an invalid graph: {bad}")
            graphs.append(g)
        bridges = []
        for ei in eis:
            e = p.vass.edges[ei]
            bridges.append(Update(e.label, e.update))
        results.append(Mgts(graphs, bridges))
    return results


def fold_to_mgts_list(iv: InitVass, path_cap=2000) -> list:
    """Break an initialized VASS into MGTS: one per simple init-to-final node
    path, with per-state SCC precovering graphs (all-ω assignment, all-ω
    intermediate markings) joined by the path edges; outer markings are the
    input's. Run-preserving: cycles at a node stay within its SCC."""
    from vasslab.errors import ResourceExhausted

    vass = iv.vass
    comp = {q: frozenset(_scc_of(vass.nodes, [(e.src, e.dst) for e in vass.edges], q))
            for q in vass.nodes}
    succ = {}
    for i, e in enumerate(vass.edges):
        succ.setdefault(e.src, []).append((i, e.dst))
    for q in succ:
        succ[q].sort()
    paths = []

    def dfs(node, nodes, edges, visited):
        if node == iv.final.node:
            paths.append((list(nodes), list(edges)))
            if len(paths) > path_cap:
                raise ResourceExhausted(f"fold path cap {path_cap} exceeded")
        for i, nxt in succ.get(node, ()):
            if nxt in visited:
                continue
            visited.add(nxt)
            nodes.append(nxt)
            edges.append(i)
            dfs(nxt, nodes, edges, visited)
            visited.remove(nxt)
            nodes.pop()
            edges.pop()

    dfs(iv.init.node, [iv.init.node], [], {iv.init.node})

    omega_all = {c: OMEGA for c in vass.counters}
    out = []
    for nodes, eis in paths:
        graphs = []
        for pos, q in enumerate(nodes):
            scc = sorted(comp[q])
            name = {u: f"f{pos}.{u}" for u in scc}
            edges = [
                Edge(name[e.src], e.label, e.update, name[e.dst])
                for e in vass.edges
                if e.src in comp[q] and e.dst in comp[q]
            ]
            in_val = dict(iv.init.valuation) if pos == 0 else dict(omega_all)
            out_val = dict(iv.final.valuation) if pos == len(nodes) - 1 else dict(omega_all)
            base = InitVass(
                Vass(name.values(), vass.alphabet, vass.counters, edges),
                GenConfig(name[q], in_val),
                GenConfig(name[q], out_val),
            )
            graphs.append(PrecoveringGraph(base, {name[u]: dict(omega_all) for u in scc}))
        bridges = [Update(vass.edges[i].label, vass.edges[i].update) for i in eis]
        out.append(Mgts(graphs, bridges))
    return out


def fold_nfa_to_dmgts_list(nfa: Nfa, n: int, path_cap=2000):
    """Break the NFA's control flow into sequences of strongly connected
    components: one DMGTS per simple path from an initial to a final state,
    with X = ∅, μ = 1, all-ω intermediate markings and zero outer markings."""
    from vasslab.mgts import Dmgts, Mgts, PrecoveringGraph, Update, _scc_of, validate_precovering
    from vasslab.model import Edge, GenConfig, InitVass, Vass
    from vasslab.values import OMEGA

    if any(a is None for _, a, _ in nfa.transitions):
        raise ArgumentError("folding needs an ε-free NFA")
    counters = [f"y.{i}" for i in range(1, n + 1)]
    succ = {}
    for p, a, q in nfa.transitions:
        succ.setdefault(p, []).append((a, q))
    for p in succ:
        succ[p].sort(key=repr)

    comp = {}
    for s in nfa.states:
        comp[s] = frozenset(_scc_of(nfa.states, [(p, q) for p, _, q in nfa.transitions], s))

    def unit(a):
        i, d = letter_index(a, n)
        return {c: (d if c == f"y.{i}" else 0) for c in counters}

    paths = []

    def dfs(state, states, labels, visited):
        if state in nfa.final:
            paths.append((list(states), list(labels)))
            if len(paths) > path_cap:
                raise ResourceExhausted(f"fold path cap {path_cap} exceeded")
        for a, q in succ.get(state, ()):
            if q in visited:
                continue
            visited.add(q)
            states.append(q)
            labels.append(a)
            dfs(q, states, labels, visited)
            visited.remove(q)
            states.pop()
            labels.pop()

    for init in sorted(nfa.initial, key=repr):
        dfs(init, [init], [], {init})

    zero = {c: 0 for c in counters}
    omega_all = {c: OMEGA for c in counters}
    out = []
    for states, labels in paths:
        graphs = []
        for pos, s in enumerate(states):
            scc = sorted(comp[s], key=repr)
            name = {q: f"f{pos}.{q}" for q in scc}
            edges = []
            for q in scc:
                for a, r in succ.get(q, ()):
                    if r in comp[s]:
                        edges.append(Edge(name[q], a, unit(a), name[r]))
            in_val = dict(zero) if pos == 0 else dict(omega_all)
            out_val = dict(zero) if pos == len(states) - 1 else dict(omega_all)
            base = InitVass(
                Vass(name.values(), dyck_alphabet(n), counters, edges),
                GenConfig(name[s], in_val),
                GenConfig(name[s], out_val),
            )
            g = PrecoveringGraph(base, {name[q]: dict(omega_all) for q in scc})
            bad = validate_precovering(g)
            if bad:
                raise InvariantViolation(f"fold produced an invalid graph: {bad}")
            graphs.append(g)
        bridges = [Update(a, unit(a)) for a in labels]
        out.append(Dmgts(Mgts(graphs, bridges), 1, (), counters, faithful=True))
    return out
