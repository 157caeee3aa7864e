"""The integer simplex tableau against the rational one it replaced.

`rational_simplex` is the former Fraction engine, kept as the oracle. The two
must take the same pivots, so they agree on status, optimum and vertex, and
every decomposition trace and separability report comes out byte-identical.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rational_simplex
from vasslab import solver
from vasslab.decomposition import decompose, trace_to_jsonl
from vasslab.driver import PipelineCaps, cmd_separate
from vasslab.errors import ResourceExhausted
from vasslab.solver import LinSystem, _Relaxation, ilp_feasible

from conftest import subject_dyck_a1
from test_acceptance import curated_suite

coeff = st.integers(-3, 3)


@st.composite
def systems(draw):
    """A small LinSystem, some bound cuts and an objective, all over [-3, 3]."""
    n = draw(st.integers(1, 4))
    vars = [f"x{i}" for i in range(n)]
    nonneg = [v for v in vars if draw(st.booleans())]
    eqs = [
        ({v: draw(coeff) for v in vars}, draw(coeff))
        for _ in range(draw(st.integers(0, 3)))
    ]
    if len(eqs) >= 2 and draw(st.booleans()):  # a redundant row
        (a, p), (b, q) = eqs[:2]
        eqs.append(({v: a[v] + b[v] for v in vars}, p + q))
    lower = {v: draw(coeff) for v in vars if draw(st.integers(0, 3)) == 0}
    upper = {v: draw(coeff) for v in vars if draw(st.integers(0, 3)) == 0}
    objective = {v: draw(coeff) for v in vars}
    return LinSystem(vars, eqs, nonneg), lower, upper, objective


def standard_form(relax, objective):
    c = [Fraction(0)] * len(relax.cols)
    for v, cf in objective.items():
        j = relax.colidx[v]
        c[j] = Fraction(cf)
        if relax.cols[j + 1:j + 2] == [(v, -1)]:
            c[j + 1] = -c[j]
    return relax._rows, relax._rhs, c


def _solve_recording_pivots(module, A, b, c):
    pivots = []
    pivot = module._pivot

    def recording(rows, basis, r, col):
        pivots.append((r, col))
        pivot(rows, basis, r, col)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_pivot", recording)
        return module._solve_standard(A, b, c), pivots


@settings(max_examples=400)
@given(systems())
def test_same_pivots_status_value_and_vertex(case):
    system, lower, upper, objective = case
    A, b, c = standard_form(_Relaxation(system, lower, upper), objective)
    assert (_solve_recording_pivots(solver, A, b, c)
            == _solve_recording_pivots(rational_simplex, A, b, c))


def _integer_solution(system):
    try:
        sol = ilp_feasible(system, node_budget=200)
    except ResourceExhausted:
        return "exhausted"
    return sol and sol.assignment


@settings(max_examples=100)
@given(systems())
def test_same_integer_solution(case):
    system = case[0]
    ours = _integer_solution(system)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_solve_standard", rational_simplex._solve_standard)
        assert _integer_solution(system) == ours


def _outputs():
    traces = [trace_to_jsonl(decompose(dm).trace) for _, dm in curated_suite()]
    report = cmd_separate(subject_dyck_a1(), PipelineCaps(max_word_len=6))
    return traces, json.dumps(report.to_json(), sort_keys=True)


def test_traces_and_report_byte_identical(monkeypatch):
    ours = _outputs()
    monkeypatch.setattr(solver, "_solve_standard", rational_simplex._solve_standard)
    assert _outputs() == ours
