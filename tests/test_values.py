from hypothesis import given
from hypothesis import strategies as st

from vasslab.values import (
    OMEGA,
    Omega,
    gate_ok,
    is_omega,
    omega_set,
    value_from_json,
    value_to_json,
    vec_add,
)


def test_omega_is_a_singleton():
    assert Omega() is OMEGA


def test_omega_absorbs_addition():
    assert OMEGA + 5 is OMEGA
    assert -3 + OMEGA is OMEGA
    assert OMEGA + OMEGA is OMEGA


@given(st.integers(min_value=-10**18, max_value=10**18))
def test_omega_above_every_finite_value(x):
    assert OMEGA > x
    assert x < OMEGA
    assert not OMEGA <= x
    assert OMEGA >= x


def test_value_json_roundtrip_arbitrary_precision():
    big = 10**60 + 7
    assert value_from_json(value_to_json(big)) == big
    assert value_from_json(value_to_json(OMEGA)) is OMEGA


def test_omega_set_stable_under_copy():
    v = {"a": OMEGA, "b": 3}
    assert omega_set(v) == {"a"}
    assert omega_set(dict(v)) == {"a"}


def test_vec_add_keeps_omega():
    v = vec_add({"a": OMEGA, "b": 1}, {"a": -5, "b": 2})
    assert is_omega(v["a"]) and v["b"] == 3


def test_specialization_preorder():
    # modulus 0: k passes k and omega, nothing else
    assert gate_ok(3, 3, 0) and gate_ok(3, OMEGA, 0) and not gate_ok(3, 4, 0)
    assert not gate_ok(OMEGA, 3, 0) and gate_ok(OMEGA, OMEGA, 0)


def test_mod_omega_preorder():
    assert gate_ok(5, 2, 3) and gate_ok(2, 5, 3) and not gate_ok(1, 3, 3)
    assert gate_ok(7, OMEGA, 3) and not gate_ok(OMEGA, 1, 3)


def test_mod_implied_by_exact():
    # the modulo gate is implied by the exact one
    for mu in range(1, 7):
        for a in range(0, 21):
            for b in list(range(0, 21)) + [OMEGA]:
                if gate_ok(a, b, 0):
                    assert gate_ok(a, b, mu)


def test_restricted_comparison():
    # a counter absent from the gate map is not compared
    bound, gates = {"a": 1, "b": 2}, {"a": 0}

    def passes(val):
        return all(gate_ok(val[c], bound[c], m) for c, m in gates.items())

    assert passes({"a": 1, "b": 99})
    assert not passes({"a": 2, "b": 2})
