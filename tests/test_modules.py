"""Matrix-data modules: validation, twists, duals, tensors, fixed lines."""

import random

import pytest

from phigamma.errors import InvariantError
from phigamma.modules import (
    dual_module,
    identity_matrix,
    make_module,
    module_from_json,
    module_to_json,
    reduce_mod,
    solve_phi_fixed,
    tate_twist,
    tensor_product,
)
from phigamma.normfield import NormFieldElement
from phigamma.wittside import ArithLiftElement

P, S, PREC = 3, 2, 16
CHI = 4  # the procyclic generator acts through 1 + p


def trivial(p=P, s=S, rank=1, prec=PREC):
    I = identity_matrix(p, s, rank, prec)
    return make_module(p, s, I, [("gamma", I, 1 + p)])


def unit_basis_change(b: ArithLiftElement):
    """Trivial module written in the basis b: Phi = phi(b)/b, G = gamma(b)/b."""
    binv = b.inverse()
    return make_module(b.p, b.s,
                       [[b.frobenius() * binv]],
                       [("gamma", [[b.gamma(CHI) * binv]], CHI)])


def test_trivial_module_validates():
    D = trivial()
    assert D.rank == 1 and D.window() == PREC


def test_basis_change_module_validates():
    pi = ArithLiftElement.pi_power(P, S, 1, PREC)
    D = unit_basis_change(pi)
    # det mod p is the nonzero element phi(pi)/pi mod p
    assert not D.phi[0][0].reduce_mod_p().is_zero()


def test_random_basis_changes_validate():
    rng = random.Random(83)
    for _ in range(10):
        coeffs = {rng.randint(-2, 6): rng.randint(1, 8) for _ in range(3)}
        coeffs[min(coeffs)] = rng.randint(1, 2)  # unit leading coefficient
        unit_basis_change(ArithLiftElement(P, S, coeffs, PREC))


def test_non_etale_rejected():
    I = identity_matrix(P, S, 1, PREC)
    with pytest.raises(InvariantError, match="etale"):
        make_module(P, S, [[ArithLiftElement.constant(P, S, 3, PREC)]],
                    [("gamma", I, CHI)])


def test_commutation_failure_names_entry():
    pi = ArithLiftElement.pi_power(P, S, 1, PREC)
    I = identity_matrix(P, S, 1, PREC)
    with pytest.raises(InvariantError, match=r"\(0, 0\)"):
        make_module(P, S, [[pi]], [("gamma", I, CHI)])


def test_twist_zero_is_identity():
    D = trivial()
    assert module_to_json(tate_twist(D, 0)) == module_to_json(D)


def test_twist_scales_generator_and_character():
    D1 = tate_twist(trivial(), 1)
    assert D1.generators[0].matrix[0][0].coeffs == {0: 4}
    assert D1.delta_character_exponent == 1


def test_twist_p_minus_one_at_s1_literally_trivial():
    D = trivial(s=1)
    Dn = tate_twist(D, P - 1)
    assert module_to_json(Dn) == module_to_json(D)


def test_twist_one_distinct_at_s1():
    D = trivial(s=1)
    assert module_to_json(tate_twist(D, 1)) != module_to_json(D)


def test_dual_and_tensor_cancel():
    D1 = tate_twist(trivial(), 1)
    Dm1 = dual_module(D1)
    # dual of a character module carries the inverse character matrix
    assert Dm1.generators[0].matrix[0][0].coeffs == {0: pow(4, -1, 9)}
    T = tensor_product(D1, Dm1)
    assert module_to_json(T) == module_to_json(trivial())


def test_dual_of_trivial_is_trivial():
    assert module_to_json(dual_module(trivial())) == module_to_json(trivial())


def test_dual_of_basis_change_validates():
    pi = ArithLiftElement.pi_power(P, S, 1, PREC)
    dual_module(unit_basis_change(pi))


def test_reduce_mod_trivial_and_twist():
    D = trivial()
    assert reduce_mod(D, 1).s == 1
    D1 = tate_twist(D, 1)
    r = reduce_mod(D1, 1)
    assert r.generators[0].matrix[0][0].coeffs == {0: 1}
    assert r.delta_character_exponent == 1


def test_reduce_commutes_with_tensor_and_dual():
    rng = random.Random(89)
    for _ in range(10):
        n1, n2 = rng.randint(-2, 2), rng.randint(-2, 2)
        D1 = tate_twist(trivial(), n1)
        D2 = tate_twist(trivial(), n2)
        lhs = reduce_mod(tensor_product(D1, D2), 1)
        rhs = tensor_product(reduce_mod(D1, 1), reduce_mod(D2, 1))
        assert module_to_json(lhs) == module_to_json(rhs)
        assert (module_to_json(reduce_mod(dual_module(D1), 1))
                == module_to_json(dual_module(reduce_mod(D1, 1))))


def test_rank2_block_module():
    I = identity_matrix(P, S, 2, PREC)
    pi = ArithLiftElement.pi_power(P, S, 1, PREC)
    phi = [[I[0][0], pi], [I[1][0], I[1][1]]]
    # upper-triangular unipotent-ish Phi with G = I fails commutation
    with pytest.raises(InvariantError):
        make_module(P, S, phi, [("gamma", I, CHI)])
    # but with constant off-diagonal entry it passes
    phi2 = [[I[0][0], ArithLiftElement.constant(P, S, 2, PREC)],
            [ArithLiftElement.zero(P, S, PREC), I[1][1]]]
    D = make_module(P, S, phi2, [("gamma", I, CHI)])
    assert D.rank == 2


def test_json_round_trip():
    pi = ArithLiftElement.pi_power(P, S, 1, PREC)
    D = unit_basis_change(pi)
    j = module_to_json(D)
    assert module_to_json(module_from_json(j)) == j


def test_json_rejects_wrong_schema():
    import json
    doc = json.loads(module_to_json(trivial()))
    doc["version"] = 99
    with pytest.raises(ValueError):
        module_from_json(json.dumps(doc))


def test_fixed_line_trivial():
    rep = solve_phi_fixed(trivial(s=1))
    assert rep.status == "line"
    assert rep.nonzero_count == P - 1
    assert rep.solution.terms() == {0: 1}


def test_fixed_line_planted():
    w = NormFieldElement(3, 0, {0: 1, 1: 1, 3: 2}, PREC)
    u = w.frobenius() * w.inverse()
    lift = ArithLiftElement.lift(u, 1)
    gl = ArithLiftElement.lift(u.gamma(CHI) * u.inverse(), 1)
    # rank-1 module built from the planted unit; gamma entry chosen to
    # satisfy commutation automatically since everything is a ratio of w
    wl = ArithLiftElement.lift(w, 1)
    D = make_module(3, 1, [[wl.frobenius() * wl.inverse()]],
                    [("gamma", [[wl.gamma(CHI) * wl.inverse()]], CHI)])
    rep = solve_phi_fixed(D)
    assert rep.status == "line"
    # the line is spanned by w^{-1}
    prod = rep.solution * w
    assert all(q == 0 for q in prod.terms())


def test_fixed_line_basis_change_always_solvable():
    # any unit basis change of the trivial module carries the line b^{-1}
    pi = ArithLiftElement.pi_power(3, 1, 1, PREC)
    D = make_module(3, 1, [[pi.frobenius() * pi.inverse()]],
                    [("gamma", [[pi.gamma(CHI) * pi.inverse()]], CHI)])
    rep = solve_phi_fixed(D)
    assert rep.status == "line"
    prod = rep.solution * pi.reduce_mod_p()
    assert all(q == 0 for q in prod.terms())


def test_fixed_line_inconclusive():
    # v^2 = 2 has no root in F_3, and constants see no tower help
    two = identity_matrix(3, 1, 1, PREC)
    phi = [[ArithLiftElement.constant(3, 1, 2, PREC)]]
    D = make_module(3, 1, phi, [("gamma", two, CHI)])
    rep = solve_phi_fixed(D)
    assert rep.status == "inconclusive"
