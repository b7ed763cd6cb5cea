import hashlib
import io
import itertools

import numpy as np
import pytest

from torusflow.basis import BasisMode, SpectralField, get_basis, gradient, leray_project, random_field
from torusflow.dynamics import nonlinear_direct, nonlinear_pseudospectral, transport_apply
from torusflow.geometry import (
    InteriorSupportError,
    build_structure_tables,
    christoffel_contract,
    geodesic_drift,
    jacobi_residual,
    lie_bracket,
    write_tables_csv,
)

import oracles


def test_bracket_antisymmetry_and_self():
    b = get_basis(2)
    rng = np.random.default_rng(0)
    x = random_field(b, rng, include_mean=True)
    y = random_field(b, rng, include_mean=True)
    assert np.abs(lie_bracket(x, x).coeffs).max() <= 1e-13
    xy = lie_bracket(x, y)
    yx = lie_bracket(y, x)
    np.testing.assert_allclose(xy.coeffs, -yx.coeffs, atol=1e-13)


def test_bracket_with_constant_field():
    # [c_0, c_k] = d1 c_k = -k1 s_k
    b = get_basis(3)
    c0 = SpectralField.from_modes(b, [(BasisMode("c", (0, 0)), 1.0)])
    for k in [(1, 0), (2, 1), (0, 2)]:
        ck = SpectralField.from_modes(b, [(BasisMode("c", k), 1.0)])
        br = lie_bracket(c0, ck)
        assert br.coefficient(BasisMode("s", k)) == pytest.approx(-k[0], abs=1e-13)
        rest = np.abs(br.coeffs).sum() - abs(br.coefficient(BasisMode("s", k)))
        assert rest <= 1e-12


def test_bracket_ck_sk_vanishes():
    # both fields advect along the direction orthogonal to their only
    # wavevector, so each transport term dies; quadrature confirms
    b = get_basis(1)
    ck = SpectralField.from_modes(b, [(BasisMode("c", (1, 0)), 1.0)])
    sk = SpectralField.from_modes(b, [(BasisMode("s", (1, 0)), 1.0)])
    br = lie_bracket(ck, sk)
    assert np.abs(br.coeffs).max() <= 1e-13
    m = 16
    g = oracles.advect_grid(oracles.field_on_grid(ck, m), sk, m) - oracles.advect_grid(
        oracles.field_on_grid(sk, m), ck, m
    )
    assert np.abs(g).max() <= 1e-13


def test_bracket_against_quadrature_oracle():
    b = get_basis(2)
    rng = np.random.default_rng(3)
    x = random_field(b, rng, include_mean=True)
    y = random_field(b, rng, include_mean=True)
    br = lie_bracket(x, y)  # exact on the doubled square
    m = 32
    raw = oracles.advect_grid(oracles.field_on_grid(x, m), y, m) - oracles.advect_grid(
        oracles.field_on_grid(y, m), x, m
    )
    ref = oracles.project_grid(raw, br.basis)
    np.testing.assert_allclose(br.coeffs, ref.coeffs, atol=1e-12)


def test_structure_tables_antisymmetry_exact():
    c = build_structure_tables(2).c
    k, l, m = c.slots
    np.testing.assert_array_equal(c.vals, -c.lookup(l, k, m))
    assert np.all(k != l)


def test_structure_constants_against_quadrature():
    tab = build_structure_tables(2)
    big = tab.out_basis
    m = 32
    rng = np.random.default_rng(9)
    modes = [BasisMode("c", (1, 0)), BasisMode("s", (0, 1)), BasisMode("c", (1, 1)),
             BasisMode("s", (2, -1)), BasisMode("c", (0, 0))]
    for k, l in itertools.combinations(modes, 2):
        fk = SpectralField.from_modes(big, [(k, 1.0)])
        fl = SpectralField.from_modes(big, [(l, 1.0)])
        nuk = np.sqrt(oracles.quad_inner(oracles.field_on_grid(fk, m), oracles.field_on_grid(fk, m)))
        nul = np.sqrt(oracles.quad_inner(oracles.field_on_grid(fl, m), oracles.field_on_grid(fl, m)))
        raw = oracles.advect_grid(
            oracles.field_on_grid(fk, m), fl, m
        ) - oracles.advect_grid(oracles.field_on_grid(fl, m), fk, m)
        for out in [BasisMode("s", (1, 1)), BasisMode("c", (2, 1)), BasisMode("c", (0, 0)),
                    BasisMode("s", (1, -1))]:
            fo = SpectralField.from_modes(big, [(out, 1.0)])
            og = oracles.field_on_grid(fo, m)
            nuo = np.sqrt(oracles.quad_inner(og, og))
            ref = oracles.quad_inner(raw, og) / (nuk * nul * nuo)
            assert tab.c_entry(k, l, out) == pytest.approx(ref, abs=1e-12)


def test_christoffel_formula_entrywise():
    tab = build_structure_tables(2)
    # on triples with every slot interior the formula closes over stored c
    k, l, m = tab.gamma.slots
    inner = tab.interior[k] & tab.interior[l] & tab.interior[m]
    k, l, m = k[inner], l[inner], m[inner]
    expect = 0.5 * (tab.c.lookup(k, l, m) - tab.c.lookup(l, m, k) + tab.c.lookup(m, k, l))
    np.testing.assert_allclose(tab.gamma.vals[inner], expect, rtol=0, atol=1e-14)
    assert inner.sum() > 100


def test_jacobi_identity_on_resolved_triples():
    tab = build_structure_tables(2)
    mods = [
        BasisMode("c", (1, 0)),
        BasisMode("s", (1, 0)),
        BasisMode("c", (0, 1)),
        BasisMode("s", (0, 1)),
        BasisMode("c", (1, 1)),
        BasisMode("s", (1, -1)),
        BasisMode("c", (0, 0)),
    ]
    worst = 0.0
    for x, y, z in itertools.combinations(mods, 3):
        worst = max(worst, jacobi_residual(tab, x, y, z))
    assert worst <= 1e-10


def test_jacobi_unresolved_triple_raises():
    tab = build_structure_tables(1)
    with pytest.raises(InteriorSupportError):
        jacobi_residual(
            tab, BasisMode("c", (1, 0)), BasisMode("s", (0, 1)), BasisMode("c", (1, 1))
        )


def test_jacobi_element_outside_interior_raises():
    # c(2,0) is outside n=1; its brackets are not stored, so the residual
    # would read 0.0 without the guard
    tab = build_structure_tables(1)
    with pytest.raises(InteriorSupportError):
        jacobi_residual(tab, BasisMode("c", (2, 0)), BasisMode("c", (1, 0)), BasisMode("s", (0, 1)))


def test_c_entry_outside_interior_raises():
    k, l, m = BasisMode("c", (2, 0)), BasisMode("s", (0, 1)), BasisMode("c", (2, 1))
    assert build_structure_tables(2).c_entry(k, l, m) == pytest.approx(-0.2516, abs=1e-4)
    tab = build_structure_tables(1)
    with pytest.raises(InteriorSupportError):
        tab.c_entry(k, l, m)
    with pytest.raises(InteriorSupportError):
        tab.c_entry(l, k, m)


def test_geodesic_drift_single_mode_zero():
    tab = build_structure_tables(2)
    u = SpectralField.from_modes(get_basis(2), [(BasisMode("c", (1, 1)), 1.3)])
    assert np.abs(geodesic_drift(u, tab).coeffs).max() <= 1e-13


def test_geodesic_drift_matches_projected_advection():
    tab = build_structure_tables(2)
    b = get_basis(2)
    u = SpectralField.from_modes(
        b, [(BasisMode("c", (1, 0)), 0.8), (BasisMode("c", (1, 1)), -0.5)]
    )
    gd = geodesic_drift(u, tab)
    ref = -1.0 * nonlinear_pseudospectral(u, out_basis=tab.out_basis)
    np.testing.assert_allclose(gd.coeffs, ref.coeffs, atol=1e-10)
    # and against the tensor oracle restricted to the doubled square
    ref2 = -1.0 * nonlinear_direct(leray_project(u, tab.out_basis))
    np.testing.assert_allclose(gd.coeffs, ref2.coeffs, atol=1e-10)


def test_geodesic_drift_quadratic_homogeneity():
    tab = build_structure_tables(2)
    rng = np.random.default_rng(4)
    u = random_field(get_basis(2), rng)
    g1 = geodesic_drift(u, tab)
    g2 = geodesic_drift(2.0 * u, tab)
    np.testing.assert_allclose(g2.coeffs, 4.0 * g1.coeffs, atol=1e-12)


def test_geodesic_drift_interior_violation():
    tab = build_structure_tables(2)
    u = SpectralField.from_modes(get_basis(3), [(BasisMode("c", (3, 0)), 1.0)])
    with pytest.raises(InteriorSupportError):
        geodesic_drift(u, tab)


def test_geodesic_transport_reproduces_derivative():
    # contracting one Gamma slot against a constant field gives the projected
    # partial derivative (positive sign in the calibrated orientation)
    tab = build_structure_tables(2)
    rng = np.random.default_rng(8)
    u = random_field(get_basis(2), rng)
    for direction, kind in ((1, "c"), (2, "s")):
        e = SpectralField.from_modes(get_basis(0), [(BasisMode(kind, (0, 0)), 1.0)])
        got = christoffel_contract(e, u, tab)
        ref = leray_project(gradient(u)[direction - 1], tab.out_basis)
        np.testing.assert_allclose(got.coeffs, ref.coeffs, atol=1e-12)


def test_christoffel_contract_matches_field_transport():
    # Gamma(w, u) = P (w . grad) u for space-dependent w too, mean included
    tab = build_structure_tables(2)
    rng = np.random.default_rng(6)
    for _ in range(3):
        w = random_field(get_basis(2), rng, include_mean=True)
        u = random_field(get_basis(2), rng, include_mean=True)
        got = christoffel_contract(w, u, tab)
        ref = transport_apply(u, w, tab.out_basis)
        np.testing.assert_allclose(got.coeffs, ref.coeffs, atol=1e-12)


def test_tables_csv_dump():
    import csv as _csv

    tab = build_structure_tables(1)
    c_buf, g_buf = io.StringIO(), io.StringIO()
    write_tables_csv(tab, c_buf, g_buf)
    c_buf.seek(0)
    rows = list(_csv.reader(c_buf))
    assert rows[0] == ["k", "l", "m", "value"]
    assert len(rows) == len(tab.c.keys) + 1
    # antisymmetric pairs sum to zero in the dump
    vals = {(k, l, m): float(v) for k, l, m, v in rows[1:]}
    for (k, l, m), v in vals.items():
        assert v == -vals.get((l, k, m), 0.0)


def test_tables_csv_digests_pinned(tmp_path):
    # the n=2 dump, byte for byte
    write_tables_csv(build_structure_tables(2), tmp_path / "c.csv", tmp_path / "g.csv")
    digest = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digest == {
        "c.csv": "370ffa5ae9fc1878555f1cd204a33aa72f99a077997ff6d178ca8c84ec1f33d4",
        "g.csv": "374268fe5165abbb8f3ebd2a3fe7db4f7bfc155022854a45fee0e90838715b00",
    }
