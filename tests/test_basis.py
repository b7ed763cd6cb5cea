import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow.basis import (
    CHUNK_PATHS,
    BasisMode,
    ResolutionError,
    SpectralField,
    Workspace,
    batch_h1_sq,
    batch_l2_sq,
    batch_norms_sq,
    constant_advection,
    constant_symbol,
    divergence_max,
    gather_coeffs,
    get_basis,
    grid_to_halfspectrum,
    gradient,
    halfspectrum_to_grid,
    l2_inner,
    leray_project,
    path_chunks,
    place_halfspectrum,
    random_field,
)
from torusflow.dynamics import dealias_resolution

import oracles

PI = np.pi


def to_grid(f: SpectralField, m: int) -> np.ndarray:
    """The field's ``(m, m, 2)`` collocation values through the stepper's transforms."""
    grid = halfspectrum_to_grid(place_halfspectrum(f.basis, f.coeffs, m), m)
    return np.moveaxis(grid, 0, -1)


def from_grid(values: np.ndarray, basis) -> SpectralField:
    """Projection of ``(m, m, 2)`` grid samples through the stepper's transforms."""
    spec = grid_to_halfspectrum(np.moveaxis(values, -1, 0), basis)
    return SpectralField(basis, gather_coeffs(basis, spec, values.shape[0]))


def mode_on_grid(b, mode: BasisMode, m: int) -> np.ndarray:
    return to_grid(SpectralField.from_modes(b, [(mode, 1.0)]), m)


def mp_mode_on_grid(mode: BasisMode, m: int) -> np.ndarray:
    """The basis definition at every node, in high precision."""
    T1, T2 = oracles.grid_nodes(m)
    out = np.empty((m, m, 2))
    for a, c in itertools.product(range(m), repeat=2):
        out[a, c] = [float(x) for x in oracles.eval_mode_mp(mode, T1[a, c], T2[a, c])]
    return out


def test_enumeration_counts():
    for n in (0, 1, 3, 8):
        b = get_basis(n)
        assert b.n_modes == 1 + ((2 * n + 1) ** 2 - 1) // 2
        assert tuple(b.modes[0]) == (0, 0)
        # closed under k -> -k after folding, and the square folds onto every row
        rows = set()
        for k in itertools.product(range(-n, n + 1), repeat=2):
            i, cs, ss = b.mode_id(k)
            j, _, _ = b.mode_id((-k[0], -k[1]))
            assert i == j
            rows.add(i)
        assert rows == set(range(b.n_modes))


def test_fold_signs_match_pointwise():
    # c_{-k} = -c_k and s_{-k} = +s_k: a mode placed at -k is folded onto the
    # row of k with these signs, and lands on the high-precision definition
    b = get_basis(3)
    m = 8
    for k in [(1, 0), (0, 2), (2, -1), (1, 3)]:
        mk = (-k[0], -k[1])
        for kind, sign in (("c", -1.0), ("s", 1.0)):
            g = mode_on_grid(b, BasisMode(kind, mk), m)
            assert np.array_equal(g, sign * mode_on_grid(b, BasisMode(kind, k), m))
            np.testing.assert_allclose(g, mp_mode_on_grid(BasisMode(kind, mk), m), atol=1e-15)


def test_eval_mode_examples():
    b = get_basis(1)
    const = mode_on_grid(b, BasisMode("c", (0, 0)), 8)
    assert np.all(const[..., 0] == 1.0) and np.all(const[..., 1] == 0.0)
    np.testing.assert_allclose(mode_on_grid(b, BasisMode("s", (1, 0)), 8)[0, 0], [0.0, 0.0])
    # cos(pi/2) kills the (1,1) mode at theta = (pi/2, 0), node (2, 0) of m = 8
    v = mode_on_grid(b, BasisMode("c", (1, 1)), 8)[2, 0]
    assert np.abs(v).max() <= 1e-12


def test_eval_mode_against_high_precision_oracle():
    rng = np.random.default_rng(7)
    b = get_basis(4)
    m = 10
    for _ in range(20):
        kind = str(rng.choice(["c", "s"]))
        k = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
        got = mode_on_grid(b, BasisMode(kind, k), m)
        ref = mp_mode_on_grid(BasisMode(kind, k), m)
        assert np.abs(got - ref).max() < 1e-13


def test_synthesize_trivial_cases():
    b = get_basis(2)
    z = to_grid(SpectralField.zero(b), 8)
    assert np.all(z == 0.0)
    const = to_grid(SpectralField.from_modes(b, [(BasisMode("c", (0, 0)), 3.0)]), 8)
    np.testing.assert_allclose(const[..., 0], 3.0)
    np.testing.assert_allclose(const[..., 1], 0.0)


def test_synthesize_matches_pointwise_eval():
    b = get_basis(1)
    f = SpectralField.from_modes(b, [(BasisMode("c", (1, 0)), 1.0)])
    g = to_grid(f, 8)
    np.testing.assert_allclose(g, mp_mode_on_grid(BasisMode("c", (1, 0)), 8), atol=1e-14)


def test_synthesize_resolution_guard():
    b = get_basis(4)
    with pytest.raises(ResolutionError):
        place_halfspectrum(b, SpectralField.zero(b).coeffs, 8)
    with pytest.raises(ResolutionError):
        grid_to_halfspectrum(np.zeros((2, 8, 8)), b)


@pytest.mark.parametrize("n", range(1, 9))
def test_block_transforms_against_rfft2_oracle(n):
    # the two real matrix stages each way against scipy's irfft2/rfft2 of the
    # full half-spectrum, reached through the real block <-> half-spectrum
    # conversions, at the grid every pass at truncation n uses (even m
    # included) and onto output blocks larger than the input's
    rng = np.random.default_rng(100 + n)
    b = get_basis(n)
    m = dealias_resolution(n, n, n)
    spec = rng.standard_normal((3, 4, n + 1, 2 * (2 * n + 1)))
    want = oracles.block_to_grid(oracles.block_to_halfspectrum(spec), m)
    assert np.abs(halfspectrum_to_grid(spec, m) - want).max() <= 1e-14 * np.abs(want).max()
    coeffs = rng.standard_normal((3, 2, b.n_modes))
    placed = place_halfspectrum(b, coeffs, m)
    want = oracles.block_to_grid(oracles.block_to_halfspectrum(placed), m)
    assert np.abs(halfspectrum_to_grid(placed, m) - want).max() <= 1e-14 * np.abs(want).max()
    for n_out, m_out in ((n, m), ((m - 1) // 2, m), (n + 3, dealias_resolution(n, n, n + 3))):
        grid = rng.standard_normal((3, 2, m_out, m_out))
        want = oracles.halfspectrum_to_block(oracles.grid_to_block(grid, n_out))
        got = grid_to_halfspectrum(grid, get_basis(n_out))
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_placement_fields_against_pointwise_derivatives():
    # the placed components (u1, u2), mean included, against the mode-wise
    # oracle
    rng = np.random.default_rng(8)
    b = get_basis(4)
    m = 15
    f = random_field(b, rng, include_mean=True)
    grids = halfspectrum_to_grid(place_halfspectrum(b, f.coeffs, m), m)
    u = oracles.field_on_grid(f, m)
    np.testing.assert_allclose(np.moveaxis(grids, 0, -1), u, rtol=0, atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    b = get_basis(4)
    f = random_field(b, rng, include_mean=True)
    f2 = from_grid(to_grid(f, 16), b)
    scale = np.abs(f.coeffs).max()
    assert np.abs(f2.coeffs - f.coeffs).max() <= 1e-12 * scale


def test_analyze_discards_gradient_part():
    # (cos theta1, 0) is a pure gradient: its projection vanishes and the
    # pointwise residual is the whole field.
    b = get_basis(3)
    m = 16
    T1, _ = oracles.grid_nodes(m)
    g = np.stack([np.cos(T1), np.zeros_like(T1)], axis=-1)
    p = from_grid(g, b)
    assert np.abs(p.coeffs).max() <= 1e-13
    residual = g - to_grid(p, m)
    assert np.abs(residual).max() == pytest.approx(1.0, abs=1e-12)
    # quadrature cross-check of the projection, mode by mode
    ref = oracles.project_grid(g, b)
    assert np.abs(ref.coeffs).max() <= 1e-13


def test_analyze_mixed_field_against_quadrature_oracle():
    b = get_basis(2)
    m = 16
    T1, T2 = oracles.grid_nodes(m)
    vals = np.stack(
        [np.cos(T1) + 0.5 * np.sin(T2) * np.cos(T1), -0.3 * np.cos(T2) + 0.1], axis=-1
    )
    got = from_grid(vals, b)
    ref = oracles.project_grid(vals, b)
    np.testing.assert_allclose(got.coeffs, ref.coeffs, atol=1e-12)


def test_gradient_modewise():
    b = get_basis(2)
    f = SpectralField.from_modes(b, [(BasisMode("c", (1, 0)), 1.0)])
    d1, d2 = gradient(f)
    assert d1.coefficient(BasisMode("s", (1, 0))) == pytest.approx(-1.0)
    assert np.abs(d2.coeffs).max() == 0.0
    z1, z2 = gradient(SpectralField.from_modes(b, [(BasisMode("c", (0, 0)), 2.0)]))
    assert np.abs(z1.coeffs).max() == 0.0 and np.abs(z2.coeffs).max() == 0.0


def test_constant_advection_into_kept_arrays_holds_the_stacked_bits():
    # the rotation written into a given array, and into a fresh one, holds
    # the bits of the first np.stack form, the signs of zeros included
    rng = np.random.default_rng(14)
    b = get_basis(5)
    coeffs = np.stack([random_field(b, rng).coeffs for _ in range(4)])
    coeffs[1, 0] = 0.0
    kappa = constant_symbol(b, rng.standard_normal((4, 1)), rng.standard_normal((4, 1)))
    kappa[2] = -0.0
    want = oracles.rotate_fresh(kappa, coeffs)
    kept = np.full_like(coeffs, np.nan)
    for got in (constant_advection(kappa, coeffs), constant_advection(kappa, coeffs, out=kept)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert constant_advection(kappa, coeffs, out=kept) is kept
    k1 = b.modes[:, 0].astype(np.float64)
    assert np.array_equal(constant_advection(k1, coeffs[0]), oracles.rotate_fresh(k1, coeffs[0]))


def test_gradient_against_symbolic_shift():
    # d_l maps (a cos + b sin) to (k_l b cos - k_l a sin) for every mode
    rng = np.random.default_rng(3)
    b = get_basis(3)
    f = random_field(b, rng, include_mean=True)
    d1, d2 = gradient(f)
    for i, (k1, k2) in enumerate(b.modes):
        a, s = f.coeffs[:, i]
        np.testing.assert_allclose(d1.coeffs[:, i], [k1 * s, -k1 * a], atol=1e-15)
        np.testing.assert_allclose(d2.coeffs[:, i], [k2 * s, -k2 * a], atol=1e-15)


def test_leray_idempotent_and_selfadjoint():
    rng = np.random.default_rng(5)
    b = get_basis(3)
    f = random_field(b, rng)
    p = leray_project(f, b)
    np.testing.assert_allclose(p.coeffs, f.coeffs, atol=1e-12)

    # on grid samples the projection is the transform pair of every step
    m = 24
    ga = rng.standard_normal((m, m, 2))
    gb = rng.standard_normal((m, m, 2))
    pa = to_grid(from_grid(ga, b), m)
    pb = to_grid(from_grid(gb, b), m)
    lhs = oracles.quad_inner(pa, gb)
    rhs = oracles.quad_inner(ga, pb)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    # <P g, grad phi> = 0 for a gradient test function
    T1, T2 = oracles.grid_nodes(m)
    grad_phi = np.stack([-np.sin(T1) * 2.0, np.zeros_like(T1)], axis=-1)
    assert abs(oracles.quad_inner(pa, grad_phi)) <= 1e-10 * np.abs(pa).max()


def test_norm_examples():
    b = get_basis(1)
    f = SpectralField.from_modes(b, [(BasisMode("c", (1, 0)), 1.0)])
    assert l2_inner(f, f) == pytest.approx(2 * PI**2, rel=1e-14)
    assert f.h1_norm() ** 2 == pytest.approx(2 * PI**2, rel=1e-14)
    g = SpectralField.from_modes(b, [(BasisMode("c", (0, 0)), 3.0)])
    assert l2_inner(g, g) == pytest.approx(36 * PI**2, rel=1e-14)
    assert g.h1_norm() == 0.0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_parseval_and_divergence(seed):
    rng = np.random.default_rng(seed)
    b = get_basis(4)
    f = random_field(b, rng, include_mean=True)
    g = to_grid(f, 64)
    quad = oracles.quad_inner(g, g)
    assert quad == pytest.approx(f.l2_norm() ** 2, rel=1e-10)
    assert divergence_max(f) <= 1e-10


def test_laplacian_eigenvalue_property():
    # -laplace e_k = |k|^2 e_k checked spectrally via two gradients
    b = get_basis(3)
    for k in [(1, 0), (2, 2), (0, 3), (3, -1)]:
        for kind in "cs":
            f = SpectralField.from_modes(b, [(BasisMode(kind, k), 1.0)])
            d1, d2 = gradient(f)
            d11, _ = gradient(d1)
            _, d22 = gradient(d2)
            lap = d11.coeffs + d22.coeffs
            np.testing.assert_allclose(-lap, (k[0] ** 2 + k[1] ** 2) * f.coeffs, atol=1e-13)


def test_h1_seminorm_equals_gradient_l2():
    rng = np.random.default_rng(11)
    b = get_basis(4)
    f = random_field(b, rng, include_mean=True)
    d1, d2 = gradient(f)
    assert f.h1_norm() ** 2 == pytest.approx(
        l2_inner(d1, d1) + l2_inner(d2, d2), rel=1e-12
    )


def test_batch_norms_match_the_single_norms_bit_for_bit():
    # the runners' norms, squared once into reused arrays, round as
    # batch_l2_sq and batch_h1_sq do, also when the arrays are reused
    work = Workspace()
    for n, paths in ((1, 1), (3, 7), (8, 256), (8, 100), (8, 300), (3, 7)):
        b = get_basis(n)
        rng = np.random.default_rng(paths)
        u = rng.standard_normal((paths, 2, b.n_modes)) * rng.uniform(0, 10, (paths, 2, b.n_modes))
        l2, h1 = batch_norms_sq(b, u, work)
        assert np.array_equal(l2, batch_l2_sq(b, u))
        assert np.array_equal(h1, batch_h1_sq(b, u))


def test_batch_norms_hold_one_chunk():
    # 1024 paths are squared in chunks: the workspace keeps two
    # (CHUNK_PATHS, N) arrays, not two (1024, N) ones
    work = Workspace()
    b = get_basis(8)
    batch_norms_sq(b, np.random.default_rng(5).standard_normal((1024, 2, b.n_modes)), work)
    assert sum(a.nbytes for a in work._slots.values()) == 2 * CHUNK_PATHS * b.n_modes * 8


def test_path_chunks_cover_the_batch_from_chunk_starts():
    # chunks start at multiples of CHUNK_PATHS, where the batch's rows
    # repeat their place in a product, and none but a lone batch has 1-3 paths
    for paths in range(1, 3 * CHUNK_PATHS + 5):
        chunks = path_chunks(paths)
        assert [c.start for c in chunks] == list(range(0, paths, CHUNK_PATHS))[: len(chunks)]
        assert chunks[-1].stop == paths
        assert all(a.stop == b.start for a, b in zip(chunks, chunks[1:]))
        sizes = [c.stop - c.start for c in chunks]
        assert max(sizes) < CHUNK_PATHS + 4
        assert len(sizes) == 1 or min(sizes) >= 4


def test_workspace_takes_smaller_shapes_from_the_slot():
    # a smaller shape is a contiguous view of the slot's first elements; a
    # larger one reallocates the slot
    work = Workspace()
    full = work.take("a", (21, 3, 4))
    part = work.take("a", (4, 5))
    assert part.shape == (4, 5) and part.flags.c_contiguous
    assert part.ctypes.data == full.ctypes.data
    assert work.take("a", (21, 3, 4)).ctypes.data == full.ctypes.data
    assert not np.shares_memory(work.take("a", (22, 3, 4)), full)
    assert not np.shares_memory(work.take("b", (4, 5)), full)
