"""Assembly contracts, eigensolver agreement, and variational structure."""

import dataclasses
import math

import numpy as np
import pytest

from scipy.linalg.lapack import dpbtrf

from rtstab import variational
from rtstab.variational import (BAND, assemble, band_mv, build_mesh, cholesky,
                                eig_residual, evaluate_energy, field_rows,
                                form_coefficients, form_terms, is_min_eigenpair, lu,
                                min_eig)
from rtstab.equilibrium import PolytropicLaw, solve_equilibrium
from rtstab.errors import BandOverflow, SolverDivergence
from rtstab.evolve import semidiscretize
from tests.conftest import unit_params, unit_profile
from tests.oracles import (add_element, assemble_forms, assemble_forms_3field,
                           assemble_forms_alt, continuity_rows, dense, dense_forms,
                           element_layer, min_eig_3field, min_eig_dense)


def test_build_mesh_examples():
    m = build_mesh(1.0, 1.0, 2, 2)
    assert np.allclose(m.nodes, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert m.ndof == 8
    m2 = build_mesh(2.0, 1.0, 4, 2)
    assert np.allclose(np.diff(m2.nodes), 0.5)
    with pytest.raises(ValueError):
        build_mesh(1.0, 1.0, 1, 2)


def test_equal_meshes_compare_and_hash_by_identity():
    # a generated __eq__ compares the nodes arrays and raises on their
    # ambiguous truth value, and a generated __hash__ raises on an array
    a, b = build_mesh(1, 1, 4, 4), build_mesh(1, 1, 4, 4)
    assert np.array_equal(a.nodes, b.nodes)
    assert a == a and a != b
    assert len({a, b}) == 2


def test_zero_vector_zero_forms(unstable_profile, mesh40):
    forms = form_coefficients(mesh40, unstable_profile).at(1.0)
    v = np.zeros(mesh40.ndof)
    e, j = evaluate_energy(forms, v, 0.7)
    assert e == 0.0 and j == 0.0


def test_exact_symmetry_and_definiteness(unstable_profile, mesh40):
    forms = form_coefficients(mesh40, unstable_profile).at(1.3)
    K0, K1, M = dense(forms.K0), dense(forms.K1), dense(forms.M)
    assert np.array_equal(K0, K0.T)
    assert np.array_equal(K1, K1.T)
    assert np.array_equal(M, M.T)
    assert np.linalg.eigvalsh(K1).min() >= -1e-14
    assert np.linalg.eigvalsh(M).min() > 0


def test_stable_orientation_k0_psd(stable_profile, mesh40):
    # jump <= 0 and sigma >= 0 make the static energy nonnegative
    K0 = dense(form_coefficients(mesh40, stable_profile).at(1.0).K0)
    scale = np.abs(K0).max()
    assert np.linalg.eigvalsh(K0).min() >= -1e-13 * scale


def test_energy_lower_bound_random(unstable_profile, params, mesh40):
    rng = np.random.default_rng(42)
    coeffs = form_coefficients(mesh40, unstable_profile)
    for xi in (0.5, 1.0, 2.0):
        forms = coeffs.at(xi)
        M = dense(forms.M)
        for _ in range(100):
            v = rng.standard_normal(mesh40.ndof)
            v /= math.sqrt(v @ M @ v)
            e, j = evaluate_energy(forms, v, 0.2)
            assert j == pytest.approx(1.0, abs=1e-10)
            assert e >= -params.g * xi - 1e-10


def test_stable_alpha_nonnegative(stable_profile, mesh40):
    forms = form_coefficients(mesh40, stable_profile).at(1.0)
    for s in np.geomspace(1e-6, 2.0, 8):
        alpha, _ = min_eig(forms, s)
        assert alpha >= -1e-12


def test_alpha_respects_lower_bound(unstable_profile, params, mesh40):
    # sharpest form of the energy bound: the infimum itself sits above -g|xi|
    coeffs = form_coefficients(mesh40, unstable_profile)
    for xi in (0.5, 1.0, 2.5):
        forms = coeffs.at(xi)
        alpha, _ = min_eig(forms, 1e-6)
        assert alpha >= -params.g * xi - 1e-10


def test_dense_vs_iterative(unstable_profile, stable_profile):
    # the README pair at 20 elements per layer, then at 40 the gamma = 1.4
    # pair, the stiff isothermal pair and the stable orientation (alpha > 0)
    poly = solve_equilibrium(PolytropicLaw(1.0, 1.4),
                             PolytropicLaw(2.0, 1.4), unit_params())
    stiff = solve_equilibrium(PolytropicLaw(400.0, 1.0), PolytropicLaw(800.0, 1.0),
                              unit_params(p_atm=400.0))
    rng = np.random.default_rng(3)
    for prof, n in ((unstable_profile, 20), (poly, 40), (stiff, 40), (stable_profile, 40)):
        coeffs = form_coefficients(build_mesh(1.0, 1.0, n, n), prof)
        for _ in range(10):
            xi = float(rng.uniform(0.3, 3.0))
            s = float(rng.uniform(1e-4, 1.5))
            forms = coeffs.at(xi)
            a_dense, _ = min_eig_dense(forms, s)
            a_iter, v = min_eig(forms, s)
            assert abs(a_dense - a_iter) <= 1e-9
            assert is_min_eigenpair(forms, s, a_iter, v, 1e-12)
            if prof is stable_profile:
                assert a_iter > 0


def test_shift_invert_is_deterministic(unstable_profile, mesh100):
    # min_eig draws nothing at random (a fixed bracket and start vector), so
    # repeated solves are bit-identical
    for s in (1e-6, 0.5):
        runs = [min_eig(form_coefficients(mesh100, unstable_profile).at(1.0), s)
                for _ in range(2)]
        forms = form_coefficients(mesh100, unstable_profile).at(1.0)
        runs += [min_eig(forms, s) for _ in range(2)]
        for alpha, v in runs[1:]:
            assert alpha == runs[0][0]
            assert np.array_equal(v, runs[0][1])


def test_min_eig_refuses_what_it_cannot_certify(unstable_profile, mesh40, monkeypatch):
    forms = form_coefficients(mesh40, unstable_profile).at(1.0)
    # with g < 0 the bound -1.1 g|xi| - 1 lies above the spectrum, as does 0
    with pytest.raises(SolverDivergence, match="below the spectrum"):
        min_eig(dataclasses.replace(forms, g=-10.0), 1e-6)
    # one inverse-iteration step cannot show that the quotient settled
    monkeypatch.setattr(variational, "INV_MAX_ITER", 1)
    with pytest.raises(SolverDivergence, match="did not settle"):
        min_eig(forms, 1e-6)


@pytest.mark.parametrize("s", [1e-6, 0.3, 1.0])
def test_min_eig_bisects_on_after_a_failed_certificate(unstable_profile, mesh40,
                                                       monkeypatch, s):
    # refuse the first certificate, the one Cholesky shift within 2 eps of
    # the smallest eigenvalue (every bracket shift lies millions of eps
    # away): min_eig must bisect on and certify the same eigenvalue
    forms = form_coefficients(mesh40, unstable_profile).at(1.0)
    a_dense, _ = min_eig_dense(forms, s)
    K, M, eps = forms.stiffness(s)[0], forms.M, forms.certificate_eps(s)
    j = int(np.argmax(M[BAND]))
    refused = []

    def refuse_first_certificate(ab):
        shift = (K[BAND, j] - ab[BAND, j]) / M[BAND, j]
        if not refused and abs(shift - a_dense) <= 2 * eps:
            refused.append(shift)
            return ab, 1
        return dpbtrf(ab)

    monkeypatch.setattr(variational, "dpbtrf", refuse_first_certificate)
    alpha, v = min_eig(forms, s)
    assert len(refused) == 1
    assert abs(alpha - a_dense) <= 1e-9
    monkeypatch.undo()
    assert is_min_eigenpair(forms, s, alpha, v, 1e-12)


def test_sparse_matches_dense_past_sigma_c(unstable_profile):
    # supercritical tension: at s = 1e-8 S_max the lowest eigenvalues are
    # small, positive and clustered, so the certified shift 0 is used
    sigma_c = unstable_profile.jump  # g = L1 = L2 = 1
    prof = unit_profile(sigma_minus=1.05 * sigma_c, sigma_plus=0.1)
    mesh = build_mesh(1.0, 1.0, 100, 100)
    s = 1e-8 * 1.25 * unstable_profile.jump
    coeffs = form_coefficients(mesh, prof)
    for xi in (1.0, 2.0, 5.0, 11.5):
        forms = coeffs.at(xi)
        a_sparse, v = min_eig(forms, s)
        a_dense, _ = min_eig_dense(forms, s)
        assert a_dense > 0
        assert abs(a_sparse - a_dense) <= 1e-9
        assert eig_residual(forms, s, a_sparse, v) <= 1e-12


def _pd(forms, s, shift):
    """Whether the banded Cholesky accepts K0 + s K1 - shift M."""
    K = forms.K0 + s * forms.K1 - shift * forms.M
    return dpbtrf(K[:BAND + 1])[1] == 0


def test_band_storage_reproduces_interleaved_forms():
    # the kernel's band storage against a dense per-element, per-point sum,
    # with mu' != 0 and both surface tensions on
    prof = unit_profile(mu_plus=0.7, mu_prime_plus=0.2, mu_prime_minus=0.3,
                        sigma_plus=0.2, sigma_minus=0.1)
    mesh = build_mesh(1.0, 1.0, 7, 9)
    coeffs = form_coefficients(mesh, prof)
    for xi in (0.4, 1.3, 6.0):
        forms = coeffs.at(xi)
        assert forms.psi_interface_dof == 2 * mesh.interface_index - 1
        for ab, ref in zip((forms.K0, forms.K1, forms.M),
                           dense_forms(mesh, prof, xi)):
            assert ab.shape == (2 * BAND + 1, mesh.ndof)
            assert np.abs(dense(ab) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_band_overflow_is_a_solver_error(unstable_profile, mesh40):
    # the pencil in block order (all phi, then all psi) is far wider than
    # BAND: the kernel refuses it
    nf = mesh40.n_free
    dofs = np.arange(mesh40.n_elements)[:, None] - 1 + np.array([0, 1, nf, nf + 1])
    dofs[0, 0::2] = -1
    _div, _visc, mass = form_terms(
        mesh40, form_coefficients(mesh40, unstable_profile).fields, 1.0)
    with pytest.raises(BandOverflow):
        assemble(mesh40, mass, dofs, dofs, mesh40.ndof, BAND)
    assert not isinstance(BandOverflow(), ValueError)


def test_below_root_matches_dense(unstable_profile, mesh100):
    # at |xi| = 1 the root is near s = 0.075; below it K is indefinite, so
    # the shift is the far bound -1.1 g|xi| - 1
    forms = form_coefficients(mesh100, unstable_profile).at(1.0)
    for s in (0.02, 0.05):
        a_dense, _ = min_eig_dense(forms, s)
        assert s * s + a_dense < 0
        assert not _pd(forms, s, 0.0)
        alpha, v = min_eig(forms, s)
        assert abs(alpha - a_dense) <= 1e-10
        assert eig_residual(forms, s, alpha, v) <= 1e-12


def test_band_arrays_are_fortran_ordered(unstable_profile, mesh100):
    # dgbmv reads Fortran-ordered band arrays in place; a C-ordered copy of
    # the same storage gives the same products bit for bit.  That holds for
    # the forms and for the evolution oracle's operators
    coeffs = form_coefficients(mesh100, unstable_profile)
    forms, ops = coeffs.at(1.3), semidiscretize(coeffs, 1.3)
    rng = np.random.default_rng(3)
    for arrays in ((forms.K0, forms.K1, forms.M), (ops.Mu, ops.Du)):
        v = rng.standard_normal(arrays[0].shape[1])
        for ab in arrays:
            assert ab.flags.f_contiguous and not ab.flags.c_contiguous
            assert np.array_equal(band_mv(ab, v), band_mv(np.ascontiguousarray(ab), v))


def _coefficient_scenarios(unstable_profile):
    """The isothermal pair, and a polytropic pair with mu' != 0 and both
    surface tensions on."""
    prm = unit_params(mu_prime_plus=0.3, mu_prime_minus=0.2, sigma_plus=0.15,
                      sigma_minus=0.05)
    poly = solve_equilibrium(PolytropicLaw(1.0, 1.4),
                             PolytropicLaw(2.0, 1.4), prm)
    return [unstable_profile, poly]


def test_coefficients_reproduce_the_assembled_forms(unstable_profile, mesh100):
    # against the kernel at the benchmark's n = 100 too, where the cancellation
    # in C is largest, and against the dense per-element sum on a small mesh
    small = build_mesh(1.0, 1.0, 9, 12)
    for prof in _coefficient_scenarios(unstable_profile):
        for mesh in (small, mesh100):
            coeffs = form_coefficients(mesh, prof)
            for xi in (0.3, 1.0, 2.5, 7.1, 11.9):
                forms, ref = coeffs.at(xi), assemble_forms(mesh, prof, xi)
                assert forms.xi_abs == xi and forms.g == prof.params.g
                assert forms.psi_interface_dof == ref.psi_interface_dof
                pairs = list(zip((forms.K0, forms.K1, forms.M), (ref.K0, ref.K1, ref.M)))
                if mesh is small:
                    pairs += zip(map(dense, (forms.K0, forms.K1, forms.M)),
                                 dense_forms(mesh, prof, xi))
                for got, want in pairs:
                    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_form_coefficients_rejects_a_mesh_of_another_span(unstable_profile):
    # the mesh is built apart from the profile, so it must span the
    # profile's [-b, ell]
    for mesh in (build_mesh(2.0, 1.0, 40, 40), build_mesh(1.0, 0.5, 40, 40)):
        with pytest.raises(ValueError, match="mesh spans"):
            form_coefficients(mesh, unstable_profile)


def test_coefficients_are_exactly_symmetric_and_read_only(unstable_profile):
    mesh = build_mesh(1.0, 1.0, 9, 12)
    for prof in _coefficient_scenarios(unstable_profile):
        coeffs = form_coefficients(mesh, prof)
        stored = (*coeffs.K0, *coeffs.K1, coeffs.M)
        for xi in (0.3, 1.0, 2.5, 7.1, 11.9):
            forms = coeffs.at(xi)
            for ab in (forms.K0, forms.K1, forms.M, *stored):
                # ab[w + i - j, j] == ab[w + j - i, i] for every i, j
                assert np.array_equal(dense(ab), dense(ab).T)
        for ab in (*stored, coeffs.fields):
            with pytest.raises(ValueError):
                ab[BAND, 0] = 1.0


def test_coefficients_are_the_three_point_rule(unstable_profile):
    # form_coefficients never assembles K(-1): flipping every phi dof maps
    # K(1) to K(-1).  The rule A = K(0), B = (K(1) - K(-1))/2,
    # C = (K(1) + K(-1))/2 - K(0) on the kernel gives the same bulk bits.
    mesh = build_mesh(1.0, 1.0, 9, 12)
    for prof in _coefficient_scenarios(unstable_profile):
        coeffs = form_coefficients(mesh, prof)
        kernel = [(f.K0, f.K1) for f in (assemble_forms(mesh, prof, xi)
                                         for xi in (0.0, 1.0, -1.0))]
        bulk = np.ones((2 * BAND + 1, mesh.ndof), bool)
        bulk[BAND, [coeffs.at(1.0).psi_interface_dof, -1]] = False  # E0's boundary
        for k, (A, B, C) in enumerate((coeffs.K0, coeffs.K1)):
            at0, at1, at_1 = (K[k] for K in kernel)
            entries = bulk if k == 0 else slice(None)
            for got, rule in ((A, at0), (B, 0.5 * (at1 - at_1)),
                              (C, 0.5 * (at1 + at_1) - at0)):
                assert np.array_equal(got[entries], rule[entries])


def test_rayleigh_identity_and_scaling(unstable_profile, mesh40):
    forms = form_coefficients(mesh40, unstable_profile).at(1.0)
    alpha, v = min_eig(forms, 0.05)
    e, j = evaluate_energy(forms, v, 0.05)
    assert e == pytest.approx(alpha, abs=1e-10)
    assert j == pytest.approx(1.0, abs=1e-12)
    e2, j2 = evaluate_energy(forms, 2.0 * v, 0.05)
    assert e2 == pytest.approx(4 * e, rel=1e-12)
    assert j2 == pytest.approx(4 * j, rel=1e-12)


def test_monotonicity_in_s(unstable_profile, mesh40):
    forms = form_coefficients(mesh40, unstable_profile).at(1.0)
    K1 = dense(forms.K1)
    s_grid = np.geomspace(1e-3, 1.7, 10)
    alphas = []
    e1s = []
    for s in s_grid:
        a, v = min_eig(forms, s)
        alphas.append(a)
        e1s.append(float(v @ K1 @ v))
    for i in range(len(s_grid) - 1):
        assert alphas[i + 1] >= alphas[i] - 1e-12
        if e1s[i + 1] > 1e-12:
            # alpha(s2) >= alpha(s1) + (s2 - s1) E1(minimizer at s2)
            assert alphas[i + 1] - alphas[i] >= \
                0.5 * (s_grid[i + 1] - s_grid[i]) * e1s[i + 1]


def test_minimizer_interface_value_nonzero(unstable_profile, mesh40):
    forms = form_coefficients(mesh40, unstable_profile).at(1.0)
    alpha, v = min_eig(forms, 0.01)
    assert alpha < 0
    assert v[forms.psi_interface_dof] > 1e-8  # sign convention makes it >= 0


def test_mesh_convergence_order(unstable_profile):
    alphas = []
    for n in (25, 50, 100):
        mesh = build_mesh(1.0, 1.0, n, n)
        forms = form_coefficients(mesh, unstable_profile).at(1.0)
        a, _ = min_eig(forms, 0.075)
        alphas.append(a)
    order = math.log2(abs(alphas[1] - alphas[0]) / abs(alphas[2] - alphas[1]))
    assert order > 1.9


def test_k0_alt_agreement(unstable_profile):
    rng = np.random.default_rng(11)
    for n in (8, 16, 32):
        mesh = build_mesh(1.0, 1.0, n, n)
        forms = form_coefficients(mesh, unstable_profile).at(1.0)
        alt = assemble_forms_alt(mesh, unstable_profile, 1.0)
        for _ in range(5):
            v = rng.standard_normal(mesh.ndof)
            gap = abs(v @ (dense(forms.K0) - alt) @ v)
            # exact identity at the continuous level; the discrete gap is
            # pure quadrature error, far below the h^2 envelope
            assert gap <= 1e-6 * (1.0 / n) ** 2 * (v @ v)


def test_k0_alt_exact_when_g_zero():
    # g ~ 0 freezes the density, so both assemblies integrate identical bulk
    prof = unit_profile(g=1e-30, sigma_plus=0.5, sigma_minus=0.7)
    mesh = build_mesh(1.0, 1.0, 12, 12)
    forms = form_coefficients(mesh, prof).at(1.0)
    alt = assemble_forms_alt(mesh, prof, 1.0)
    assert np.abs(dense(forms.K0) - alt).max() <= 1e-12 * np.abs(alt).max()


def test_k1_and_m_match_closed_form_p1_elements():
    # g ~ 0 freezes the density, so every integrand has constant coefficients
    # per layer and 4-point Gauss reproduces the closed-form P1 element matrices
    prof = unit_profile(b=0.8, ell=1.3, g=1e-30, mu_plus=0.7, mu_minus=1.3,
                        mu_prime_plus=0.3, mu_prime_minus=0.1)
    mesh = build_mesh(0.8, 1.3, 5, 7)
    xi = 1.7
    forms = form_coefficients(mesh, prof).at(xi)
    mass = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0  # times h
    stiff = np.array([[1.0, -1.0], [-1.0, 1.0]])  # over h
    cross = np.array([[-1.0, 1.0], [-1.0, 1.0]]) / 2.0  # int N_i N_j'
    K1 = np.zeros((mesh.ndof, mesh.ndof))
    M = np.zeros_like(K1)
    for e in range(mesh.n_elements):
        layer = element_layer(mesh, e)
        h = mesh.nodes[e + 1] - mesh.nodes[e]
        rho = prof.rho1 if layer == "plus" else prof.rho_bot_interface
        mu = prof.params.mu(layer)
        kappa = mu / 3.0 + prof.params.mu_prime(layer)
        # E1 = 1/2 int mu (phi' - xi psi)^2 + mu (psi' - xi phi)^2
        #               + kappa (psi' + xi phi)^2
        pp = 0.5 * mu * stiff / h + 0.5 * xi**2 * (mu + kappa) * h * mass
        ss = 0.5 * (mu + kappa) * stiff / h + 0.5 * xi**2 * mu * h * mass
        ps = 0.5 * xi * (kappa - mu) * cross - 0.5 * xi * mu * cross.T
        add_element(K1, mesh, e, np.block([[pp, ps], [ps.T, ss]]))
        m = 0.5 * rho * h * mass
        add_element(M, mesh, e, np.block([[m, 0 * m], [0 * m, m]]))
    for got, ref in ((dense(forms.K1), K1), (dense(forms.M), M)):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_continuity_rows_are_the_weighted_divergence_row(unstable_profile, mesh40):
    coeffs = form_coefficients(mesh40, unstable_profile)
    for xi in (0.5, 3.0):
        (H, r), (H_ref, r_ref) = coeffs.continuity(xi), continuity_rows(coeffs, xi)
        assert H.shape == (mesh40.n_elements,) and r.shape == (mesh40.n_elements, 4)
        assert np.abs(H - H_ref).max() <= 1e-14 * np.abs(H_ref).max()
        assert np.abs(r - r_ref).max() <= 1e-14 * np.abs(r_ref).max()
    with pytest.raises(ValueError):
        coeffs.continuity(0.0)


def test_continuity_rows_are_the_divergence_term_of_the_forms_to_the_bit(unstable_profile,
                                                                         mesh40):
    # continuity builds E0's divergence term alone; its rows are those it
    # integrated from all of form_terms before, inlined here
    coeffs = form_coefficients(mesh40, unstable_profile)
    rho, drho, dp, _mu, _mu_p = coeffs.fields
    (phi, psi), (_dphi, dpsi) = field_rows(mesh40, 2)
    r = rho[..., None]
    for xi in (0.5, 1.0, 3.0):
        div = drho[..., None] * psi + r * dpsi + r * xi * phi
        hw = 2.0 * (0.5 * dp / rho) * mesh40.quad[1]
        H, rows = coeffs.continuity(xi)
        assert np.array_equal(H, np.einsum("eq->e", hw))
        assert np.array_equal(rows, np.einsum("eq,eqi->ei", hw, div))
        assert np.array_equal(form_terms(mesh40, coeffs.fields, xi)[0][1], div)


@pytest.mark.parametrize("factorize", [cholesky, lu])
def test_band_solves_work_in_the_vector_they_are_given(factorize):
    # the oracle's step loop solves a preallocated buffer and reads the
    # array the solve returns; for a contiguous float64 b that is b itself
    rng = np.random.default_rng(4)
    n = 50
    ab = np.zeros((2 * BAND + 1, n), order="F")
    for k in range(1, BAND + 1):  # A[i, i + k] = A[i + k, i]
        ab[BAND - k, k:] = ab[BAND + k, :n - k] = rng.uniform(-1.0, 1.0, n - k)
    ab[BAND] = 2.0 * BAND + 1.0
    b = rng.standard_normal(n)
    want = np.linalg.solve(dense(ab), b)
    x = factorize(ab)(b)
    assert x is b
    assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max()


def test_theta_decouples_at_negative_alpha(unstable_profile, mesh40):
    f3 = assemble_forms_3field(mesh40, unstable_profile, (1.0, 0.0))
    f2 = form_coefficients(mesh40, unstable_profile).at(1.0)
    a3, v3 = min_eig_3field(f3, 0.01)
    a2, _ = min_eig(f2, 0.01)
    assert a3 < 0
    assert a3 == pytest.approx(a2, abs=1e-11)
    theta = v3[1::3]
    mass = f3.M[1::3, 1::3]
    assert math.sqrt(abs(theta @ mass @ theta)) <= 1e-8


def test_3field_restriction_matches_2field(unstable_profile, mesh40):
    f3 = assemble_forms_3field(mesh40, unstable_profile, (1.0, 0.0))
    f2 = form_coefficients(mesh40, unstable_profile).at(1.0)
    idx = np.flatnonzero(np.arange(3 * f3.n_free) % 3 != 1)  # (phi_m, psi_m)
    assert np.abs(f3.K0[np.ix_(idx, idx)] - dense(f2.K0)).max() <= 1e-12
    assert np.abs(f3.K1[np.ix_(idx, idx)] - dense(f2.K1)).max() <= 1e-12
    assert np.abs(f3.M[np.ix_(idx, idx)] - dense(f2.M)).max() == 0.0


def test_3field_rotation_invariance(unstable_profile):
    # alpha depends on |xi| only: compare (1,0) against a rotated frequency
    mesh = build_mesh(1.0, 1.0, 24, 24)
    a_axis, _ = min_eig_3field(
        assemble_forms_3field(mesh, unstable_profile, (1.0, 0.0)), 0.05)
    c, s = math.cos(0.7), math.sin(0.7)
    a_rot, _ = min_eig_3field(
        assemble_forms_3field(mesh, unstable_profile, (c, s)), 0.05)
    assert a_rot == pytest.approx(a_axis, abs=1e-11)


def test_min_eig_requires_positive_s(unstable_profile, mesh40):
    forms = form_coefficients(mesh40, unstable_profile).at(1.0)
    with pytest.raises(ValueError):
        min_eig(forms, 0.0)


def test_gauss_rule_is_leggauss():
    # the literals spare start-up numpy.polynomial; they are its rule to the bit
    x, w = np.polynomial.legendre.leggauss(4)
    assert np.array_equal(variational.GAUSS_X, x) and np.array_equal(variational.GAUSS_W, w)
