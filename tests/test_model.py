import numpy as np
import pytest
from numpy.testing import assert_allclose

from projlind import linalg, model
from projlind.exceptions import DimensionError, InvalidInputError

from oracles import (
    apply_dissipator,
    coherence_block_projector,
    dissipator_reference,
    near_orthogonal_pair,
    projector_exp,
    rand_density,
    rand_hermitian,
    rand_orthogonal_projectors,
    rand_ranks,
    rand_unitary,
    taylor_expm,
)

P0 = np.diag([1.0, 0.0]).astype(complex)
HADAMARD_PLUS = 0.5 * np.ones((2, 2), dtype=complex)   # |+><+|
HADAMARD_MINUS = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
# Symmetric, but P @ P overflows to a NaN idempotency residual.
OVERFLOWING_PROJECTOR = 1e200 * np.array([[1.0, 1.0], [1.0, -1.0]])
# ||m||_F^2 overflows; the relative Hermiticity residual is still sqrt(2).
OVERFLOWING_NON_HERMITIAN = np.array([[0.0, 1e200], [0.0, 0.0]])


def family(*pairs, dim=0):
    return model.ProjectorFamily(tuple(pairs), dim=dim)


#: Residuals at half and at twice the tolerance of every validation gate.
AT_THE_GATE = pytest.mark.parametrize("factor", [0.5, 2.0], ids=["half", "twice"])


def gated(factor, message, build):
    """``build()`` is accepted for a residual at half the tolerance and
    rejected with ``message`` at twice it."""
    if factor < 1.0:
        build()
    else:
        with pytest.raises(InvalidInputError, match=message):
            build()


def off_diagonal(factor):
    """d with sqrt(2) d = factor * VALIDATION_TOL: the Frobenius residual of
    a 2 x 2 matrix whose (0, 1) entry exceeds its (1, 0) entry by d."""
    return factor * linalg.VALIDATION_TOL / np.sqrt(2.0)


class TestDensityMatrix:
    def test_valid(self):
        rho = model.DensityMatrix(0.5 * np.eye(2))
        assert rho.dim == 2
        assert not rho.matrix.flags.writeable

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError, match="Hermitian"):
            model.DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidInputError, match="trace"):
            model.DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidInputError, match="negative"):
            model.DensityMatrix(np.diag([1.5, -0.5]))

    # Each gate on its own: a NaN or infinite residual fails it, without a
    # numpy warning.
    def test_rejects_an_overflowing_hermiticity_residual(self):
        with pytest.raises(InvalidInputError, match="not Hermitian"):
            model.DensityMatrix(OVERFLOWING_NON_HERMITIAN + np.eye(2) / 2.0)

    def test_rejects_an_overflowing_trace(self):
        with pytest.raises(InvalidInputError, match="trace"):
            model.DensityMatrix(np.diag([1e308, 1e308]))

    def test_rejects_an_overflowing_eigenvalue(self):
        # Hermitian with unit trace, but the modulus of its off-diagonal
        # entries, and so its eigenvalues, overflow to NaN.
        z = 1.7e308 * (1.0 + 1.0j)
        with pytest.raises(InvalidInputError, match="eigenvalue nan") as excinfo:
            model.DensityMatrix(np.array([[0.5, z], [z.conjugate(), 0.5]]))
        assert "negative" not in str(excinfo.value)

    @AT_THE_GATE
    def test_hermiticity_gate_boundary(self, factor):
        d = off_diagonal(factor)
        gated(factor, "density matrix is not Hermitian",
              lambda: model.DensityMatrix(np.array([[0.5, d], [0.0, 0.5]])))

    @AT_THE_GATE
    def test_trace_gate_boundary(self, factor):
        d = factor * linalg.VALIDATION_TOL
        gated(factor, "density matrix trace is",
              lambda: model.DensityMatrix(np.diag([0.5, 0.5 + d])))

    @AT_THE_GATE
    def test_eigenvalue_gate_boundary(self, factor):
        d = factor * linalg.VALIDATION_TOL
        gated(factor, "density matrix has negative eigenvalue",
              lambda: model.DensityMatrix(np.diag([1.0 + d, -d])))

    def test_names_a_negative_eigenvalue_near_the_float_range(self):
        # The Hermitian part is halved before its sum, so it does not
        # overflow, and the gate reports the true eigenvalue.
        with pytest.raises(InvalidInputError, match=r"negative eigenvalue -1\.000e\+308"):
            model.DensityMatrix(np.array([[0.5, 1e308], [1e308, 0.5]]))


class TestHamiltonian:
    def test_valid(self):
        h = model.Hamiltonian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert h.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            model.Hamiltonian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_an_overflowing_hermiticity_residual(self):
        with pytest.raises(InvalidInputError, match=r"residual 1\.414e\+00"):
            model.Hamiltonian(OVERFLOWING_NON_HERMITIAN)

    @AT_THE_GATE
    def test_hermiticity_gate_boundary(self, factor):
        # ||m||_F < 1, so the relative residual is the absolute one.
        d = off_diagonal(factor)
        gated(factor, "Hamiltonian is not Hermitian",
              lambda: model.Hamiltonian(np.array([[0.0, 0.1 + d], [0.1, 0.0]])))

    @pytest.mark.parametrize("scale", [1e150, 1e155, 1e200])
    def test_accepts_a_hermitian_matrix_whose_squared_norm_overflows(self, scale):
        # Hermitian to rounding; from 1e155 on ||m||_F^2 overflows, but the
        # relative defect does not grow with the scale.
        q = rand_unitary(4, np.random.default_rng(5))
        h0 = q.conj().T @ np.diag([1.0, 2.0, 3.0, 4.0]) @ q
        assert 0.0 < linalg.hermiticity_residual(h0) <= 1e-15
        assert model.Hamiltonian(scale * h0).dim == 4
        single = linalg.hermiticity_residual(scale * h0)
        assert 0.0 < single <= 1e-15
        refused = np.pad(OVERFLOWING_NON_HERMITIAN, ((0, 2), (0, 2)))
        stack = linalg.hermiticity_residual(np.stack([scale * h0, h0, refused]))
        assert_allclose(stack, [single, linalg.hermiticity_residual(h0), np.sqrt(2.0)],
                        rtol=1e-14, atol=0)


class TestValidateFamily:
    def test_single_diagonal_projector_passes(self):
        report = model.validate_family([(P0, 1.0)])
        assert report.passed

    def test_orthogonal_rank1_pair_passes(self):
        # |+><+| and |-><-| multiply to zero
        report = model.validate_family([(HADAMARD_PLUS, 1.0), (HADAMARD_MINUS, 2.0)])
        assert report.passed
        assert report.orthogonality[0][:2] == (0, 1)
        assert report.orthogonality[0][2] <= 1e-10

    def test_non_hermitian_fails(self):
        report = model.validate_family([(np.array([[1.0, 1.0], [0.0, 0.0]]), 1.0)])
        assert not report.passed
        assert any("hermiticity" in msg for msg in report.failures)

    def test_non_orthogonal_pair_named(self):
        report = model.validate_family([(P0, 1.0), (HADAMARD_PLUS, 1.0)])
        assert not report.passed
        assert any("(0, 1)" in msg and "orthogonal" in msg for msg in report.failures)

    def test_nonpositive_rate_fails(self):
        for rate in (0.0, -1.0):
            report = model.validate_family([(P0, rate)])
            assert any("rate" in msg for msg in report.failures)

    def test_report_lines_mention_result(self):
        lines = model.validate_family([(P0, 1.0)]).lines()
        assert lines[-1] == "result: PASS"

    def test_overflowing_idempotency_residual_fails(self):
        report = model.validate_family([(OVERFLOWING_PROJECTOR, 1.0)])
        assert np.isnan(report.idempotency[0])
        assert report.failures == ("projector 0: idempotency residual nan exceeds 1e-10",)
        assert report.lines()[-2] == "result: FAIL"

    def test_finite_idempotency_residual_fails(self):
        # diag(0.5, 0) is Hermitian, and ||P P - P||_F = 0.25.
        report = model.validate_family([(np.diag([0.5, 0.0]), 1.0)])
        assert report.idempotency == (0.25,)
        assert report.failures == ("projector 0: idempotency residual 2.500e-01 exceeds 1e-10",)

    def test_overflowing_hermiticity_residual_fails(self):
        report = model.validate_family([(np.array([[1.0, 1e308], [-1e308, 0.0]]), 1.0)])
        assert report.hermiticity[0] == np.inf
        assert any("hermiticity residual inf" in msg for msg in report.failures)

    def test_overflowing_orthogonality_residual_fails(self):
        report = model.validate_family([(OVERFLOWING_PROJECTOR, 1.0)] * 2)
        assert np.isnan(report.orthogonality[0][2])
        assert any("(0, 1)" in msg and "orthogonal" in msg for msg in report.failures)


class TestProjectorFamily:
    def test_rejects_an_overflowing_projector(self):
        with pytest.raises(InvalidInputError, match="idempotency residual nan"):
            family((OVERFLOWING_PROJECTOR, 1.0))

    @AT_THE_GATE
    def test_hermiticity_gate_boundary(self, factor):
        # [[1, d], [0, 0]] is idempotent to the bit.
        d = off_diagonal(factor)
        gated(factor, "projector 0: hermiticity residual",
              lambda: family((np.array([[1.0, d], [0.0, 0.0]]), 1.0)))

    @AT_THE_GATE
    def test_orthogonality_gate_boundary(self, factor):
        eps = factor * linalg.VALIDATION_TOL
        pair = near_orthogonal_pair(eps)
        [(_, _, residual)] = model.validate_family([(p, 1.0) for p in pair]).orthogonality
        assert residual == pytest.approx(eps, rel=1e-6)
        gated(factor, r"projector pair \(0, 1\): not mutually orthogonal",
              lambda: family((pair[0], 1.0), (pair[1], 2.0)))

    def test_rejects_a_finite_idempotency_residual(self):
        with pytest.raises(InvalidInputError,
                           match=r"idempotency residual 2\.500e-01 exceeds 1e-10"):
            family((np.diag([0.5, 0.0]), 1.0))

    def test_constructor_fail_fast(self):
        with pytest.raises(InvalidInputError, match=r"\(0, 1\)"):
            family((P0, 1.0), (HADAMARD_PLUS, 1.0))

    def test_empty_family_needs_dim(self):
        fam = family(dim=3)
        assert fam.dim == 3 and len(fam) == 0
        with pytest.raises(InvalidInputError):
            family()

    def test_rank2_member(self):
        p = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        fam = family((p, 0.5))
        assert fam.dim == 4
        assert np.trace(fam.projectors[0]).real == pytest.approx(2.0)

    def test_random_families_validate(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, 4))
            ps = rand_orthogonal_projectors(n, rand_ranks(n, k, rng), rng)
            fam = family(*[(p, float(rng.uniform(0.2, 3.0))) for p in ps])
            assert model.validate_family(fam.members).passed


class TestProjectorFromVectors:
    def test_rank2_from_vectors(self):
        p = model.projector_from_vectors([np.array([1, 0, 0, 0]), np.array([0, 1, 0, 0])])
        assert_allclose(p, np.diag([1.0, 1.0, 0.0, 0.0]), atol=0)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidInputError, match="orthonormal"):
            model.projector_from_vectors([np.array([1, 0]), np.array([1, 1]) / np.sqrt(2)])

    @AT_THE_GATE
    def test_gram_gate_boundary(self, factor):
        # Gram matrix [[1, d], [d, 1 + d^2]]: residual sqrt(2) d to first order.
        d = off_diagonal(factor)
        gated(factor, "vectors are not orthonormal",
              lambda: model.projector_from_vectors([np.array([1.0, 0.0]),
                                                    np.array([d, 1.0])]))


class TestApplyDissipator:
    def test_hand_expanded_example(self):
        fam = family((P0, 2.0))
        rho = 0.5 * np.ones((2, 2))
        assert_allclose(apply_dissipator(fam, rho),
                        [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)

    def test_commuting_state_gives_zero(self):
        fam = family((P0, 1.3))
        rho = np.diag([0.7, 0.3])
        assert_allclose(apply_dissipator(fam, rho), np.zeros((2, 2)), atol=1e-15)

    def test_empty_family_gives_zero(self):
        fam = family(dim=3)
        rho = rand_density(3, np.random.default_rng(0))
        assert_allclose(apply_dissipator(fam, rho), np.zeros((3, 3)), atol=0)

    def test_agrees_with_anticommutator_form(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            ps = rand_orthogonal_projectors(n, rand_ranks(n, int(rng.integers(1, 4)), rng), rng)
            members = [(p, float(rng.uniform(0.2, 3.0))) for p in ps]
            rho = rand_density(n, rng)
            fam = family(*members)
            ours = apply_dissipator(fam, rho)
            ref = dissipator_reference(members, rho)
            assert np.linalg.norm(ours - ref) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_dissipator(family((P0, 1.0)), np.eye(3))


class TestHamiltonianSuperop:
    def test_identity_hamiltonian_gives_zero(self):
        assert_allclose(model.hamiltonian_superop(np.eye(2)), np.zeros((4, 4)), atol=0)

    def test_action_matches_commutator(self):
        h = np.diag([1.0, 0.0])
        rho = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        out = (model.hamiltonian_superop(h) @ rho.reshape(-1)).reshape(2, 2)
        assert_allclose(out, -1j * rho, atol=1e-15)  # [H, rho] = rho here

    def test_action_random(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            h = rand_hermitian(n, rng)
            rho = rand_density(n, rng)
            lhs = (model.hamiltonian_superop(h) @ rho.reshape(-1)).reshape(n, n)
            rhs = -1j * (h @ rho - rho @ h)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))

    def test_anti_hermitian(self):
        rng = np.random.default_rng(37)
        m = model.hamiltonian_superop(rand_hermitian(4, rng))
        assert np.linalg.norm(m + m.conj().T) <= 1e-12 * np.linalg.norm(m)


class TestDissipatorSuperop:
    def test_single_member_diagonal(self):
        fam = family((P0, 1.6))
        assert_allclose(model.dissipator_superop(fam),
                        -0.8 * np.diag([0.0, 1.0, 1.0, 0.0]), atol=1e-15)

    def test_empty_family(self):
        assert_allclose(model.dissipator_superop(family(dim=2)), np.zeros((4, 4)), atol=0)

    def test_action_matches_negated_dissipator(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            ps = rand_orthogonal_projectors(n, rand_ranks(n, int(rng.integers(1, 3)), rng), rng)
            fam = family(*[(p, float(rng.uniform(0.2, 3.0))) for p in ps])
            rho = rand_density(n, rng)
            lhs = (model.dissipator_superop(fam) @ rho.reshape(-1)).reshape(n, n)
            rhs = -apply_dissipator(fam, rho)
            assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_spectrum_one_and_two_members(self):
        # brute-force eigenvalues against {0} U {-lam_j/2} U {-(lam_j+lam_k)/2}
        rng = np.random.default_rng(43)
        lam1, lam2 = 0.7, 1.3
        p1, p2 = rand_orthogonal_projectors(3, [1, 1], rng)

        b1 = model.dissipator_superop(family((p1, lam1)))
        eigs1 = np.unique(np.round(np.linalg.eigvalsh((b1 + b1.conj().T) / 2), 10))
        assert_allclose(eigs1, [-lam1 / 2, 0.0], atol=1e-10)

        b2 = model.dissipator_superop(family((p1, lam1), (p2, lam2)))
        eigs2 = np.unique(np.round(np.linalg.eigvalsh((b2 + b2.conj().T) / 2), 10))
        assert_allclose(eigs2, [-(lam1 + lam2) / 2, -lam2 / 2, -lam1 / 2, 0.0], atol=1e-10)


class TestCoherenceBlockProjector:
    """The paper's R_j = P_j kron Q_j^T + Q_j kron P_j^T, on the reference
    oracles that check the closed form."""

    def test_examples(self):
        assert_allclose(coherence_block_projector(P0), np.diag([0.0, 1.0, 1.0, 0.0]), atol=0)
        assert_allclose(coherence_block_projector(np.zeros((2, 2))), np.zeros((4, 4)), atol=0)
        assert_allclose(coherence_block_projector(np.eye(2)), np.zeros((4, 4)), atol=0)

    def test_is_projector(self):
        rng = np.random.default_rng(47)
        for n in (3, 4, 5):
            p = rand_orthogonal_projectors(n, [n // 2], rng)[0]
            r = coherence_block_projector(p)
            assert np.linalg.norm(r @ r - r) <= 1e-12
            assert np.linalg.norm(r - r.conj().T) <= 1e-12


class TestFamilyFacts:
    """Structure of the coherence-block projectors across a family."""

    def _random_family_R(self, rng):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(2, 4))
        ranks = rand_ranks(n, k, rng)
        ps = rand_orthogonal_projectors(n, ranks, rng)
        return ps, [coherence_block_projector(p) for p in ps]

    def test_mutual_commutation(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            _, rs = self._random_family_R(rng)
            for j in range(len(rs)):
                for k in range(len(rs)):
                    assert np.linalg.norm(rs[j] @ rs[k] - rs[k] @ rs[j]) <= 1e-12

    def test_pair_product_identity(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            ps, rs = self._random_family_R(rng)
            for j in range(len(ps)):
                for k in range(j + 1, len(ps)):
                    expected = np.kron(ps[j], ps[k].T) + np.kron(ps[k], ps[j].T)
                    assert np.linalg.norm(rs[j] @ rs[k] - expected) <= 1e-12

    def test_triple_product_vanishes(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            ps = rand_orthogonal_projectors(n, rand_ranks(n, 3, rng), rng)
            rs = [coherence_block_projector(p) for p in ps]
            assert np.linalg.norm(rs[0] @ rs[1] @ rs[2]) <= 1e-12


class TestProjectorExp:
    """exp(s R) = 1 + (e^s - 1) R, the reference oracle, against the series
    oracle."""

    def test_zero_scale_is_identity(self):
        r = np.diag([0.0, 1.0, 1.0, 0.0])
        assert_allclose(projector_exp(0.0, r), np.eye(4), atol=0)

    def test_identity_projector(self):
        out = projector_exp(0.7, np.eye(3))
        assert_allclose(out, np.exp(0.7) * np.eye(3), rtol=1e-14)

    def test_diagonal_example(self):
        out = projector_exp(-1.0, np.diag([0.0, 1.0, 1.0, 0.0]))
        assert_allclose(out, np.diag([1.0, np.exp(-1.0), np.exp(-1.0), 1.0]), rtol=1e-14)
        # cross-checked against the series oracle
        assert_allclose(out, taylor_expm(-1.0 * np.diag([0.0, 1.0, 1.0, 0.0])), atol=1e-14)

    def test_agrees_with_the_series_oracle_over_scales(self):
        rng = np.random.default_rng(67)
        p = rand_orthogonal_projectors(4, [2], rng)[0]
        r = coherence_block_projector(p)
        for scale in np.linspace(-10.0, 1.0, 12):
            direct = projector_exp(scale, r)
            general = taylor_expm(scale * r)
            assert np.linalg.norm(direct - general) <= 1e-10

    def test_extreme_finite_scales(self):
        r = np.diag([1.0, 0.0])
        assert_allclose(projector_exp(709.0, r), np.diag([np.exp(709.0), 1.0]))
        assert_allclose(projector_exp(-800.0, r), np.diag([0.0, 1.0]), atol=0)


class TestScenario:
    def _scenario(self, grid):
        return model.Scenario(
            model.Hamiltonian(np.zeros((2, 2))),
            family((P0, 1.0)),
            model.DensityMatrix(0.5 * np.eye(2)),
            grid,
        )

    def test_valid(self):
        s = self._scenario([0.0, 0.5, 1.0])
        assert s.dim == 2
        assert_allclose(s.time_grid, [0.0, 0.5, 1.0], atol=0)

    def test_rejects_descending_grid(self):
        with pytest.raises(InvalidInputError, match="ascending"):
            self._scenario([0.0, 1.0, 0.5])

    def test_rejects_negative_start(self):
        with pytest.raises(InvalidInputError):
            self._scenario([-0.1, 0.5])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionError):
            model.Scenario(
                model.Hamiltonian(np.zeros((3, 3))),
                family((P0, 1.0)),
                model.DensityMatrix(0.5 * np.eye(2)),
                [0.0, 1.0],
            )
