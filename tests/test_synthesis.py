import numpy as np
import pytest

from seqlocc import (
    GeneratorPrimitive,
    RunConfig,
    evaluate_template,
    exp_xx_form,
    phase_distance,
    random_unitary,
    swap_operator,
    synthesize,
    validate_unitary,
)
from seqlocc.linalg import _EXTENDED_BELOW, _extended_distance
from seqlocc.synthesis import _LayerProblem

from conftest import CNOT, HAD


def test_known_swap_decomposition_oracle():
    """Exact reference: SWAP = CNOT (H x H) CNOT (H x H) CNOT."""
    HH = np.kron(HAD, HAD)
    assert np.linalg.norm(CNOT @ HH @ CNOT @ HH @ CNOT - swap_operator(2)) <= 1e-14


def test_target_equals_generator():
    cnot = validate_unitary(CNOT, 2, 2)
    res = synthesize(cnot, cnot, RunConfig())
    assert res.layer_count == 1
    assert res.delta <= 1e-10


def test_local_target_needs_no_queries():
    cnot = validate_unitary(CNOT, 2, 2)
    target = validate_unitary(np.kron(HAD, HAD), 2, 2)
    res = synthesize(target, cnot, RunConfig())
    assert res.layer_count == 0
    assert res.delta <= 1e-10


def test_swap_from_cnot_three_queries():
    cnot = validate_unitary(CNOT, 2, 2)
    target = validate_unitary(swap_operator(2), 2, 2)
    res = synthesize(target, cnot, RunConfig())
    assert res.layer_count == 3
    assert res.delta <= 1e-6
    got = evaluate_template(res.template, CNOT)
    assert phase_distance(got, swap_operator(2)) <= 1e-6


def test_rejects_primitive_generator():
    gen = validate_unitary(np.kron(HAD, HAD), 2, 2)
    target = validate_unitary(swap_operator(2), 2, 2)
    with pytest.raises(GeneratorPrimitive):
        synthesize(target, gen, RunConfig())


def test_generator_classified_only_without_certificate(monkeypatch):
    """A Haar generator entangles |0...0>, so synthesis classifies nothing;
    CNOT keeps |00> a product and is classified once."""
    from seqlocc import synthesis
    calls = []
    real = synthesis.classify_primitive
    monkeypatch.setattr(synthesis, "classify_primitive", lambda X: calls.append(X) or real(X))
    haar = validate_unitary(random_unitary(4, np.random.default_rng(32)), 2, 2)
    assert synthesize(exp_xx_form(1.0, 2, 2), haar, RunConfig()).delta <= 1e-6
    assert calls == []
    cnot = validate_unitary(CNOT, 2, 2)
    assert synthesize(cnot, cnot, RunConfig()).layer_count == 1
    assert calls == [cnot]


def test_interaction_angle_doubling():
    """exp_xx(1) from exp_xx(0.5): two forward uses add the angles."""
    res = synthesize(exp_xx_form(1.0, 2, 2), exp_xx_form(0.5, 2, 2), RunConfig())
    assert res.layer_count == 2
    assert res.delta <= 1e-6


@pytest.mark.parametrize("seed", range(4))
def test_random_su4_targets_from_cnot(seed):
    rng = np.random.default_rng(seed)
    cnot = validate_unitary(CNOT, 2, 2)
    target = validate_unitary(random_unitary(4, rng), 2, 2)
    res = synthesize(target, cnot, RunConfig(epsilon=1e-3, k_max=6))
    assert res.layer_count <= 6
    assert res.delta <= 1e-3
    got = evaluate_template(res.template, CNOT)
    assert phase_distance(got, target.matrix) == pytest.approx(res.delta, abs=1e-12)


@pytest.mark.parametrize("d_a,d_b,k", [(2, 2, 2), (2, 3, 0), (3, 2, 1), (3, 3, 3)])
def test_gradient_matches_finite_differences(d_a, d_b, k):
    rng = np.random.default_rng(3)
    D = d_a * d_b
    problem = _LayerProblem(random_unitary(D, rng), random_unitary(D, rng), d_a, d_b, k)
    x = rng.normal(size=problem.n_total)
    loss, grad = problem.value_and_grad(x)
    # evaluate multiplies out the layer stack, value_and_grad reads the loss
    # off its prefix and suffix products: both paths give one loss
    overlap = np.trace(problem.Td @ problem.evaluate(x))
    assert loss == pytest.approx(1.0 - abs(overlap) ** 2 / D ** 2, abs=1e-12)
    eps = 1e-6
    for i in range(0, problem.n_total, 5):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (problem.value_and_grad(xp)[0] - problem.value_and_grad(xm)[0]) / (2 * eps)
        assert grad[i] == pytest.approx(fd, abs=1e-7)


def test_layer_delta_is_the_extended_distance_above_the_switch():
    """_LayerProblem.delta reads the extended trace at every deficit, not only
    at or below the switch where phase_distance does: synthesis ranks its
    restarts on differences down to _IMPROVEMENT (1e-15), and letting it read
    the float64 trace moved 6 of 857 scheme files. At this x the two
    readings differ, so a delta routed through phase_distance fails here."""
    rng = np.random.default_rng(0)
    G = random_unitary(4, rng)
    x0 = rng.normal(size=_LayerProblem(G, G, 2, 2, 1).n_total)
    problem = _LayerProblem(_LayerProblem(G, G, 2, 2, 1).evaluate(x0), G, 2, 2, 1)
    x = x0 + 0.02 * rng.normal(size=problem.n_total)
    M, T = problem.evaluate(x), problem.Td.conj().T
    extended = _extended_distance(M, T)
    assert extended ** 2 > _EXTENDED_BELOW
    assert phase_distance(M, T) != extended
    assert problem.delta(x).hex() == extended.hex()


def test_error_budget_dominates_measured_deviation():
    """Replacing ideal blocks with delta-close ones in a chain moves the
    output overlap by at most uses * delta: checked over random trials."""
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = 4
        ideal = random_unitary(d, rng)
        # delta-close perturbation of the block
        herm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        herm = (herm + herm.conj().T) / 2
        herm /= np.linalg.norm(herm, 2)
        eps = 10 ** rng.uniform(-6, -2)
        real = ideal @ (np.eye(d) + 1j * eps * herm)
        real, _ = np.linalg.qr(real)  # keep it unitary
        delta = np.linalg.norm(real - ideal, 2)
        uses = int(rng.integers(1, 5))
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        chain_ideal, chain_real = psi.copy(), psi.copy()
        for _ in range(uses):
            chain_ideal = ideal @ chain_ideal
            chain_real = real @ chain_real
        moved = np.linalg.norm(chain_real - chain_ideal)
        assert moved <= uses * delta + 1e-12


def test_monotone_best_delta_across_k():
    """The reported delta is the running best over escalating k."""
    gen = exp_xx_form(0.4, 2, 2)
    target = validate_unitary(swap_operator(2), 2, 2)
    deltas = []
    for kmax in (0, 1, 2):
        try:
            res = synthesize(target, gen, RunConfig(k_max=kmax))
            deltas.append(res.delta)
        except Exception as exc:
            deltas.append(exc.best_delta)
    assert all(b <= a + 1e-12 for a, b in zip(deltas, deltas[1:]))


def _recorded_runs(monkeypatch):
    """Every L-BFGS run synthesize makes, as (k, polish?), and every delta it
    measures, as (k, delta). synthesize looks minimize up on scipy.optimize
    at each call, so a wrapper set there sees every run."""
    import scipy.optimize

    from seqlocc.synthesis import _POLISH_OPTIONS

    runs, deltas = [], []
    minimize, delta = scipy.optimize.minimize, _LayerProblem.delta

    def counting_minimize(fun, x0, *args, **kwargs):
        runs.append((len(x0) // 8 - 1, kwargs["options"] == _POLISH_OPTIONS))  # (k+1)(2^2+2^2)
        return minimize(fun, x0, *args, **kwargs)

    def recording_delta(problem, x):
        value = delta(problem, x)
        deltas.append((problem.k, value))
        return value

    monkeypatch.setattr(scipy.optimize, "minimize", counting_minimize)
    monkeypatch.setattr(_LayerProblem, "delta", recording_delta)
    return runs, deltas


def test_synthesis_stops_at_the_first_k_within_epsilon(monkeypatch):
    """SWAP from CNOT: no run beyond k = 3, and one polish, the last run, at k = 3."""
    runs, _ = _recorded_runs(monkeypatch)
    cnot = validate_unitary(CNOT, 2, 2)
    res = synthesize(validate_unitary(swap_operator(2), 2, 2), cnot, RunConfig())
    assert res.layer_count == 3
    assert max(k for k, _ in runs) == 3
    assert [i for i, (_, polish) in enumerate(runs) if polish] == [len(runs) - 1]
    assert runs[-1] == (3, True)


def test_synthesis_failure_reports_the_closest_k(monkeypatch):
    """SWAP from CNOT with k_max = 2: no polish, and SynthesisFailed carries
    the smallest delta measured over k = 0..2 with the k it was measured at."""
    from seqlocc.errors import SynthesisFailed
    from seqlocc.synthesis import _IMPROVEMENT

    runs, deltas = _recorded_runs(monkeypatch)
    cnot = validate_unitary(CNOT, 2, 2)
    with pytest.raises(SynthesisFailed) as failed:
        synthesize(validate_unitary(swap_operator(2), 2, 2), cnot, RunConfig(k_max=2))
    assert not any(polish for _, polish in runs)
    assert {k for k, _ in runs} == {0, 1, 2}
    smallest = min(value for _, value in deltas)
    best = failed.value
    # a new best must beat the old by more than _IMPROVEMENT, within a k and across k
    assert smallest <= best.best_delta <= smallest + 2 * _IMPROVEMENT
    assert (best.best_k, best.best_delta) in {(k, float(value)) for k, value in deltas}
