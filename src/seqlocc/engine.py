"""Case engine assembling flat LOCC sequential discrimination schemes.

Given two distinct bipartite unitaries, classifies both operands and routes
through the matching construction: product pairs reduce to a one-sided
sequential scheme; a swapped product against a product needs one query; an
imprimitive operand is first compiled into a controlled unitary (or the
canonical interaction exponential) by an inverse-free template, after which
the problem reduces to a simpler pair. The emitted scheme is always a flat
template of product-form local layers and forward queries plus a product
input state, with a budget dominating the residual overlap.

Budgets are computed from the actual matrices: every time a synthesized
block stands in for its ideal, the per-use operator-norm deviation (modulo
a global phase) is measured and multiplied by the number of uses; levels of
recursion add their budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import (
    BranchSelectionFailed,
    CaseFailure,
    DimensionMismatch,
    Indistinguishable,
    MalformedScheme,
    RecursionDepthExceeded,
    SeqloccError,
    VSelectionFailed,
)
from .linalg import (
    BipartiteUnitary,
    basis_state,
    dagger,
    mat,
    normalize,
    op_distance_mod_phase,
    orthogonal_state,
    phase_distance,
    random_unitary,
    swap_operator,
    validate_unitary,
)
from .sequential import build_sequential_scheme
from .structure import (
    PrimitiveForm,
    build_symmetry_set,
    classify_primitive,
    exp_xx_form,
    block_exponential,
    match_exp_xx_mod_phase,
)
from .synthesis import synthesize
from .templates import (
    QUERY,
    CircuitTemplate,
    LocalLayer,
    Query,
    append_query,
    bare_query_template,
    check_local_unitarity,
    compose_templates,
    evaluate_template,
    sequential_template,
)


@dataclass
class LoccSequentialScheme:
    """Flat discrimination scheme: template, product input, and its budget."""

    template: CircuitTemplate
    input_a: np.ndarray
    input_b: np.ndarray
    achieved_overlap: float
    budget: float
    case_trace: list[str]


@dataclass
class DiscriminationReport:
    overlap: float
    query_count: int
    passed: bool
    per_branch_error: list[float] = field(default_factory=list)
    theta_trace: list[float] = field(default_factory=list)
    case_trace: list[str] = field(default_factory=list)
    wall_notes: str = ""


@dataclass
class _Build:
    """Mutable context threaded through the case analysis."""

    cfg: RunConfig
    trace: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    theta_trace: list[float] = field(default_factory=list)
    per_branch_error: list[float] = field(default_factory=list)

    def note(self, text: str):
        self.notes.append(text)


def _lift_a(w: np.ndarray, d_b: int) -> LocalLayer:
    return LocalLayer(np.asarray(w, dtype=complex), np.eye(d_b, dtype=complex))


def _lift_b(w: np.ndarray, d_a: int) -> LocalLayer:
    return LocalLayer(np.eye(d_a, dtype=complex), np.asarray(w, dtype=complex))


def _finish(template: CircuitTemplate, input_a, input_b, budget: float,
            build: _Build, U, V) -> LoccSequentialScheme:
    """Assemble the scheme and record its recomputed overlap."""
    inp = np.kron(normalize(input_a), normalize(input_b))
    phi_u = evaluate_template(template, mat(U)) @ inp
    phi_v = evaluate_template(template, mat(V)) @ inp
    ov = float(abs(np.vdot(phi_u, phi_v)))
    return LoccSequentialScheme(template, normalize(input_a), normalize(input_b),
                                ov, float(budget), list(build.trace))


def _image_factors(template: CircuitTemplate, fa: np.ndarray, fb: np.ndarray,
                   swaps: bool):
    """Exact local factors of evaluate(template, (fa (x) fb) P^swaps).

    Walks the layers, tracking the accumulated product (MA (x) MB) P^s; a
    swapped query flips which side each factor multiplies. Returns
    (MA, MB, parity).
    """
    d_a, d_b = template.d_a, template.d_b
    if swaps and d_a != d_b:
        raise DimensionMismatch("swapped operand needs equal dimensions")
    MA = np.eye(d_a, dtype=complex)
    MB = np.eye(d_b, dtype=complex)
    s = 0
    for layer in template.layers:
        if isinstance(layer, Query):
            if swaps:
                MA, MB = fa @ MB, fb @ MA
                s ^= 1
            else:
                MA, MB = fa @ MA, fb @ MB
        else:
            MA = layer.factor_a @ MA
            MB = layer.factor_b @ MB
    return MA, MB, s


def _controlled_form(M: np.ndarray, d_a: int, d_b: int, tol: float = 1e-9):
    """Two-block controlled structure of M in the computational A-basis.

    Returns (groups, blocks) where groups are the two index sets of the
    control projectors and blocks the two distinct controlled unitaries, or
    None when M is not of that shape (off-diagonal mass, or not exactly two
    distinct blocks).
    """
    M4 = M.reshape(d_a, d_b, d_a, d_b)
    off = 0.0
    for a in range(d_a):
        for ap in range(d_a):
            if a != ap:
                off = max(off, float(np.linalg.norm(M4[a, :, ap, :])))
    if off > tol:
        return None
    diag = [M4[a, :, a, :] for a in range(d_a)]
    groups: list[list[int]] = []
    blocks: list[np.ndarray] = []
    for a, W in enumerate(diag):
        for g, ref in enumerate(blocks):
            if np.linalg.norm(W - ref, 2) <= tol:
                groups[g].append(a)
                break
        else:
            groups.append([a])
            blocks.append(W)
    if len(blocks) != 2:
        return None
    return groups, blocks


def _controlled_target(d_a: int, d_b: int):
    """|0><0| (x) I + P' (x) G with G = diag(1, exp(2 pi i / 3), 1, ...).

    G is not a scalar multiple of I, so no single operand can be
    phase-equivalent to both blocks; branch selection always succeeds.
    """
    G = np.eye(d_b, dtype=complex)
    G[1, 1] = np.exp(2j * np.pi / 3)
    C = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    C[:d_b, :d_b] = np.eye(d_b)
    for a in range(1, d_a):
        C[a * d_b:(a + 1) * d_b, a * d_b:(a + 1) * d_b] = G
    groups = [[0], list(range(1, d_a))]
    blocks = [np.eye(d_b, dtype=complex), G]
    return C, groups, blocks


def _controlled_template(U: BipartiteUnitary, build: _Build):
    """Template f with f(U) a two-block controlled unitary.

    Uses U itself when it is already controlled in the computational basis
    (one query, identity locals, zero deviation); otherwise synthesizes the
    fixed controlled target. Returns (template, groups, blocks, delta_use)
    where delta_use bounds the per-use operator-norm deviation of the real
    f(U) from the ideal block structure.
    """
    cfg = build.cfg
    d_a, d_b = U.d_a, U.d_b
    ctrl = _controlled_form(U.matrix, d_a, d_b, tol=1e-9)
    if ctrl is not None:
        build.note("controlled fast path: operand already has two-block form")
        groups, blocks = ctrl
        return bare_query_template(d_a, d_b, 1), groups, blocks, 0.0
    C, groups, blocks = _controlled_target(d_a, d_b)
    res = synthesize(validate_unitary(C, d_a, d_b, tol=1e-12), U, cfg)
    build.note(f"controlled target synthesized with k={res.layer_count}, delta={res.delta:.2e}")
    fU = evaluate_template(res.template, U.matrix)
    delta_use = op_distance_mod_phase(fU, C)
    return res.template, groups, blocks, float(delta_use)


# --- case (i): both primitive ----------------------------------------------

def case_product_product(U_A, U_B, V_A, V_B, cfg: RunConfig | None = None,
                         build: _Build | None = None) -> LoccSequentialScheme:
    """Both operands are products: run the sequential engine on a side whose
    factors differ beyond phase and idle the other side."""
    build = build or _Build(cfg or RunConfig())
    cfg = build.cfg
    build.trace.append("i-a")
    d_a = mat(U_A).shape[0]
    d_b = mat(U_B).shape[0]
    # the wider separation wins: factor extraction carries a little noise, so
    # a barely-nonzero side must not shadow a cleanly distinct one
    dist_a = phase_distance(U_A, V_A)
    dist_b = phase_distance(U_B, V_B)
    if max(dist_a, dist_b) <= cfg.distinct_tol:
        raise Indistinguishable("both factor pairs agree up to phase")
    if dist_a >= dist_b:
        side = "A"
        seq = build_sequential_scheme(U_A, V_A, cfg)
        locals_between = [_lift_a(w, d_b) for w in seq.interleavers]
        input_a, input_b = seq.input_state, basis_state(d_b, 0)
    else:
        side = "B"
        seq = build_sequential_scheme(U_B, V_B, cfg)
        locals_between = [_lift_b(w, d_a) for w in seq.interleavers]
        input_a, input_b = basis_state(d_a, 0), seq.input_state
    build.note(f"product pair: active side {side}, {seq.query_count} queries")
    build.theta_trace.extend(seq.theta_trace)
    build.per_branch_error.append(seq.achieved_overlap)
    template = sequential_template(d_a, d_b, locals_between)
    U = np.kron(mat(U_A), mat(U_B))
    V = np.kron(mat(V_A), mat(V_B))
    return _finish(template, input_a, input_b, seq.achieved_overlap, build, U, V)


def case_product_swap(U_A, U_B, V_A, V_B, cfg: RunConfig | None = None,
                      build: _Build | None = None) -> LoccSequentialScheme:
    """U = U_A (x) U_B against V = (V_A (x) V_B) P: one query suffices.

    With inputs |phi>_A and |psi>_B = V_A^dag U_A |phi_perp>, the overlap
    <phi| U_A^dag V_A |psi> <psi| U_B^dag V_B |phi> vanishes through its
    first factor.
    """
    build = build or _Build(cfg or RunConfig())
    build.trace.append("i-b")
    d = mat(U_A).shape[0]
    phi = basis_state(d, 0)
    perp = basis_state(d, 1)
    input_b = dagger(V_A) @ (mat(U_A) @ perp)
    template = bare_query_template(d, d, 1)
    U = np.kron(mat(U_A), mat(U_B))
    V = np.kron(mat(V_A), mat(V_B)) @ swap_operator(d)
    build.note("product vs swapped product: single query")
    return _finish(template, phi, input_b, 0.0, build, U, V)


def case_swap_swap(U_A, U_B, V_A, V_B, cfg: RunConfig | None = None,
                   build: _Build | None = None) -> LoccSequentialScheme:
    """Both swapped products: f(X) = X (u (x) v) X turns them into plain
    products f(U) = U_A v U_B (x) U_B u U_A, then the product case applies."""
    build = build or _Build(cfg or RunConfig())
    cfg = build.cfg
    build.trace.append("i-c")
    d = mat(U_A).shape[0]
    u = np.eye(d, dtype=complex)
    rng = cfg.rng("swap-swap-v")
    candidates = [np.eye(d, dtype=complex)] + [random_unitary(d, rng)
                                               for _ in range(cfg.restarts)]
    chosen = None
    for v in candidates:
        fU_a, fU_b = mat(U_A) @ v @ mat(U_B), mat(U_B) @ u @ mat(U_A)
        fV_a, fV_b = mat(V_A) @ v @ mat(V_B), mat(V_B) @ u @ mat(V_A)
        if phase_distance(np.kron(fU_a, fU_b), np.kron(fV_a, fV_b)) > cfg.distinct_tol:
            chosen = (v, fU_a, fU_b, fV_a, fV_b)
            break
    if chosen is None:
        raise VSelectionFailed(f"no middle layer out of {len(candidates)} made the images distinct")
    v, fU_a, fU_b, fV_a, fV_b = chosen
    build.note("swapped pair: middle layer selected, reducing to the product case")
    inner = case_product_product(fU_a, fU_b, fV_a, fV_b, build=build)
    f_template = CircuitTemplate(d, d, [QUERY, LocalLayer(u, v), QUERY])
    flat = compose_templates(inner.template, f_template)
    U = np.kron(mat(U_A), mat(U_B)) @ swap_operator(d)
    V = np.kron(mat(V_A), mat(V_B)) @ swap_operator(d)
    return _finish(flat, inner.input_a, inner.input_b, inner.budget, build, U, V)


# --- case (ii): exactly one imprimitive -------------------------------------

def _controlled_vs_product_tail(f_template, groups, blocks, delta_use,
                                fV_a, fV_b, delta_v, U, V, build) -> LoccSequentialScheme:
    """Shared tail of the controlled-vs-product reduction.

    f(U) is (close to) a two-block controlled unitary and f(V) factors as
    fV_a (x) fV_b exactly up to delta_v. Picks the control branch whose
    block differs from fV_b beyond phase, anchors the A input there, and
    runs the sequential engine on the B side.
    """
    cfg = build.cfg
    d_a, d_b = f_template.d_a, f_template.d_b
    if phase_distance(blocks[1], fV_b) > cfg.distinct_tol:
        branch = 1
    elif phase_distance(blocks[0], fV_b) > cfg.distinct_tol:
        branch = 0
    else:
        raise BranchSelectionFailed("both controlled blocks phase-equivalent to the product image")
    alpha = basis_state(d_a, min(groups[branch]))
    seq = build_sequential_scheme(blocks[branch], fV_b, cfg)
    build.note(f"controlled branch {branch}; B-side scheme with {seq.query_count} block queries")
    build.theta_trace.extend(seq.theta_trace)
    outer = sequential_template(d_a, d_b, [_lift_b(w, d_a) for w in seq.interleavers])
    flat = compose_templates(outer, f_template)
    uses = seq.query_count
    budget = seq.achieved_overlap + uses * (delta_use + delta_v)
    build.per_branch_error.extend([uses * delta_use, uses * delta_v])
    return _finish(flat, alpha, seq.input_state, budget, build, U, V)


def case_imprimitive_vs_product(U: BipartiteUnitary, V_A, V_B,
                                cfg: RunConfig | None = None,
                                build: _Build | None = None,
                                V_ref=None) -> LoccSequentialScheme:
    """U imprimitive against V = V_A (x) V_B."""
    build = build or _Build(cfg or RunConfig())
    build.trace.append("ii-a")
    f_template, groups, blocks, delta_use = _controlled_template(U, build)
    fV_a, fV_b, parity = _image_factors(f_template, mat(V_A), mat(V_B), swaps=False)
    V = mat(V_ref) if V_ref is not None else np.kron(mat(V_A), mat(V_B))
    fV_real = evaluate_template(f_template, V)
    delta_v = op_distance_mod_phase(fV_real, np.kron(fV_a, fV_b))
    return _controlled_vs_product_tail(f_template, groups, blocks, delta_use,
                                       fV_a, fV_b, delta_v, U.matrix, V, build)


def case_imprimitive_vs_swapproduct(U: BipartiteUnitary, V_A, V_B,
                                    cfg: RunConfig | None = None,
                                    build: _Build | None = None,
                                    V_ref=None) -> LoccSequentialScheme:
    """U imprimitive against V = (V_A (x) V_B) P.

    The image f(V) is still primitive; if the swaps cancel (even query
    count) the product tail applies, otherwise a single application of f
    with a B input orthogonal to fV_a^dag |alpha> finishes the job.
    """
    build = build or _Build(cfg or RunConfig())
    cfg = build.cfg
    build.trace.append("ii-b")
    d = U.d_a
    f_template, groups, blocks, delta_use = _controlled_template(U, build)
    fV_a, fV_b, parity = _image_factors(f_template, mat(V_A), mat(V_B), swaps=True)
    V = mat(V_ref) if V_ref is not None else np.kron(mat(V_A), mat(V_B)) @ swap_operator(d)
    fV_real = evaluate_template(f_template, V)
    if parity == 0:
        build.trace.append("ii-a")
        build.note("swap parity cancelled; delegating to the product tail")
        delta_v = op_distance_mod_phase(fV_real, np.kron(fV_a, fV_b))
        return _controlled_vs_product_tail(f_template, groups, blocks, delta_use,
                                           fV_a, fV_b, delta_v, U.matrix, V, build)
    delta_v = op_distance_mod_phase(fV_real, np.kron(fV_a, fV_b) @ swap_operator(d))
    alpha = basis_state(d, min(groups[1]))
    # <alpha| fV_a |phi> = 0 makes the first overlap factor vanish
    phi = orthogonal_state(dagger(fV_a) @ alpha)
    budget = 1.0 * (delta_use + delta_v)
    build.per_branch_error.extend([delta_use, delta_v])
    build.note("swapped image: single application of the controlled template")
    return _finish(f_template, alpha, phi, budget, build, U.matrix, V)


# --- case (iii): both imprimitive -------------------------------------------

def _xx_template(U: BipartiteUnitary, build: _Build):
    """Template f with f(U) close to the canonical interaction exponential."""
    cfg = build.cfg
    d_a, d_b = U.d_a, U.d_b
    target = exp_xx_form(1.0, d_a, d_b)
    if op_distance_mod_phase(U.matrix, target.matrix) <= 1e-9:
        build.note("interaction fast path: operand already the canonical exponential")
        return bare_query_template(d_a, d_b, 1), 0.0
    res = synthesize(target, U, cfg)
    build.note(f"interaction target synthesized with k={res.layer_count}, delta={res.delta:.2e}")
    fU = evaluate_template(res.template, U.matrix)
    return res.template, float(op_distance_mod_phase(fU, target.matrix))


def case_both_imprimitive(U: BipartiteUnitary, V: BipartiteUnitary,
                          cfg: RunConfig | None = None,
                          build: _Build | None = None,
                          depth: int = 0) -> LoccSequentialScheme:
    """Both operands imprimitive: compile U toward exp(i u1 (x) u2) and
    dispatch on what the same template does to V."""
    build = build or _Build(cfg or RunConfig())
    cfg = build.cfg
    build.trace.append("iii")
    d_a, d_b = U.d_a, U.d_b
    f_template, delta_u = _xx_template(U, build)
    fU_real = evaluate_template(f_template, U.matrix)
    fV = evaluate_template(f_template, V.matrix)
    fV_bip = validate_unitary(fV, d_a, d_b, tol=1e-6)
    target = exp_xx_form(1.0, d_a, d_b)

    cls_v = classify_primitive(fV_bip, cfg.rank_tol)
    if cls_v.kind != "Imprimitive":
        build.note(f"image of V is {cls_v.kind}; descending to the mixed case")
        inner = _dispatch_pair(target, (fV_bip, cls_v), build, depth + 1)
        flat = compose_templates(inner.template, f_template)
        uses = inner.template.query_count
        budget = inner.budget + uses * delta_u
        build.per_branch_error.append(uses * delta_u)
        return _finish(flat, inner.input_a, inner.input_b, budget, build, U.matrix, V.matrix)

    # coinciding images (the "x = 1" situation) are detected against the real
    # image of U, so synthesis inexactness cannot misroute the pair
    if phase_distance(fV, fU_real) <= cfg.x_tol:
        return _case_iii_b_same(U, V, f_template, fU_real, fV, delta_u, build, depth)
    m = match_exp_xx_mod_phase(fV_bip, tol=max(1e-5, 10.0 * delta_u))
    if m is None:
        return _case_iii_a(U, V, f_template, fU_real, fV, delta_u, build, depth)
    x, phase = m
    if abs(x - 1.0) <= cfg.x_tol:
        return _case_iii_b_same(U, V, f_template, fU_real, fV, delta_u, build, depth)
    return _case_iii_b_scaled(U, V, f_template, fU_real, fV, delta_u, x, phase, build)


def _case_iii_a(U, V, f_template, fU_real, fV, delta_u, build, depth):
    """Image of V is imprimitive but not an interaction exponential: probe
    with a symmetry element W so that F(X) = W f(X) W^dag f(X) maps U near
    the identity but V away from it, then recurse on (I, F(V))."""
    cfg = build.cfg
    build.trace.append("iii-a")
    d_a, d_b = U.d_a, U.d_b
    sym = build_symmetry_set(d_a, d_b)
    identity = np.eye(d_a * d_b, dtype=complex)
    # largest separation wins: the recursion needs (I, F(V)) clearly distinct
    scored = []
    for i, ((wa, wb), W, label) in enumerate(zip(sym.factor_pairs, sym.elements, sym.labels)):
        FV = W @ fV @ W.conj().T @ fV
        scored.append((phase_distance(FV, identity), -i, wa, wb, W, FV, label))
    sep, _, wa, wb, W, FV, label = max(scored)
    if (np.linalg.norm(FV - identity, 2) <= cfg.identity_tol
            or sep <= max(cfg.distinct_tol, 2.0 * delta_u)):
        raise CaseFailure(build.trace, SeqloccError(
            "no symmetry element separated the image of V from the identity"))
    build.note(f"symmetry probe {label} selected")
    F_over_blocks = CircuitTemplate(d_a, d_b, [
        QUERY, LocalLayer(wa.conj().T, wb.conj().T), QUERY, LocalLayer(wa, wb)])
    F_template = compose_templates(F_over_blocks, f_template)
    FU_real = W @ fU_real @ W.conj().T @ fU_real
    delta_u_block = op_distance_mod_phase(FU_real, identity)
    # the probe inverts the ideal image, so the real composite sits within
    # twice the synthesis deviation of the identity
    if not delta_u_block <= 2.0 * delta_u + 4.0 * delta_u ** 2 + 1e-9:
        raise CaseFailure(build.trace, SeqloccError(
            f"probe composite deviates {delta_u_block:.3e} from the identity, "
            f"beyond twice the synthesis deviation {delta_u:.3e}"))
    inner = _dispatch_pair(validate_unitary(identity, d_a, d_b, tol=1e-12),
                           validate_unitary(FV, d_a, d_b, tol=1e-6),
                           build, depth + 1)
    flat = compose_templates(inner.template, F_template)
    uses = inner.template.query_count
    budget = inner.budget + uses * delta_u_block
    build.per_branch_error.append(uses * delta_u_block)
    return _finish(flat, inner.input_a, inner.input_b, budget, build, U.matrix, V.matrix)


def _case_iii_b_same(U, V, f_template, fU_real, fV, delta_u, build, depth):
    """Images coincide (x = 1): compile h with h(f(U)) = U^dag from forward
    blocks only, so X h(f(X)) maps U near the identity and V near V U^dag;
    recurse on that pair. The inverse appears only as a synthesized matrix,
    never as a query."""
    cfg = build.cfg
    build.trace.append("iii-b-x1")
    d_a, d_b = U.d_a, U.d_b
    gen = validate_unitary(fU_real, d_a, d_b, tol=1e-8)
    h = synthesize(validate_unitary(U.matrix.conj().T, d_a, d_b, tol=1e-12), gen, cfg)
    build.note(f"inverse synthesized from forward blocks with k={h.layer_count}, "
               f"delta={h.delta:.2e}")
    hf = compose_templates(h.template, f_template)
    block_template = append_query(hf)
    VUd = V.matrix @ U.matrix.conj().T
    real_u_block = evaluate_template(block_template, U.matrix)
    real_v_block = evaluate_template(block_template, V.matrix)
    identity = np.eye(d_a * d_b, dtype=complex)
    delta_bu = op_distance_mod_phase(real_u_block, identity)
    delta_bv = op_distance_mod_phase(real_v_block, VUd)
    inner = _dispatch_pair(validate_unitary(identity, d_a, d_b, tol=1e-12),
                           validate_unitary(VUd, d_a, d_b, tol=1e-9),
                           build, depth + 1)
    flat = compose_templates(inner.template, block_template)
    uses = inner.template.query_count
    budget = inner.budget + uses * (delta_bu + delta_bv)
    build.per_branch_error.extend([uses * delta_bu, uses * delta_bv])
    return _finish(flat, inner.input_a, inner.input_b, budget, build, U.matrix, V.matrix)


def _case_iii_b_scaled(U, V, f_template, fU_real, fV, delta_u, x, phase, build):
    """Images are interaction exponentials with different angles: feed the
    B side the +1 eigenvector of the interaction so the pair reduces to
    exp(i u1) against e^{i phase} exp(i x u1) on the A side alone."""
    cfg = build.cfg
    build.trace.append("iii-b-xne1")
    d_a, d_b = U.d_a, U.d_b
    alpha_plus = normalize(basis_state(d_b, 0) + basis_state(d_b, 1))
    EA_U = block_exponential(1.0, d_a)
    EA_V = np.exp(1j * phase) * block_exponential(x, d_a)
    seq = build_sequential_scheme(EA_U, EA_V, cfg)
    build.note(f"A-side reduction with x={x:.6f}; {seq.query_count} block queries")
    build.theta_trace.extend(seq.theta_trace)
    outer = sequential_template(d_a, d_b, [_lift_a(w, d_b) for w in seq.interleavers])
    flat = compose_templates(outer, f_template)
    uses = seq.query_count
    target = exp_xx_form(1.0, d_a, d_b)
    ideal_v = np.exp(1j * phase) * exp_xx_form(x, d_a, d_b).matrix
    delta_bu = op_distance_mod_phase(fU_real, target.matrix)
    delta_bv = op_distance_mod_phase(fV, ideal_v)
    budget = seq.achieved_overlap + uses * (delta_bu + delta_bv)
    build.per_branch_error.extend([uses * delta_bu, uses * delta_bv])
    return _finish(flat, seq.input_state, alpha_plus, budget, build, U.matrix, V.matrix)


# --- dispatch ---------------------------------------------------------------

def _dispatch_pair(U: BipartiteUnitary, V, build: _Build, depth: int) -> LoccSequentialScheme:
    cfg = build.cfg
    if depth > cfg.max_depth:
        raise RecursionDepthExceeded(f"case recursion exceeded depth {cfg.max_depth}")
    if isinstance(V, tuple):
        V, cls_v = V
    else:
        cls_v = classify_primitive(V, cfg.rank_tol)
    cls_u = classify_primitive(U, cfg.rank_tol)

    swapped_roles = False
    if cls_u.kind == "Imprimitive" or cls_v.kind == "Imprimitive":
        if cls_u.kind != "Imprimitive":
            U, V = V, U
            cls_u, cls_v = cls_v, cls_u
            swapped_roles = True
    elif cls_u.kind == "SwapProduct" and cls_v.kind == "Product":
        U, V = V, U
        cls_u, cls_v = cls_v, cls_u
        swapped_roles = True
    if swapped_roles:
        build.note("operand roles swapped for dispatch (orthogonality is symmetric)")

    kinds = (cls_u.kind, cls_v.kind)
    try:
        if kinds == ("Product", "Product"):
            return case_product_product(cls_u.factor_a, cls_u.factor_b,
                                        cls_v.factor_a, cls_v.factor_b, build=build)
        if kinds == ("Product", "SwapProduct"):
            return case_product_swap(cls_u.factor_a, cls_u.factor_b,
                                     cls_v.factor_a, cls_v.factor_b, build=build)
        if kinds == ("SwapProduct", "SwapProduct"):
            return case_swap_swap(cls_u.factor_a, cls_u.factor_b,
                                  cls_v.factor_a, cls_v.factor_b, build=build)
        if kinds == ("Imprimitive", "Product"):
            return case_imprimitive_vs_product(U, cls_v.factor_a, cls_v.factor_b,
                                               build=build, V_ref=V)
        if kinds == ("Imprimitive", "SwapProduct"):
            return case_imprimitive_vs_swapproduct(U, cls_v.factor_a, cls_v.factor_b,
                                                   build=build, V_ref=V)
        return case_both_imprimitive(U, V, build=build, depth=depth)
    except SeqloccError as exc:
        if isinstance(exc, (CaseFailure, RecursionDepthExceeded)):
            raise
        raise CaseFailure(build.trace, exc) from exc


def discriminate(U: BipartiteUnitary, V: BipartiteUnitary,
                 cfg: RunConfig | None = None):
    """Flat LOCC sequential scheme with verified-orthogonal outputs.

    Returns (scheme, report). Raises Indistinguishable for phase-equivalent
    inputs and CaseFailure (wrapping the cause and the case trace) when a
    construction step fails.
    """
    cfg = cfg or RunConfig()
    if (U.d_a, U.d_b) != (V.d_a, V.d_b):
        raise DimensionMismatch(
            f"operands live on different systems: ({U.d_a}, {U.d_b}) vs ({V.d_a}, {V.d_b})")
    if phase_distance(U.matrix, V.matrix) <= cfg.distinct_tol:
        raise Indistinguishable("operations agree up to a global phase")
    build = _Build(cfg)
    scheme = _dispatch_pair(U, V, build, depth=0)
    report = verify_scheme(scheme, U, V, cfg)
    report.theta_trace = list(build.theta_trace)
    report.per_branch_error = list(build.per_branch_error)
    report.wall_notes = "; ".join(build.notes)
    return scheme, report


def validate_scheme(scheme: LoccSequentialScheme, tol: float = 1e-9) -> None:
    """Raise unless the scheme is well formed: NotUnitary for a local factor
    off unitarity by more than tol, MalformedScheme for an input that is not
    a unit vector (to tol) of length d_a or d_b."""
    t = scheme.template
    check_local_unitarity(t, tol)
    for name, v, d in (("input_a", scheme.input_a, t.d_a), ("input_b", scheme.input_b, t.d_b)):
        v = np.asarray(v)
        if v.shape != (d,):
            raise MalformedScheme(f"{name} has shape {v.shape}, expected ({d},)")
        norm = float(np.linalg.norm(v))
        if not abs(norm - 1.0) <= tol:
            raise MalformedScheme(f"{name} has norm {norm:.12g}, expected 1")


def verify_scheme(scheme: LoccSequentialScheme, U, V,
                  cfg: RunConfig | None = None) -> DiscriminationReport:
    """Validate the scheme (see validate_scheme, at cfg.unitarity_tol), then
    recompute both outputs from scratch and compare against the budget."""
    validate_scheme(scheme, (cfg or RunConfig()).unitarity_tol)
    inp = np.kron(scheme.input_a, scheme.input_b)
    phi_u = evaluate_template(scheme.template, mat(U)) @ inp
    phi_v = evaluate_template(scheme.template, mat(V)) @ inp
    ov = float(abs(np.vdot(phi_u, phi_v)))
    return DiscriminationReport(
        overlap=ov,
        query_count=scheme.template.query_count,
        passed=ov <= scheme.budget + 1e-12,
        case_trace=list(scheme.case_trace),
    )
