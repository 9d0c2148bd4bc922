"""Case engine assembling flat LOCC sequential discrimination schemes.

Given two distinct bipartite unitaries, classifies the operands and
routes through the matching construction: product pairs reduce to a
one-sided sequential scheme; a swapped product against a product needs one
query; two swapped products need one query, or blocks of two around a
middle layer built from their two factor arcs. When an operand is
imprimitive, a single query with a product input is tried first (the
direct route, _direct, on the operand pair and on the one inner pair of
case iii); against an imprimitive U it runs before V is classified, and V
is classified only when it misses. Otherwise the imprimitive operand is
compiled into a controlled unitary (or the canonical interaction
exponential) by an inverse-free template, after which the problem reduces
to a simpler pair.
The emitted scheme is always a flat template of product-form local layers
and forward queries plus a product input state, with a budget dominating
the residual overlap.

Every case is one reduction step: a block template f turns the pair into a
simpler pair (f(U), f(V)), solved on one side by the sequential engine
(_one_side) or dispatched again (_over_block), and composed over f.

Budgets are computed from the actual matrices: every time a synthesized
block stands in for its ideal, the per-use operator-norm deviation (modulo
a global phase) is measured and multiplied by the number of uses; levels of
recursion add their budgets.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .arcs import numerical_range_zero, queries_for_arc, smallest_arc, zero_overlap_from_spectrum
from .config import CLOSED_FORM_TOL, DISTINCT_TOL, MATCH_TOL, RunConfig
from .errors import (
    BranchSelectionFailed,
    CaseFailure,
    DimensionMismatch,
    Indistinguishable,
    MalformedScheme,
    SeqloccError,
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
    swap_operator,
    validate_unitary,
)
from .sequential import _circular_sorted_eig, _stage_rotation, build_sequential_scheme
from .structure import (
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
    template_outputs,
)

# a symmetry-probe composite within this of the identity separates nothing
_IDENTITY_TOL = 1e-6
# routing threshold between the x = 1 and x != 1 branches of case iii
_X_TOL = 1e-6
# least tolerance at which an image of V is matched to an interaction
# exponential; a synthesized image may sit up to 10 delta_u off its ideal
_ROUTING_FLOOR = 1e-5
# rounding slack by which a verified overlap may exceed its budget
_VERIFY_SLACK = 1e-12


@dataclass
class LoccSequentialScheme:
    """Flat discrimination scheme: template, product input, and its budget.

    achieved_overlap is |<phi_U|phi_V>| of the two outputs, as verify_scheme
    measures it on the real operands; discriminate fills it in from its
    report, and a loaded scheme carries the value recorded in its file.
    """

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


def _finish(template: CircuitTemplate, input_a, input_b, budget: float,
            build: _Build) -> LoccSequentialScheme:
    """Assemble the scheme; its overlap is measured once, by discriminate."""
    return LoccSequentialScheme(template, normalize(input_a), normalize(input_b),
                                math.nan, float(budget), list(build.trace))


def _one_side(build: _Build, side: str, X_u, X_v, block: CircuitTemplate | None,
              idle_input, deltas, relative=None) -> LoccSequentialScheme:
    """Sequential scheme for the block pair X_u (x) . against X_v (x) . acting
    on `side` ("A" or "B"), composed over `block` (None: the query itself).

    The other side idles in idle_input. deltas are the per-use deviations of
    the real blocks from X_u and X_v; each costs uses * delta of budget.
    relative is the decomposition of X_u^dag X_v, when already made.
    """
    seq = build_sequential_scheme(X_u, X_v, build.cfg, _relative=relative)
    build.theta_trace.extend(seq.theta_trace)
    build.note(f"side {side}: {seq.query_count} block queries")
    inputs = (seq.input_state, idle_input) if side == "A" else (idle_input, seq.input_state)
    idle = np.eye(len(idle_input), dtype=complex)
    outer = sequential_template(len(inputs[0]), len(inputs[1]), [
        LocalLayer(w, idle.copy()) if side == "A" else LocalLayer(idle.copy(), w)
        for w in seq.interleavers])
    flat = outer if block is None else compose_templates(outer, block)
    uses = seq.query_count
    build.per_branch_error.extend(uses * delta for delta in deltas)
    return _finish(flat, *inputs, seq.achieved_overlap + uses * sum(deltas), build)


def _over_block(build: _Build, block: CircuitTemplate, inner: LoccSequentialScheme,
                deltas) -> LoccSequentialScheme:
    """Compose the scheme `inner` of a block pair over `block`; deltas are the
    per-use deviations of the real blocks, each costing uses * delta."""
    uses = inner.template.query_count
    build.per_branch_error.extend(uses * delta for delta in deltas)
    return _finish(compose_templates(inner.template, block), inner.input_a, inner.input_b,
                   inner.budget + uses * sum(deltas), build)


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


def _controlled_form(M: np.ndarray, d_a: int, d_b: int):
    """Two-block controlled structure of M in the computational A-basis, to
    MATCH_TOL.

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
    if off > MATCH_TOL:
        return None
    diag = [M4[a, :, a, :] for a in range(d_a)]
    groups: list[list[int]] = []
    blocks: list[np.ndarray] = []
    for a, W in enumerate(diag):
        for g, ref in enumerate(blocks):
            if np.linalg.norm(W - ref, 2) <= MATCH_TOL:
                groups[g].append(a)
                break
        else:
            groups.append([a])
            blocks.append(W)
    if len(blocks) != 2:
        return None
    return groups, blocks


def _controlled_template(U: BipartiteUnitary, build: _Build):
    """Template f with f(U) a two-block controlled unitary.

    Uses U itself when it is already controlled in the computational basis
    (one query, identity locals); otherwise synthesizes the fixed controlled
    target. Returns (template, groups, blocks, delta_use) where delta_use
    bounds the per-use operator-norm deviation of the real f(U) from the
    ideal block structure.
    """
    cfg = build.cfg
    d_a, d_b = U.d_a, U.d_b
    ctrl = _controlled_form(U.matrix, d_a, d_b)
    if ctrl is not None:
        build.note("controlled fast path: operand already has two-block form")
        groups, blocks = ctrl
        # the form is accepted at a tolerance, so U may sit off its blocks
        ideal = sum(np.kron(np.diag(np.isin(np.arange(d_a), g).astype(complex)), W)
                    for g, W in zip(groups, blocks))
        return (bare_query_template(d_a, d_b, 1), groups, blocks,
                op_distance_mod_phase(U.matrix, ideal))
    # target |0><0| (x) I + P' (x) G with G = diag(1, exp(2 pi i / 3), 1, ...):
    # G is not scalar, so no operand is phase-equivalent to both blocks and
    # branch selection always succeeds
    G = np.eye(d_b, dtype=complex)
    G[1, 1] = np.exp(2j * np.pi / 3)
    P0 = np.diag(basis_state(d_a, 0))
    C = np.kron(P0, np.eye(d_b)) + np.kron(np.eye(d_a) - P0, G)
    groups, blocks = [[0], list(range(1, d_a))], [np.eye(d_b, dtype=complex), G]
    res = synthesize(validate_unitary(C, d_a, d_b, tol=CLOSED_FORM_TOL), U, cfg)
    build.note(f"controlled target synthesized with k={res.layer_count}, delta={res.delta:.2e}")
    fU = evaluate_template(res.template, U.matrix)
    delta_use = op_distance_mod_phase(fU, C)
    return res.template, groups, blocks, float(delta_use)


# --- case (i): both primitive ----------------------------------------------

def _case_product_product(build: _Build, U_A, U_B, V_A, V_B,
                          deltas=()) -> LoccSequentialScheme:
    """Both operands are products: run the sequential engine on the side
    with the fewest predicted queries and idle the other side. deltas are
    the per-use deviations of U and V from those products.

    Ties go to the wider phase distance: factor extraction carries a little
    noise, so a barely-nonzero side must not shadow a cleanly distinct one.
    Each distinct side's U^dag V is decomposed once, here, and the taken
    one is handed to the sequential engine, which then neither decomposes
    it again nor repeats the distinctness check; a side within DISTINCT_TOL
    costs inf.
    """
    build.trace.append("i-a")

    sides = {"A": (U_A, V_A, basis_state(mat(U_B).shape[0], 0)),
             "B": (U_B, V_B, basis_state(mat(U_A).shape[0], 0))}
    gaps = {side: phase_distance(X_u, X_v) for side, (X_u, X_v, _) in sides.items()}
    spectra = {side: _circular_sorted_eig(dagger(X_u) @ mat(X_v))
               for side, (X_u, X_v, _) in sides.items() if gaps[side] > DISTINCT_TOL}

    def cost(side):
        return (queries_for_arc(spectra[side][1].theta) if side in spectra else math.inf,
                -gaps[side])

    side = min(sides, key=cost)
    X_u, X_v, idle = sides[side]
    scheme = _one_side(build, side, X_u, X_v, None, idle, deltas, spectra.get(side))
    build.per_branch_error.append(scheme.budget)
    return scheme


def _case_product_swap(build: _Build, U_A, U_B, V_A, V_B, deltas) -> LoccSequentialScheme:
    """U = U_A (x) U_B against V = (V_A (x) V_B) P: one query suffices.

    With inputs |phi>_A and |psi>_B = V_A^dag U_A |phi_perp>, the overlap
    <phi| U_A^dag V_A |psi> <psi| U_B^dag V_B |phi> vanishes through its
    first factor.
    """
    build.trace.append("i-b")
    d = mat(U_A).shape[0]
    input_b = dagger(V_A) @ (mat(U_A) @ basis_state(d, 1))
    build.note("product vs swapped product: single query")
    build.per_branch_error.extend(deltas)
    return _finish(bare_query_template(d, d, 1), basis_state(d, 0), input_b, sum(deltas), build)


def _case_swap_swap(build: _Build, U_A, U_B, V_A, V_B, deltas) -> LoccSequentialScheme:
    """Both swapped products, U = (A (x) B) P and V = (C (x) D) P.

    With input |a>|b> one query leaves the overlap <b|M1|b> <a|B^dag D|a>,
    M1 = A^dag C and B^dag D = B^dag M2 B with M2 = D B^dag. When either
    arc reaches pi, that factor's zero-overlap state answers in one query.
    Otherwise f(X) = X (I (x) v) X turns both into plain products
    f(U) = A v B (x) B A, whose side-A relative operator is similar to
    v^dag M1 v M2. With v = E1 S E2^dag, E1 and E2 the arc-sorted
    eigenbases and S the sequential engine's stage rotation, the two arcs
    add (and close to antipodal endpoints past pi), so the product case
    needs 2 ceil(pi / (Theta1 + Theta2)) queries; f(U) and f(V) deviate by
    twice those of U and V.
    """
    build.trace.append("i-c")
    A, B, C, D = (mat(X) for X in (U_A, U_B, V_A, V_B))
    d = A.shape[0]
    M1, M2 = dagger(A) @ C, D @ dagger(B)
    (dec1, info1, ends1, E1), (dec2, info2, ends2, E2) = (
        _circular_sorted_eig(M) for M in (M1, M2))
    theta = max(info1.theta, info2.theta)
    if queries_for_arc(theta) == 1:
        on_b = info1.theta == theta
        dec, ends, M = (dec1, ends1, M1) if on_b else (dec2, ends2, M2)
        psi = zero_overlap_from_spectrum(dec, ends)
        idle = basis_state(d, 0)
        build.theta_trace.append(theta)
        build.note(f"swapped pair: single query on the arc of {'A^dag C' if on_b else 'B^dag D'}")
        build.per_branch_error.extend(deltas)
        inputs = (idle, psi) if on_b else (dagger(B) @ psi, idle)
        return _finish(bare_query_template(d, d, 1), *inputs,
                       abs(np.vdot(psi, M @ psi)) + sum(deltas), build)
    v = E1 @ _stage_rotation(ends1.theta, ends2.theta, d) @ dagger(E2)
    build.note("swapped pair: middle layer from the two arcs, reducing to the product case")
    f_template = CircuitTemplate(d, d, [QUERY, LocalLayer(np.eye(d, dtype=complex), v), QUERY])
    inner = _case_product_product(build, A @ v @ B, B @ A, C @ v @ D, D @ C)
    return _over_block(build, f_template, inner, tuple(2.0 * delta for delta in deltas))


# --- case (ii): exactly one imprimitive -------------------------------------

def _case_imprimitive_vs_primitive(build: _Build, U: BipartiteUnitary, V: BipartiteUnitary,
                                   cls_v) -> LoccSequentialScheme:
    """U imprimitive against V = (V_A (x) V_B) P^s, s = 0 (ii-a) or 1 (ii-b).

    A template f makes f(U) a two-block controlled unitary while f(V) stays
    primitive. When the swaps cancel (s = 0, or an even query count) the
    control branch whose block differs from the B factor of f(V) anchors
    the A input and the sequential engine runs on the B side; otherwise a
    single application of f with a B input orthogonal to fV_a^dag |alpha>
    finishes the job.
    """
    swapped = cls_v.kind == "SwapProduct"
    build.trace.append("ii-b" if swapped else "ii-a")
    f_template, groups, blocks, delta_use = _controlled_template(U, build)
    fV_a, fV_b, parity = _image_factors(f_template, cls_v.factor_a, cls_v.factor_b,
                                        swaps=swapped)
    fV_real = evaluate_template(f_template, V.matrix)
    d_a = U.d_a
    if parity:
        delta_v = op_distance_mod_phase(fV_real, np.kron(fV_a, fV_b) @ swap_operator(d_a))
        alpha = basis_state(d_a, min(groups[1]))
        # <alpha| fV_a |phi> = 0 makes the first overlap factor vanish
        phi = orthogonal_state(dagger(fV_a) @ alpha)
        build.per_branch_error.extend([delta_use, delta_v])
        build.note("swapped image: single application of the controlled template")
        return _finish(f_template, alpha, phi, 1.0 * (delta_use + delta_v), build)
    if swapped:
        build.trace.append("ii-a")
        build.note("swap parity cancelled; delegating to the product tail")
    delta_v = op_distance_mod_phase(fV_real, np.kron(fV_a, fV_b))
    if phase_distance(blocks[1], fV_b) > DISTINCT_TOL:
        branch = 1
    elif phase_distance(blocks[0], fV_b) > DISTINCT_TOL:
        branch = 0
    else:
        raise BranchSelectionFailed("both controlled blocks phase-equivalent to the product image")
    build.note(f"controlled branch {branch}")
    return _one_side(build, "B", blocks[branch], fV_b, f_template,
                     basis_state(d_a, min(groups[branch])), (delta_use, delta_v))


# --- case (iii): both imprimitive -------------------------------------------

def _validated_product(M: np.ndarray, d_a: int, d_b: int, uses: int,
                       cfg: RunConfig) -> BipartiteUnitary:
    """Wrap M, a product of exact unitaries and `uses` factors of operands
    accepted at cfg.unitarity_tol: defects add over a product, so M is
    validated at uses times that, plus rounding."""
    return validate_unitary(M, d_a, d_b, tol=uses * cfg.unitarity_tol + CLOSED_FORM_TOL)


def _xx_template(U: BipartiteUnitary, build: _Build):
    """Template f with f(U) close to the canonical interaction exponential.

    Returns (f, the real f(U), its deviation from that exponential).
    """
    d_a, d_b = U.d_a, U.d_b
    target = exp_xx_form(1.0, d_a, d_b)
    delta = op_distance_mod_phase(U.matrix, target.matrix)
    if delta <= MATCH_TOL:
        build.note("interaction fast path: operand already the canonical exponential")
        f_template = bare_query_template(d_a, d_b, 1)
        return f_template, evaluate_template(f_template, U.matrix), delta
    res = synthesize(target, U, build.cfg)
    build.note(f"interaction target synthesized with k={res.layer_count}, delta={res.delta:.2e}")
    fU = evaluate_template(res.template, U.matrix)
    return res.template, fU, float(op_distance_mod_phase(fU, target.matrix))


def _case_both_imprimitive(build: _Build, U: BipartiteUnitary,
                           V: BipartiteUnitary) -> LoccSequentialScheme:
    """Both operands imprimitive: compile U toward exp(i u1 (x) u2) and
    dispatch on what the same template does to V."""
    cfg = build.cfg
    build.trace.append("iii")
    d_a, d_b = U.d_a, U.d_b
    f_template, fU_real, delta_u = _xx_template(U, build)
    fV = evaluate_template(f_template, V.matrix)
    fV_bip = _validated_product(fV, d_a, d_b, f_template.query_count, cfg)

    cls_fv = classify_primitive(fV_bip)
    if cls_fv.kind != "Imprimitive":
        build.note(f"image of V is {cls_fv.kind}; descending to the mixed case")
        inner = _dispatch_pair(exp_xx_form(1.0, d_a, d_b), fV_bip, build, cls_fv)
        return _over_block(build, f_template, inner, (delta_u,))

    # coinciding images (the "x = 1" situation) are detected against the real
    # image of U, so synthesis inexactness cannot misroute the pair
    same = phase_distance(fV, fU_real) <= _X_TOL
    m = None if same else match_exp_xx_mod_phase(fV_bip, tol=max(_ROUTING_FLOOR, 10.0 * delta_u))
    if same or (m is not None and abs(m[0] - 1.0) <= _X_TOL):
        return _case_iii_b_same(build, U, V, f_template, fU_real)
    if m is None:
        return _case_iii_a(build, U, f_template, fU_real, fV, delta_u)
    return _case_iii_b_scaled(build, U, f_template, fU_real, fV, *m)


def _case_iii_a(build, U, f_template, fU_real, fV, delta_u):
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
    if (np.linalg.norm(FV - identity, 2) <= _IDENTITY_TOL
            or sep <= max(DISTINCT_TOL, 2.0 * delta_u)):
        raise CaseFailure(build.trace, SeqloccError(
            "no symmetry element separated the image of V from the identity"))
    build.note(f"symmetry probe {label} selected")
    F_over_blocks = CircuitTemplate(d_a, d_b, [
        QUERY, LocalLayer(wa.conj().T, wb.conj().T), QUERY, LocalLayer(wa, wb)])
    FU_real = W @ fU_real @ W.conj().T @ fU_real
    delta_u_block = op_distance_mod_phase(FU_real, identity)
    # the probe inverts the ideal image, so the real composite sits within
    # twice the synthesis deviation of the identity
    if not delta_u_block <= 2.0 * delta_u + 4.0 * delta_u ** 2 + MATCH_TOL:
        raise CaseFailure(build.trace, SeqloccError(
            f"probe composite deviates {delta_u_block:.3e} from the identity, "
            f"beyond twice the synthesis deviation {delta_u:.3e}"))
    inner = _dispatch_pair(validate_unitary(identity, d_a, d_b, tol=CLOSED_FORM_TOL),
                           _validated_product(FV, d_a, d_b, 2 * f_template.query_count, cfg),
                           build)
    return _over_block(build, compose_templates(F_over_blocks, f_template), inner,
                       (delta_u_block,))


def _case_iii_b_same(build, U, V, f_template, fU_real):
    """Images coincide (x = 1): compile h with h(f(U)) = U^dag from forward
    blocks only, so X h(f(X)) maps U near the identity and V near V U^dag;
    recurse on that pair. The inverse appears only as a synthesized matrix,
    never as a query."""
    cfg = build.cfg
    build.trace.append("iii-b-x1")
    d_a, d_b = U.d_a, U.d_b
    gen = _validated_product(fU_real, d_a, d_b, f_template.query_count, cfg)
    h = synthesize(_validated_product(U.matrix.conj().T, d_a, d_b, 1, cfg), gen, cfg)
    build.note(f"inverse synthesized from forward blocks with k={h.layer_count}, "
               f"delta={h.delta:.2e}")
    block_template = append_query(compose_templates(h.template, f_template))
    VUd = V.matrix @ U.matrix.conj().T
    identity = np.eye(d_a * d_b, dtype=complex)
    delta_bu = op_distance_mod_phase(evaluate_template(block_template, U.matrix), identity)
    delta_bv = op_distance_mod_phase(evaluate_template(block_template, V.matrix), VUd)
    inner = _dispatch_pair(validate_unitary(identity, d_a, d_b, tol=CLOSED_FORM_TOL),
                           _validated_product(VUd, d_a, d_b, 2, cfg), build)
    return _over_block(build, block_template, inner, (delta_bu, delta_bv))


def _case_iii_b_scaled(build, U, f_template, fU_real, fV, x, phase):
    """Images are interaction exponentials with different angles: feed the
    B side the +1 eigenvector of the interaction so the pair reduces to
    exp(i u1) against e^{i phase} exp(i x u1) on the A side alone."""
    build.trace.append("iii-b-xne1")
    d_a, d_b = U.d_a, U.d_b
    build.note(f"A-side reduction with x={x:.6f}")
    ideal_v = np.exp(1j * phase) * exp_xx_form(x, d_a, d_b).matrix
    delta_bu = op_distance_mod_phase(fU_real, exp_xx_form(1.0, d_a, d_b).matrix)
    delta_bv = op_distance_mod_phase(fV, ideal_v)
    return _one_side(build, "A", block_exponential(1.0, d_a),
                     np.exp(1j * phase) * block_exponential(x, d_a), f_template,
                     normalize(basis_state(d_b, 0) + basis_state(d_b, 1)),
                     (delta_bu, delta_bv))


# --- direct route -----------------------------------------------------------

def _direct_candidates(d: int, cfg: RunConfig) -> Iterator[np.ndarray]:
    """Probe states in a fixed order: the basis, the uniform superposition
    and four seeded Haar draws, drawn only when the caller reaches them."""
    yield from (basis_state(d, k) for k in range(d))
    yield normalize(np.ones(d))
    rng = cfg.rng("direct", d)
    draws = rng.normal(size=(4, d)) + 1j * rng.normal(size=(4, d))
    yield from (normalize(z) for z in draws)


def _direct(build: _Build, U: BipartiteUnitary, V: BipartiteUnitary):
    """One query with a product input |phi>|psi>, or None.

    For fixed psi the overlap is <phi| W_psi |phi> with W = U^dag V and
    W_psi = (I (x) <psi|) W (I (x) |psi>), so phi exists exactly when 0 lies
    in the numerical range of W_psi (the union over psi is the product
    numerical range of W). W is normal, so F(W) is the hull of its spectrum
    and contains that union: unless queries_for_arc(Theta(W)) is 1, no psi
    works. Otherwise psi runs over _direct_candidates, on B first, then on A.
    """
    cfg = build.cfg
    d_a, d_b = U.d_a, U.d_b
    W = dagger(U) @ V.matrix
    if queries_for_arc(smallest_arc(W).theta) != 1:
        return None
    W4 = W.reshape(d_a, d_b, d_a, d_b)
    for side, d, pattern in (("B", d_b, "ibjc,b,c->ij"), ("A", d_a, "bicj,b,c->ij")):
        for k, psi in enumerate(_direct_candidates(d, cfg)):
            phi = numerical_range_zero(np.einsum(pattern, W4, psi.conj(), psi))
            if phi is None:
                continue
            inputs = (phi, psi) if side == "B" else (psi, phi)
            inp = np.outer(*inputs).ravel()  # the bits of np.kron, without its overhead
            residual = float(abs(np.vdot(U.matrix @ inp, V.matrix @ inp)))
            if residual <= cfg.overlap_tol:
                build.trace.append("direct")
                build.note(f"direct: one query, probe {k} on {side}, residual {residual:.1e}")
                return LoccSequentialScheme(bare_query_template(d_a, d_b, 1), *inputs,
                                            math.nan, residual, list(build.trace))
    return None


# --- dispatch ---------------------------------------------------------------

@contextmanager
def _case_failure(build: _Build):
    """Re-raise a SeqloccError from a construction step as a CaseFailure
    carrying the case trace."""
    try:
        yield
    except CaseFailure:
        raise
    except SeqloccError as exc:
        raise CaseFailure(build.trace, exc) from exc


def _dispatch_pair(U: BipartiteUnitary, V: BipartiteUnitary, build: _Build,
                   cls_v=None) -> LoccSequentialScheme:
    """Scheme for (U, V); cls_v is V's PrimitiveForm when the caller has it.

    The direct route runs only when an operand is imprimitive. It runs
    whatever V is, so against an imprimitive U it is tried first and V is
    classified only when it misses; classification stays outside the
    CaseFailure wrapper, so its errors keep their types. Between
    primitive operands the one-query overlap of a product input factorises,
    so the closed forms of i-a, i-b and i-c find a one-query scheme
    whenever one exists.

    Only case iii dispatches again, and always on a pair with a primitive
    operand: the identity (iii-a, iii-b-x1), a product at RANK_TOL (see
    config.py), or the primitive image f(V) (the mixed descent).
    Such a pair goes to case i or ii, which do not dispatch, so a call nests
    at most once.
    """
    cls_u = classify_primitive(U)
    if cls_u.kind != "Imprimitive":
        if cls_v is None:
            cls_v = classify_primitive(V)
        # orthogonality is symmetric, so the operands may trade roles
        if cls_v.kind == "Imprimitive" or (cls_u.kind, cls_v.kind) == ("SwapProduct", "Product"):
            U, V, cls_u, cls_v = V, U, cls_v, cls_u
            build.note("operand roles swapped for dispatch (orthogonality is symmetric)")
    if cls_u.kind == "Imprimitive":
        with _case_failure(build):
            scheme = _direct(build, U, V)
        if scheme is not None:
            return scheme
        if cls_v is None:
            cls_v = classify_primitive(V)

    kinds = (cls_u.kind, cls_v.kind)
    factors = (cls_u.factor_a, cls_u.factor_b, cls_v.factor_a, cls_v.factor_b)
    with _case_failure(build):
        if kinds[0] != "Imprimitive":
            # both primitive: i-a, i-b and i-c build on the extracted factors,
            # so each use of an operand costs its distance from its form
            deltas = (cls_u.deviation, cls_v.deviation)
            if kinds == ("Product", "Product"):
                return _case_product_product(build, *factors, deltas)
            if kinds == ("Product", "SwapProduct"):
                return _case_product_swap(build, *factors, deltas)
            return _case_swap_swap(build, *factors, deltas)
        if kinds[1] != "Imprimitive":
            return _case_imprimitive_vs_primitive(build, U, V, cls_v)
        return _case_both_imprimitive(build, U, V)


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
    if phase_distance(U.matrix, V.matrix) <= DISTINCT_TOL:
        raise Indistinguishable("operations agree up to a global phase")
    build = _Build(cfg)
    scheme = _dispatch_pair(U, V, build)
    report = verify_scheme(scheme, U, V, cfg)
    scheme.achieved_overlap = report.overlap
    report.theta_trace = list(build.theta_trace)
    report.per_branch_error = list(build.per_branch_error)
    report.wall_notes = "; ".join(build.notes)
    return scheme, report


def validate_scheme(scheme: LoccSequentialScheme, tol: float = RunConfig.unitarity_tol) -> None:
    """Raise unless the scheme is well formed: NotUnitary for a local factor
    off unitarity by more than tol, MalformedScheme for an input that is not
    a unit vector (to tol) of length d_a or d_b, or for a budget that is
    negative or not finite."""
    t = scheme.template
    check_local_unitarity(t, tol)
    if not 0 <= scheme.budget < np.inf:
        raise MalformedScheme(f"budget {scheme.budget!r} is not a finite non-negative number")
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
    return _overlap_report(scheme, U, V)


def _overlap_report(scheme: LoccSequentialScheme, U, V) -> DiscriminationReport:
    """verify_scheme on a scheme that validate_scheme has already passed:
    both outputs in one pass of the product input through the template."""
    t = scheme.template
    for X in (U, V):
        if isinstance(X, BipartiteUnitary) and (X.d_a, X.d_b) != (t.d_a, t.d_b):
            raise DimensionMismatch(f"operand is ({X.d_a}, {X.d_b}), scheme ({t.d_a}, {t.d_b})")
    u, v = mat(U), mat(V)
    if u.shape != v.shape:
        raise DimensionMismatch(f"operands differ in shape: {u.shape} vs {v.shape}")
    phi_u, phi_v = template_outputs(t, np.stack([u, v]),
                                    scheme.input_a, scheme.input_b)
    ov = float(abs(np.vdot(phi_u, phi_v)))
    return DiscriminationReport(
        overlap=ov,
        query_count=t.query_count,
        passed=ov <= scheme.budget + _VERIFY_SLACK,
        case_trace=list(scheme.case_trace),
    )
