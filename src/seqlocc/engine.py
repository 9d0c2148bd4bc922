"""Case engine assembling flat LOCC sequential discrimination schemes.

Given two distinct bipartite unitaries, classifies the operands and
routes through the matching construction: product pairs reduce to a
one-sided sequential scheme; a swapped product against a product needs one
query; two swapped products need one query, or blocks of two around a
middle layer built from their two factor arcs. When an operand is
imprimitive, a single query with a product input is tried first (the
direct route, _direct, on the operand pair and on the one inner pair of
case iii); against an imprimitive U it runs before V's kind is sought, and
V's kind is sought only when it misses. Otherwise the imprimitive operand
is compiled into a controlled unitary (or the canonical interaction
exponential) by an inverse-free template, after which the problem reduces
to a simpler pair. An operand that entangles |0...0> is known imprimitive
from four entries of its first column (structure._certified_imprimitive);
only the others are classified, so an operand is decomposed only when its
factors or its form may be read.
The emitted scheme is always a flat template of product-form local layers
and forward queries plus a product input state, with a budget dominating
the residual overlap.

Every case is one reduction step: a block template f turns the pair into a
simpler pair (f(U), f(V)), solved on one side by the sequential engine
(_one_side) or dispatched again, and composed over f (_over_block); a step
returns a plan (template, input_a, input_b), from which discriminate builds
the scheme. One rule picks the side of i-a and i-c, the control branch of
ii and, among the symmetry probes that separate, the probe of iii-a: the
fewest predicted queries, ceil(pi / Theta(X_u^dag X_v)) (_cheapest). A step
raises a plain SeqloccError; discriminate alone wraps it in a CaseFailure
carrying the case trace.

The budget is the math.fsum of one ledger, _Build.per_branch_error, to which
each step charges, from the actual matrices, its residual overlap and, for
each block or operand standing in for its ideal, uses times its per-use
operator-norm deviation (modulo a global phase).

verify_scheme is the one check of a scheme, for discriminate and for
seqlocc verify alike: validate_scheme stacks the local factors once, and
the outputs under both operands are propagated through those stacks.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .arcs import _single_query, numerical_range_zero, queries_for_arc
from .config import CLOSED_FORM_TOL, DISTINCT_TOL, MATCH_TOL, RunConfig
from .errors import (
    CaseFailure,
    DimensionMismatch,
    Indistinguishable,
    MalformedScheme,
    NotUnitary,
    SeqloccError,
)
from .linalg import (
    BipartiteUnitary,
    _phase_gap,
    _unitarity_defect,
    basis_state,
    dagger,
    kron,
    mat,
    norm,
    normalize,
    op_distance_mod_phase,
    phase_distance,
    singular_values,
    swap_operator,
    validate_unitary,
)
from .sequential import _circular_sorted_eig, _stage_rotation, build_sequential_scheme
from .structure import (
    _certified_imprimitive,
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
    _factor_stacks,
    _propagate,
    compose_templates,
    evaluate_template,
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

    discriminate builds it once; its budget is the math.fsum of its ledger,
    DiscriminationReport.per_branch_error.
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
    """What verify_scheme measured, and from discriminate how it was built.

    per_branch_error is the ledger of the scheme's budget, its terms in the
    order they were charged: each residual overlap (a sequential scheme's or
    the direct route's) and each uses * delta of a block or operand that
    stands in for its ideal. The budget is its math.fsum, exactly.
    """

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


def _one_side(build: _Build, side: str, X_u, X_v, idle_input, relative=None) -> tuple:
    """Plan (template, input_a, input_b) of the sequential scheme, one query
    per block, for X_u (x) . against X_v (x) . on `side` ("A" or "B"), the
    other side idling in idle_input; charges only its residual overlap.
    relative is the decomposition of X_u^dag X_v, when already made."""
    seq = build_sequential_scheme(X_u, X_v, build.cfg, _relative=relative)
    build.theta_trace.extend(seq.theta_trace)
    build.note(f"side {side}: {seq.query_count} block queries")
    build.per_branch_error.append(seq.achieved_overlap)
    inputs = (seq.input_state, idle_input) if side == "A" else (idle_input, seq.input_state)
    # built in normal form, every layer sharing the one idle identity (no
    # code edits a factor in place), so normalization has nothing to insert
    idle = np.eye(len(idle_input), dtype=complex)
    own = np.eye(len(seq.input_state), dtype=complex)

    def local(w):
        return LocalLayer(w, idle) if side == "A" else LocalLayer(idle, w)

    layers = [local(own), QUERY]
    for w in seq.interleavers:
        layers += [local(w), QUERY]
    layers.append(local(own))
    template = CircuitTemplate(len(inputs[0]), len(inputs[1]), layers)
    return template, *(normalize(v) for v in inputs)


def _over_block(build: _Build, block: CircuitTemplate | None, plan: tuple, deltas) -> tuple:
    """Compose `plan`, a plan for a block pair, over `block` (None: the
    query itself). deltas are the per-use deviations of the real blocks from
    the pair; each is charged uses * delta, uses being the plan's queries."""
    template, input_a, input_b = plan
    build.per_branch_error.extend(template.query_count * delta for delta in deltas)
    if block is not None:
        template = compose_templates(template, block)
    return template, input_a, input_b


def _image_factors(template: CircuitTemplate, fa: np.ndarray, fb: np.ndarray,
                   swaps: bool):
    """Exact local factors of evaluate(template, (fa (x) fb) P^swaps).

    Walks the layers, tracking the accumulated product (MA (x) MB) P^s; a
    swapped query flips which side each factor multiplies. Returns
    (MA, MB, parity).
    """
    MA = np.eye(template.d_a, dtype=complex)
    MB = np.eye(template.d_b, dtype=complex)
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
                off = max(off, norm(M4[a, :, ap, :]))
    if off > MATCH_TOL:
        return None
    diag = [M4[a, :, a, :] for a in range(d_a)]
    groups: list[list[int]] = []
    blocks: list[np.ndarray] = []
    for a, W in enumerate(diag):
        for g, ref in enumerate(blocks):
            if singular_values(W - ref)[0] <= MATCH_TOL:
                groups[g].append(a)
                break
        else:
            groups.append([a])
            blocks.append(W)
    if len(blocks) != 2:
        return None
    return groups, blocks


def _compile(build: _Build, U: BipartiteUnitary, target: BipartiteUnitary, label: str):
    """The inverse-free compile step: a template f over forward uses of U
    with f(U) close to target up to a phase, the bare query when U already
    is, to MATCH_TOL, and otherwise synthesized. Returns (f, the real f(U),
    its operator-norm deviation from target modulo a global phase). A
    synthesized template with no query (k = 0, possible at a loose epsilon)
    raises SeqloccError: the plan built on it would never query U."""
    delta = op_distance_mod_phase(U.matrix, target.matrix)
    if delta <= MATCH_TOL:
        build.note(f"{label} fast path: operand already the target up to a phase")
        template = CircuitTemplate(U.d_a, U.d_b, [QUERY])
        return template, evaluate_template(template, U.matrix), delta
    res = synthesize(target, U, build.cfg)
    if res.layer_count == 0:
        raise SeqloccError(f"{label} synthesized with no query: delta {res.delta:.2e} "
                           f"within epsilon {build.cfg.epsilon:g}")
    fU = evaluate_template(res.template, U.matrix)
    delta = op_distance_mod_phase(fU, target.matrix)
    build.note(f"{label} synthesized with k={res.layer_count}, delta={delta:.2e}")
    return res.template, fU, delta


def _controlled_template(U: BipartiteUnitary, build: _Build):
    """Template f with f(U) a two-block controlled unitary.

    Uses U itself when it is already controlled in the computational basis
    (one query, identity locals); otherwise compiles the fixed controlled
    target. Returns (template, groups, blocks, delta_use) where delta_use
    bounds the per-use operator-norm deviation of the real f(U) from the
    ideal block structure.
    """
    d_a, d_b = U.d_a, U.d_b
    ctrl = _controlled_form(U.matrix, d_a, d_b)
    if ctrl is not None:
        build.note("controlled fast path: operand already has two-block form")
        groups, blocks = ctrl
        # the form is accepted at a tolerance, so U may sit off its blocks
        ideal = sum(kron(np.diag(np.isin(np.arange(d_a), g).astype(complex)), W)
                    for g, W in zip(groups, blocks))
        return (CircuitTemplate(d_a, d_b, [QUERY]), groups, blocks,
                op_distance_mod_phase(U.matrix, ideal))
    # target |0><0| (x) I + P' (x) G with G = diag(1, exp(2 pi i / 3), 1, ...):
    # G is not scalar, so no operand is phase-equivalent to both blocks and
    # branch selection always succeeds
    G = np.eye(d_b, dtype=complex)
    G[1, 1] = np.exp(2j * np.pi / 3)
    P0 = np.diag(basis_state(d_a, 0))
    C = kron(P0, np.eye(d_b)) + kron(np.eye(d_a) - P0, G)
    template, _, delta_use = _compile(
        build, U, validate_unitary(C, d_a, d_b, tol=CLOSED_FORM_TOL), "controlled target")
    return template, [[0], list(range(1, d_a))], [np.eye(d_b, dtype=complex), G], delta_use


# --- case (i): both primitive ----------------------------------------------

def _cheapest(sides: dict):
    """The key of the (X_u, X_v) pair in `sides` with the fewest predicted
    queries, queries_for_arc of X_u^dag X_v; that count; and the
    _circular_sorted_eig decompositions made, by key.

    Ties go to the wider phase distance: factor extraction carries a little
    noise, so a barely-nonzero pair must not shadow a cleanly distinct one.
    Above a distance of 1e-2 phase_distance reads the float64 trace, so of
    two gaps of one cost within its rounding (about 1e-12 relative) either
    may win. A pair within DISTINCT_TOL costs inf and is not decomposed; the
    taken decomposition spares the sequential engine both the eig and that
    check. An idle pair, one the float64 trace alone puts within
    DISTINCT_TOL (linalg._phase_gap), skips the extended trace; its gap then
    orders only pairs that cost inf, and every one of those ends in the same
    Indistinguishable.
    """
    gaps = {key: _phase_gap(X_u, X_v, DISTINCT_TOL) for key, (X_u, X_v) in sides.items()}
    spectra = {key: _circular_sorted_eig(dagger(X_u) @ mat(X_v))
               for key, (X_u, X_v) in sides.items() if gaps[key] > DISTINCT_TOL}

    def cost(key):
        return (queries_for_arc(spectra[key][1].theta) if key in spectra else math.inf,
                -gaps[key])

    key = min(sides, key=cost)
    return key, cost(key)[0], spectra


def _case_product_product(build: _Build, U_A, U_B, V_A, V_B, deltas=()) -> tuple:
    """Both operands are products: run the sequential engine on the side
    with the fewest predicted queries (_cheapest) and idle the other side.
    deltas are the per-use deviations of U and V from those products."""
    build.trace.append("i-a")
    sides = {"A": (U_A, V_A), "B": (U_B, V_B)}
    side, _, spectra = _cheapest(sides)
    idle = basis_state(mat(U_B if side == "A" else U_A).shape[0], 0)
    return _over_block(build, None, _one_side(build, side, *sides[side], idle,
                                              spectra.get(side)), deltas)


def _swap_single_query(build: _Build, template: CircuitTemplate, U_A, V_A, deltas) -> tuple:
    """One application of `template`, whose images of U and V act on the
    inputs taken here as U_A (x) U_B and (V_A (x) V_B) P.

    With inputs |0>_A and |psi>_B = V_A^dag U_A |1>, the overlap
    <0| U_A^dag V_A |psi> <psi| U_B^dag V_B |0> vanishes through its first
    factor. deltas are the deviations of the real images, each charged once.
    """
    d = mat(U_A).shape[0]
    build.per_branch_error.extend(deltas)
    return template, basis_state(d, 0), normalize(dagger(V_A) @ (mat(U_A) @ basis_state(d, 1)))


def _case_product_swap(build: _Build, U_A, U_B, V_A, V_B, deltas) -> tuple:
    """U = U_A (x) U_B against V = (V_A (x) V_B) P: one query suffices."""
    build.trace.append("i-b")
    build.note("product vs swapped product: single query")
    d = mat(U_A).shape[0]
    return _swap_single_query(build, CircuitTemplate(d, d, [QUERY]), U_A, V_A, deltas)


def _case_swap_swap(build: _Build, U_A, U_B, V_A, V_B, deltas) -> tuple:
    """Both swapped products, U = (A (x) B) P and V = (C (x) D) P.

    One query on |a>|b> leaves <b|A^dag C|b> <a|B^dag D|a>: the product pair
    (A (x) B, C (x) D) with its inputs traded, which answers when its
    cheaper side takes one query. Otherwise f(X) = X (I (x) v) X turns both
    into plain products f(U) = A v B (x) B A, whose side-A relative operator
    is similar to v^dag (A^dag C) v B (B^dag D) B^dag. With
    v = E1 S (B E2)^dag, E1 and E2 the arc-sorted eigenbases of A^dag C and
    B^dag D and S the stage rotation, the two arcs add (and close to
    antipodal endpoints past pi), so the product case needs
    2 ceil(pi / (Theta1 + Theta2)) queries; f(U) and f(V) deviate by twice
    those of U and V.
    """
    build.trace.append("i-c")
    A, B, C, D = (mat(X) for X in (U_A, U_B, V_A, V_B))
    d = A.shape[0]
    sides = {"B": (A, C), "A": (B, D)}
    side, count, spectra = _cheapest(sides)
    if count == 1:
        return _over_block(build, None, _one_side(build, side, *sides[side], basis_state(d, 0),
                                                  spectra[side]), deltas)
    # the middle layer needs both arcs, so a side _cheapest skipped is decomposed here
    (_, arc1, E1), (_, arc2, E2) = (
        spectra[key] if key in spectra else _circular_sorted_eig(dagger(X_u) @ X_v)
        for key, (X_u, X_v) in sides.items())
    v = E1 @ _stage_rotation(arc1.theta, arc2.theta, d) @ dagger(B @ E2)
    build.note("swapped pair: middle layer from the two arcs, reducing to the product case")
    f_template = CircuitTemplate(d, d, [QUERY, LocalLayer(np.eye(d, dtype=complex), v), QUERY])
    inner = _case_product_product(build, A @ v @ B, B @ A, C @ v @ D, D @ C)
    return _over_block(build, f_template, inner, tuple(2.0 * delta for delta in deltas))


# --- case (ii): exactly one imprimitive -------------------------------------

def _case_imprimitive_vs_primitive(build: _Build, U: BipartiteUnitary, V: BipartiteUnitary,
                                   cls_v) -> tuple:
    """U imprimitive against V = (V_A (x) V_B) P^s, s = 0 (ii-a) or 1 (ii-b).

    A template f makes f(U) a two-block controlled unitary while f(V) stays
    primitive. When the swaps cancel (s = 0, or an even query count) the
    control branch whose block against the B factor of f(V) takes the
    fewest predicted queries (_cheapest) anchors the A input and the
    sequential engine runs on the B side. Otherwise f(V) = (fV_a (x) fV_b) P,
    and on |0>_A the controlled f(U) acts as I (x) W_g: the image pair is
    i-b's, so one application of f on i-b's inputs (_swap_single_query)
    finishes the job.
    """
    swapped = cls_v.kind == "SwapProduct"
    build.trace.append("ii-b" if swapped else "ii-a")
    f_template, groups, blocks, delta_use = _controlled_template(U, build)
    fV_a, fV_b, parity = _image_factors(f_template, cls_v.factor_a, cls_v.factor_b,
                                        swaps=swapped)
    ideal_v = kron(fV_a, fV_b)
    d_a = U.d_a
    delta_v = op_distance_mod_phase(evaluate_template(f_template, V.matrix),
                                    ideal_v @ swap_operator(d_a) if parity else ideal_v)
    if parity:
        build.note("swapped image: single application of the controlled template")
        return _swap_single_query(build, f_template, np.eye(d_a, dtype=complex), fV_a,
                                  (delta_use, delta_v))
    if swapped:
        build.trace.append("ii-a")
        build.note("swap parity cancelled; delegating to the product tail")
    # when both blocks are phase-equivalent to fV_b, the sequential engine
    # raises Indistinguishable
    branches = {1: (blocks[1], fV_b), 0: (blocks[0], fV_b)}
    branch, _, spectra = _cheapest(branches)
    build.note(f"controlled branch {branch}")
    plan = _one_side(build, "B", *branches[branch], basis_state(d_a, min(groups[branch])),
                     spectra.get(branch))
    return _over_block(build, f_template, plan, (delta_use, delta_v))


# --- case (iii): both imprimitive -------------------------------------------

def _validated_product(M: np.ndarray, d_a: int, d_b: int, uses: int,
                       cfg: RunConfig) -> BipartiteUnitary:
    """Wrap M, a product of exact unitaries and `uses` factors of operands
    accepted at cfg.unitarity_tol: defects add over a product, so M is
    validated at uses times that, plus rounding."""
    return validate_unitary(M, d_a, d_b, tol=uses * cfg.unitarity_tol + CLOSED_FORM_TOL)


def _case_both_imprimitive(build: _Build, U: BipartiteUnitary, V: BipartiteUnitary) -> tuple:
    """Both operands imprimitive: compile U toward exp(i u1 (x) u2) and
    dispatch on what the same template does to V."""
    cfg = build.cfg
    build.trace.append("iii")
    d_a, d_b = U.d_a, U.d_b
    target = exp_xx_form(1.0, d_a, d_b)
    f_template, fU_real, delta_u = _compile(build, U, target, "interaction target")
    fV = evaluate_template(f_template, V.matrix)
    fV_bip = _validated_product(fV, d_a, d_b, f_template.query_count, cfg)

    form_fv = _primitive_form(fV_bip)
    if form_fv is not None:
        build.note(f"image of V is {form_fv.kind}; descending to the mixed case")
        inner = _dispatch_pair(target, fV_bip, build, form_fv)
        return _over_block(build, f_template, inner, (delta_u,))

    # coinciding images (the "x = 1" situation) are detected against the real
    # image of U, so synthesis inexactness cannot misroute the pair
    same = phase_distance(fV, fU_real) <= _X_TOL
    m = None if same else match_exp_xx_mod_phase(fV_bip, tol=max(_ROUTING_FLOOR, 10.0 * delta_u))
    if same or (m is not None and abs(m[0] - 1.0) <= _X_TOL):
        return _case_iii_b_same(build, U, V, f_template, fU_real)
    if m is None:
        return _case_iii_a(build, U, f_template, fU_real, fV, delta_u)
    return _case_iii_b_scaled(build, U, f_template, delta_u, fV, *m)


def _case_iii_a(build, U, f_template, fU_real, fV, delta_u):
    """Image of V is imprimitive but not an interaction exponential: probe
    with a symmetry element W so that F(X) = W f(X) W^dag f(X) maps U near
    the identity but V away from it, then recurse on (I, F(V))."""
    cfg = build.cfg
    build.trace.append("iii-a")
    d_a, d_b = U.d_a, U.d_b
    sym = build_symmetry_set(d_a, d_b)
    identity = np.eye(d_a * d_b, dtype=complex)
    # the recursion needs (I, F(V)) clearly distinct: of the probes that
    # separate, _cheapest takes the fewest predicted queries
    probes = {}
    for W, label in zip(sym.elements, sym.labels):
        FV = W @ fV @ W.conj().T @ fV
        if (singular_values(FV - identity)[0] > _IDENTITY_TOL
                and phase_distance(FV, identity) > max(DISTINCT_TOL, 2.0 * delta_u)):
            probes[label] = (identity, FV)
    if not probes:
        raise SeqloccError("no symmetry element separated the image of V from the identity")
    label, _, _ = _cheapest(probes)
    i = sym.labels.index(label)
    (wa, wb), W, FV = sym.factor_pairs[i], sym.elements[i], probes[label][1]
    build.note(f"symmetry probe {label} selected")
    F_over_blocks = CircuitTemplate(d_a, d_b, [
        QUERY, LocalLayer(wa.conj().T, wb.conj().T), QUERY, LocalLayer(wa, wb)])
    FU_real = W @ fU_real @ W.conj().T @ fU_real
    delta_u_block = op_distance_mod_phase(FU_real, identity)
    # the probe inverts the ideal image, so the real composite sits within
    # twice the synthesis deviation of the identity
    if not delta_u_block <= 2.0 * delta_u + 4.0 * delta_u ** 2 + MATCH_TOL:
        raise SeqloccError(f"probe composite deviates {delta_u_block:.3e} from the identity, "
                           f"beyond twice the synthesis deviation {delta_u:.3e}")
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
    h, _, _ = _compile(build, _validated_product(fU_real, d_a, d_b, f_template.query_count, cfg),
                       _validated_product(U.matrix.conj().T, d_a, d_b, 1, cfg), "inverse")
    block_template = CircuitTemplate(d_a, d_b, [*compose_templates(h, f_template).layers, QUERY])
    VUd = V.matrix @ U.matrix.conj().T
    identity = np.eye(d_a * d_b, dtype=complex)
    delta_bu = op_distance_mod_phase(evaluate_template(block_template, U.matrix), identity)
    delta_bv = op_distance_mod_phase(evaluate_template(block_template, V.matrix), VUd)
    build.note(f"inverse block: delta_bu={delta_bu:.2e}, delta_bv={delta_bv:.2e}")
    inner = _dispatch_pair(validate_unitary(identity, d_a, d_b, tol=CLOSED_FORM_TOL),
                           _validated_product(VUd, d_a, d_b, 2, cfg), build)
    return _over_block(build, block_template, inner, (delta_bu, delta_bv))


def _case_iii_b_scaled(build, U, f_template, delta_u, fV, x, phase):
    """Images are interaction exponentials with different angles: feed the
    B side the +1 eigenvector of the interaction so the pair reduces to
    exp(i u1) against e^{i phase} exp(i x u1) on the A side alone. delta_u
    is f(U)'s deviation from exp(i u1), as _compile measured it."""
    build.trace.append("iii-b-xne1")
    d_a, d_b = U.d_a, U.d_b
    build.note(f"A-side reduction with x={x:.6f}")
    ideal_v = np.exp(1j * phase) * exp_xx_form(x, d_a, d_b).matrix
    delta_bv = op_distance_mod_phase(fV, ideal_v)
    plan = _one_side(build, "A", block_exponential(1.0, d_a),
                     np.exp(1j * phase) * block_exponential(x, d_a),
                     normalize(basis_state(d_b, 0) + basis_state(d_b, 1)))
    return _over_block(build, f_template, plan, (delta_u, delta_bv))


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
    """Plan of one query on a product input |phi>|psi>, its residual charged, or None.

    For fixed psi the overlap is <phi| W_psi |phi> with W = U^dag V and
    W_psi = (I (x) <psi|) W (I (x) |psi>), so phi exists exactly when 0 lies
    in the numerical range of W_psi (the union over psi is the product
    numerical range of W). W is normal, so F(W) is the hull of its spectrum
    and contains that union: unless queries_for_arc(Theta(W)) is 1, no psi
    works. psi runs over _direct_candidates, first on the larger subsystem
    (B when d_a <= d_b), so the first compressions are on the smaller one:
    2x2, solved in closed form, whenever either subsystem is a qubit.

    The screen, the single-query test on W (arcs._single_query, the test
    behind single_query_distinguishable), decomposes W; most pairs pass it.
    It runs once, after the first side's probes that need no generator (the
    basis, then the uniform superposition) all miss and before its first
    seeded draw. A hit puts a point of F(W_psi), inside F(W), within
    arcs._ZERO_TOL of 0, and the hull of a W the screen refuses keeps at
    least TOL_ANGLE / 2 from 0, so a probe answers only what the screen lets
    through (up to rounding of Theta = pi). Each side is a view Ws of W4 with
    psi's index second: the compression of basis probe k is the view
    Ws[:, k, :, k], and only the other probes are contracted.
    """
    cfg = build.cfg
    d_a, d_b = U.d_a, U.d_b
    W = dagger(U) @ V.matrix
    W4 = W.reshape(d_a, d_b, d_a, d_b)
    for n, side in enumerate(("B", "A") if d_a <= d_b else ("A", "B")):
        Ws = W4 if side == "B" else W4.transpose(1, 0, 3, 2)
        d = Ws.shape[1]
        for k, psi in enumerate(_direct_candidates(d, cfg)):
            W_psi = Ws[:, k, :, k] if k < d else np.einsum("ibjc,b,c->ij", Ws, psi.conj(), psi)
            phi = numerical_range_zero(W_psi)
            if phi is not None:
                inputs = (phi, psi) if side == "B" else (psi, phi)
                inp = np.outer(*inputs).ravel()  # the bits of np.kron, without its overhead
                residual = float(abs(np.vdot(U.matrix @ inp, V.matrix @ inp)))
                if residual <= cfg.overlap_tol:
                    build.trace.append("direct")
                    build.note(f"direct: one query, probe {k} on {side}, residual {residual:.1e}")
                    build.per_branch_error.append(residual)
                    return CircuitTemplate(d_a, d_b, [QUERY]), *inputs
            # the first side's last probe before its seeded draws
            if n == 0 and k == d and not _single_query(W):
                return None
    return None


# --- dispatch ---------------------------------------------------------------

def _primitive_form(X: BipartiteUnitary):
    """classify_primitive(X) when X is primitive, None when it is not. An X
    that entangles |0...0> (structure._certified_imprimitive, four entries)
    is imprimitive without a decomposition; only the others are classified."""
    if _certified_imprimitive(X):
        return None
    form = classify_primitive(X)
    return None if form.kind == "Imprimitive" else form


def _dispatch_pair(U: BipartiteUnitary, V: BipartiteUnitary, build: _Build,
                   form_v=None) -> tuple:
    """Plan (template, input_a, input_b) for (U, V), its budget charged to
    build.per_branch_error; form_v is V's PrimitiveForm when the caller has
    found V primitive.

    Each operand's kind comes from _primitive_form, so an operand whose
    image of |0...0> is entangled is never decomposed: only the factors of
    a primitive operand are read. The direct route runs only when an
    operand is imprimitive. It runs whatever V is, so against an imprimitive
    U it is tried first and V's kind is sought only when it misses. Between
    primitive operands the one-query overlap of a product input factorises,
    so the closed forms of i-a, i-b and i-c find a one-query scheme whenever
    one exists.

    Only case iii dispatches again, and always on a pair with a primitive
    operand: the identity (iii-a, iii-b-x1), a product at RANK_TOL (see
    config.py), or the primitive image f(V) (the mixed descent).
    Such a pair goes to case i or ii, which do not dispatch, so a call nests
    at most once.
    """
    form_u = _primitive_form(U)
    if form_u is not None:
        if form_v is None:
            form_v = _primitive_form(V)
        # orthogonality is symmetric, so the operands may trade roles
        if form_v is None or (form_u.kind, form_v.kind) == ("SwapProduct", "Product"):
            U, V, form_u, form_v = V, U, form_v, form_u
            build.note("operand roles swapped for dispatch (orthogonality is symmetric)")
    if form_u is None:
        scheme = _direct(build, U, V)
        if scheme is not None:
            return scheme
        # a V known primitive came with U's roles traded or from the caller
        if form_v is None:
            form_v = _primitive_form(V)
        if form_v is None:
            return _case_both_imprimitive(build, U, V)
        return _case_imprimitive_vs_primitive(build, U, V, form_v)
    # both primitive: i-a, i-b and i-c build on the extracted factors,
    # so each use of an operand costs its distance from its form
    kinds = (form_u.kind, form_v.kind)
    factors = (form_u.factor_a, form_u.factor_b, form_v.factor_a, form_v.factor_b)
    deltas = (form_u.deviation, form_v.deviation)
    if kinds == ("Product", "Product"):
        return _case_product_product(build, *factors, deltas)
    if kinds == ("Product", "SwapProduct"):
        return _case_product_swap(build, *factors, deltas)
    return _case_swap_swap(build, *factors, deltas)


def discriminate(U: BipartiteUnitary, V: BipartiteUnitary,
                 cfg: RunConfig | None = None):
    """Flat LOCC sequential scheme with verified-orthogonal outputs.

    Returns (scheme, report). Raises Indistinguishable for phase-equivalent
    inputs and CaseFailure (wrapping the cause and the case trace) when a
    construction step fails or verify_scheme refuses the scheme it built.
    """
    cfg = cfg or RunConfig()
    if (U.d_a, U.d_b) != (V.d_a, V.d_b):
        raise DimensionMismatch(
            f"operands live on different systems: ({U.d_a}, {U.d_b}) vs ({V.d_a}, {V.d_b})")
    if phase_distance(U.matrix, V.matrix) <= DISTINCT_TOL:
        raise Indistinguishable("operations agree up to a global phase")
    build = _Build(cfg)
    # build.trace only grows, so the trace here is the trace at the raise
    try:
        scheme = LoccSequentialScheme(*_dispatch_pair(U, V, build), math.nan,
                                      math.fsum(build.per_branch_error), list(build.trace))
        report = verify_scheme(scheme, U, V, cfg)
    except SeqloccError as exc:
        raise CaseFailure(build.trace, exc) from exc
    scheme.achieved_overlap = report.overlap
    report.theta_trace = list(build.theta_trace)
    report.per_branch_error = list(build.per_branch_error)
    report.wall_notes = "; ".join(build.notes)
    return scheme, report


def validate_scheme(scheme: LoccSequentialScheme,
                    tol: float = RunConfig.unitarity_tol) -> tuple[np.ndarray, np.ndarray]:
    """Raise unless the scheme is well formed: NotUnitary for a local factor
    off unitarity by more than tol (linalg._unitarity_defect decides, for both
    stacks at once), MalformedScheme for a template whose layers are not
    local, query, local, ..., local (a layer of another type, two adjacent
    queries, no trailing local) or hold a local factor of the wrong shape, for
    a template without a query, an input that is not a unit vector (to tol)
    of length d_a or d_b, or a budget that is negative or not finite. Returns
    the template's factor stacks, which verify_scheme propagates."""
    t = scheme.template
    stacks = _factor_stacks(t)
    defect = _unitarity_defect(stacks, tol)
    if defect > tol:
        raise NotUnitary(defect, tol)
    if len(t.layers) == 1:  # normal form L Q L ... Q L: len(layers) // 2 queries
        raise MalformedScheme("the template never queries the operation")
    if not 0 <= scheme.budget < np.inf:
        raise MalformedScheme(f"budget {scheme.budget!r} is not a finite non-negative number")
    for name, v, d in (("input_a", scheme.input_a, t.d_a), ("input_b", scheme.input_b, t.d_b)):
        v = np.asarray(v)
        if v.shape != (d,):
            raise MalformedScheme(f"{name} has shape {v.shape}, expected ({d},)")
        length = norm(v)
        if not abs(length - 1.0) <= tol:
            raise MalformedScheme(f"{name} has norm {length:.12g}, expected 1")
    return stacks


def verify_scheme(scheme: LoccSequentialScheme, U, V,
                  cfg: RunConfig | None = None) -> DiscriminationReport:
    """The one verifier, behind discriminate and seqlocc verify. Validates
    the scheme (see validate_scheme, at cfg.unitarity_tol), then propagates
    the product input under both operands in one pass through the factor
    stacks validate_scheme formed, and compares the overlap to the budget."""
    stacks = validate_scheme(scheme, (cfg or RunConfig()).unitarity_tol)
    t = scheme.template
    for X in (U, V):
        if isinstance(X, BipartiteUnitary) and (X.d_a, X.d_b) != (t.d_a, t.d_b):
            raise DimensionMismatch(f"operand is ({X.d_a}, {X.d_b}), scheme ({t.d_a}, {t.d_b})")
    u, v = mat(U), mat(V)
    if u.shape != v.shape or u.shape != (t.dim, t.dim):
        raise DimensionMismatch(f"operands {u.shape} and {v.shape} do not fit dimension {t.dim}")
    a, b = np.asarray(scheme.input_a), np.asarray(scheme.input_b)
    phi_u, phi_v = _propagate(stacks, np.array((u, v)), (a[:, None] * b).reshape(-1, 1))
    ov = float(abs(np.vdot(phi_u, phi_v)))
    return DiscriminationReport(
        overlap=ov,
        query_count=len(t.layers) // 2,
        passed=ov <= scheme.budget + _VERIFY_SLACK,
        case_trace=list(scheme.case_trace),
    )
