"""The three single-query blackbox algorithms, run possibilistically.

Each runner pushes the prepared state through each stage of the relational
pipeline (oracle, reflection, post-selection) exactly, without building the
stage, evaluates every candidate measurement outcome, and returns a report.
Because the model is possibilistic, a run does not sample: the report
carries the complete set of possible outcomes.

The raw pipeline composites are always computed and reported.  For the
search and homomorphism-identification runners the *decision-level* outcome
set follows the single-query outcome laws (the zero-possibility condition,
and the witness-pair condition); the reports flag any candidate outcome
where the raw composite disagrees with the law, since for some blackboxes
the two differ (see the diagnostics fields and README notes).
"""

from __future__ import annotations

from typing import Callable, Optional

from .groupoids import ComplementaryPair, _ControlledBlocks, fourier_rel
from .hom_relations import StructuredRel, is_classical_relation
from .relations import (
    FinRel,
    Scalar,
    StateVec,
    _frozen,
    _then_tensor,
    born_scalar,
    converse,
    identity,
    tensor,
)

CONSTANT = "constant"
BALANCED = "balanced"
NEITHER = "neither"
UNDETERMINED = "undetermined"


@_frozen(factories={"composites": dict})
class RunReport:
    """Outcome of one algorithm run: decision, possible outcomes, diagnostics."""

    algorithm: str
    instance: dict
    decision: Optional[str]
    possible_outcomes: tuple[StateVec, ...]
    scalars: dict[str, bool]
    diagnostics: dict
    composites: dict[str, FinRel]  # a fresh dict by default
    queries: int = 1

    def to_json_dict(self) -> dict:
        diagnostics = {
            "diffusion_unitary": self.diagnostics.get("diffusion_unitary"),
            "oracle_unitary": self.diagnostics.get("oracle_unitary"),
            "queries": self.queries,
        }
        for key in sorted(self.diagnostics):
            if key not in diagnostics:
                diagnostics[key] = self.diagnostics[key]
        return {
            "algorithm": self.algorithm,
            "instance": self.instance,
            "decision": self.decision,
            "possible_outcomes": [s.sorted_members() for s in self.possible_outcomes],
            "scalars": dict(sorted(self.scalars.items())),
            "diagnostics": diagnostics,
        }


def _validate(pair_in: ComplementaryPair, pair_out: ComplementaryPair, f: StructuredRel,
              unchecked: bool, role: str, first: str, sigma: Optional[StateVec] = None) -> None:
    """The checks every instance runs, in this order: f's ends, the marker on
    the second system (``sigma``, or for DJ its second X-classical state),
    complementarity of both pairs, and f being classical unless ``unchecked``."""
    if f.source != pair_in.z:
        raise ValueError(f"{role} must start at the {first} Z-basis")
    if f.target != pair_out.z:
        raise ValueError(f"{role} must land in the second system's Z-basis")
    if sigma is None and pair_out.g.order < 2:
        raise ValueError("second system's X-basis needs at least two classical states")
    if sigma is not None and sigma not in pair_out.x_classical_states():
        raise ValueError("sigma must be a classical state of the second system's X-basis")
    for pair, name in ((pair_in, first), (pair_out, "second system's")):
        if not pair.is_complementary_pair():
            raise ValueError(f"{name} bases are not complementary under the supplied recoding")
    if not unchecked and not is_classical_relation(f):
        raise ValueError(f"{role} relation must be a classical relation")


def _single_query(pair_in: ComplementaryPair, pair_out: ComplementaryPair, f: StructuredRel,
                  marker: StateVec, candidates: list[StateVec],
                  diffusion: Optional[FinRel] = None
                  ) -> tuple[_ControlledBlocks, list[FinRel]]:
    """The pipeline all three runners share: prepare (first X-classical state
    of ``pair_in``) x ``marker``, query the oracle once, apply ``diffusion`` to
    the first system if given, and post-select the first system on each
    candidate's effect.

    ``candidates`` are X-classical states of ``pair_in``, starting with the
    first, which is also the prepared state.  Returns the oracle, as the
    block index of f that ``build_oracle`` would expand, and one composite per
    candidate.  No stage is built: the prepared state is pushed through each
    one, so the composites are those of the built pipeline.  f is used
    unchecked because the instance has already run the classical-relation
    check it asked for.
    """
    oracle = _ControlledBlocks(pair_in.z, f.rel, pair_out.x, pair_out.x_recode)
    evolved = oracle.push(tensor(candidates[0].as_ket(), marker.as_ket()),
                          pair_out.x_recode_inverse)
    if diffusion is not None:
        evolved = _then_tensor(evolved, diffusion, identity(pair_out.size))
    return oracle, _post_select(evolved, candidates, pair_out.size)


def _post_select(state: FinRel, effects: list[StateVec], m: int) -> list[FinRel]:
    """``_then_tensor(state, rho.as_bra(), identity(m))`` for every rho in
    ``effects``, in one pass over ``state``: its targets (x, v) are grouped by
    x once, and each effect's row is the union of the groups its members hold.
    """
    grouped = []
    for row in state.rows:
        by_x: dict[int, list[int]] = {}
        for a in row:
            x, v = divmod(a, m)
            by_x.setdefault(x, []).append(v)
        grouped.append(by_x)
    return [FinRel._trusted(state.dom_size, m, tuple(
        tuple(sorted({v for x in rho.members if x in by_x for v in by_x[x]}))
        for by_x in grouped)) for rho in effects]


@_frozen
class DJInstance:
    """A promise-problem instance: complementary pairs on both systems and a
    classical blackbox relation between their Z-bases."""

    pair_a: ComplementaryPair
    pair_b: ComplementaryPair
    f: StructuredRel
    unchecked: bool = False

    def __post_init__(self) -> None:
        _validate(self.pair_a, self.pair_b, self.f, self.unchecked, "blackbox", "first system's")


def dj_classify(inst: DJInstance) -> str:
    """Promise classification by the closed forms.

    Constant: f is exactly (first X_A-classical state) x (some Z_B-classical
    state).  Balanced: f relates nothing in the first X_A-classical state to
    the second X_B-classical state.  The two are mutually exclusive: a full
    Z_B-classical state meets every X_B-classical state.
    """
    h0a = inst.pair_a.x_classical_states()[0].members
    h1b = inst.pair_b.x_classical_states()[1].members
    rows = inst.f.rel.rows
    for gk in inst.pair_b.z.classical_states():
        block = tuple(gk.sorted_members())
        if all(row == (block if a in h0a else ()) for a, row in enumerate(rows)):
            return CONSTANT
    if not (inst.f.rel.image(h0a) & h1b):
        return BALANCED
    return NEITHER


def dj_run(inst: DJInstance) -> RunReport:
    """Run the distinguishing pipeline and decide constant vs balanced.

    The composite is (first X_A-classical effect x id) after the oracle after
    the (first X_A-classical x second X_B-classical) preparation; the decision
    scalar tests the second system's output against the second X_B-classical
    state.  When both pairs are square the pre-basis-change pipeline is also
    evaluated, measuring through the converse basis change, and must produce
    the identical relation.
    """
    pair_a, pair_b, f = inst.pair_a, inst.pair_b, inst.f
    nb = pair_b.size
    h0a = pair_a.x_classical_states()[0]
    h1b = pair_b.x_classical_states()[1]
    oracle, (composite,) = _single_query(pair_a, pair_b, f, h1b, [h0a])
    b_out = StateVec(nb, composite.image({0}))
    composite_scalar = born_scalar(h1b, b_out)

    formula_members = h1b.members & inst.f.rel.image(h0a.members)
    formula_scalar = Scalar(bool(formula_members))

    oracle_unitary = oracle.bijective()
    diagnostics = {
        "diffusion_unitary": None,
        "oracle_unitary": oracle_unitary,
        "formula_output": sorted(formula_members),
        "composite_output": b_out.sorted_members(),
        "formula_agrees_with_composite": bool(formula_scalar) == bool(composite_scalar),
        "physical_evolution": oracle_unitary,
    }
    composites = {"pipeline": composite}

    if all(p.g.order == p.h.order for p in (pair_a, pair_b)):
        ft_a, ft_b = fourier_rel(pair_a), fourier_rel(pair_b)
        g0a = pair_a.z.classical_states()[0]
        g1b = pair_b.z.classical_states()[1]
        idn = identity(nb)
        staged = _then_tensor(tensor(g0a.as_ket(), g1b.as_ket()), ft_a, ft_b)
        staged = oracle.push(staged, pair_b.x_recode_inverse)
        staged = _then_tensor(staged, converse(ft_a), idn)
        staged = _then_tensor(staged, g0a.as_bra(), idn)
        if staged != composite:
            raise AssertionError("basis-change pipeline disagrees with the absorbed composite")
        diagnostics["absorbed_equals_unabsorbed"] = True
        composites["unabsorbed"] = staged

    classification = dj_classify(inst)
    if classification == NEITHER:
        decision = UNDETERMINED
    else:
        decision = CONSTANT if composite_scalar else BALANCED

    return RunReport(
        algorithm="dj",
        instance={
            "pairA": pair_a.spec(),
            "pairB": pair_b.spec(),
            "f": f.rel.to_json_dict(),
        },
        decision=decision,
        possible_outcomes=(b_out,),
        scalars={"composite": bool(composite_scalar), "formula": bool(formula_scalar)},
        diagnostics=diagnostics,
        composites=composites,
    )


def _candidate_run(algorithm: str, inst: GroverInstance | HomIDInstance,
                   pair_s: ComplementaryPair, pair_b: ComplementaryPair,
                   law_key: str, law: Callable[..., bool], allowed: bool,
                   diffusion: Optional[tuple[FinRel, bool]] = None,
                   verification: Optional[StateVec] = None) -> RunReport:
    """The candidate loop of the search and identification runners.

    Every X-classical state rho of ``pair_s`` gets its raw pipeline composite
    and its outcome-law scalar ``law(inst, rho)``; rho is a decision-level
    outcome when that scalar equals ``allowed``.  ``diffusion`` is the
    reflection and its bijectivity flag; ``verification``, when given, is the
    state every rho is also tested against.
    """
    d, d_unitary = diffusion if diffusion is not None else (None, None)
    candidates = pair_s.x_classical_states()
    oracle, pipelines = _single_query(pair_s, pair_b, inst.f, inst.sigma, candidates, d)

    scalars: dict[str, bool] = {}
    composites: dict[str, FinRel] = {}
    outcomes = []
    composite_outcomes = []
    verification_outcomes = []
    agreement = []
    for i, (rho, pipeline) in enumerate(zip(candidates, pipelines)):
        composites[f"rho{i}"] = pipeline
        pipeline_possible = any(pipeline.rows)
        value = law(inst, rho)
        decided = value == allowed
        scalars[f"rho{i}_composite"] = pipeline_possible
        scalars[f"rho{i}_{law_key}"] = value
        if decided:
            outcomes.append(rho)
        if pipeline_possible:
            composite_outcomes.append(rho.sorted_members())
        if verification is not None:
            verified = bool(born_scalar(rho, verification))
            scalars[f"rho{i}_verification"] = verified
            if verified:
                verification_outcomes.append(rho.sorted_members())
        agreement.append(pipeline_possible == decided)

    oracle_unitary = oracle.bijective()
    diagnostics = {
        "diffusion_unitary": d_unitary,
        "oracle_unitary": oracle_unitary,
        "composite_possible_outcomes": composite_outcomes,
        "composite_agrees_with_decision": agreement,
        "physical_evolution": oracle_unitary and (diffusion is None or d_unitary),
    }
    if verification is not None:
        diagnostics["verification_possible_outcomes"] = verification_outcomes
    return RunReport(
        algorithm=algorithm,
        instance={
            "pairS": pair_s.spec(),
            "pairB": pair_b.spec(),
            "f": inst.f.rel.to_json_dict(),
            "sigma": inst.sigma.sorted_members(),
        },
        decision=None,
        possible_outcomes=tuple(outcomes),
        scalars=scalars,
        diagnostics=diagnostics,
        composites=composites,
    )


@_frozen
class GroverInstance:
    """Single-step search instance: the indicator relation marks elements of
    the search system by where they land in the second system's Z-basis."""

    pair_s: ComplementaryPair
    pair_b: ComplementaryPair
    f: StructuredRel
    sigma: StateVec
    unchecked: bool = False

    def __post_init__(self) -> None:
        _validate(self.pair_s, self.pair_b, self.f, self.unchecked, "indicator",
                  "search system's", self.sigma)


def grover_diffusion(pair_s: ComplementaryPair) -> tuple[FinRel, bool]:
    """The reflection: identity minus (H0 x H0), as a symmetric difference.

    Returns the relation and its bijectivity flag.  The flag is genuinely
    informative: with more than two copies in the X-basis the reflection
    stops being a bijection, and a run using it is then not a physical
    evolution in the model.  Each pair builds its reflection once and keeps it.
    """
    return pair_s._h0_reflection


def grover_zero_condition(inst: GroverInstance, rho: StateVec) -> bool:
    """Whether the output at ``rho`` must vanish: the sigma-overlap scalar of
    f applied to rho equals the one for the prepared state (the first
    X_S-classical state)."""
    if rho not in inst.pair_s.x_classical_states():
        raise ValueError("rho must be a classical state of the search system's X-basis")
    f, sigma = inst.f.rel, inst.sigma.members
    h0 = inst.pair_s.x_classical_states()[0]
    return bool(f.image(rho.members) & sigma) == bool(f.image(h0.members) & sigma)


def grover_run(inst: GroverInstance) -> RunReport:
    """Evaluate every candidate outcome of the single search step.

    Decision-level outcomes are the classical states whose zero-possibility
    condition fails (they are exactly the states the single-query law allows).
    The raw pipeline composite for each candidate is reported alongside, with
    a per-candidate agreement flag: for some indicators the raw composite
    keeps an outcome possible that the law rules out.
    """
    return _candidate_run("grover", inst, inst.pair_s, inst.pair_b,
                          "zero_condition", grover_zero_condition, False,
                          diffusion=grover_diffusion(inst.pair_s))


@_frozen
class HomIDInstance:
    """Homomorphism-identification instance: a classical relation between the
    Z-bases of the two systems (an isomorphism in the headline case, but any
    classical relation is allowed)."""

    pair_g: ComplementaryPair
    pair_a: ComplementaryPair
    f: StructuredRel
    sigma: StateVec
    unchecked: bool = False

    def __post_init__(self) -> None:
        _validate(self.pair_g, self.pair_a, self.f, self.unchecked, "blackbox",
                  "first system's", self.sigma)


def grouphomid_necessary(inst: HomIDInstance, rho: StateVec) -> bool:
    """Witness-pair condition for ``rho`` to be a reportable outcome: the
    blackbox must relate something in rho, and must relate something into
    sigma.  Runs report an outcome only when this holds."""
    if rho not in inst.pair_g.x_classical_states():
        raise ValueError("rho must be a classical state of the first system's X-basis")
    rows, sigma = inst.f.rel.rows, inst.sigma.members
    return any(rows[a] for a in rho.members) and any(not sigma.isdisjoint(row) for row in rows)


def grouphomid_run(inst: HomIDInstance) -> RunReport:
    """Evaluate every candidate outcome of the identification step.

    Decision-level outcomes are the candidates passing the witness-pair
    condition (for a groupoid isomorphism that is every classical state).
    Two element-level composites are reported per candidate: the raw
    pipeline, and the converse-based verification scalar (sigma pushed
    through the blackbox converse against rho); both can be strictly finer
    than the decision rule.
    """
    pulled_back = StateVec(inst.f.rel.dom_size, inst.f.rel.preimage(inst.sigma.members))
    return _candidate_run("homid", inst, inst.pair_g, inst.pair_a,
                          "witness", grouphomid_necessary, True, verification=pulled_back)
