"""The three single-query blackbox algorithms, run possibilistically.

Each runner evaluates the relational pipeline (oracle, reflection,
post-selection) exactly, without building a stage: the second system's
marker is X-classical, so the query kicks back onto the first system, and
the search's reflection is folded into its effects in closed form.  That
kickback is the only engine a run has; the staged pipelines it replaced
are proved equal to it (in the docstrings of ``dj_run`` and
``ComplementaryPair._reflected_effects``) and compared with it in the
tests.  A runner evaluates every candidate measurement outcome and returns
a report.  Because the model is possibilistic, a run does not sample: the
report carries the complete set of possible outcomes.

The raw pipeline composites are always computed and reported.  For the
search and homomorphism-identification runners the *decision-level* outcome
set follows the single-query outcome laws (the zero-possibility condition,
and the witness-pair condition); the reports flag any candidate outcome
where the raw composite disagrees with the law, since for some blackboxes
the two differ (see the diagnostics fields and README notes).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .groupoids import ComplementaryPair, _ControlledBlocks
from .hom_relations import StructuredRel, is_classical_relation
from .relations import (
    FinRel,
    Scalar,
    StateVec,
    _frozen,
    born_scalar,
    identity,
    is_unitary,
    symmetric_difference,
)

CONSTANT = "constant"
BALANCED = "balanced"
NEITHER = "neither"
UNDETERMINED = "undetermined"


@_frozen
class RunReport:
    """Outcome of one algorithm run: decision, possible outcomes, diagnostics."""

    algorithm: str
    instance: dict
    decision: Optional[str]
    possible_outcomes: tuple[StateVec, ...]
    scalars: dict[str, bool]
    diagnostics: dict
    composites: dict[str, FinRel]
    queries: int

    def __init__(self, algorithm: str, instance: dict, decision: Optional[str],
                 possible_outcomes: tuple[StateVec, ...], scalars: dict[str, bool],
                 diagnostics: dict, composites: Optional[dict[str, FinRel]] = None,
                 queries: int = 1) -> None:
        vars(self).update(algorithm=algorithm, instance=instance, decision=decision,
                          possible_outcomes=possible_outcomes, scalars=scalars,
                          diagnostics=diagnostics,
                          composites={} if composites is None else composites, queries=queries)

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
    if sigma is not None and sigma not in pair_out._x_classical_set:
        raise ValueError("sigma must be a classical state of the second system's X-basis")
    for pair, name in ((pair_in, first), (pair_out, "second system's")):
        if not pair.is_complementary_pair():
            raise ValueError(f"{name} bases are not complementary under the supplied recoding")
    if not unchecked and not is_classical_relation(f):
        raise ValueError(f"{role} relation must be a classical relation")


def _single_query(pair_in: ComplementaryPair, pair_out: ComplementaryPair, f: StructuredRel,
                  marker: StateVec, effects: Sequence[StateVec]
                  ) -> tuple[_ControlledBlocks, list[FinRel]]:
    """The pipeline all three runners share: prepare (first X-classical state
    of ``pair_in``) x ``marker``, query the oracle once, and post-select the
    first system on each effect.

    ``effects`` are X-classical states of ``pair_in``, or for the search the
    pair's ``_reflected_effects``: the reflection folded into each candidate's
    effect, in closed form.  Returns the oracle, as the block index of f that
    ``build_oracle`` would expand, and one composite per effect.  No stage is built and no
    state is pushed: the oracle sends prepared x marker to K x marker
    (``_ControlledBlocks.kickback``), so each composite is the marker's ket
    when its effect meets K and empty otherwise.  f is used unchecked because
    the instance has already run the classical-relation check it asked for.
    """
    oracle = _ControlledBlocks(pair_in.z, f.rel, pair_out.x, pair_out.x_recode)
    kept = oracle.kickback(pair_in.x_classical_states()[0], marker, pair_out)
    hit, miss = marker.as_ket(), FinRel._trusted(1, pair_out.size, ((),))
    return oracle, [miss if kept.isdisjoint(rho.members) else hit for rho in effects]


@_frozen
class DJInstance:
    """A promise-problem instance: complementary pairs on both systems and a
    classical blackbox relation between their Z-bases."""

    pair_a: ComplementaryPair
    pair_b: ComplementaryPair
    f: StructuredRel
    unchecked: bool

    def __init__(self, pair_a: ComplementaryPair, pair_b: ComplementaryPair, f: StructuredRel,
                 unchecked: bool = False) -> None:
        _validate(pair_a, pair_b, f, unchecked, "blackbox", "first system's")
        vars(self).update(pair_a=pair_a, pair_b=pair_b, f=f, unchecked=unchecked)


def dj_classify(inst: DJInstance) -> str:
    """Promise classification by the closed forms.

    Constant: f is exactly (first X_A-classical state) x (some Z_B-classical
    state).  Balanced: f relates nothing in the first X_A-classical state to
    the second X_B-classical state.  The two are mutually exclusive: a full
    Z_B-classical state meets every X_B-classical state.  The only Z_B-copy
    a constant f can send h0a to is the one holding the first target of h0a's
    least element, so only that block is tested.
    """
    h0a = inst.pair_a.x_classical_states()[0].members
    h1b = inst.pair_b.x_classical_states()[1].members
    rows, n = inst.f.rel.rows, inst.pair_b.g.order
    if first := rows[min(h0a)]:
        start = first[0] - first[0] % n
        block = tuple(range(start, start + n))
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
    state.

    When both pairs are square the report also carries
    ``absorbed_equals_unabsorbed``, true by this identity, not recomputed.
    The staged pipeline prepares g0a x g1b (the first Z_A- and second
    Z_B-classical states), changes basis with ``fourier_rel`` on each system,
    queries the oracle, changes back with the converse of ``fourier_rel`` on
    the first system and measures g0a.  ``fourier_rel`` carries Z-classical
    state k onto X-classical state k under any recoding, so the first two
    stages prepare h0a x h1b, and the last two measure h0a: a source meets
    g0a through the converse exactly when it lies in ``fourier_rel``'s image
    of g0a.  That is the pipeline above, stage for stage, which
    ``_ControlledBlocks.kickback`` evaluates; so the two composites are equal.
    """
    pair_a, pair_b, f = inst.pair_a, inst.pair_b, inst.f
    h0a = pair_a.x_classical_states()[0]
    h1b = pair_b.x_classical_states()[1]
    oracle, (composite,) = _single_query(pair_a, pair_b, f, h1b, [h0a])
    b_out = h1b if composite.rows[0] else StateVec(pair_b.size)
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
    if all(p.g.order == p.h.order for p in (pair_a, pair_b)):
        diagnostics["absorbed_equals_unabsorbed"] = True

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
        composites={"pipeline": composite},
    )


def _candidate_run(algorithm: str, inst: GroverInstance | HomIDInstance,
                   pair_s: ComplementaryPair, pair_b: ComplementaryPair,
                   law_key: str, law: Callable[[StateVec], bool], allowed: bool,
                   diffusion_unitary: Optional[bool] = None,
                   verification: Optional[StateVec] = None) -> RunReport:
    """The candidate loop of the search and identification runners.

    Every X-classical state rho of ``pair_s`` gets its raw pipeline composite
    and its outcome-law scalar ``law(rho)``; rho is a decision-level
    outcome when that scalar equals ``allowed``.  ``diffusion_unitary``, when
    given, is the bijectivity flag of the reflection the search applies before
    post-selection; ``verification``, when given, is the state every rho is
    also tested against.
    """
    candidates = pair_s.x_classical_states()
    effects = candidates if diffusion_unitary is None else pair_s._reflected_effects
    oracle, pipelines = _single_query(pair_s, pair_b, inst.f, inst.sigma, effects)

    scalars: dict[str, bool] = {}
    composites: dict[str, FinRel] = {}
    outcomes = []
    composite_outcomes = []
    verification_outcomes = []
    agreement = []
    for i, (rho, pipeline) in enumerate(zip(candidates, pipelines)):
        composites[f"rho{i}"] = pipeline
        pipeline_possible = any(pipeline.rows)
        value = law(rho)
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
        "diffusion_unitary": diffusion_unitary,
        "oracle_unitary": oracle_unitary,
        "composite_possible_outcomes": composite_outcomes,
        "composite_agrees_with_decision": agreement,
        "physical_evolution": oracle_unitary and (diffusion_unitary is None or diffusion_unitary),
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
    unchecked: bool

    def __init__(self, pair_s: ComplementaryPair, pair_b: ComplementaryPair, f: StructuredRel,
                 sigma: StateVec, unchecked: bool = False) -> None:
        _validate(pair_s, pair_b, f, unchecked, "indicator", "search system's", sigma)
        vars(self).update(pair_s=pair_s, pair_b=pair_b, f=f, sigma=sigma, unchecked=unchecked)


def grover_diffusion(pair_s: ComplementaryPair) -> tuple[FinRel, bool]:
    """The reflection: identity minus (H0 x H0), as a symmetric difference.

    Returns the relation and its bijectivity flag.  The flag is genuinely
    informative: it holds exactly when |H| = 2, so with more or fewer
    elements in an X-copy the reflection is not a bijection, and a run using
    it is then not a physical evolution in the model.  Proof: the relation
    sends a in H0 to H0 minus a and fixes every other element, so it is a
    bijection iff H0 minus a is one element for each a in H0, that is iff
    |H0| = |H| = 2, and then it swaps H0's two elements.  A run uses that
    flag and ``ComplementaryPair._reflected_effects``, and builds neither
    this relation nor its flag.
    """
    n, h0 = pair_s.size, pair_s.x_classical_states()[0].members
    d = symmetric_difference(identity(n), FinRel(n, n, ((a, b) for a in h0 for b in h0)))
    return d, is_unitary(d)


def grover_zero_condition(inst: GroverInstance, rho: StateVec) -> bool:
    """Whether the output at ``rho`` must vanish: the sigma-overlap scalar of
    f applied to rho equals the one for the prepared state (the first
    X_S-classical state)."""
    if rho not in inst.pair_s._x_classical_set:
        raise ValueError("rho must be a classical state of the search system's X-basis")
    return _zero_condition(inst)(rho)


def _zero_condition(inst: GroverInstance) -> Callable[[StateVec], bool]:
    """``grover_zero_condition`` of any X_S-classical rho, unchecked."""
    f, sigma = inst.f.rel, inst.sigma.members
    prepared = bool(f.image(inst.pair_s.x_classical_states()[0].members) & sigma)
    return lambda rho: bool(f.image(rho.members) & sigma) == prepared


def grover_run(inst: GroverInstance) -> RunReport:
    """Evaluate every candidate outcome of the single search step.

    Decision-level outcomes are the classical states whose zero-possibility
    condition fails (they are exactly the states the single-query law allows).
    The raw pipeline composite for each candidate is reported alongside, with
    a per-candidate agreement flag: for some indicators the raw composite
    keeps an outcome possible that the law rules out.
    """
    return _candidate_run("grover", inst, inst.pair_s, inst.pair_b,
                          "zero_condition", _zero_condition(inst), False,
                          diffusion_unitary=inst.pair_s.h.order == 2)


@_frozen
class HomIDInstance:
    """Homomorphism-identification instance: a classical relation between the
    Z-bases of the two systems (an isomorphism in the headline case, but any
    classical relation is allowed)."""

    pair_g: ComplementaryPair
    pair_a: ComplementaryPair
    f: StructuredRel
    sigma: StateVec
    unchecked: bool

    def __init__(self, pair_g: ComplementaryPair, pair_a: ComplementaryPair, f: StructuredRel,
                 sigma: StateVec, unchecked: bool = False) -> None:
        _validate(pair_g, pair_a, f, unchecked, "blackbox", "first system's", sigma)
        vars(self).update(pair_g=pair_g, pair_a=pair_a, f=f, sigma=sigma, unchecked=unchecked)


def grouphomid_necessary(inst: HomIDInstance, rho: StateVec) -> bool:
    """Witness-pair condition for ``rho`` to be a reportable outcome: the
    blackbox must relate something in rho, and must relate something into
    sigma.  Runs report an outcome only when this holds."""
    if rho not in inst.pair_g._x_classical_set:
        raise ValueError("rho must be a classical state of the first system's X-basis")
    return _witness(inst, inst.f.rel.preimage(inst.sigma.members))(rho)


def _witness(inst: HomIDInstance, pulled_back: frozenset[int]) -> Callable[[StateVec], bool]:
    """``grouphomid_necessary`` of any X_G-classical rho, unchecked, given
    sigma's preimage under f (empty exactly when nothing lands in sigma)."""
    rows = inst.f.rel.rows
    return lambda rho: bool(pulled_back) and any(rows[a] for a in rho.members)


def grouphomid_run(inst: HomIDInstance) -> RunReport:
    """Evaluate every candidate outcome of the identification step.

    Decision-level outcomes are the candidates passing the witness-pair
    condition (for a groupoid isomorphism that is every classical state).
    Two element-level composites are reported per candidate: the raw
    pipeline, and the converse-based verification scalar (sigma pushed
    through the blackbox converse against rho); both can be strictly finer
    than the decision rule.
    """
    pulled_back = inst.f.rel.preimage(inst.sigma.members)
    return _candidate_run("homid", inst, inst.pair_g, inst.pair_a,
                          "witness", _witness(inst, pulled_back), True,
                          verification=StateVec._trusted(inst.f.rel.dom_size, pulled_back))
