"""Desk-scale open-cover selection constructions on finite metric samples.

The package turns a family of covering-property arguments into executable,
property-checked procedures: exact finite metric spaces, epsilon-nets and
totally-bounded chains, pairwise-disjoint brick refinements, a two-player
cover-selection game with block bookkeeping, and the assembled
small-diameter disjoint-family witnesses.
"""

from .exact import CheckFailure, InputError, ResourceError
from .space import (
    DiameterResult,
    SampledSpace,
    Schedule,
    SubsetHandle,
    build_cantor_2adic_space,
    build_cantor_space,
    build_grid_space,
    build_single_point_space,
    diameter,
    epsilon_schedule,
)
from .covers import (
    Ball,
    Box,
    CoClosedBalls,
    Cover,
    CoverSeq,
    DisjointFamily,
    contains,
    covers_check,
    lebesgue_number,
    pairwise_disjoint_check,
)
from .netting import (
    NetCertificate,
    SigmaDecomposition,
    chain_decomposition,
    decompose_from_hurewicz,
    greedy_net,
    minimal_net_bruteforce,
    select_from_decomposition,
    validate_net,
)
from .screenability import (
    FiniteCWitness,
    NoWitnessAtHorizon,
    ResolutionError,
    brick_refinement,
    finite_c_search,
    sc_fin_select,
)
from .game import (
    ScPlusResult,
    Transcript,
    adversarial_two_policy,
    assemble_W,
    block_index,
    covering_two_policy,
    hurewicz_selection_check,
    menger_selection_check,
    play_hurewicz_game,
    sc_plus_select,
    strategy_F_move,
    transcript_loss_report,
)
from .haver import (
    ClaimHorizonError,
    HaverWitness,
    build_haver_witness,
    normalize_epsilons,
    build_stage_covers,
)
from .registry import builtin_names, builtin_space

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
