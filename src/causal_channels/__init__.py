"""Bipartite quantum operations wired by classical communication.

Tools for composing local quantum instruments through classical wirings
(one-way, round-based protocols, loop form, general conditional-distribution
links and classical process matrices), verifying trace preservation and
causal-order consistency, and rewriting between the equivalent forms.
"""

from .linalg import DEFAULT_TOL, DimensionError, PositivityError
from .channels import (
    ChoiOperator,
    CpMap,
    Instrument,
    apply_cp_map,
    choi_of,
    choi_distance,
    complementary_map,
    identity_map,
    is_trace_preserving,
    kraus_from_choi,
    random_cptp,
    random_instrument,
    tensor_map,
    tp_defect,
    validate_instrument,
)
from .composition import (
    AlphabetError,
    CondDist,
    JointMapSpec,
    LoccProtocol,
    compose_ccstar,
    compose_locc_protocol,
    compose_loop,
    compose_one_way,
    compose_wired,
    delta_wiring,
    is_locc_star_member,
    loop_wiring,
    sep_table_instruments,
    slocc_star_decompose,
    to_loop_form,
)
from .sep import (
    MembershipError,
    SepMap,
    locc_star_to_sep,
    nine_state_fixture,
    nine_state_kets,
    nine_state_sep_map,
    sep_to_locc_star,
    validate_sep,
    verify_nine_state_discrimination,
)
from .causal import (
    AggregateWiring,
    CausalOrder,
    CausalOrderError,
    OpLabel,
    all_orders,
    find_causal_violation,
    linear_extension,
    past_set,
    protocol_to_wired_form,
    reconstruct_locc,
    respects_causal_order,
)
from .procmat import (
    CausalDecomposition,
    ClassicalProcess,
    ProcessValidityError,
    causal_decompose,
    classical_process_to_choi,
    compose_via_classical_process,
    extract_one_way_mixture,
    find_violating_strategy,
    loop_process,
    probe_quantum_process,
    random_one_way_process,
    random_process_mixture,
    validate_classical_process,
)
from .selftest import run_all

__version__ = "0.1.0"
