"""Controlled teleportation of multi-qubit messages over an agent network:
dense state-vector simulation, protocol runs, defection analysis, and
resource accounting."""

from types import ModuleType as _Module

from .accounting import CrossoverRow, CrossoverTable, Method, ResourceReport, account, crossover_table
from .defection import (
    ConditionalStateReport,
    DefectionReport,
    DiagonalForm,
    analyze_baseline_defection,
    analyze_defection,
    analyze_two_party_defection,
    entangled_info_check,
    max_recovery_fidelity,
    recovery_unitaries,
)
from .protocol import (
    CORRECTIONS,
    Branch,
    ClassicalMessage,
    Party,
    ProtocolTranscript,
    correction_for,
    infer_branch,
    parties,
    protocol_events,
    run_baseline_ghz,
    run_controlled_teleport,
    run_multi_receiver,
)
from .resources import (
    MessageSpec,
    NetworkShape,
    ParityClass,
    QubitRegistry,
    joint_parity_weights,
    parity_decompose,
    prepare_control_resource,
    prepare_ghz,
    prepare_message_state,
)
from .states import (
    BellOutcome,
    DensityMatrix,
    PauliOp,
    StateVector,
    apply_hadamard,
    apply_pauli,
    apply_single_qubit_gate,
    bell_probabilities,
    fidelity,
    measure_bell,
    measure_x,
    measure_z,
    partial_trace,
    project_onto_qubit_state,
    states_close,
    tensor,
    z_probabilities,
)

# the public names, without the submodules that importing them binds here
__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _Module)]
__version__ = "0.1.0"
