import types

import teleportnet as tn

# the public names that the package listed when its submodules were dropped from __all__
PUBLIC = [
    "BellOutcome", "Branch", "CORRECTIONS", "ClassicalMessage", "ConditionalStateReport", "CrossoverRow",
    "CrossoverTable", "DefectionReport", "DensityMatrix", "DiagonalForm", "MessageSpec", "Method", "NetworkShape",
    "ParityClass", "Party", "PauliOp", "ProtocolTranscript", "QubitRegistry", "ResourceReport", "StateVector",
    "account", "analyze_baseline_defection", "analyze_defection", "analyze_two_party_defection", "apply_hadamard",
    "apply_pauli", "apply_single_qubit_gate", "bell_probabilities", "correction_for", "crossover_table",
    "entangled_info_check", "fidelity", "infer_branch", "joint_parity_weights", "max_recovery_fidelity",
    "measure_bell", "measure_x", "measure_z", "parity_decompose", "partial_trace", "parties",
    "prepare_control_resource", "prepare_ghz", "prepare_message_state", "project_onto_qubit_state",
    "protocol_events", "recovery_unitaries", "run_baseline_ghz", "run_controlled_teleport", "run_multi_receiver",
    "states_close", "tensor", "z_probabilities",
]


def test_all_lists_no_module():
    assert [name for name in tn.__all__ if isinstance(getattr(tn, name), types.ModuleType)] == []


def test_all_keeps_every_public_name():
    assert set(PUBLIC) <= set(tn.__all__)


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from teleportnet import *", namespace)
    assert not {"accounting", "defection", "protocol", "resources", "states"} & set(namespace)
    assert set(PUBLIC) <= set(namespace)
