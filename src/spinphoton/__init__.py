"""Simulator of spin-photon entanglement protocols in a single-sided
quantum-dot micropillar cavity.

The package is organized in layers: ``frozen`` (the base class of its
immutable records, and ``replace``), ``qstate`` (labeled-register state
engine), ``cavity`` (input-output reflection model), ``gates`` (conditional
reflection and the unitaries around it), ``protocols`` (the entanglement and
state-transfer procedures), ``metrics`` (entanglement measures and sweep
drivers) and ``cli`` (batch front end).

The package exports what the protocols and the CLI use; the register step
engine in ``qstate`` and ``gates``, which no protocol runs, stays unexported.
"""

from .cavity import (
    CavityParams,
    ParameterError,
    ReflectionResponse,
    conditional_phase,
    find_operating_point,
    reflect,
    reflection_coefficient,
)
from .frozen import replace
from .gates import IdealGate, RealisticGate
from .metrics import SweepSpec, concurrence, entanglement_entropy, run_sweep
from .protocols import (
    ProtocolBranch,
    ProtocolConfig,
    ProtocolResult,
    chain_multiphoton,
    merged_detection_branch,
    run_protocol,
    scheme_a_emit,
    scheme_a_entangle_spins,
    scheme_a_photon_pairs,
    scheme_b_entangle_photons,
    transfer_photon_to_spin,
    transfer_spin_to_photon,
)
from .qstate import (
    DensityState,
    PureState,
    QubitKind,
    QubitLabel,
    fidelity,
    normalize,
    partial_trace,
    photon,
    sample_indices,
    spin,
    to_density,
)

__version__ = "0.1.0"
