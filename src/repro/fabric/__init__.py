"""Reconfigurable spatial fabric substrate.

A stripe-organized, acyclically connected fabric (paper Section 3.2 and
Figure 4): each stripe holds the same functional-unit mix as the host OOO
pipeline, values flow forward through direct wires and pass registers, and
live-ins/live-outs move through FIFOs on a global bus.  ``SpatialFabric``
is the dataflow timing engine that executes mapped trace configurations,
including pipelined back-to-back invocations.
"""

from repro.fabric.config import cca_like, FabricConfig
from repro.fabric.pe import PE
from repro.fabric.stripe import Stripe
from repro.fabric.configuration import Configuration, OperandSource, PlacedOp
from repro.fabric.fifos import FifoModel
from repro.fabric.fabric import InvocationContext, InvocationResult, SpatialFabric
from repro.fabric.functional import CoSimulator, FunctionalFabric

__all__ = [
    "cca_like",
    "Configuration",
    "CoSimulator",
    "FabricConfig",
    "FifoModel",
    "FunctionalFabric",
    "InvocationContext",
    "InvocationResult",
    "OperandSource",
    "PE",
    "PlacedOp",
    "SpatialFabric",
    "Stripe",
]
