"""Deterministic desk-scale simulator for split federated learning.

The server half of a split network trains with exact first-order updates
while clients train backprop-free: they project seeded Gaussian
perturbations of their parameters onto server-provided activation feedback,
upload only those scalars, and reconstruct the shared update from broadcast
(seed, scalar) pairs. Stragglers catch up bit-exactly by replaying history.
"""

from .config import ExperimentConfig, parse_config
from .data import PartitionSpec, dirichlet_partition, iid_partition, make_classification_blobs, make_regression_quadratic
from .latency import DeviceProfile, NetworkProfile, WorkloadProfile, round_timeline, transformer_layer_flops
from .model import Batch, SplitModelConfig, client_forward, server_forward_backward
from .prng import derive_stream, gaussian_block, gaussian_vector
from .protocol import ClientState, HyperParams, RoundRecord, ServerState, Simulation, client_sync, run_round, sample_clients
from .runner import RunResult, build_simulation, run_experiment, write_outputs
from .traffic import MessageKind, TrafficLedger, breakdown_report, closed_form_traffic
from .zo import TheoryBounds, ZoConfig, estimator_diagnostics, reconstruct_gradient, theory_bounds, zo_scalars

__version__ = "0.1.0"
