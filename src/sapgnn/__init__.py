"""Split-learning GNN protocol simulator with a centralized reference model.

Data holders keep their subgraphs private, a semi-honest server pools
max-aggregated local embeddings, and local weights stay replicated through
secret-shared gradient aggregation. The library verifies, layer by layer,
that the decentralized computation matches training on the combined graph.
"""

from .config import DatasetConfig, PartitionConfig, RunConfig, TrainConfig
from .gnn import (ModelConfig, ModelWeights, UpdateKind, centralized_forward,
                  centralized_forward_backward, check_monotone_update)
from .graphs import (Graph, LocalGraph, generate_synthetic, load_dataset, split_edges_uniform,
                     split_label_skew, union_graph, write_dataset)
from .harness import (EquivalenceReport, ExperimentSpec, SPResult, compare_equivalence,
                      comm_profile, linear_fit_r2, run_sweep, train_centralized, train_sp)
from .numerics import (NEG_INF, AdamState, adam_step, dropout_mask, finite_diff_grad,
                       glorot_init, make_rng, relu, relu_grad, softmax_rows)
from .protocol import (AuditReport, ProtocolError, Session, TrainResult,
                       aggregate_local_grads, backward_pass, forward_pass, init_parties,
                       run_training, secure_sum, verify_privacy_audit, weight_update)
from .sharing import (AdditiveShare, AuditLog, BooleanShare, FixedPoint, reconstruct_additive,
                      reconstruct_boolean, secure_argmax, share_additive, share_boolean)
from .wire import Channel, CommStats, MessageKind, WireError

__version__ = "0.1.0"
