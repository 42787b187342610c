"""Symmetry-channel decomposition of window self-attention.

Finite permutation groups act on short token windows; their isotypic
projectors split window self-attention into independent symmetry channels.
This package builds the groups and projectors, decomposes attention (before
or after the softmax), trains a small pooled classifier on synthetic symbol
tasks, and ships verification tools for every algebraic identity involved.
"""

# Plain attention stays `isoattn.attention.attention`: re-exporting it here
# would shadow the submodule of the same name.
from .attention import (Channel, DecompositionOutput, decompose_post, decompose_pre,
                        equivariance_error, equivariance_report)
from .groups import (FiniteGroup, cyclic_group, dihedral_group, from_descriptor,
                     from_permutations, load_group, mirror_group,
                     permutation_matrix, permute_rows, save_group, shift_group,
                     symmetric_group, trivial_group, verify_homomorphism)
from .irreps import (ProjectorSet, RealIrrep, load_projectors, projector_set,
                     real_irreps, save_projectors, verify_projector_set)
from .layer import (TrainConfig, WindowAttentionLayer, finite_diff_check,
                    loss_bce, train)
from .metrics import accuracy, activation_mapping, f1
from .numerics import (Matrix, Rng, frobenius_sq, rand_matrix, softmax_rows,
                       softmax_rows_vjp)
from .synth import (Dataset, DatasetSpec, SequenceWindow, WindowSet, encode_onehot,
                    gen_cyclic, gen_noncyclic, gen_nonpalindrome, gen_palindrome,
                    load_windows, make_dataset, perturb, save_windows)

__version__ = "0.1.0"
