"""qkevo: evolving quantum feature-map circuits for kernel SVMs.

The pipeline, bottom up: a dense statevector simulator (`simulator`),
bit-string genomes decoding to feature-map circuits (`featuremap`),
fidelity and classical kernels (`kernel`), an SMO-trained SVM (`svm`),
an NSGA-II loop over genomes (`nsga2`), data-separability indexes
(`separability`), dataset utilities (`data`) and run reporting
(`report`).  The `qkevo` console script drives the full experiments.
"""

from .data import (Dataset, SplitSpec, TrainTestSplit, load_csv, make_split,
                   minmax_scale, sample_feature_combos, split, subset_features)
from .errors import ConfigError, DataError, EvaluationError, TrainingError
from .featuremap import (FeatureMapTemplate, GateCounts, Genome, bind, decode,
                         gate_counts, genome_length, qubit_pairs)
from .kernel import classical_kernel, prepare_states, quantum_cross, quantum_gram
from .nsga2 import (EarlyStop, EvolveConfig, EvolveResult, Individual,
                    Objectives, crowding_distance, dominates, evaluate_genome,
                    evolve, fast_nondominated_sort, svm_evaluator)
from .separability import (compute_indexes, dsi, dsi_two_class,
                           hypothesis_margin_index, ks_statistic,
                           separability_index)
from .simulator import (CNot, GateOp, Hadamard, Rotation, Statevector,
                        apply_circuit, apply_gate, fidelity_overlap,
                        new_zero_state, prepare_state, rotation_matrix)
from .svm import (MulticlassModel, SvmModel, TrainConfig, accuracy,
                  decision_values, dual_objective, fit_score, predict,
                  predict_multiclass, train_dual, train_multiclass)

__version__ = "0.1.0"
