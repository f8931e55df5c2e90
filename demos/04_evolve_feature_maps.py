# NSGA-II evolution of feature-map genomes on Iris: maximise accuracy,
# minimise local and CNOT gate counts, then inspect the Pareto front.
import numpy as np

from qkevo import (EarlyStop, EvolveConfig, SplitSpec, load_csv, make_split,
                   minmax_scale, subset_features, svm_evaluator)
from qkevo.nsga2 import evolve
from qkevo.report import pareto_records

iris = load_csv("data/iris.csv", "species")
scaled = minmax_scale(subset_features(iris, [0, 1, 2]), 0.0, np.pi)
tts = make_split(scaled, SplitSpec(n_train=100, n_test=50, seed=0))

config = EvolveConfig(
    n_qubits=3,
    population_size=32,
    generations=20,
    seed=7,
    early_stop=EarlyStop(stagnation_generations=8),
)
result = evolve(config, svm_evaluator(tts))

print("generation history (best accuracy / front size / min local / min cnot):")
for stats in result.history:
    print(f"  gen {stats.generation:2d}: {stats.best_accuracy:.3f} / "
          f"{stats.front_size:2d} / {stats.min_local:2d} / {stats.min_cnot}")

print("\nPareto front (deduplicated, best first):")
for r in {r["genome"]: r for r in pareto_records(result)}.values():
    print(f"  {r['genome']}  acc={r['accuracy']:.3f}  local={r['local_gates']:2d}  "
          f"cnot={r['cnot_gates']}  (first seen gen {r['generation_found']})")
