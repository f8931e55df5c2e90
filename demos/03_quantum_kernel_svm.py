# Quantum-kernel SVM end to end on two Iris features, next to the four
# classical kernels on the same split.
import numpy as np

from qkevo import (Genome, SplitSpec, TrainConfig, classical_kernel, decode,
                   fit_score, load_csv, make_split, minmax_scale, quantum_cross,
                   quantum_gram, subset_features)

iris = load_csv("data/iris.csv", "species")
sub = subset_features(iris, [2, 3])  # petal length & width
scaled = minmax_scale(sub, 0.0, np.pi)  # rotation-angle friendly range
tts = make_split(scaled, SplitSpec(n_train=100, n_test=50, seed=0))

# A hand-picked feature map: rotations on both qubits, axis Z,
# the (0,1) entangling pair, depth 1.
template = decode(Genome(2, [1, 1, 1, 0, 1, 0, 0]))
gram = quantum_gram(template, tts.X_train)
cross = quantum_cross(template, tts.X_test, tts.X_train)
print("gram shape:", gram.shape, " diagonal ~1:", np.allclose(np.diag(gram), 1))

# Three Iris classes, so fit_score trains a one-vs-one ensemble.
config = TrainConfig(C=1.0)
quantum_acc = fit_score(gram, cross, tts.y_train, tts.y_test, config)
print(f"quantum kernel test accuracy: {quantum_acc:.3f}")

for kind in ("linear", "poly", "rbf", "sigmoid"):
    k_train = classical_kernel(kind, tts.X_train, tts.X_train)
    k_test = classical_kernel(kind, tts.X_test, tts.X_train)
    acc = fit_score(k_train, k_test, tts.y_train, tts.y_test, config)
    print(f"{kind:8s} kernel test accuracy: {acc:.3f}")
