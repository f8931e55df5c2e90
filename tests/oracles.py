"""Independent reference implementations used to cross-check the package.

Everything here is deliberately built a different way from the library:
full 2^n x 2^n unitary products instead of in-place gate application,
naive front peeling instead of Deb's bookkeeping, a per-value loop over
the unique objective values instead of sorted-array crowding, random
feasible duals instead of SMO, per-value counting instead of the merged
KS sweep, whole-array masks instead of the solver's scalar SMO loop,
one cos/sin of each amplitude's summed angle instead of per-term phase
factors.  Slow and simple on purpose.
"""
import numpy as np

from qkevo.simulator import CNot, Hadamard, Rotation, rotation_matrix

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_P0 = np.array([[1, 0], [0, 0]], dtype=complex)
_P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def embed_single(mat: np.ndarray, target: int, n: int) -> np.ndarray:
    """Lift a 2x2 matrix onto qubit ``target`` (qubit 0 = least significant)."""
    full = np.kron(np.eye(2 ** (n - 1 - target), dtype=complex),
                   np.kron(mat, np.eye(2 ** target, dtype=complex)))
    return full


def gate_unitary(gate, n: int) -> np.ndarray:
    if isinstance(gate, Hadamard):
        return embed_single(_H, gate.target, n)
    if isinstance(gate, Rotation):
        return embed_single(rotation_matrix(gate.axis, gate.angle), gate.target, n)
    if isinstance(gate, CNot):
        return (embed_single(_P0, gate.control, n)
                + embed_single(_P1, gate.control, n) @ embed_single(_X, gate.target, n))
    raise TypeError(gate)


def circuit_unitary(ops, n: int) -> np.ndarray:
    U = np.eye(2 ** n, dtype=complex)
    for op in ops:
        U = gate_unitary(op, n) @ U
    return U


def statevector_by_matrix(ops, n: int) -> np.ndarray:
    """|psi> = U_circuit |0...0> via the explicit matrix product."""
    return circuit_unitary(ops, n)[:, 0].copy()


def fidelity_by_matrix(ops_a, ops_b, n: int) -> float:
    a = statevector_by_matrix(ops_a, n)
    b = statevector_by_matrix(ops_b, n)
    return float(abs(np.vdot(a, b)) ** 2)


def adjoint_ops(ops):
    """Inverse circuit: reversed order, rotations negated (H, CNOT self-inverse)."""
    out = []
    for op in reversed(list(ops)):
        if isinstance(op, Rotation):
            out.append(Rotation(op.axis, op.target, -op.angle))
        else:
            out.append(op)
    return out


def random_circuit(rng: np.random.Generator, n: int, n_gates: int):
    """Random gate list over the library's gate set."""
    ops = []
    for _ in range(n_gates):
        kind = rng.integers(0, 3 if n > 1 else 2)
        if kind == 0:
            ops.append(Hadamard(int(rng.integers(0, n))))
        elif kind == 1:
            axis = "XYZ"[rng.integers(0, 3)]
            ops.append(Rotation(axis, int(rng.integers(0, n)),
                                float(rng.uniform(-2 * np.pi, 2 * np.pi))))
        else:
            c, t = rng.choice(n, size=2, replace=False)
            ops.append(CNot(int(c), int(t)))
    return ops


def phase_by_angle_sum(template, X) -> tuple[np.ndarray, np.ndarray]:
    """The layer phases (inner, last) of ``kernel._layer_phases``, shape
    (2**n, rows), as exp(-i/2 angle) of each amplitude's summed angle

        sum over pairs z_i z_j x_i x_j  (+ sum over rotated qubits z_q x_q),

    where z_q = +1/-1 is qubit q's Z eigenvalue on the basis index.  The
    rotations enter ``last`` on the Z axis and ``inner`` on the X axis when
    the depth exceeds 1; otherwise ``inner`` is ``last``."""
    n, axis = template.n_qubits, template.rotation_axis
    X = np.asarray(X, dtype=float).T
    z = 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
    i, j = np.array(template.entangle_pairs, dtype=int).reshape(-1, 2).T
    rot = np.flatnonzero(template.rotation_enabled)
    zz = (z[:, i] * z[:, j]) @ (X[i] * X[j])
    rz = z[:, rot] @ X[rot]

    def phase(angles):
        return np.cos(0.5 * angles) + 1j * np.sin(-0.5 * angles)

    last = phase(zz + rz if axis == "Z" else zz)
    inner = phase(zz + rz) if axis == "X" and template.depth > 1 else last
    return inner, last


def peel_fronts(objectives) -> list[list[int]]:
    """Brute-force non-dominated peeling over (accuracy max, gates min)."""
    def dominated(i, j):
        a, b = objectives[i], objectives[j]
        no_worse = (b.accuracy >= a.accuracy and b.local_gates <= a.local_gates
                    and b.cnot_gates <= a.cnot_gates)
        better = (b.accuracy > a.accuracy or b.local_gates < a.local_gates
                  or b.cnot_gates < a.cnot_gates)
        return no_worse and better

    alive = list(range(len(objectives)))
    fronts = []
    while alive:
        front = [i for i in alive
                 if not any(dominated(i, j) for j in alive if j != i)]
        fronts.append(front)
        alive = [i for i in alive if i not in front]
    return fronts


def crowding_by_definition(objectives) -> list[float]:
    """Per objective, each value's gap between its nearest distinct
    neighbours over the objective's range (infinite at the extremes),
    summed over the objectives in field order."""
    dist = [0.0] * len(objectives)
    for values in zip(*objectives):
        uniq = sorted(set(values))
        if len(uniq) < 2:
            continue
        for i, v in enumerate(values):
            k = uniq.index(v)
            if k in (0, len(uniq) - 1):
                dist[i] += np.inf
            else:
                dist[i] += (uniq[k + 1] - uniq[k - 1]) / (uniq[-1] - uniq[0])
    return dist


def ks_by_definition(a, b) -> float:
    """Two-sample KS distance: the largest |#a<=v/na - #b<=v/nb| over every
    value v of either sample, counted one value at a time."""
    a, b = list(a), list(b)
    best = 0.0
    for v in a + b:
        below_a = sum(1 for x in a if x <= v)
        below_b = sum(1 for x in b if x <= v)
        best = max(best, abs(below_a / len(a) - below_b / len(b)))
    return best


def random_feasible_alphas(rng: np.random.Generator, y: np.ndarray, C: float,
                           count: int) -> np.ndarray:
    """Feasible dual points: box-respecting with sum(alpha * y) ~ 0.

    Draw both class groups uniformly in [0, C], then shrink the heavier
    side so the signed sums match exactly.
    """
    pos = y > 0
    out = np.empty((count, y.size))
    for k in range(count):
        a = rng.uniform(0.0, C, size=y.size)
        s_pos, s_neg = a[pos].sum(), a[~pos].sum()
        if s_pos > s_neg:
            a[pos] *= s_neg / s_pos
        elif s_neg > s_pos:
            a[~pos] *= s_pos / s_neg
        out[k] = a
    return out


def smo_by_masks(K: np.ndarray, y: np.ndarray, C: float, tol: float,
                 max_iterations: int) -> tuple[np.ndarray, int]:
    """Maximal-violating-pair SMO with the index sets as boolean masks and
    whole-array numpy updates: the same pair rule, step, bound snap and
    float operations as ``svm._solve``, so the alphas must match bit for
    bit on a finite Gram (an infinite entry makes ``_solve``'s additive
    masks NaN where ``np.where`` gives -inf; ``train_dual`` rejects such a
    Gram).  Returns the alphas and the number of pair updates made."""
    alpha = np.zeros(y.size)
    v = y.copy()
    pos = y > 0
    # Membership of I_up and I_low; only rows i and j can change it.
    in_up, in_low = pos.copy(), ~pos
    steps = 0
    for _ in range(max_iterations):
        up = np.where(in_up, v, -np.inf)
        low = np.where(in_low, v, np.inf)
        i, j = int(np.argmax(up)), int(np.argmin(low))
        gap = up[i] - low[j]
        if gap <= tol:
            break
        room_i = C - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else C - alpha[j]
        # A flat or concave direction has no interior optimum: go to the box.
        t = min(room_i, room_j)
        curvature = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if curvature > 0.0:
            t = min(t, gap / curvature)
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        if t == room_i:
            alpha[i] = C if pos[i] else 0.0
        if t == room_j:
            alpha[j] = 0.0 if pos[j] else C
        for k in (i, j):
            below, above = alpha[k] < C, alpha[k] > 0.0
            in_up[k], in_low[k] = (below, above) if pos[k] else (above, below)
        v -= t * (K[:, i] - K[:, j])
        steps += 1
    return alpha, steps
