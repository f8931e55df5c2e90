"""Independent reference implementations used to cross-check the package.

Everything here is deliberately built a different way from the library:
full 2^n x 2^n unitary products instead of in-place gate application,
naive front peeling instead of Deb's bookkeeping, a per-value loop over
the unique objective values instead of sorted-array crowding, random
feasible duals instead of SMO, per-value counting and per-value binary
search instead of the pieced KS merge, whole n x n distance matrices and
whole-sample merges (the separability code as it was before it was
blocked, kept verbatim) instead of row blocks and pieces, whole-array
masks instead of the solver's scalar SMO loop, one cos/sin of each
amplitude's summed angle instead of per-term phase factors.  Slow and
simple on purpose.
"""
import numpy as np

from qkevo.data import minmax_columns
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


def ks_by_searchsorted(a, b) -> float:
    """Two-sample KS distance: #a<=v and #b<=v by binary search at every
    distinct value v of either sample."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    values = np.union1d(a, b)
    below_a = np.searchsorted(a, values, side="right")
    below_b = np.searchsorted(b, values, side="right")
    return float(np.max(np.abs(below_a / a.size - below_b / b.size)))


# The separability indexes on whole n x n matrices, verbatim from before the
# row-blocked rewrite; the rewrite must return the same floats bit for bit.
def _full_squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq_a = np.sum(a ** 2, axis=1)[:, None]
    sq_b = np.sum(b ** 2, axis=1)[None, :]
    return np.maximum(sq_a + sq_b - 2.0 * (a @ b.T), 0.0)


def _full_cross_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(_full_squared_distances(a, b))


def _full_neighbour_distances(X: np.ndarray) -> np.ndarray:
    dist = _full_cross_distances(X, X)
    np.fill_diagonal(dist, np.inf)
    return dist


def _full_si(dist: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(y[dist.argmin(axis=1)] == y))


def _full_hmi(dist: np.ndarray, y: np.ndarray, mode: str) -> float:
    same = y[:, None] == y[None, :]
    near_hit = np.where(same, dist, np.inf).min(axis=1)
    near_miss = np.where(same, np.inf, dist).min(axis=1)
    theta = 0.5 * (near_miss - near_hit)
    return float(theta.sum() if mode == "sum" else theta.mean())


def ks_by_merged_sweep(a, b) -> float:
    """Two-sample KS distance from one stable merge of the whole samples."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("KS statistic needs two non-empty samples")
    merged = np.concatenate([a, b])
    order = np.argsort(merged, kind="stable")
    merged = merged[order]
    last = np.append(merged[1:] != merged[:-1], True)
    del merged
    count_a = np.cumsum(order < a.size)[last]
    del order
    count_b = np.flatnonzero(last) + 1 - count_a
    return float(np.max(np.abs(count_a / a.size - count_b / b.size)))


def _full_intra_distances(points: np.ndarray) -> np.ndarray:
    n = points.shape[0]
    return _full_cross_distances(points, points)[np.triu(np.ones((n, n), dtype=bool), k=1)]


def _full_dsi_two_class(x_points, y_points) -> float:
    x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
    y_points = np.atleast_2d(np.asarray(y_points, dtype=float))
    bcd = _full_cross_distances(x_points, y_points)
    s_x = ks_by_merged_sweep(_full_intra_distances(x_points), bcd)
    s_y = ks_by_merged_sweep(_full_intra_distances(y_points), bcd)
    return 0.5 * (s_x + s_y)


def _full_dsi(X, y) -> float:
    classes = np.unique(y)
    if classes.size == 2:
        return _full_dsi_two_class(X[y == classes[0]], X[y == classes[1]])
    values = [_full_dsi_two_class(X[y == c], X[y != c]) for c in classes]
    return float(np.mean(values))


def indexes_by_full_matrix(X, y, hmi_mode: str = "sum") -> tuple[float, float, float]:
    """(SI, HMI, DSI) on features min-max scaled to [0, 1], from one whole
    n x n distance matrix and whole-sample KS merges."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    scaled = minmax_columns(X)
    dist = _full_neighbour_distances(scaled)
    si, hmi = _full_si(dist, y), _full_hmi(dist, y, hmi_mode)
    del dist
    return si, hmi, _full_dsi(scaled, y)


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
    float operations as ``svm._smo``, so the alphas must match bit for
    bit on a finite Gram, the only kind ``train_dual`` passes to ``_smo``:
    it refuses a non-finite one.  Returns the alphas and the number of pair
    updates made."""
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
