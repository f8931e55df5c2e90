"""NSGA-II over feature-map genomes with the three circuit objectives.

Objectives: maximise test accuracy, minimise local gates, minimise CNOT
gates — no weighting between them.  They form one vector in
:class:`Objectives` field order, and :data:`SENSE` declares each one's
direction; sorting, crowding and the history all read the cost matrix
built from it.  All randomness flows from one seeded
generator in a fixed draw order (init, then per generation: selection,
crossover, mutation), so a run is exactly reproducible from its config.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .data import TrainTestSplit, check_scorable
from .errors import ConfigError, EvaluationError
from .featuremap import Genome, decode, gate_counts, genome_length
from .kernel import quantum_cross, quantum_gram
from .svm import TrainConfig, fit_score


class Objectives(NamedTuple):
    accuracy: float
    local_gates: int
    cnot_gates: int


# Sense of each Objectives field, in field order: -1 maximise, +1 minimise.
SENSE = np.array([-1.0, 1.0, 1.0])


@dataclass
class Individual:
    genome: Genome
    objectives: Objectives
    rank: int = 0
    crowding: float = 0.0


@dataclass
class EarlyStop:
    target_accuracy: float | None = None
    stagnation_generations: int | None = None

    def __post_init__(self):
        if self.target_accuracy is not None and not np.isfinite(self.target_accuracy):
            raise ConfigError("target_accuracy must be finite")
        if self.stagnation_generations is not None and self.stagnation_generations < 1:
            raise ConfigError("stagnation_generations must be >= 1")


@dataclass
class EvolveConfig:
    n_qubits: int
    population_size: int = 32
    generations: int = 50
    crossover_prob: float = 0.8
    mutation_prob: float | None = None  # None -> 1 / genome_length
    tournament_size: int = 2
    seed: int = 0
    early_stop: EarlyStop = field(default_factory=EarlyStop)

    def __post_init__(self):
        genome_length(self.n_qubits)  # refuses a qubit count below 1
        if self.population_size < 4 or self.population_size % 2:
            raise ConfigError("population_size must be even and >= 4")
        if self.generations < 0:
            raise ConfigError("generations must be >= 0")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ConfigError("crossover_prob must lie in [0, 1]")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ConfigError("mutation_prob must lie in [0, 1]")
        if self.tournament_size < 1:
            raise ConfigError("tournament_size must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class GenerationStats:
    generation: int
    best_accuracy: float
    front_size: int
    min_local: int
    min_cnot: int


@dataclass
class EvolveResult:
    population: list[Individual]
    pareto_front: list[Individual]
    history: list[GenerationStats]
    first_seen: dict[str, int]  # genome bits -> generation it first hit rank 1


def _costs(objectives) -> np.ndarray:
    """(n, m) matrix to minimise from objective vectors in Objectives order
    (a list of :class:`Objectives` or a raw array)."""
    return np.asarray(objectives, dtype=float).reshape(-1, SENSE.size) * SENSE


def _dominance(costs: np.ndarray) -> np.ndarray:
    """dom[p, q]: row p is no worse than row q in every cost and better in
    one, i.e. p is no worse than q but q is not no worse than p."""
    n = costs.shape[0]
    no_worse = np.ones((n, n), dtype=bool)
    for col in costs.T:
        no_worse &= col[:, None] <= col
    return no_worse & ~no_worse.T


def dominates(a, b) -> bool:
    """True iff ``a`` is no worse in every objective and better in one."""
    return bool(_dominance(_costs([a, b]))[0, 1])


def fast_nondominated_sort(objectives) -> list[list[int]]:
    """Deb's front peeling; front k holds the points non-dominated once
    fronts 1..k-1 are removed.  Returns index lists, ascending within a front."""
    costs = _costs(objectives)
    if not costs.size:
        raise ValueError("population must be non-empty")
    dom = _dominance(costs)
    fronts = []
    remaining = dom.sum(axis=0)  # dominators not yet placed in a front
    current = np.flatnonzero(remaining == 0)
    while current.size:
        fronts.append(current.tolist())
        remaining -= dom[current].sum(axis=0)
        remaining[current] = -1
        current = np.flatnonzero(remaining == 0)
    return fronts


def crowding_distance(objectives) -> np.ndarray:
    """Crowding distances for one front.

    Per objective, a value's gap runs between its nearest *distinct*
    neighbours and is normalised by the objective's range, so duplicated
    objective vectors always receive equal distance; extreme values get
    infinity, and an objective with a single value adds nothing.
    """
    costs = _costs(objectives)
    dist = np.zeros(costs.shape[0])
    if costs.shape[0] < 2:
        return dist
    for col in costs.T:
        srt = np.sort(col)
        span = srt[-1] - srt[0]
        if span:
            padded = np.concatenate(([-np.inf], srt, [np.inf]))
            below = padded[np.searchsorted(srt, col, "left")]
            above = padded[np.searchsorted(srt, col, "right") + 1]
            dist += (above - below) / span
    return dist


def svm_evaluator(split: TrainTestSplit,
                  svm_config: TrainConfig | None = None) -> Callable[[Genome], Objectives]:
    """Fitness function: decode, build quantum kernels, score with
    :func:`qkevo.svm.fit_score`.  A split that cannot be scored is refused
    here, by :func:`qkevo.data.check_scorable`, before any genome is."""
    check_scorable(split)

    def evaluate(genome: Genome) -> Objectives:
        template = decode(genome)
        counts = gate_counts(template)
        gram = quantum_gram(template, split.X_train)
        cross = quantum_cross(template, split.X_test, split.X_train)
        acc = fit_score(gram, cross, split.y_train, split.y_test, svm_config)
        return Objectives(acc, counts.local, counts.cnot)

    return evaluate


def evaluate_genome(genome: Genome, split: TrainTestSplit,
                    svm_config: TrainConfig | None = None) -> Objectives:
    """One-shot form of :func:`svm_evaluator`."""
    return svm_evaluator(split, svm_config)(genome)


def _assign_fronts(pop: list[Individual]) -> None:
    values = np.array([ind.objectives for ind in pop], dtype=float)
    for k, front in enumerate(fast_nondominated_sort(values)):
        for d, i in zip(crowding_distance(values[front]), front):
            pop[i].rank = k + 1
            pop[i].crowding = float(d)


def _stats(pop: list[Individual], generation: int) -> GenerationStats:
    front = [ind.objectives for ind in pop if ind.rank == 1]
    accuracy, local, cnot = _costs(front).min(axis=0) * SENSE
    return GenerationStats(generation=generation, best_accuracy=float(accuracy),
                           front_size=len(front), min_local=int(local),
                           min_cnot=int(cnot))


def _tournament(pop: list[Individual], draws: np.ndarray) -> list[Individual]:
    """Per draw row, the entrant of lowest rank, then largest crowding;
    ``min`` keeps the first of equal entrants."""
    return [min((pop[i] for i in row), key=lambda ind: (ind.rank, -ind.crowding))
            for row in draws]


def _make_offspring(parents: list[Individual], config: EvolveConfig,
                    mutation_prob: float, rng: np.random.Generator) -> np.ndarray:
    """One-point crossover of consecutive parent pairs (a pair that does not
    cross is copied), then bit-flip mutation."""
    pairs = config.population_size // 2
    length = genome_length(config.n_qubits)
    crosses = rng.random(pairs) < config.crossover_prob
    cuts = rng.integers(1, length, size=pairs)
    keep = ~crosses[:, None] | (np.arange(length) < cuts[:, None])
    bits = np.array([ind.genome.bits for ind in parents]).reshape(pairs, 2, length)
    children = np.where(keep[:, None], bits, bits[:, ::-1]).reshape(-1, length)
    flips = rng.random((config.population_size, length)) < mutation_prob
    return children ^ flips


def _refill(merged: list[Individual], pop_size: int) -> list[Individual]:
    """Environmental selection: fill by front, truncate the last front by
    crowding (descending), preferring higher accuracy among ties so the
    best-accuracy point always survives."""
    _assign_fronts(merged)
    ranked = sorted(merged, key=lambda ind: ind.rank)
    last = ranked[pop_size - 1].rank
    kept = [ind for ind in ranked if ind.rank < last]
    tail = [ind for ind in ranked if ind.rank == last]
    if len(kept) + len(tail) > pop_size:
        tail.sort(key=lambda ind: (-ind.crowding, -ind.objectives.accuracy))
    return kept + tail[:pop_size - len(kept)]


def evolve(config: EvolveConfig,
           evaluator: Callable[[Genome], Objectives]) -> EvolveResult:
    """Run the NSGA-II loop and return the final population, the rank-1
    front, per-generation history and first-seen generations.  Warns once
    with a ``RuntimeWarning`` when any evaluation was demoted."""
    length = genome_length(config.n_qubits)
    mutation_prob = (config.mutation_prob if config.mutation_prob is not None
                     else 1.0 / length)
    rng = np.random.default_rng(config.seed)
    early = config.early_stop
    demoted = 0

    def scored(bit_rows: np.ndarray) -> list[Individual]:
        # A genome whose evaluation fails gets accuracy 0 and its own gate counts.
        nonlocal demoted
        scored_pop = []
        for bits in bit_rows:
            genome = Genome(config.n_qubits, bits.copy())
            try:
                objectives = evaluator(genome)
            except EvaluationError:
                demoted += 1
                counts = gate_counts(decode(genome))
                objectives = Objectives(0.0, counts.local, counts.cnot)
            scored_pop.append(Individual(genome, objectives))
        return scored_pop

    history: list[GenerationStats] = []
    first_seen: dict[str, int] = {}
    stagnation = 0
    for gen in range(config.generations + 1):
        if gen == 0:
            pop = scored(rng.integers(0, 2, size=(config.population_size, length),
                                      dtype=np.int8))
            _assign_fronts(pop)
        elif ((early.target_accuracy is not None
               and history[-1].best_accuracy >= early.target_accuracy)
              or (early.stagnation_generations is not None
                  and stagnation >= early.stagnation_generations)):
            break
        else:
            draws = rng.integers(0, config.population_size,
                                 size=(config.population_size, config.tournament_size))
            children = _make_offspring(_tournament(pop, draws), config, mutation_prob, rng)
            pop = _refill(pop + scored(children), config.population_size)

        stats = _stats(pop, gen)
        if history and (stats.best_accuracy, stats.front_size) == (
                history[-1].best_accuracy, history[-1].front_size):
            stagnation += 1
        else:
            stagnation = 0
        history.append(stats)
        for ind in pop:
            if ind.rank == 1:
                first_seen.setdefault(ind.genome.to_string(), gen)

    if demoted:
        warnings.warn(f"{demoted} of {config.population_size * len(history)} evaluations "
                      "raised EvaluationError and were scored with accuracy 0", RuntimeWarning)
    pareto = [ind for ind in pop if ind.rank == 1]
    return EvolveResult(population=pop, pareto_front=pareto, history=history,
                        first_seen=first_seen)
