"""Layout search over a fixed number of turbines: elitist evolution with
worst-turbine relocation, alien injection and twice-toggle mutation, driven
entirely by a chaotic logistic-map stream; the relocation-ablated baseline
is the same loop with its relocation slots given to aliens."""

import operator
from dataclasses import dataclass, replace

import numpy as np

from .power import FarmEvaluator

# seeds that land on the logistic map's fixed points or the 0.5 -> 1 -> 0 chain
FORBIDDEN_SEEDS = (0.25, 0.5, 0.75)


class ChaosStream:
    """Deterministic randomness source x -> 4x(1-x).

    The map at full chaos has absorbing/fixed points (0, 1, 0.75); iterates
    landing within 1e-12 of them are nudged by 1e-9 back into the open
    interval so the orbit stays aperiodic.
    """

    __slots__ = ("state",)

    def __init__(self, x0: float):
        if not 0.0 < x0 < 1.0:
            raise ValueError("chaos seed must lie in (0, 1)")
        if x0 in FORBIDDEN_SEEDS:
            raise ValueError(f"chaos seed must avoid {FORBIDDEN_SEEDS}")
        self.state = float(x0)

    def next(self) -> float:
        """Advance the map and return the new state in (0, 1)."""
        x = 4.0 * self.state * (1.0 - self.state)
        if x < 1e-12:
            x += 1e-9
        elif x > 1.0 - 1e-12:
            x = min(x, 1.0) - 1e-9
        elif abs(x - 0.75) < 1e-12:
            x += 1e-9
        self.state = x
        return x

    def index(self, n: int) -> int:
        """Scaled draw rounded half-up, clamped into [0, n-1]."""
        if n < 1:
            raise ValueError("n must be >= 1")
        i = int(self.next() * n + 0.5)
        return n - 1 if i >= n else i


def chaos_position(stream: ChaosStream, m: int, exclude=frozenset()) -> int:
    """Draw a free cell index in [0, m-1], redrawing while it is excluded.

    Redraws are capped at 10*m; after that the remaining free cells are
    scanned in chaotic-offset order, so termination is guaranteed whenever
    any free cell exists.
    """
    if len(exclude) >= m:
        raise ValueError("exclude covers every cell; no free index exists")
    for _ in range(10 * m):
        idx = stream.index(m)
        if idx not in exclude:
            return idx
    start = stream.index(m)
    for k in range(m):
        idx = (start + k) % m
        if idx not in exclude:
            return idx
    raise RuntimeError("unreachable: a free cell existed")  # pragma: no cover


@dataclass(frozen=True)
class Layout:
    """A fixed-cardinality individual: occupied cell indices over m cells.

    Every layout is checked on construction: integer (not bool), distinct
    indices in [0, m), stored sorted. The search breeds bare ``occupied``
    tuples and wraps only the layouts it reports.
    """

    occupied: tuple
    m: int

    def __post_init__(self):
        try:
            if any(isinstance(i, bool) for i in self.occupied):
                raise TypeError  # an int subclass, but no cell index
            occ = tuple(sorted(map(operator.index, self.occupied)))
        except TypeError:
            raise ValueError("occupied indices must be integers") from None
        if len(set(occ)) != len(occ):
            raise ValueError("occupied indices must be distinct")
        if occ and not (0 <= occ[0] and occ[-1] < self.m):
            raise ValueError("occupied indices must lie in [0, m)")
        object.__setattr__(self, "occupied", occ)

    @property
    def n(self) -> int:
        return len(self.occupied)


@dataclass(frozen=True)
class GAParams:
    """Search-loop parameters; population splits follow the step structure
    elites / relocations / aliens, mutants filling the remainder."""

    population: int = 120
    elites: int = 12
    relocations: int = 36
    aliens: int = 12
    max_generations: int = 200
    target_efficiency: float | None = None
    chaos_seed: float = 0.1357

    def __post_init__(self):
        if min(self.population, self.relocations, self.aliens, self.max_generations) < 0:
            raise ValueError("counts must be non-negative")
        if self.elites < 1:
            raise ValueError("at least one elite is required")
        if self.elites + self.relocations + self.aliens > self.population:
            raise ValueError("elites + relocations + aliens must not exceed population")
        ChaosStream(self.chaos_seed)  # raises unless the seed is a valid chaos seed
        if self.target_efficiency is not None and not np.isfinite(self.target_efficiency):
            raise ValueError("target_efficiency must be None or a finite number")


@dataclass(frozen=True)
class GenerationTrace:
    """Per-generation record backing the convergence figures."""

    generation: int
    best_eta: float
    mean_eta: float
    best_layout: Layout
    best_power: float  # kW, expected total power of best_layout; not in trace.jsonl


# The search breeds sorted ``occupied`` tuples, which pass Layout's checks by
# construction: every cell they gain comes from ``chaos_position``, which
# draws an int in [0, m) outside a given set, and a moved child swaps one cell
# of a valid parent for a cell drawn outside the parent's whole occupancy.
def _chaotic_cells(stream: ChaosStream, m: int, n: int) -> tuple:
    if n > m:
        raise ValueError("cannot place more turbines than cells")
    occupied: set = set()
    while len(occupied) < n:
        occupied.add(chaos_position(stream, m, occupied))
    return tuple(sorted(occupied))


def _moved(occupied: tuple, m: int, k: int, stream: ChaosStream) -> tuple:
    """``occupied`` with cell k moved to a chaotic draw outside all of it."""
    fresh = chaos_position(stream, m, set(occupied))
    return tuple(sorted(occupied[:k] + occupied[k + 1 :] + (fresh,)))


def _relocated(occupied: tuple, m: int, power, stream: ChaosStream) -> tuple:
    return _moved(occupied, m, int(np.argmin(power)), stream)


def _mutated(occupied: tuple, m: int, stream: ChaosStream) -> tuple:
    if not 0 < len(occupied) < m:
        raise ValueError("mutation needs at least one occupied and one free cell")
    return _moved(occupied, m, stream.index(len(occupied)), stream)


def chaotic_layout(stream: ChaosStream, m: int, n: int) -> Layout:
    """Fresh individual with n distinct chaotically drawn cells."""
    return Layout(_chaotic_cells(stream, m, n), m)


def initialize_population(params: GAParams, m: int, n: int, stream: ChaosStream) -> list:
    """Generate the initial population of fixed-cardinality layouts."""
    return [chaotic_layout(stream, m, n) for _ in range(params.population)]


def relocate(layout: Layout, power, stream: ChaosStream) -> Layout:
    """Move the least productive turbine to a chaotically drawn free cell.

    ``power`` is the expected power per turbine, ordered like
    ``layout.occupied``; ties resolve to the lowest index. The new cell
    excludes the entire current occupancy, so the move is a real relocation;
    a full farm (n == m) has no free cell and raises before any draw.
    """
    return Layout(_relocated(layout.occupied, layout.m, power, stream), layout.m)


def mutate_twice(layout: Layout, stream: ChaosStream) -> Layout:
    """Toggle one occupied bit off and one free bit on (cardinality kept).

    The added cell is free: it excludes the full original occupancy, so the
    result always differs from the input in exactly two bits.
    """
    return Layout(_mutated(layout.occupied, layout.m, stream), layout.m)


def run_aga(params: GAParams, grid, scenario, spec, n_turbines: int):
    """Run the adapted search loop; returns (best layout, trace).

    Per generation: evaluate and rank, copy the elites, breed relocation
    descendants from them, inject fresh chaotic aliens, and fill the rest of
    the population with two-bit mutants; stop at the generation budget or
    when the best efficiency reaches the target. Relocations and mutants move
    a turbine only to a free cell; on a full farm they copy their parent.
    """
    m = len(grid.points)
    movable = n_turbines < m
    stream = ChaosStream(params.chaos_seed)
    # drawn first, so an overfull layout fails before any table is built
    population = [_chaotic_cells(stream, m, n_turbines) for _ in range(params.population)]
    evaluator = FarmEvaluator(grid.points, scenario, spec)
    cache: dict = {}  # occupied -> (efficiency, expected power per turbine)

    trace = []
    generation = 0
    while True:
        fresh = list(dict.fromkeys(cells for cells in population if cells not in cache))
        if fresh:
            etas, powers = evaluator.evaluate_batch(fresh)
            cache.update(zip(fresh, zip(etas.tolist(), powers)))
        effs = np.array([cache[cells][0] for cells in population])
        order = np.argsort(-effs, kind="stable")
        best = population[order[0]]
        best_eta = float(effs[order[0]])
        best_power = float(cache[best][1].sum())
        trace.append(
            GenerationTrace(generation, best_eta, float(effs.mean()), Layout(best, m), best_power)
        )

        target = params.target_efficiency
        if target is not None and best_eta >= target - 1e-12:
            break
        if generation >= params.max_generations:
            break

        elites = [population[i] for i in order[: params.elites]]
        nxt = list(elites)
        for i in range(params.relocations):
            parent = elites[i % len(elites)]
            nxt.append(_relocated(parent, m, cache[parent][1], stream) if movable else parent)
        for _ in range(params.aliens):
            nxt.append(_chaotic_cells(stream, m, n_turbines))
        for _ in range(params.population - len(nxt)):
            parent = elites[stream.index(len(elites))]
            nxt.append(_mutated(parent, m, stream) if movable else parent)
        population = nxt
        generation += 1

    return trace[-1].best_layout, trace


def run_conventional_ga(params: GAParams, grid, scenario, spec, n_turbines: int):
    """Ablated baseline: the same loop with its relocation slots given to
    aliens, so fresh chaotic individuals take the place of relocation descendants."""
    return run_aga(replace(params, relocations=0, aliens=params.aliens + params.relocations),
                   grid, scenario, spec, n_turbines)
