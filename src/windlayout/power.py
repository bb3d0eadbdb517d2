"""Turbine power curve, expected farm output over a wind distribution, farm
efficiency, and the fixed-count cost curve."""

import math
from dataclasses import dataclass

import numpy as np

from .wake import TurbineSpec, _check_distinct, squared_deficits


def power_values(spec: TurbineSpec, speeds) -> np.ndarray:
    """Vectorised power output in kW for a wind speed or an array of them, on
    the spec's piecewise curve: zero below cut-in, rated plateau above rated
    speed, zero at/after cut-out, quartic fit in between (clamped to
    [0, rated_power] since the fit slightly overshoots the plateau near
    rated). Every speed must be finite and >= 0."""
    u = np.asarray(speeds, dtype=float)
    valid = np.isfinite(u) & (u >= 0.0)
    if not valid.all():
        raise ValueError(f"wind speed must be finite and >= 0, got {float(u[~valid][0])!r}")
    p = np.clip(np.polyval(spec.power_poly, u), 0.0, spec.rated_power)
    p = np.where(u < spec.cut_in, 0.0, p)
    p = np.where(u >= spec.rated_speed, spec.rated_power, p)
    return np.where(u >= spec.cut_out, 0.0, p)


def cost_curve(n_turbines: int) -> float:
    """Dimensionless installation cost for n turbines,
    n * (2/3 + 1/3 * exp(-0.00174 n**2)); approaches 2n/3 for large farms."""
    if n_turbines < 1:
        raise ValueError("n_turbines must be >= 1")
    n = float(n_turbines)
    return n * (2.0 / 3.0 + math.exp(-0.00174 * n * n) / 3.0)


@dataclass
class EvaluationResult:
    """Farm-level evaluation under a wind scenario.

    per_turbine_speed and per_turbine_power are expectations over the wind
    distribution (for a single-bin scenario they are just that bin's values).
    """

    per_turbine_speed: np.ndarray  # m/s
    per_turbine_power: np.ndarray  # kW
    total_power: float  # kW
    efficiency: float


# Upper bound on the elements of one gather. A batch is scored in row chunks
# of T * n * max(n, 10) elements a row, which covers the (T, P, n, n) deficit
# and, at small n, the (T, P, n, 5) coefficient gathers; a row whose deficit
# gather alone exceeds it runs in blocks of waked turbines.
_GATHER_ELEMENTS = 1 << 22
# The same bound for the (T, K, bins) arrays that classify the table's pieces.
_TABLE_ELEMENTS = 1 << 20
# Upper bound on the entries of the (T, Ndx * Ndy) offset table. A lattice
# stays far below it (12 directions on a 60-cell grid: 175,692 entries), but
# scattered points have up to M**2 - M + 1 distinct offsets per axis, so a
# few hundred of them would otherwise ask for terabytes.
_OFFSET_ENTRIES = 1 << 26


def _piece_starts(speeds, weights, spec: TurbineSpec) -> np.ndarray:
    """(T, K) ascending speed ratios where some bin of a direction changes
    regime on the power curve, with 0 and 1, padded with 2.0."""
    T = len(speeds)
    live = (weights > 0.0) & (speeds > 0.0)
    v = np.where(live, speeds, 1.0)[:, :, None]
    cuts = np.array([spec.cut_in, spec.rated_speed, spec.cut_out])
    poly = np.asarray(spec.power_poly, dtype=float)
    clamp = np.array([0.0, 0.0, 0.0, 0.0, spec.rated_power])
    roots = np.concatenate([np.roots(poly), np.roots(poly - clamp)])
    roots = roots.real[np.isclose(roots.imag, 0.0)]
    roots = roots[(roots > spec.cut_in) & (roots < spec.rated_speed)]

    # c / v lies within a few ulps of the smallest x with v * x >= c in
    # floating point, the ratio where the pointwise curve changes regime.
    # Speeds far below a cut overflow c / v; those starts fall outside (0, 1)
    # and drop out below.
    with np.errstate(over="ignore"):
        x = cuts / v  # (T, V, 3)
        root_x = np.where(live[:, :, None], roots / v, 2.0)  # (T, V, R)
        adjust = live[:, :, None] & (x > 0.0) & (x < 2.0)
        while True:
            down = np.nextafter(x, -np.inf)
            step_down = adjust & (v * down >= cuts)
            step_up = adjust & ~(v * x >= cuts)
            if not (step_down.any() or step_up.any()):
                break
            x = np.where(step_down, down, np.where(step_up, np.nextafter(x, np.inf), x))

    cand = np.concatenate([np.where(adjust, x, 2.0).reshape(T, -1), root_x.reshape(T, -1)], axis=1)
    cand = np.where((cand > 0.0) & (cand < 1.0), cand, 2.0)
    cand = np.sort(np.concatenate([np.zeros((T, 1)), np.ones((T, 1)), cand], axis=1), axis=1)
    repeat = np.zeros(cand.shape, dtype=bool)
    repeat[:, 1:] = cand[:, 1:] == cand[:, :-1]
    cand = np.sort(np.where(repeat, 2.0, cand), axis=1)
    return cand[:, : int((cand < 2.0).sum(axis=1).max())]


def _expected_power_table(speeds, weights, spec: TurbineSpec):
    """Exact expected power of one turbine per wind direction, as a piecewise
    quartic in its speed ratio x = u / v = 1 - d (d: combined deficit).

    For direction t, g_t(x) = sum_v w_tv * p(v * x), with p the pointwise
    curve of ``power_values``. The pieces start where v * x crosses cut-in,
    rated speed or cut-out, or a real root of poly = 0 or poly = p_max inside
    (cut_in, rated_speed). Each cut start is the smallest float x with
    v * x >= cut in floating point, so the table switches regime exactly where
    the pointwise curve applied to v * (1 - d) does; x = 1 (d = 0) is a piece
    of its own, so a speed exactly at a cut scores as it does pointwise.

    speeds, weights: (T, V) arrays, ragged directions padded with zero-weight
    bins. Returns ``starts`` (T, K), ascending piece starts padded with 2.0,
    and ``coef`` (T, K, 5), the quartic in x per piece, highest power first.
    """
    poly = np.asarray(spec.power_poly, dtype=float)
    p_max = spec.rated_power
    starts = _piece_starts(speeds, weights, spec)

    # classify each (piece, bin) with power_values' comparisons: the cuts at
    # the piece start, which belongs to the piece, the clamp at its midpoint.
    # Bins go in chunks, so fine speed binnings keep the (T, K, bins) work
    # arrays bounded.
    ends = np.minimum(np.concatenate([starts[:, 1:], np.full((len(starts), 1), 2.0)], axis=1), 1.0)
    mids = ((starts + ends) / 2.0)[:, :, None]
    real = (starts <= 1.0)[:, :, None]
    terms = weights[:, :, None] * poly * speeds[:, :, None] ** np.arange(4, -1, -1)
    coef = np.zeros(starts.shape + (5,))
    step = max(1, _TABLE_ELEMENTS // starts.size)
    for lo in range(0, speeds.shape[1], step):
        v = speeds[:, None, lo : lo + step]
        u = v * starts[:, :, None]  # (T, K, bins)
        raw = np.polyval(poly, v * mids)
        below = u < spec.cut_in
        rated = u >= spec.rated_speed
        out = u >= spec.cut_out
        quartic = (raw >= 0.0) & (raw <= p_max) & ~below & ~rated & ~out & real
        plateau = (((raw > p_max) & ~below) | rated) & ~out & real
        coef += np.einsum("tkv,tvi->tki", quartic.astype(float), terms[:, lo : lo + step])
        coef[:, :, 4] += p_max * np.einsum(
            "tkv,tv->tk", plateau.astype(float), weights[:, lo : lo + step]
        )
    return starts, coef


def _offset_ids(coords):
    """Offsets along one axis: per point the id of its coordinate among the
    distinct coordinates, the ascending distinct offsets between coordinates,
    and the (N, N) map from a pair of coordinate ids (a, b) to the id of the
    offset coordinate[b] - coordinate[a]."""
    values, ids = np.unique(coords, return_inverse=True)
    offsets, pair = np.unique(values[None, :] - values[:, None], return_inverse=True)
    return ids, offsets, pair.reshape(len(values), len(values))


class FarmEvaluator:
    """Scores layouts over a fixed candidate-point set.

    Set-up builds, once per evaluator:

    - a (T, Ndx * Ndy) table of squared deficits keyed on the pair offset
      p_j - p_i, one row per wind direction (see ``squared_deficits``): the
      deficit depends only on the offset and the direction, not on wind
      speed, so one row serves every speed bin of its direction. Ndx and Ndy
      count the distinct offsets along each axis, 2c + 1 on a lattice of c
      cells with an integer edge, so the table does not grow with M**2;
    - per direction, the exact expected power of one turbine as a piecewise
      quartic in its speed ratio x = 1 - d (see ``_expected_power_table``),
      so the speed bins collapse into one lookup and a Horner pass. The
      (T, K, 5) coefficients are kept as a flat (T * K, 5) array;
    - for that lookup, the sorted union of every direction's piece starts
      and a (T, |union| + 1) rank table: entry [t, j] is the flat row of
      direction t's piece that holds every ratio falling in the union's span
      j. Each direction's starts are a subset of the union, so one
      ``searchsorted`` into the union finds each ratio's piece exactly.

    ``evaluate_batch`` scores a (P, n) block of index rows: each pair's
    offset key from two small per-axis maps, one (T, P, n, n) gather from the
    table, the root-sum-square deficit, one ``searchsorted`` of all (T, P, n)
    ratios into the union, two ``np.take`` calls (rank, then coefficients)
    and Horner evaluation; ``evaluate`` is a batch of one that also reports
    the expected speeds. Ragged scenarios (a different number of speed bins
    per direction) are padded with zero-weight bins. The wake-free power
    ``unit_power`` comes from the same table, so a wake-free turbine scores
    exactly ``unit_power``.
    """

    def __init__(self, points, scenario, spec: TurbineSpec):
        self.points = np.asarray(points, dtype=float)
        self.scenario = scenario
        _check_distinct(self.points)

        by_theta: dict = {}
        for theta, v, w in scenario.bins:
            by_theta.setdefault(theta, []).append((v, w))
        T, V = len(by_theta), max(len(pairs) for pairs in by_theta.values())

        # table column of pair (i, j): x_key[ix_i, ix_j] + y_pair[iy_i, iy_j]
        self._ix, dx, x_pair = _offset_ids(self.points[:, 0])
        self._iy, dy, y_pair = _offset_ids(self.points[:, 1])
        entries = T * len(dx) * len(dy)
        if entries > _OFFSET_ENTRIES:
            raise ValueError(
                f"offset table of {entries} entries exceeds {_OFFSET_ENTRIES}: "
                "too many distinct coordinate offsets among the points"
            )
        self._x_key, self._y_pair = x_pair * len(dy), y_pair
        self._table = np.stack([
            squared_deficits(dx[:, None], dy[None, :], theta, spec).ravel()
            for theta in by_theta
        ])

        speeds = np.zeros((T, V))
        weights = np.zeros((T, V))
        for t, pairs in enumerate(by_theta.values()):
            speeds[t, : len(pairs)], weights[t, : len(pairs)] = zip(*pairs)
        self._mean_speed = (weights * speeds).sum(axis=1)
        self._starts, coef = _expected_power_table(speeds, weights, spec)
        K = self._starts.shape[1]
        self._coef = coef.reshape(T * K, 5)
        # rank[t, j]: the row in _coef of direction t's piece that holds every
        # ratio r with searchsorted(union, r, "right") == j. No start of t
        # falls strictly inside such a span, so the piece is the one holding
        # the span's lower end. Column 0 (r below every start) takes piece -1,
        # the last, as numpy indexing with a per-direction search would.
        self._union = np.unique(self._starts)
        edges = np.concatenate([[-np.inf], self._union])
        rank = np.stack([np.searchsorted(s, edges, side="right") - 1 for s in self._starts]) % K
        self._rank = rank + K * np.arange(T)[:, None]
        self._rank_offset = len(edges) * np.arange(T)[:, None, None]

        # wake-free expected power of one turbine, the per-turbine efficiency
        # denominator
        self.unit_power = float(self._expected_power(np.ones((T, 1, 1)))[0, 0])

    def _rows(self, rows) -> np.ndarray:
        """The checked (P, n) block: distinct integer indices in [0, M) per row."""
        rows = np.asarray(rows)
        if rows.ndim != 2 or rows.size == 0 or not np.issubdtype(rows.dtype, np.integer):
            raise ValueError("rows must be a non-empty (P, n) block of integer indices")
        ordered = np.sort(rows, axis=1)
        if np.any(ordered[:, 1:] == ordered[:, :-1]):
            raise ValueError("indices must be distinct within each row")
        if self.unit_power <= 0.0:
            raise ValueError("denominator degenerate: scenario has no expected wake-free power")
        M = len(self.points)
        if rows.min() < 0 or rows.max() >= M:
            raise ValueError(f"indices must lie in [0, {M})")
        return rows

    def _expected_power(self, ratio) -> np.ndarray:
        """(P, n) expected power, kW, from (T, P, n) speed ratios 1 - d."""
        span = np.searchsorted(self._union, ratio, side="right")
        span += self._rank_offset
        c = np.take(self._coef, np.take(self._rank, span), axis=0)  # (T, P, n, 5)
        g = c[..., 0]
        for k in range(1, 5):
            g = g * ratio + c[..., k]
        # summed in ascending order along the directions: the sum is then the
        # same for any batch shape and any permutation of the directions, so
        # mirror-image turbines tie exactly
        return sum(np.sort(g, axis=0))

    def _pair_keys(self, rows, waked=slice(None)) -> np.ndarray:
        """(P, a, n) table columns of the pairs of index rows: entry [p, a, b]
        keys the offset from turbine rows[p, waked][a] to turbine rows[p, b]."""
        ix, iy = self._ix[rows], self._iy[rows]
        # flat indices into the C-ordered (N, N) maps, which np.take reads flat
        return (np.take(self._x_key, ix[:, waked, None] * len(self._x_key) + ix[:, None, :])
                + np.take(self._y_pair, iy[:, waked, None] * len(self._y_pair) + iy[:, None, :]))

    def _score(self, rows):
        """Speed ratios (T, P, n) and expected power (P, n) of checked rows.

        The (T, P, n, n) deficit gather runs in blocks of waked turbines when
        it exceeds ``_GATHER_ELEMENTS``; each turbine's sum reads the same
        deficits in the same order either way, so no bit moves."""
        T, (P, n) = len(self._table), rows.shape
        waked = max(1, _GATHER_ELEMENTS // (T * P * n))
        blocks = []
        for a in range(0, n, waked):
            sub = np.take(self._table, self._pair_keys(rows, slice(a, a + waked)), axis=1)
            blocks.append(1.0 - np.minimum(np.sqrt(sub.sum(axis=3)), 1.0))
            del sub  # freed before the next block's gather is taken
        ratio = np.concatenate(blocks, axis=2)
        return ratio, self._expected_power(ratio)

    def evaluate_batch(self, rows):
        """Score a (P, n) block of index rows at once.

        Returns the efficiencies, shape (P,), and the expected power per
        turbine, kW, shape (P, n), ordered like each row.
        """
        rows = self._rows(rows)
        n = rows.shape[1]
        step = max(1, _GATHER_ELEMENTS // (len(self._table) * n * max(n, 10)))
        power = np.concatenate(
            [self._score(rows[lo : lo + step])[1] for lo in range(0, len(rows), step)]
        )
        return power.sum(axis=1) / (n * self.unit_power), power

    def evaluate(self, indices=None) -> EvaluationResult:
        """Full farm evaluation for the given candidate indices."""
        rows = self._rows([np.arange(len(self.points)) if indices is None else indices])
        ratio, power = self._score(rows)
        speed = self._mean_speed @ ratio[:, 0, :]
        total = float(power[0].sum())
        return EvaluationResult(speed, power[0], total, total / (rows.shape[1] * self.unit_power))
