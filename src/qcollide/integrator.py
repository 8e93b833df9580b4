"""Fixed-step 4th-order integration of d rho/dt = G(rho).

Deterministic classical RK4, no adaptivity.  A GKSL generator maps Hermitian
matrices to Hermitian matrices, so the state lives in the real Hermitian
coordinates of `trajectory` (`_real_coordinates`, `_hermitian`): X = A + iB
is stored as the real matrix S = A + B.  Each generator segment converts
its generator once, at its start, into the real D^2 x D^2 map R of
S -> s(Herm(G X(S))): a form's from its nonzero entries (`_real_entries`),
never dense unless R stays whole, a matrix's from the matrix.  For a linear
generator one RK4 step of size h is exactly s <- T4(hR) s, with T4 the
degree-4 Taylor polynomial, built once per generator segment in two matrix
products (Paterson-Stockmeyer).  The conversion holds for any
Hermiticity-preserving linear map, and the loop (`_propagate`) is the one
`collision.simulate` runs too.

A fixed map is advanced by its invariant sectors (`_sectors`): the connected
components of its entry graph, which a weak symmetry of the generator makes
many (coherence order n_row - n_col for beam-splitter couplings, parity for
sigma_x chains).  R is split before T4 is built, so T4 and its powers exist
only per block, and a map that does not split is one block in the natural
coordinate order.  Each block runs one matvec per step, or, when the segment
runs at least as many steps as the block's side, one matrix product per
SAMPLE_BATCH steps with the block's power.  Recorded steps are rows of the
computed ones, so the record stride never changes a sample.

Recorded samples stay real coordinate rows, 8 D^2 bytes each, and go
through the one recording path (`trajectory.SampleRecorder`), which checks
them batch by batch: a fixed map's segment hands over the recorded rows of
each window in one call, a per-step function's segment one row per
recorded step, and `reduced_trajectory` the partial trace of each batch.
Samples are never re-symmetrized; trace and positivity are checked on
every recorded sample but never enforced, so a broken generator shows up
instead of being masked.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .channels import DensityMatrix, trace_distance  # trace_distance: re-exported
from .ops import Operator, SandwichForm, Superoperator, sorted_unique, trace_out
from .trajectory import (
    SAMPLE_BATCH,
    SampleRecorder,
    Trajectory,
    _hermitian,
    _real_coordinates,
    observable_arrays,
)

GeneratorLike = Superoperator | Sequence[tuple[float, Superoperator]]

# a segment start t is on the step grid when t / dt is an integer within this
# relative tolerance
GRID_RTOL = 1e-9

# A fixed map's sectors are the connected components of the graph of its
# entries above SECTOR_CUT * max|M|.  The split is kept only when it is
# stable: the components at SECTOR_FLOOR * max|M| are the same, so no entry
# between two sectors exceeds that floor and every dropped entry is
# rounding residue.  And only when it pays over the n steps the map runs:
# in units of one entry of one matvec, a block of side b costs
# n (b^2 + SECTOR_STEP_COST) + SECTOR_BLOCK_COST, SECTOR_STEP_COST for
# its calls in each step and SECTOR_BLOCK_COST once (its share of the
# detection, its first window and its squarings), the whole map is one
# such block, and the blocks together must cost less.
SECTOR_CUT = 1e-13
SECTOR_FLOOR = 1e-16
SECTOR_STEP_COST = 2**10
SECTOR_BLOCK_COST = 2**20


class SectorMap(NamedTuple):
    """A fixed real map as independent blocks: in the coordinate order
    `order` (None: the natural order), block k maps the next
    len(blocks[k]) coordinates after those of the blocks before it."""

    order: np.ndarray | None
    blocks: list[np.ndarray]


class Entries(NamedTuple):
    """A square real map of side `side` by its entries `values` at the
    ascending flat keys `keys` (row * side + column), +0 elsewhere."""

    side: int
    keys: np.ndarray
    values: np.ndarray


def _components(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Component labels of the undirected graph on n vertices with the edges
    (rows[i], cols[i]), numbered in the order of their smallest vertex.
    Every vertex points to a root, at first itself; each round hooks the
    root of each edge's either end to the other's when that is smaller and
    jumps every pointer to its root, until a round changes nothing: then
    each component's pointers all name its smallest vertex."""
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    labels = np.arange(n)
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, labels[rows], labels[cols])
        while not np.array_equal(hooked, jumped := hooked[hooked]):
            hooked = jumped
        if np.array_equal(hooked, labels):
            return (np.cumsum(labels == np.arange(n)) - 1)[labels]
        labels = hooked


def _sectors(m: np.ndarray | Entries, n: int) -> list[np.ndarray]:
    """The invariant sectors of a square real map that runs n steps, given
    whole or by its Entries, as ascending index arrays in the order of their
    smallest index: the components at SECTOR_CUT, or the one sector of all
    indices when the map has a non-finite entry or the split is not stable
    or does not pay (the rule above).  k blocks save at most (1 - 1/k) of
    the entries, so a map whose run cannot repay a second block that saves
    half of them is not searched."""
    side = m.side if isinstance(m, Entries) else len(m)
    whole = [np.arange(side)]
    if not n * (side**2 / 2 - SECTOR_STEP_COST) > SECTOR_BLOCK_COST:
        return whole
    keys, values = (m.keys, m.values) if isinstance(m, Entries) else (np.flatnonzero(m), m[m != 0])
    a = np.abs(values)
    top = a.max(initial=0.0)
    if not np.isfinite(top):
        return whole
    rows, cols = np.divmod(keys, side)
    cut = a > SECTOR_CUT * top
    labels = _components(side, rows[cut], cols[cut])
    sizes = np.bincount(labels)
    extra = len(sizes) - 1
    if not n * (side**2 - np.sum(sizes**2) - extra * SECTOR_STEP_COST) > extra * SECTOR_BLOCK_COST:
        return whole
    floor = a > SECTOR_FLOOR * top
    if not np.array_equal(labels, _components(side, rows[floor], cols[floor])):
        return whole
    return np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])


def _split(
    m: np.ndarray | Entries, n: int, build: Callable[[np.ndarray], np.ndarray] = np.asarray
) -> SectorMap | np.ndarray:
    """m, which runs n steps, as a SectorMap of its sectors (`_sectors`),
    each block passed through `build`; a map of one sector stays whole,
    build(m) itself.  A map given by its Entries is filled into one flat
    buffer of its blocks, in the sectors' order, from its entries within
    them: it is made dense only when it stays whole."""
    sectors = _sectors(m, n)
    if isinstance(m, Entries):
        sizes = np.array([len(idx) for idx in sectors])
        starts, offsets = np.cumsum(sizes) - sizes, np.cumsum(sizes**2) - sizes**2
        at = np.argsort(np.concatenate(sectors))  # each coordinate's place in the sectors' order
        block = np.repeat(np.arange(len(sizes)), sizes)[at]
        rows, cols = np.divmod(m.keys, m.side)
        inside = block[rows] == block[cols]
        rows, cols, k = at[rows[inside]], at[cols[inside]], block[rows[inside]]
        flat = np.zeros(int(np.sum(sizes**2)))
        flat[offsets[k] + (rows - starts[k]) * sizes[k] + cols - starts[k]] = m.values[inside]
        blocks = (flat[o : o + b * b].reshape(b, b) for o, b in zip(offsets.tolist(), sizes.tolist()))
    else:
        blocks = [m] if len(sectors) == 1 else (m[np.ix_(idx, idx)] for idx in sectors)
    blocks = [build(b) for b in blocks]
    return blocks[0] if len(blocks) == 1 else SectorMap(np.concatenate(sectors), blocks)


def _segments(generator: GeneratorLike, dt: float):
    """Return (segment start times, superoperators, description).  Schedules
    are piecewise constant, keyed by segment start times, which must be
    finite and lie on the step grid so that no step straddles a segment
    boundary."""
    if isinstance(generator, Superoperator):
        return [0.0], [generator], {"kind": "static"}
    segments = [(float(t), g) for t, g in generator]
    for i, (t, _) in enumerate(segments):
        if not math.isfinite(t):
            raise ValueError(f"schedule segment {i} starts at t = {t!r}, not a finite time")
    segments.sort(key=lambda p: p[0])
    if not segments:
        raise ValueError("empty generator schedule")
    if segments[0][0] > 0.0:
        raise ValueError("generator schedule must start at t = 0")
    for i, (t, _) in enumerate(segments):
        steps = t / dt
        if abs(steps - round(steps)) > GRID_RTOL * max(abs(steps), 1.0):
            raise ValueError(
                f"schedule segment {i} starts at t = {t!r}, off the step grid of dt = {dt!r}"
            )
    desc = {"kind": "schedule", "segments": len(segments)}
    return [t for t, _ in segments], [g for _, g in segments], desc


def _real_map(g: np.ndarray) -> np.ndarray:
    """R = (Re G + T Re G T + Im G T - T Im G) / 2, a Hermiticity-preserving
    linear map G (on column-stacked vectors) in real Hermitian coordinates;
    T is the transpose permutation of vec, which swaps the row and column
    index on each side.  G is a (D^2, D^2) matrix or, to spare a copy, any
    view of its (D, D, D, D) tensor."""
    t = g.reshape((math.isqrt(g.shape[0]),) * 4) if g.ndim == 2 else g
    re, im = t.real, t.imag
    r = np.add(re, re.transpose(1, 0, 3, 2), out=np.empty(t.shape))
    r += im.transpose(0, 1, 3, 2)
    r -= im.transpose(1, 0, 2, 3)
    r *= 0.5
    side2 = math.isqrt(r.size)
    return r.reshape(side2, side2)


def _real_entries(form: SandwichForm) -> Entries:
    """`_real_map` of the form's matrix G, bit for bit, as the Entries of R
    from the form's (`SandwichForm.entries`), +0 where G has none: each of
    _real_map's index swaps is its own inverse, so R's keys are G's swapped
    each way, and each swapped copy carries G's values to them."""
    side = math.prod(form.dims)
    keys, g = form.entries()
    rows, cols = np.divmod(keys, side * side)
    swap_rows, swap_cols = (x % side * side + x // side for x in (rows, cols))
    copies = (rows, cols), (swap_rows, swap_cols), (rows, swap_cols), (swap_rows, cols)
    flat, inverse = sorted_unique(np.concatenate([r * side * side + c for r, c in copies]))
    terms = np.zeros((4, len(flat)))
    terms[np.arange(4)[:, None], inverse.reshape(4, -1)] = g.real, g.real, g.imag, g.imag
    r = ((terms[0] + terms[1]) + terms[2] - terms[3]) * 0.5
    return Entries(side * side, flat, r)


def _rk4_propagator(r: np.ndarray, h: float) -> np.ndarray:
    """T4(hR) = (I + A + A^2/2) + A^2 (A/6 + A^2/24) with A = hR, by
    Paterson-Stockmeyer: two matrix products.  Overwrites r."""
    a = np.multiply(r, h, out=r)
    a2 = a @ a
    tail = a2 * 0.25
    tail += a
    tail *= 1.0 / 6.0
    t4 = a2 @ tail
    a2 *= 0.5
    t4 += a2
    t4 += a
    t4.flat[:: t4.shape[0] + 1] += 1.0
    return t4


def _power(m: np.ndarray) -> np.ndarray:
    """m^SAMPLE_BATCH by log2(SAMPLE_BATCH) squarings."""
    q = m @ m
    scratch = np.empty_like(q)
    for _ in range(SAMPLE_BATCH.bit_length() - 2):
        np.matmul(q, q, out=scratch)
        q, scratch = scratch, q
    return q


def _propagate(
    rho0: DensityMatrix,
    dt: float,
    record_stride: int,
    segments: Iterable[tuple[int, SectorMap | np.ndarray | Callable[[int, np.ndarray], np.ndarray]]],
) -> SampleRecorder:
    """The one propagation loop of `integrate` and `collision.simulate`.

    From rho0, in real Hermitian coordinates, each `(n, advance)` of
    `segments` advances the state by n steps: `advance` is a fixed real map,
    given as a SectorMap or as one matrix M (the one-block SectorMap of M in
    the natural order), or `advance(k, rho)`, which maps the complex state
    before step k to the one after it.  The recorder takes the numbers k of
    step 0, every `record_stride`-th step and the last step, taken at k dt.

    A fixed map's segment runs in the map's coordinate order, permuted once
    at its start and back at its end, and a window of SAMPLE_BATCH states at
    a time.  The segment's first state and the next SAMPLE_BATCH - 1 steps,
    one matvec per block and step, fill the first window.  Each block then
    advances on its own: one matvec per step, unless the segment has at
    least as many steps as the block's side, n >= b.  Then
    Q = B^SAMPLE_BATCH, built by squaring, replaces the block B, and the
    block's columns of each further window of SAMPLE_BATCH steps are one
    product, window @ Q^T.  The squarings cost about log2(SAMPLE_BATCH) b
    matvecs, which shorter segments would not repay.  Recorded steps are
    rows of the computed ones, gathered back into the natural order, so the
    stride never changes a sample; a map passed whole is one block in the
    natural order, which nothing permutes or gathers.
    """
    recorder = SampleRecorder(rho0.dims, dt)

    def record(rows: np.ndarray, first: int, back: np.ndarray | None) -> None:
        # rows[i] holds the coordinates after step first + i, in the natural
        # order taken by `back`; the recorded ones go over in one call
        start = -first % record_stride
        recorder.record(range(first + start, first + len(rows), record_stride), rows[start::record_stride], back)

    s = _real_coordinates(rho0.entries)
    recorder.record([0], s[None])
    k = 0
    for n, advance in segments:
        if callable(advance):
            for k in range(k + 1, k + n + 1):
                s = _real_coordinates(advance(k, _hermitian(s, rho0.side)[0]))
                if k % record_stride == 0:
                    recorder.record([k], s[None])
            continue
        order, blocks = advance if isinstance(advance, SectorMap) else SectorMap(None, [advance])
        del advance  # only the blocks, or their powers, are needed from here
        back = None if order is None else np.argsort(order)
        bounds = np.cumsum([0] + [len(b) for b in blocks]).tolist()
        spans = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        window = np.empty((SAMPLE_BATCH, s.size))
        window[0] = s if order is None else s[order]
        head = min(n, SAMPLE_BATCH - 1)
        for cols, m in zip(spans, blocks):
            for j in range(1, head + 1):
                np.matmul(m, window[j - 1, cols], out=window[j, cols])
        record(window[1 : head + 1], k + 1, back)
        powered = [n >= len(m) for m in blocks]
        last, k, n = head, k + head, n - head
        if n > 0:
            blocks = [_power(m) if p else m for m, p in zip(blocks, powered)]
            scratch = np.empty_like(window)
        while n > 0:
            rows = min(n, SAMPLE_BATCH)
            for cols, m, power in zip(spans, blocks, powered):
                if power:
                    np.matmul(window[:rows, cols], m.T, out=scratch[:rows, cols])
                    continue
                np.matmul(m, window[-1, cols], out=scratch[0, cols])
                for j in range(1, rows):
                    np.matmul(m, scratch[j - 1, cols], out=scratch[j, cols])
            window, scratch = scratch, window
            record(window[:rows], k + 1, back)
            last, k, n = rows - 1, k + rows, n - rows
        s = window[last] if back is None else window[last, back]
    if k % record_stride:
        recorder.record([k], s[None])
    return recorder


def integrate(
    generator: GeneratorLike,
    rho0: DensityMatrix,
    t_end: float,
    dt: float,
    observables: Sequence[Operator] = (),
    record_stride: int = 1,
    observable_names: Sequence[str] | None = None,
) -> Trajectory:
    """Integrate rho over [0, t_end] with fixed step dt (final time within dt
    of t_end).  Each generator is read when its segment starts.  A
    non-finite dt or t_end, a generator or schedule segment of another side
    than rho0, and a schedule segment that starts at a non-finite time or
    off the step grid are ValueErrors, raised before the first step.
    Aborts with a RuntimeError naming the first recorded sample that fails
    the state check (trace or positivity off by more than 1e-8), at most one
    batch of samples after it: that signals a broken generator, not an
    integration problem.
    """
    if not (math.isfinite(dt) and math.isfinite(t_end) and 0 < dt <= t_end):
        raise ValueError(f"need 0 < dt <= t_end, both finite; got dt = {dt!r}, t_end = {t_end!r}")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    starts, gens, desc = _segments(generator, dt)
    for i, g in enumerate(gens):
        if g.side != rho0.side:
            what = "the generator" if desc["kind"] == "static" else f"schedule segment {i}"
            raise ValueError(f"{what} acts on side {g.side}, rho0 on side {rho0.side}")
    obs, names = observable_arrays(observables, rho0.side, observable_names)
    n_steps = max(int(round(t_end / dt)), 1)

    def segments():
        # a segment runs the steps after its start up to the next start:
        # starts lie on the step grid, so no step straddles a boundary, and
        # a segment that runs no step builds no propagator.  Its generator is
        # read here, at its start, into R (a form's by its entries), split at
        # once and not kept, so T4 is built per block and never whole
        def real(gen):
            return _real_entries(gen.stored) if isinstance(gen.stored, SandwichForm) else _real_map(gen.matrix)

        done = 0
        for gen, end in zip(gens, [round(t / dt) for t in starts[1:]] + [n_steps]):
            end = min(end, n_steps)
            if end > done:
                yield end - done, _split(real(gen), end - done, lambda block: _rk4_propagator(block, dt))
                done = end

    recorder = _propagate(rho0, dt, record_stride, segments())
    metadata = {"engine": "me-rk4", "dt": dt, "t_end": n_steps * dt, "generator": desc}
    return recorder.trajectory(obs, names, metadata)


def reduced_trajectory(traj: Trajectory, keep: Sequence[int]) -> Trajectory:
    """Partial trace applied samplewise; `keep` lists 1-based carrier indices.
    Each batch of real coordinate rows is traced in one call and recorded
    through a SampleRecorder: the partial trace is linear and commutes with
    transposition, so it takes the real coordinates of a state to those of
    its reduced state."""
    keep0 = [int(m) - 1 for m in keep]
    side = math.prod(traj.dims)
    recorder = None
    for start, batch in zip(traj.samples.starts, traj.samples.batches):
        # a row read in C order is S^T, and tr_E(S^T) = tr_E(S)^T
        dims, reduced = trace_out(batch.reshape(-1, side, side), traj.dims, keep0)
        recorder = recorder or SampleRecorder(dims, traj.metadata["dt"])
        recorder.record(traj.steps[start : start + len(batch)], reduced.reshape(len(batch), -1))
    return recorder.trajectory([], [], {**traj.metadata, "reduced_to": list(keep)})
