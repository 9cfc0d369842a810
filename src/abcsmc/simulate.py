"""Simulation backends behind one "simulate at these time points" contract.

Two engines: fixed-step classical RK4 for ODEs and delay systems, and the
exact stochastic simulation algorithm for reaction networks.  An ODE is the
zero-lag case of a delay system: both march one uniform grid that lands on
every record time, and a delay system also stores each node's state and
derivative so that lagged states are cubic Hermite interpolants of completed
nodes (Bellen & Zennaro, Numerical Methods for Delay Differential
Equations, 2003).  The deterministic engines advance a (B, k) batch of
parameter vectors from a (B, m) batch of initial states at once on shared
numpy arrays; a single run is a batch of one row.

Each system class names its engine in a class-level `kind`, and no system
stores its state size: the engines read it from the initial state.

Right-hand sides are written broadcast-friendly: state has shape (..., m),
theta (..., k), and the returned derivative (..., m).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np


class SimulationFailure(RuntimeError):
    """Simulation could not produce a finite trajectory (blowup, underflow,
    runaway event count).  Samplers treat this as distance = infinity."""


@dataclass(frozen=True)
class OdeSystem:
    rhs: Callable  # f(t, state, theta) -> dstate/dt, broadcasting over leading axes
    kind = "ode"


@dataclass(frozen=True)
class DdeSystem:
    """Delay system: rhs(t, state, lagged, theta) with `lagged` a tuple of
    state arrays, one per lag, evaluated at t - lag.

    Lag entries are either fixed floats or integer indices into theta.
    Before t0 the state is held at its initial value (constant history).
    A row with a negative resolved lag is an invalid (anti-causal) model
    instance and fails.  Lags below the solver's lag floor count as zero:
    that term uses the current state, i.e. plain ODE semantics.
    """

    lags: tuple[Union[float, int], ...]
    rhs: Callable
    kind = "dde"


@dataclass(frozen=True)
class ReactionNetwork:
    """Reaction network in stoichiometry-plus-propensity form (Gillespie,
    J. Phys. Chem. 81:2340, 1977).

    `stoichiometry[r]` is the state change of reaction r, shape (R, m);
    `hazards(state, theta)` returns the R propensities.  Hazard functions
    index species and parameters on the first axis (`s[i]`, `th[j]`), so
    the same function takes one (m,) state or an (m, B) block of states.
    """

    stoichiometry: np.ndarray
    hazards: Callable
    kind = "ssa"

    def __post_init__(self):
        object.__setattr__(self, "stoichiometry", np.asarray(self.stoichiometry, dtype=float))


@dataclass(frozen=True)
class DirectSampler:
    """Model that samples its dataset directly: sample(thetas, times, rng)
    returns states of shape (n_thetas, len(times), n_species)."""

    sample: Callable
    kind = "direct"


@dataclass(frozen=True)
class SimOptions:
    """Per-model engine settings."""

    # RK4 step = (t_end - t0) / rk4_steps; each record segment rounds its
    # substep count up, so 600 steps over 11 equal segments run 605
    rk4_steps: int = 1000
    # lags below this fraction of the span count as zero; the delay grid's
    # step is also capped at this floor
    lag_floor_frac: float = 1e-3
    ssa_max_events: int = 100_000_000


# ---------------------------------------------------------------------------
# Fixed-step RK4 for ODEs and delay systems
# ---------------------------------------------------------------------------

def _substeps(span: float, h_max: float) -> int:
    return max(1, int(math.ceil(span / h_max - 1e-9)))


def _rk4_march(rhs, y, ok, times, start, h_max, on_node=None):
    """March a (B, m) state through the record times; returns (B, n, m).

    Each record segment takes uniform substeps no longer than h_max, so every
    record time is landed on exactly.  `on_node(t, y, f)` receives each node
    before the step from it, with f that step's k1.  Rows that are
    non-finite or exceed 1e100 at the end of a segment are zeroed and
    flagged in `ok`; rows never mix, so a blown row leaks into no other.
    """
    out = np.empty((y.shape[0], len(times), y.shape[1]))
    t = start
    for i, r in enumerate(times):
        if r > t:
            n = _substeps(r - t, h_max)
            h = (r - t) / n
            for j in range(n):
                s = t + j * h
                k1 = rhs(s, y)
                if on_node is not None:
                    on_node(s, y, k1)
                k2 = rhs(s + 0.5 * h, y + (0.5 * h) * k1)
                k3 = rhs(s + 0.5 * h, y + (0.5 * h) * k2)
                k4 = rhs(s + h, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            bad = ~np.isfinite(y).all(axis=-1) | (np.abs(y).max(axis=-1) > 1e100)
            if bad.any():
                ok &= ~bad
                y = np.where(bad[:, None], 0.0, y)
            t = r
        out[:, i, :] = y
    return out


def _grid(times, step, t0):
    """Validated record times and start time of a fixed-step solve."""
    times = np.asarray(times, dtype=float)
    if step <= 0:
        raise ValueError("step must be > 0")
    if np.any(np.diff(times) <= 0):
        raise ValueError("record times must be strictly increasing")
    start = times[0] if t0 is None else float(t0)
    if times[0] < start:
        raise ValueError("record times must not precede t0")
    return times, start


def _rows(thetas, x0s):
    """A (B, k) theta batch and its (B, m) initial states; an (m,) x0s is
    shared by every row."""
    thetas = np.asarray(thetas, dtype=float)
    x0s = np.asarray(x0s, dtype=float)
    return thetas, np.broadcast_to(x0s, (thetas.shape[0], x0s.shape[-1]))


def rk4_solve_batch(
    system: OdeSystem,
    thetas: np.ndarray,
    x0s: np.ndarray,
    times: Sequence[float],
    step: float,
    t0: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate a (B, k) batch from x0s, (B, m) or a shared (m,); returns
    (states (B, n, m), ok (B,))."""
    times, start = _grid(times, step, t0)
    thetas, x0s = _rows(thetas, x0s)
    y = x0s.copy()
    ok = np.ones(len(y), dtype=bool)
    with np.errstate(all="ignore"):
        out = _rk4_march(lambda t, s: system.rhs(t, s, thetas), y, ok, times, start, step)
    return out, ok


def resolve_lags(system: DdeSystem, thetas: np.ndarray) -> np.ndarray:
    """Concrete lag values, shape (B, n_lags).

    Negative lags make the row an invalid (anti-causal) model instance;
    the solvers fail those rows rather than clamping them."""
    thetas = np.asarray(thetas, dtype=float)
    B = thetas.shape[0]
    out = np.empty((B, len(system.lags)))
    for j, lag in enumerate(system.lags):
        if isinstance(lag, int) and not isinstance(lag, bool):
            out[:, j] = thetas[:, lag]
        else:
            out[:, j] = float(lag)
    return out


class _HermiteLag:
    """Lagged states on the RK4 grid.

    Holds the (t, y, f) of every completed node.  A lagged time past t0 is
    a cubic Hermite interpolant of the two nodes around it, one at or
    before t0 is the row's initial state, and a zero lag gives the current
    stage state.  Every positive lag is at least one grid step, so a stage
    never reads past the latest completed node.
    """

    def __init__(self, lags, x0s, start, n_nodes, shape):
        self.lags = lags  # (B, L): zero, or at least the grid step
        self.x0s = x0s  # (B, m): each row's state up to t0
        self.start = start
        self.rows = [np.nonzero(lags[:, j] > 0)[0] for j in range(lags.shape[1])]
        self.ts = np.empty(n_nodes)
        self.ys = np.empty((n_nodes,) + shape)
        self.fs = np.empty((n_nodes,) + shape)
        self.n = 0
        self._key = None
        self._past = None

    def push(self, t, y, f):
        self.ts[self.n] = t
        self.ys[self.n] = y
        self.fs[self.n] = f
        self.n += 1

    def _lookup(self, t, rows, lag):
        tq = t - lag
        if self.n:
            tq = np.minimum(tq, self.ts[self.n - 1])  # rounding at lag == step
        vals = np.empty((rows.size, self.ys.shape[-1]))
        past = tq <= self.start
        if past.any():
            vals[past] = self.x0s[rows[past]]
        if not past.all():
            sel = ~past
            tq, r = tq[sel], rows[sel]
            idx = np.searchsorted(self.ts[: self.n], tq, side="left") - 1
            ta, tb = self.ts[idx], self.ts[idx + 1]
            dt = (tb - ta)[:, None]
            s = ((tq - ta) / (tb - ta))[:, None]
            s2 = s * s
            s3 = s2 * s
            vals[sel] = (
                (2 * s3 - 3 * s2 + 1) * self.ys[idx, r]
                + (s3 - 2 * s2 + s) * dt * self.fs[idx, r]
                + (-2 * s3 + 3 * s2) * self.ys[idx + 1, r]
                + (s3 - s2) * dt * self.fs[idx + 1, r]
            )
        return vals

    def __call__(self, t, y):
        """The lagged states of stage (t, y), one (B, m) array per lag."""
        # both middle RK4 stages share one time, and a step's last stage
        # usually shares the next step's first: look up once per time
        if self._key != (t, self.n):
            self._key = (t, self.n)
            self._past = [
                self._lookup(t, rows, self.lags[rows, j]) for j, rows in enumerate(self.rows)
            ]
        out = []
        for rows, vals in zip(self.rows, self._past):
            lagged = y.copy()
            lagged[rows] = vals
            out.append(lagged)
        return tuple(out)


def dde_solve_batch(
    system: DdeSystem,
    thetas: np.ndarray,
    x0s: np.ndarray,
    times: Sequence[float],
    step: float,
    t0: Optional[float] = None,
    lag_floor: Optional[float] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 batch integration; returns (states (B, n, m), ok (B,)).

    The arguments are those of `rk4_solve_batch`, plus `lag_floor`.  Each
    row's history is constant: its state at any time up to t0 is its row of
    x0s, (B, m) or a shared (m,).  Lags below `lag_floor` (default: `step`)
    count as zero; the grid step is min(step, lag_floor), so every positive
    lag spans at least one step.  Rows with a negative lag fail, as do rows
    whose state blows up; neither affects the other rows, and no row's
    result depends on which rows share its batch.
    """
    times, start = _grid(times, step, t0)
    floor = float(step if lag_floor is None else lag_floor)
    if floor <= 0:
        raise ValueError("lag_floor must be > 0")
    h = min(step, floor)
    thetas, x0s = _rows(thetas, x0s)
    lags = resolve_lags(system, thetas)  # (B, L)
    ok = (lags >= 0.0).all(axis=1)  # anti-causal rows are invalid
    lags[~ok] = 0.0
    lags[lags < floor] = 0.0

    y = x0s.copy()
    y[~ok] = 0.0
    ends = np.concatenate([[start], times[times > start]])
    n_nodes = sum(_substeps(b - a, h) for a, b in zip(ends[:-1], ends[1:]))
    lag = _HermiteLag(lags, x0s, start, n_nodes, y.shape)
    with np.errstate(all="ignore"):
        out = _rk4_march(
            lambda t, s: system.rhs(t, s, lag(t, s), thetas), y, ok, times, start, h, lag.push
        )
    return out, ok


# ---------------------------------------------------------------------------
# Gillespie stochastic simulation
# ---------------------------------------------------------------------------

def gillespie(
    network: ReactionNetwork,
    theta: np.ndarray,
    x0: Sequence[int],
    record_times: Sequence[float],
    rng: np.random.Generator,
    t0: float = 0.0,
    max_events: Optional[int] = None,
) -> np.ndarray:
    """Exact stochastic simulation (direct method); returns the
    (n, len(x0)) states at the n record times.

    State is recorded last-event-carried-forward at each record time.  When
    the total hazard reaches zero the state is held constant (absorption).
    More than `max_events` events raise SimulationFailure.
    """
    x = np.asarray(x0, dtype=float)
    if np.any(x < 0) or np.any(x != np.round(x)):
        raise ValueError("SSA initial state must be nonnegative integers")
    record_times = np.asarray(record_times, dtype=float)
    if np.any(np.diff(record_times) <= 0):
        raise ValueError("record times must be strictly increasing")
    cap = max_events if max_events is not None else SimOptions().ssa_max_events
    changes = network.stoichiometry
    theta = np.asarray(theta, dtype=float)

    n_rec = len(record_times)
    out = np.empty((n_rec, x.size))
    x = x.copy()
    t = float(t0)
    i_rec = 0
    events = 0
    while i_rec < n_rec:
        a = np.maximum(network.hazards(x, theta), 0.0)
        a0 = a.sum()
        if a0 <= 0.0 or not np.isfinite(a0):
            break  # absorbed; hold state for all remaining record times
        t_next = t + rng.exponential(1.0 / a0)
        while i_rec < n_rec and record_times[i_rec] < t_next:
            out[i_rec] = x
            i_rec += 1
        if i_rec >= n_rec:
            break
        j = int(np.searchsorted(np.cumsum(a), rng.uniform(0.0, a0), side="left"))
        x += changes[min(j, len(changes) - 1)]
        t = t_next
        events += 1
        if events > cap:
            raise SimulationFailure(f"SSA exceeded {cap} events")
    out[i_rec:] = x
    return out


# ---------------------------------------------------------------------------
# Uniform model-level contract
# ---------------------------------------------------------------------------

def _resolve_x0(model, thetas: np.ndarray) -> np.ndarray:
    if model.initial_state is not None:
        return np.asarray(model.initial_state(thetas), dtype=float)
    return np.broadcast_to(model.x0, (thetas.shape[0], len(model.species)))


def simulate_model_batch(
    model,
    thetas: np.ndarray,
    times: Sequence[float],
    rng: Optional[np.random.Generator] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate a (B, k) batch of parameter vectors at shared record times.

    Returns (states (B, n, m), ok (B,)).  Stochastic kinds consume `rng`
    sequentially in row order, so results are reproducible for a given
    generator state.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2:
        raise ValueError("thetas must be a (B, k) array")
    kind = model.kind
    if kind in ("ode", "dde"):
        x0s = _resolve_x0(model, thetas)
        span = float(times[-1]) - model.t0
        step = span / model.sim.rk4_steps
        if kind == "ode":
            return rk4_solve_batch(model.system, thetas, x0s, times, step, t0=model.t0)
        return dde_solve_batch(
            model.system, thetas, x0s, times, step,
            t0=model.t0, lag_floor=model.sim.lag_floor_frac * span,
        )
    if kind == "ssa":
        if rng is None:
            raise ValueError("stochastic simulation requires an rng")
        x0s = np.round(_resolve_x0(model, thetas))
        B = thetas.shape[0]
        out = np.empty((B, len(times), len(model.species)))
        ok = np.ones(B, dtype=bool)
        for b in range(B):
            try:
                out[b] = gillespie(
                    model.system, thetas[b], x0s[b], times, rng,
                    t0=model.t0, max_events=model.sim.ssa_max_events,
                )
            except SimulationFailure:
                out[b] = 0.0
                ok[b] = False
        return out, ok
    if kind == "direct":
        if rng is None:
            raise ValueError("direct samplers require an rng")
        states = np.asarray(model.system.sample(thetas, np.asarray(times, dtype=float), rng), dtype=float)
        return states, np.isfinite(states).all(axis=(1, 2))
    raise ValueError(f"unknown model kind '{kind}'")
