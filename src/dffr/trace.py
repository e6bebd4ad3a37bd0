"""Per-round simulation records.

A trace row holds the state of round t before that round's update: the
decisions x[t], the consensus intermediates z[t] that produced them, and the
consensus-error norms carried into the round.  The update applied at the
final round only shows up in ``final_eps_norm``, which the regret-bound
inputs need at the full horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .objectives import RESIDUAL_CHUNK


@dataclass
class Trace:
    algorithm: str
    seed: int | None
    config: dict
    x: np.ndarray            # (T, n, d) decisions recorded at each round
    z: np.ndarray            # (T, n, d) consensus intermediates behind x[t]
    eps_norm: np.ndarray     # (T, n)   ||x[t] - z[t]|| per agent
    loss_self: np.ndarray    # (T, n)   own loss f_i^t(x_i^t)
    loss_global: np.ndarray  # (T, n)   average loss f_t(x_i^t)
    x_star: np.ndarray       # (T, d)   per-round optimum over the box
    f_star: np.ndarray       # (T,)     optimal average loss
    g_norm: np.ndarray       # (T, n)   realized estimator norms (zeros if exact gradients)
    final_eps_norm: np.ndarray = field(default=None)  # (n,) error from the round-T update

    def __post_init__(self):
        if self.final_eps_norm is None:
            self.final_eps_norm = self.eps_norm[-1].copy()

    @property
    def T(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def d(self) -> int:
        return self.x.shape[2]

    @property
    def gaps(self) -> np.ndarray:
        """Instantaneous average optimality gaps m_t, shape (T,)."""
        return self.loss_global.mean(axis=1) - self.f_star

    @property
    def nu(self) -> np.ndarray:
        """Average distance to the per-round optimum, shape (T,)."""
        return self.optimum_distances().mean(axis=1)

    def optimum_distances(self) -> np.ndarray:
        """||x_i[t] - x*[t]|| per round and agent, shape (T, n), with x - x*
        formed in round chunks of at most ``RESIDUAL_CHUNK`` elements."""
        out = np.empty((self.T, self.n))
        rounds = max(1, RESIDUAL_CHUNK // max(1, self.n * self.d))
        for first in range(0, self.T, rounds):
            rows = slice(first, first + rounds)
            out[rows] = np.linalg.norm(self.x[rows] - self.x_star[rows, None, :], axis=2)
        return out

    def eps_seq(self) -> np.ndarray:
        """Consensus errors produced BY each round's update, shape (T, n).

        Row t-1 (0-based) holds the errors of the update applied at round t;
        the last row comes from the epilogue field.
        """
        return np.vstack([self.eps_norm[1:], self.final_eps_norm[None, :]])

    def eps_increments(self) -> np.ndarray:
        """|change of consensus-error norm| per agent and round, shape (T, n)."""
        return np.abs(self.eps_seq() - self.eps_norm)

    def initial_norms(self) -> np.ndarray:
        """Norms of the round-1 decisions, shape (n,)."""
        return np.linalg.norm(self.x[0], axis=1)

    @classmethod
    def from_gap_sequence(cls, gaps, algorithm: str = "synthetic") -> "Trace":
        """Degenerate trace carrying only a hand-set gap sequence.

        Decisions and optima are zero; the global losses are set so that the
        instantaneous gaps equal ``gaps`` exactly.
        """
        gaps = np.asarray(gaps, dtype=float)
        T = gaps.size
        zeros_nd = np.zeros((T, 1, 1))
        zeros_n = np.zeros((T, 1))
        return cls(
            algorithm=algorithm,
            seed=None,
            config={"synthetic": True},
            x=zeros_nd,
            z=zeros_nd.copy(),
            eps_norm=zeros_n,
            loss_self=gaps[:, None].copy(),
            loss_global=gaps[:, None].copy(),
            x_star=np.zeros((T, 1)),
            f_star=np.zeros(T),
            g_norm=zeros_n.copy(),
            final_eps_norm=np.zeros(1),
        )
