"""Fitted TCAM parameter containers — the one declaration of a parameter set.

These hold the distributions inferred by EM — Table 1 of the paper:

* ``theta``    — ``(N, K1)`` user interest over user-oriented topics
* ``phi``      — ``(K1, V)`` user-oriented topic → item distributions
* ``lambda_u`` — ``(N,)`` per-user personal-interest mixing weights
* ITCAM: ``theta_time`` — ``(T, V)`` temporal context directly over items
* TTCAM: ``theta_time`` — ``(T, K2)`` over time-oriented topics and
  ``phi_time`` — ``(K2, V)`` time-oriented topic → item distributions

Which arrays make up a variant is stated here and nowhere else: the
dataclass fields of each container *are* the parameter set, in archive
order. Everything that persists, checkpoints, validates or rebuilds one
(:mod:`repro.core.serialize`, :mod:`repro.recommend.paramstore`,
:mod:`repro.streaming`) asks the container through
:meth:`TCAMParameters.arrays` / :meth:`~TCAMParameters.field_names`,
:attr:`~TCAMParameters.VARIANT`, :attr:`~TCAMParameters.STOCHASTIC` and
the :data:`VARIANTS` registry. The same declaration splits the set into
the *base* (:attr:`~TCAMParameters.BASE_FIELDS`: ``φ``, ``φ′`` — what
incremental fold-in holds fixed) and the rest, and owns the digest of
each part, so a stream checkpoint, a snapshot and a serving process
agree on one string for "the same ``φ``/``φ′``".

Each container also knows how to expand a query ``(u, t)`` into the
concatenated topic space of Section 4.1 (Equations 21–22), which the
recommendation layer consumes.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, fields
from typing import Any, ClassVar, Collection, Mapping, TypeVar

import numpy as np

from ..data.cuboid import RatingCuboid
from ..robustness.checkpoint import digest_arrays
from ..typing import FloatArray, IntArray
from .em import EPS

_P = TypeVar("_P", bound="TCAMParameters")


def _check_stochastic(name: str, matrix: FloatArray, tol: float = 1e-6) -> None:
    if np.any(matrix < -tol):
        raise ValueError(f"{name} has negative entries")
    sums = matrix.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=1e-4):
        worst = float(np.abs(sums - 1.0).max())
        raise ValueError(f"{name} rows are not normalised (max err {worst:.2e})")


class TCAMParameters:
    """What both fitted TCAM variants share.

    A variant is a dataclass deriving from this base: its fields are its
    parameter arrays (in the order snapshots store them), ``VARIANT`` its
    tag in archives and manifests, ``STOCHASTIC`` the fields whose rows
    are probability distributions, ``STATIC_MATRIX`` whether one
    topic–item matrix serves every interval (the temporal context is a
    mixture over shared topics) or each interval has its own (the
    context is an item distribution, stacked under ``φ`` as one more row).
    ``BASE_FIELDS`` names the *base*: the fields incremental fold-in holds
    fixed (Section 4's offline part), so a stream checkpoint, a snapshot
    and a serving process can tell by one digest that they did not change.
    """

    VARIANT: ClassVar[str]
    STOCHASTIC: ClassVar[tuple[str, ...]]
    STATIC_MATRIX: ClassVar[bool]
    BASE_FIELDS: ClassVar[tuple[str, ...]]
    __dataclass_fields__: ClassVar[dict[str, Field[Any]]]  # set by @dataclass

    theta: FloatArray  # (N, K1)
    phi: FloatArray  # (K1, V)
    theta_time: FloatArray  # (T, V) or (T, K2)
    lambda_u: FloatArray  # (N,)

    #: Digest of the base fields, once this process has hashed exactly
    #: these arrays (a checksummed load sets it, :meth:`with_fields`
    #: carries it); ``None`` for a container that was built directly.
    base_digest: str | None = None

    def __post_init__(self) -> None:
        self._validate(self.field_names())

    def _validate(self, entering: Collection[str]) -> None:
        """Value checks on the ``entering`` fields, then every shape check.

        An array is scanned once, when it enters a container; the
        cross-field shape checks cost nothing and always run.
        """
        for name in self.STOCHASTIC:
            if name in entering:
                _check_stochastic(name, getattr(self, name))
        if "lambda_u" in entering and (
            np.any(self.lambda_u < -EPS) or np.any(self.lambda_u > 1 + EPS)
        ):
            raise ValueError("lambda_u must lie in [0, 1]")
        self._check_shapes()

    def _check_shapes(self) -> None:
        if self.theta.shape[1] != self.phi.shape[0]:
            raise ValueError("theta / phi topic dimensions disagree")
        if self.theta.shape[0] != self.lambda_u.shape[0]:
            raise ValueError("theta / lambda_u user dimensions disagree")

    def with_fields(self: _P, **changes: FloatArray) -> _P:
        """Field-wise copy-on-write: a new container with ``changes`` applied.

        Every array not named in ``changes`` is shared with ``self`` and
        not scanned again — it was validated when it entered ``self`` —
        so replacing a few ``θ′_t`` rows costs nothing in ``V``. The
        replaced fields get the checks ``__post_init__`` gives them.
        """
        unknown = changes.keys() - set(self.field_names())
        if unknown:
            raise TypeError(f"unknown parameter field(s) {sorted(unknown)}")
        new = object.__new__(type(self))
        for name in self.field_names():
            setattr(new, name, changes.get(name, getattr(self, name)))
        new._validate(changes.keys())
        if not changes.keys() & set(self.BASE_FIELDS):
            new._carry_base(self)
        return new

    def _carry_base(self, source: "TCAMParameters") -> None:
        """Take over what ``source`` knows of the base fields it shares with us."""
        self.base_digest = source.base_digest

    def shares_base(self, other: "TCAMParameters | None") -> bool:
        """Whether ``other`` is this variant over these very base arrays (``is``).

        True between a container and what :meth:`with_fields` derived
        from it without replacing a base field — a delta-opened
        generation and the one it replaced — so whatever was validated
        on, or derived from, the base of one holds for the other.
        """
        return type(other) is type(self) and all(
            getattr(self, name) is getattr(other, name) for name in self.BASE_FIELDS
        )

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """The variant's parameter array names, in dataclass (archive) order."""
        return tuple(f.name for f in fields(cls))

    @classmethod
    def delta_fields(cls) -> tuple[str, ...]:
        """The fields that are not base — what fold-in replaces."""
        return tuple(n for n in cls.field_names() if n not in cls.BASE_FIELDS)

    @classmethod
    def digest_base(cls, arrays: Mapping[str, FloatArray]) -> str:
        """SHA-256 of the base fields among ``arrays`` — the one string a
        stream checkpoint, a snapshot and a serving process compare."""
        return digest_arrays({name: arrays[name] for name in cls.BASE_FIELDS})

    @classmethod
    def digest_delta(cls, arrays: Mapping[str, FloatArray]) -> str:
        """SHA-256 of the delta fields among ``arrays``; with
        :meth:`digest_base` it covers every parameter byte exactly once."""
        return digest_arrays({name: arrays[name] for name in cls.delta_fields()})

    def arrays(self) -> dict[str, FloatArray]:
        """The parameter arrays by field name, in :meth:`field_names` order."""
        return {name: np.asarray(getattr(self, name)) for name in self.field_names()}

    @property
    def num_users(self) -> int:
        """Number of users ``N``."""
        return int(self.theta.shape[0])

    @property
    def num_user_topics(self) -> int:
        """Number of user-oriented topics ``K1``."""
        return int(self.theta.shape[1])

    @property
    def num_intervals(self) -> int:
        """Number of time intervals ``T``."""
        return int(self.theta_time.shape[0])

    @property
    def num_items(self) -> int:
        """Number of items ``V``."""
        return int(self.phi.shape[1])

    def interest_scores(self, user: int) -> FloatArray:
        """``P(v | θ_u)`` for all items (Equation 2)."""
        return self.theta[user] @ self.phi

    def context_scores(self, interval: int) -> FloatArray:
        """``P(v | θ′_t)`` for all items — the term the variants differ in."""
        raise NotImplementedError

    def score_items(self, user: int, interval: int) -> FloatArray:
        """Full mixture likelihood ``P(v | u, t)`` for all items (Eq. 1)."""
        lam = self.lambda_u[user]
        return lam * self.interest_scores(user) + (1 - lam) * self.context_scores(
            interval
        )

    def query_weights(self, user: int, interval: int) -> FloatArray:
        """The expanded query vector ``ϑ_q`` of Equation 21."""
        raise NotImplementedError

    def query_weights_batch(self, users: IntArray, intervals: IntArray) -> FloatArray:
        """``(rows, K)``: row ``i`` is ``query_weights(users[i], intervals[i])``, bit for bit.

        The same elementwise products, taken for every row at once.
        """
        raise NotImplementedError

    def topic_item_matrix(self, interval: int, memo: bool = True) -> FloatArray:
        """The expanded topic–item matrix ``ϕ`` of Equation 22 for an interval.

        A container whose matrix is query-independent keeps it once
        built; ``memo=False`` builds it (or hands out the kept one)
        without keeping it — for a caller that only derives something
        from it.
        """
        raise NotImplementedError

    def query_space(self, user: int, interval: int) -> tuple[FloatArray, FloatArray]:
        """Expanded query vector and topic–item matrix (Equations 21–22).

        ``score_items(u, t) = ϑ_q @ ϕ`` up to rounding; the Threshold
        Algorithm and the batch scorer both rank by that product.
        """
        return self.query_weights(user, interval), self.topic_item_matrix(interval)

    def matrix_cache_key(self, interval: int) -> str | int:
        """Which queries share :meth:`topic_item_matrix`: all, or one interval's."""
        return "static" if self.STATIC_MATRIX else interval

    def _rating_context(self, intervals: IntArray, items: IntArray) -> FloatArray:
        """``P(v | θ′_t)`` of each ``(t, v)`` pair, without forming ``(T, V)``."""
        raise NotImplementedError

    def log_likelihood(self, cuboid: RatingCuboid) -> float:
        """Log likelihood of a (held-out or training) cuboid (Equation 3)."""
        u, t, v, c = cuboid.users, cuboid.intervals, cuboid.items, cuboid.scores
        p_interest = np.einsum("rk,kr->r", self.theta[u], self.phi[:, v])
        p_context = self._rating_context(t, v)
        lam_r = self.lambda_u[u]
        prob = lam_r * p_interest + (1 - lam_r) * p_context
        return float(np.dot(c, np.log(prob + EPS)))


@dataclass
class ITCAMParameters(TCAMParameters):
    """Fitted parameters of item-based TCAM (Section 3.2.1)."""

    VARIANT: ClassVar[str] = "itcam"
    STOCHASTIC: ClassVar[tuple[str, ...]] = ("theta", "phi", "theta_time")
    STATIC_MATRIX: ClassVar[bool] = False
    BASE_FIELDS: ClassVar[tuple[str, ...]] = ("phi",)

    theta: FloatArray  # (N, K1)
    phi: FloatArray  # (K1, V)
    theta_time: FloatArray  # (T, V)
    lambda_u: FloatArray  # (N,)

    def _check_shapes(self) -> None:
        super()._check_shapes()
        if self.phi.shape[1] != self.theta_time.shape[1]:
            raise ValueError("phi / theta_time item dimensions disagree")

    def context_scores(self, interval: int) -> FloatArray:
        """``P(v | θ′_t)`` for all items."""
        return self.theta_time[interval]

    def query_weights(self, user: int, interval: int) -> FloatArray:
        """``ϑ_q = ⟨λ_u·θ_u, 1−λ_u⟩``: the context of ``t`` is one extra "topic"."""
        lam = self.lambda_u[user]
        return np.concatenate([lam * self.theta[user], [1 - lam]])

    def query_weights_batch(self, users: IntArray, intervals: IntArray) -> FloatArray:
        """Rows ``⟨λ_u·θ_u, 1−λ_u⟩`` (``intervals`` pick no weight here)."""
        lam = self.lambda_u[users][:, None]
        return np.concatenate([lam * self.theta[users], 1 - lam], axis=1)

    def topic_item_matrix(self, interval: int, memo: bool = True) -> FloatArray:
        """``(K1 + 1, V)``: ``φ`` with ``θ′_t`` as its last row, built per call."""
        return np.vstack([self.phi, self.theta_time[interval][None, :]])

    def _rating_context(self, intervals: IntArray, items: IntArray) -> FloatArray:
        return self.theta_time[intervals, items]


@dataclass
class TTCAMParameters(TCAMParameters):
    """Fitted parameters of topic-based TCAM (Section 3.2.2)."""

    VARIANT: ClassVar[str] = "ttcam"
    STOCHASTIC: ClassVar[tuple[str, ...]] = ("theta", "phi", "theta_time", "phi_time")
    STATIC_MATRIX: ClassVar[bool] = True
    BASE_FIELDS: ClassVar[tuple[str, ...]] = ("phi", "phi_time")

    theta: FloatArray  # (N, K1)
    phi: FloatArray  # (K1, V)
    theta_time: FloatArray  # (T, K2)
    phi_time: FloatArray  # (K2, V)
    lambda_u: FloatArray  # (N,)

    def _check_shapes(self) -> None:
        super()._check_shapes()
        if self.theta_time.shape[1] != self.phi_time.shape[0]:
            raise ValueError("theta_time / phi_time topic dimensions disagree")
        if self.phi.shape[1] != self.phi_time.shape[1]:
            raise ValueError("phi / phi_time item dimensions disagree")

    def _carry_base(self, source: TCAMParameters) -> None:
        """The digest, and the ``[φ; φ′]`` memo when ``source`` built one."""
        super()._carry_base(source)
        memo = getattr(source, "_stacked_matrix", None)
        if memo is not None:
            object.__setattr__(self, "_stacked_matrix", memo)

    @property
    def num_time_topics(self) -> int:
        """Number of time-oriented topics ``K2``."""
        return int(self.phi_time.shape[0])

    def context_scores(self, interval: int) -> FloatArray:
        """``P(v | θ′_t)`` for all items (Equation 12)."""
        return self.theta_time[interval] @ self.phi_time

    def query_weights(self, user: int, interval: int) -> FloatArray:
        """``ϑ_q = ⟨λ_u·θ_u, (1−λ_u)·θ′_t⟩`` over the ``K1 + K2`` topics."""
        lam = self.lambda_u[user]
        return np.concatenate(
            [lam * self.theta[user], (1 - lam) * self.theta_time[interval]]
        )

    def query_weights_batch(self, users: IntArray, intervals: IntArray) -> FloatArray:
        """Rows ``⟨λ_u·θ_u, (1−λ_u)·θ′_t⟩``."""
        lam = self.lambda_u[users][:, None]
        return np.concatenate(
            [lam * self.theta[users], (1 - lam) * self.theta_time[intervals]], axis=1
        )

    def topic_item_matrix(self, interval: int = 0, memo: bool = True) -> FloatArray:
        """Stacked ``(K1 + K2, V)`` topic–item matrix ``[φ; φ′]`` (memoised).

        Query-independent — ``interval`` is accepted for the shared
        signature and ignored — which is what makes the Threshold
        Algorithm's per-topic sorted lists precomputable.
        """
        cached: FloatArray | None = getattr(self, "_stacked_matrix", None)
        if cached is None:
            cached = np.vstack([self.phi, self.phi_time])
            if memo:
                object.__setattr__(self, "_stacked_matrix", cached)
        return cached

    def _rating_context(self, intervals: IntArray, items: IntArray) -> FloatArray:
        context: FloatArray = np.einsum(
            "rk,kr->r", self.theta_time[intervals], self.phi_time[:, items]
        )
        return context


#: Every parameter-set variant by its ``VARIANT`` tag.
VARIANTS: dict[str, type[ITCAMParameters] | type[TTCAMParameters]] = {
    cls.VARIANT: cls for cls in (TTCAMParameters, ITCAMParameters)
}


class ParamsBackedModel:
    """Prediction surface of a model whose query space *is* its container's.

    A class deriving from this promises that ``params_`` — a fitted
    :class:`TCAMParameters`, or ``None`` before :meth:`fit` — answers
    every prediction exactly as the model would. The batch scorer relies
    on that promise to score interest and context separately (one
    ``isinstance`` against this base); a model that reshapes its
    container's query space
    (:class:`~repro.extensions.background.BackgroundTTCAM`) must not
    derive from it.
    """

    params_: TCAMParameters | None

    def _require_fitted(self) -> TCAMParameters:
        if self.params_ is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self.params_

    def score_items(self, user: int, interval: int) -> FloatArray:
        """Ranking scores ``P(v | u, t)`` for every item (Equation 1)."""
        return self._require_fitted().score_items(user, interval)

    def query_space(self, user: int, interval: int) -> tuple[FloatArray, FloatArray]:
        """Expanded query vector and topic–item matrix (Equations 21–22)."""
        return self._require_fitted().query_space(user, interval)

    def matrix_cache_key(self, interval: int) -> str | int:
        """Which queries share a topic–item matrix (see the container)."""
        return self._require_fitted().matrix_cache_key(interval)

    def log_likelihood(self, cuboid: RatingCuboid) -> float:
        """Log likelihood of a cuboid under the fitted model (Equation 3)."""
        return self._require_fitted().log_likelihood(cuboid)
