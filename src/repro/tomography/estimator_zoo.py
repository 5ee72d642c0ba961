"""The pluggable estimator zoo: registry-dispatched inversion families.

The paper fixes least-squares inversion (eq. 2) as the defender's
estimator, so every attack-success and detection number in this repro is
conditioned on one linear operator.  This module makes the inversion
step pluggable so the same attacks and detectors can be re-run against
genuinely different estimator families:

- ``ls`` — the paper's least squares, a thin delegate to
  :meth:`LinearSystem.estimate`.  Bit-identical to the historical path
  and the default everywhere.
- ``bayes-map`` — Bayesian maximum a posteriori under a Gaussian prior
  ``x ~ N(mu0, prior_var I)`` and Gaussian measurement noise
  ``N(0, noise_var I)`` (cf. Bayesian tomography, Pluch & Wakounig):
  the posterior mode solves the regularized normal equations
  ``x = mu0 + (R^T R + lam I)^{-1} R^T (y - R mu0)`` with
  ``lam = noise_var / prior_var``, computed through the backend seam
  (:meth:`LinearSystem.regularized_estimate`) so dense and sparse
  kernels agree and no second factorisation path exists (RP001).
- ``ridge`` — Tikhonov regularisation, the zero-mean special case of
  ``bayes-map`` parameterised directly by ``lam``.
- ``nnls`` — non-negative least squares (Lawson-Hanson), the physical
  constraint that link delays cannot be negative.
- ``l1`` — a nonnegative basis-pursuit / LASSO-style sparse decoder
  (cf. compressive-sensing tomography, FRANTIC): minimise
  ``1^T x + penalty * ||R x - y||_1`` over ``x >= 0``, solved as an LP
  on one persistent model of the HiGHS bindings scipy vendors (the same
  API the attack LP engine uses — not a ``linprog`` re-wrap).  On
  identifiable (full-column-rank) systems with consistent measurements
  it recovers the exact solution.

Dispatch is registry-based: :func:`resolve_estimator` resolves the
family with the precedence *explicit name > ``REPRO_ESTIMATOR``
environment knob > ``"ls"``*, mirroring the backend and LP-engine
conventions.  Detection thresholds are recalibrated per estimator with
:func:`calibrated_alpha` — biased estimators (ridge/MAP shrinkage, L1
sparsity) leave a nonzero residual even on honest measurements, and the
detector's alpha must absorb that bias before it can mean "manipulation
evidence".
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np
import scipy.sparse

from repro import config
from repro.exceptions import TomographyError, ValidationError
from repro.obs import core as obs
from repro.obs.manifest import config_digest
from repro.tomography.linear_system import LinearSystem
from repro.utils.highs import highs, row_wise_model
from repro.utils.validation import check_finite_vector

__all__ = [
    "ESTIMATOR_ENV_VAR",
    "BayesMapEstimator",
    "Estimator",
    "L1SparseEstimator",
    "LeastSquaresZooEstimator",
    "NonNegativeZooEstimator",
    "RidgeZooEstimator",
    "calibrated_alpha",
    "estimator_names",
    "register_estimator",
    "resolve_estimator",
]

#: Environment variable selecting the defender-side estimator family.
ESTIMATOR_ENV_VAR = "REPRO_ESTIMATOR"


@runtime_checkable
class Estimator(Protocol):
    """What every zoo member (and any external estimator) must expose."""

    name: str
    system: LinearSystem

    @property
    def params_digest(self) -> str: ...

    def estimate(self, observed: np.ndarray) -> np.ndarray:
        """A vector (|P|,) -> (|L|,), a block (|P|, k) -> (|L|, k)."""


#: Registered estimator families, keyed by registry name.
_REGISTRY: dict[str, type] = {}


def register_estimator(name: str):
    """Class decorator adding an estimator family to the registry."""

    def decorate(cls):
        if name in _REGISTRY:
            raise ValidationError(f"estimator {name!r} is already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorate


def estimator_names() -> tuple[str, ...]:
    """The registered estimator names, sorted."""
    return tuple(sorted(_REGISTRY))


def resolve_estimator(
    name: str | None = None,
    *,
    system: LinearSystem | None = None,
    routing_matrix: np.ndarray | None = None,
    **params: object,
) -> "Estimator":
    """Build the estimator ``name`` over a shared kernel.

    Precedence mirrors the backend dispatch convention: an explicit
    ``name`` argument wins, then the ``REPRO_ESTIMATOR`` environment
    knob, then the bit-compatible default ``"ls"``.  Exactly one of
    ``system`` (a pre-factorised :class:`LinearSystem` — what detectors,
    attack contexts and the sweep cache pass) or ``routing_matrix`` must
    be given; extra keyword ``params`` go to the family's constructor.
    """
    if system is None:
        if routing_matrix is None:
            raise ValidationError(
                "resolve_estimator needs a system= or a routing_matrix="
            )
        system = LinearSystem(routing_matrix)
    elif routing_matrix is not None:
        raise ValidationError(
            "pass either system= or routing_matrix=, not both"
        )
    if name is None:
        name = config.get_str(ESTIMATOR_ENV_VAR)
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValidationError(
            f"unknown estimator {name!r}; choose from {estimator_names()}"
        )
    return cls(system, **params)


def calibrated_alpha(
    estimator: "Estimator",
    honest_measurements: np.ndarray,
    base_alpha: float = 200.0,
) -> float:
    """Detection threshold recalibrated for a (possibly biased) estimator.

    Least squares leaves a numerically-zero residual on honest
    measurements, so the paper's ``alpha`` measures manipulation evidence
    directly.  Shrinkage (ridge / Bayes-MAP) and sparsity (L1) estimators
    leave a *systematic* honest-round residual; thresholding their raw
    residual at the paper's alpha would conflate estimator bias with
    attack evidence.  The calibrated threshold is ``base_alpha`` plus the
    honest-round residual L1 of this estimator — the same head-room above
    the no-attack operating point for every family.
    """
    if base_alpha < 0:
        raise ValidationError(f"base_alpha must be non-negative, got {base_alpha}")
    y = check_finite_vector(
        honest_measurements, "honest_measurements", length=estimator.system.num_paths
    )
    x_hat = estimator.estimate(y)
    bias = float(np.abs(estimator.system.predict(x_hat) - y).sum())
    return float(base_alpha) + bias


class _ZooEstimator:
    """Shared plumbing: validation, the obs event, the column loop."""

    name = ""

    def __init__(self, system: LinearSystem) -> None:
        if not isinstance(system, LinearSystem):
            raise ValidationError(
                "estimators are built over a LinearSystem kernel; "
                f"got {type(system).__name__}"
            )
        # Every family needs at least one path and one link: nnls over an
        # empty matrix corrupts the heap, and the others return vectors
        # that mean nothing.
        if system.num_paths == 0 or system.num_links == 0:
            raise TomographyError(
                "degenerate routing matrix shape "
                f"({system.num_paths}, {system.num_links})"
            )
        self.system = system

    def params(self) -> dict:
        """The family's effective parameters (JSON-safe)."""
        return {}

    @property
    def params_digest(self) -> str:
        """Canonical SHA-256 of (name, params) — the sweep cache key part."""
        return config_digest({"estimator": self.name, "params": self.params()})

    # -- the numerical core each family supplies ---------------------------

    def _solve(self, y: np.ndarray) -> np.ndarray:
        """Solve a vector or a block; by default a block column by column.

        Families with a multi-RHS kernel call (ls, bayes-map, ridge)
        override this; the others supply :meth:`_solve_column`.
        """
        if y.ndim == 1:
            return self._solve_column(y)
        return np.stack([self._solve_column(y[:, j]) for j in range(y.shape[1])], axis=1)

    def _solve_column(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- the Estimator protocol surface ------------------------------------

    def estimate(self, observed: np.ndarray) -> np.ndarray:
        """Link metrics from a measurement vector (|P|,) or block (|P|, k).

        A block gives its columns' estimates side by side (|L| x k),
        verdict-identical to estimating each column on its own.
        """
        y = self.system._operand(observed)
        x_hat = self._solve(y)
        if obs.is_enabled():
            obs.event(
                "estimator_solve",
                estimator=self.name,
                batch=1 if y.ndim == 1 else int(y.shape[1]),
                paths=self.system.num_paths,
                links=self.system.num_links,
            )
        return x_hat


@register_estimator("ls")
class LeastSquaresZooEstimator(_ZooEstimator):
    """The paper's estimator (eq. 2) — a delegate to the shared kernel.

    Bit-identical to calling :meth:`LinearSystem.estimate` directly (the
    same cached operator is applied), so threading the zoo through the
    detector and attack pipelines changes nothing under the default.
    """

    def _solve(self, y: np.ndarray) -> np.ndarray:
        # ``estimate`` already validated y; going straight to the shared
        # backend skips LinearSystem.estimate's identical re-validation,
        # keeping the zoo's default path within noise of the raw kernel.
        return self.system._factorized.estimate(y)


@register_estimator("bayes-map")
class BayesMapEstimator(_ZooEstimator):
    """Gaussian-prior MAP estimator (regularized normal equations).

    Parameters
    ----------
    prior_var:
        Prior variance of every link metric (ms^2).  Larger = weaker
        prior; as ``prior_var -> inf`` the MAP estimate converges to
        least squares.
    noise_var:
        Measurement-noise variance (ms^2).  Only the ratio
        ``lam = noise_var / prior_var`` enters the estimate.
    prior_mean:
        Prior mean ``mu0`` — a scalar (broadcast over links) or a
        length-|L| vector.  The paper's routine delays are 1-20 ms, so a
        mean in that band encodes "links are healthy unless the data
        insists otherwise".
    """

    def __init__(
        self,
        system: LinearSystem,
        *,
        prior_var: float = 1e4,
        noise_var: float = 1.0,
        prior_mean: float | np.ndarray = 0.0,
    ) -> None:
        super().__init__(system)
        if not (prior_var > 0) or not np.isfinite(prior_var):
            raise TomographyError(
                f"prior_var must be positive and finite, got {prior_var}"
            )
        if not (noise_var > 0) or not np.isfinite(noise_var):
            raise TomographyError(
                f"noise_var must be positive and finite, got {noise_var}"
            )
        self.prior_var = float(prior_var)
        self.noise_var = float(noise_var)
        self.lam = self.noise_var / self.prior_var
        mean = np.asarray(prior_mean, dtype=float)
        if mean.ndim == 0:
            mean = np.full(system.num_links, float(mean))
        self.prior_mean = check_finite_vector(
            mean, "prior_mean", length=system.num_links
        )
        # ``R mu0`` is fixed per estimator; every solve shifts by it once.
        self._prior_prediction = (
            self.system.predict(self.prior_mean)
            if np.any(self.prior_mean)
            else np.zeros(system.num_paths)
        )

    def params(self) -> dict:
        return {
            "prior_var": self.prior_var,
            "noise_var": self.noise_var,
            "prior_mean": [float(v) for v in self.prior_mean],
        }

    def _solve(self, y: np.ndarray) -> np.ndarray:
        # Column vectors: a (|P|,) vector stays 1-D, a block broadcasts.
        column = (-1,) + (1,) * (y.ndim - 1)
        shifted = y - self._prior_prediction.reshape(column)
        return self.prior_mean.reshape(column) + self.system.regularized_estimate(
            shifted, self.lam
        )


@register_estimator("ridge")
class RidgeZooEstimator(BayesMapEstimator):
    """Tikhonov regularisation — zero-mean Bayes-MAP parameterised by ``lam``."""

    def __init__(self, system: LinearSystem, *, lam: float = 1e-6) -> None:
        if not (lam > 0) or not np.isfinite(lam):
            raise TomographyError(f"ridge parameter must be positive, got {lam}")
        super().__init__(system, prior_var=1.0 / float(lam), noise_var=1.0)

    def params(self) -> dict:
        return {"lam": self.lam}


@register_estimator("nnls")
class NonNegativeZooEstimator(_ZooEstimator):
    """Non-negative least squares (Lawson-Hanson active set)."""

    def _solve_column(self, y: np.ndarray) -> np.ndarray:
        from scipy.optimize import nnls

        solution, _ = nnls(self.system.matrix, y)
        return solution


@register_estimator("l1")
class L1SparseEstimator(_ZooEstimator):
    """Nonnegative basis-pursuit decoder on the warm-started HiGHS engine.

    Solves, per measurement vector ``y``::

        min  1^T x + penalty * 1^T (r+ + r-)
        s.t. R x - r+ + r- = y,   x, r+, r- >= 0

    ``r+ - r-`` is the signed residual, so the objective is the L1-sparse
    recovery ``min ||x||_1 + penalty * ||R x - y||_1`` over nonnegative
    metrics — always feasible, and exact (residual zero, minimum-L1
    ``x``) whenever ``y`` is consistent and the penalty dominates.  The
    model is built once by :func:`repro.utils.highs.row_wise_model`, from
    ``R`` in the form the system stores it (a sparse system is never
    densified); each solve only edits the equality rows' bounds to the
    new ``y`` and re-runs with the previous basis (the
    :class:`~repro.attacks.lp_engine.PersistentLpSolver` idiom, applied
    to decoding instead of attacking).
    """

    def __init__(self, system: LinearSystem, *, penalty: float = 1e6) -> None:
        super().__init__(system)
        if not (penalty > 0) or not np.isfinite(penalty):
            raise TomographyError(
                f"residual penalty must be positive and finite, got {penalty}"
            )
        self.penalty = float(penalty)
        self._model = None
        self.solves = 0

    def params(self) -> dict:
        return {"penalty": self.penalty}

    def _build_model(self):
        m, n = self.system.num_paths, self.system.num_links
        matrix = scipy.sparse.hstack(
            [
                scipy.sparse.csr_matrix(self.system.stored_matrix),
                -scipy.sparse.identity(m, format="csr"),
                scipy.sparse.identity(m, format="csr"),
            ],
            format="csr",
        )
        self._model = row_wise_model(
            np.concatenate([np.ones(n), np.full(2 * m, self.penalty)]),
            np.full(n + 2 * m, np.inf),
            np.zeros(m),
            np.zeros(m),  # R x - r+ + r- = y, with y set per solve
            matrix.indptr, matrix.indices, matrix.data,
        )

    def _solve_column(self, y: np.ndarray) -> np.ndarray:
        if self._model is None:
            self._build_model()
        model = self._model
        for i, value in enumerate(np.asarray(y, dtype=float)):
            model.changeRowBounds(i, float(value), float(value))
        model.run()
        self.solves += 1
        status = model.getModelStatus()
        if status != highs.HighsModelStatus.kOptimal:
            raise TomographyError(
                "l1 estimator LP did not reach optimality: "
                f"{model.modelStatusToString(status)}"
            )
        values = np.array(model.getSolution().col_value, dtype=float)
        return values[: self.system.num_links]
