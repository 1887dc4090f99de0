"""ARIMA models in state-space form with classical estimation.

The paper forecasts arrivals with "an ARIMA model [Box-Jenkins],
implemented by a Kalman filter [Harvey]". This module provides that stack:

* :func:`fit_ar_yule_walker` — AR(p) coefficients from the Yule-Walker
  (Toeplitz) equations.
* :func:`fit_arma_hannan_rissanen` — ARMA(p, q) coefficients via the
  two-stage Hannan-Rissanen regression.
* :class:`ArimaModel` — an ARIMA(p, d, q) forecaster: differences the
  series d times, runs the ARMA part through a Kalman filter in Harvey's
  companion form, and integrates forecasts back to the original scale.

The default workload predictor in :mod:`repro.forecast.structural` is the
local-linear-trend special case (ARIMA(0,2,2)); this module exists for
callers that want explicit Box-Jenkins orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError, NotTrainedError
from repro.forecast.kalman import KalmanFilter, StateSpaceModel


@dataclass(frozen=True)
class ArmaSpec:
    """Orders and coefficients of an ARMA(p, q) process."""

    ar: tuple[float, ...]
    ma: tuple[float, ...]
    noise_var: float

    @property
    def p(self) -> int:
        """Autoregressive order."""
        return len(self.ar)

    @property
    def q(self) -> int:
        """Moving-average order."""
        return len(self.ma)


def autocovariances(series: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased sample autocovariances for lags 0..max_lag."""
    series = np.asarray(series, dtype=float)
    n = series.size
    if n <= max_lag:
        raise ConfigurationError(
            f"need more than {max_lag} observations, got {n}"
        )
    centered = series - series.mean()
    return np.array(
        [float(centered[: n - lag] @ centered[lag:]) / n for lag in range(max_lag + 1)]
    )


def fit_ar_yule_walker(series: np.ndarray, order: int) -> ArmaSpec:
    """Fit AR(order) coefficients by solving the Yule-Walker equations."""
    if order <= 0:
        raise ConfigurationError("AR order must be positive")
    gamma = autocovariances(series, order)
    if gamma[0] <= 0:
        raise ConfigurationError("series has zero variance; cannot fit AR")
    lags = np.arange(order)
    toeplitz = gamma[np.abs(lags[:, None] - lags[None, :])]
    phi = np.linalg.solve(toeplitz, gamma[1 : order + 1])
    noise_var = float(gamma[0] - phi @ gamma[1 : order + 1])
    return ArmaSpec(ar=tuple(float(v) for v in phi), ma=(), noise_var=max(noise_var, 1e-12))


def fit_arma_hannan_rissanen(
    series: np.ndarray, p: int, q: int, long_ar_order: int | None = None
) -> ArmaSpec:
    """Fit ARMA(p, q) via the two-stage Hannan-Rissanen procedure.

    Stage 1 fits a long AR model to estimate the innovations; stage 2
    regresses the series on its own lags and the lagged innovation
    estimates.
    """
    series = np.asarray(series, dtype=float)
    if p < 0 or q < 0 or (p == 0 and q == 0):
        raise ConfigurationError("need p >= 0, q >= 0, and p + q > 0")
    if q == 0:
        return fit_ar_yule_walker(series, p)
    mean = series.mean()
    centered = series - mean
    long_order = long_ar_order or max(p, q) + 8
    if centered.size < long_order + max(p, q) + 10:
        raise ConfigurationError("series too short for Hannan-Rissanen fit")
    long_ar = fit_ar_yule_walker(centered, long_order)
    residuals = _ar_residuals(centered, np.array(long_ar.ar))
    # Stage 2: least squares on lags of y and lags of estimated residuals.
    start = max(p, q)
    rows = centered.size - start
    design = np.empty((rows, p + q))
    for i in range(p):
        design[:, i] = centered[start - 1 - i : centered.size - 1 - i]
    for j in range(q):
        design[:, p + j] = residuals[start - 1 - j : residuals.size - 1 - j]
    target = centered[start:]
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    fitted = design @ coeffs
    noise_var = float(np.mean((target - fitted) ** 2))
    return ArmaSpec(
        ar=tuple(float(v) for v in coeffs[:p]),
        ma=tuple(float(v) for v in coeffs[p:]),
        noise_var=max(noise_var, 1e-12),
    )


def _ar_residuals(centered: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """One-step residuals of an AR model, zero-padded at the start."""
    order = phi.size
    residuals = np.zeros_like(centered)
    for t in range(order, centered.size):
        window = centered[t - order : t][::-1]
        residuals[t] = centered[t] - float(phi @ window)
    return residuals


def _harvey_state_space(spec: ArmaSpec) -> StateSpaceModel:
    """Harvey companion-form state-space representation of an ARMA process."""
    r = max(spec.p, spec.q + 1)
    phi = np.zeros(r)
    phi[: spec.p] = spec.ar
    theta = np.zeros(r)
    theta[0] = 1.0
    theta[1 : spec.q + 1] = spec.ma
    transition = np.zeros((r, r))
    transition[:, 0] = phi
    if r > 1:
        transition[:-1, 1:] = np.eye(r - 1)
    impact = theta.reshape(-1, 1)
    process_cov = spec.noise_var * (impact @ impact.T)
    observation = np.zeros((1, r))
    observation[0, 0] = 1.0
    # A tiny observation noise keeps the innovation covariance invertible.
    observation_cov = np.array([[spec.noise_var * 1e-6 + 1e-12]])
    return StateSpaceModel(transition, observation, process_cov, observation_cov)


class ArimaModel:
    """An online ARIMA(p, d, q) forecaster backed by a Kalman filter.

    Typical use::

        model = ArimaModel(p=2, d=1, q=1)
        model.fit(history)            # estimate coefficients
        model.observe(new_value)      # online updates
        model.forecast(3)             # 1..3-step-ahead means
    """

    def __init__(self, p: int = 1, d: int = 0, q: int = 0) -> None:
        if d < 0 or d > 2:
            raise ConfigurationError("differencing order d must be 0, 1, or 2")
        self.p, self.d, self.q = int(p), int(d), int(q)
        self.spec: ArmaSpec | None = None
        self._filter: KalmanFilter | None = None
        self._mean = 0.0
        self._recent: list[float] = []  # last d + 1 raw values for integration

    def fit(self, series: np.ndarray) -> ArmaSpec:
        """Estimate coefficients from a history and prime the filter."""
        series = np.asarray(series, dtype=float)
        differenced = np.diff(series, n=self.d) if self.d else series.copy()
        if self.q == 0:
            self.spec = fit_ar_yule_walker(differenced, max(self.p, 1))
        else:
            self.spec = fit_arma_hannan_rissanen(differenced, self.p, self.q)
        self._mean = float(differenced.mean())
        self._filter = KalmanFilter(_harvey_state_space(self.spec))
        self._recent = list(series[-(self.d + 1) :]) if self.d else []
        for value in differenced:
            self._filter.step(value - self._mean)
        return self.spec

    def observe(self, value: float) -> None:
        """Fold in a new raw observation."""
        filter_ = self._require_fit()
        value = float(value)
        if self.d == 0:
            filter_.step(value - self._mean)
            return
        self._recent.append(value)
        if len(self._recent) > self.d + 1:
            self._recent.pop(0)
        if len(self._recent) < self.d + 1:
            return
        window = np.asarray(self._recent)
        differenced = float(np.diff(window, n=self.d)[-1])
        filter_.step(differenced - self._mean)

    def forecast(self, steps: int) -> np.ndarray:
        """Mean forecasts for 1..steps ahead, re-integrated to raw scale."""
        filter_ = self._require_fit()
        diff_forecast = filter_.forecast(steps) + self._mean
        if self.d == 0:
            return diff_forecast
        # Undo differencing: rebuild the raw-scale path step by step.
        tail = list(self._recent)
        out = np.empty(steps)
        for i, delta in enumerate(diff_forecast):
            if self.d == 1:
                value = tail[-1] + delta
            else:  # d == 2
                value = 2 * tail[-1] - tail[-2] + delta
            out[i] = value
            tail.append(value)
            tail.pop(0)
        return out

    def _require_fit(self) -> KalmanFilter:
        if self._filter is None:
            raise NotTrainedError("ArimaModel.fit must be called before use")
        return self._filter
