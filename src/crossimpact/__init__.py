"""Kernel-based cross-impact model calibration.

Simulate a buy/sell Hawkes order flow, estimate flow and return
covariances on a uniform lattice, spectrally factorize the flow
covariance, build the martingale-consistent impact kernel and its
no-arbitrage projection, and evaluate strategy costs and arbitrage
diagnostics under either kernel.
"""

from .hawkes import (EventStream, HawkesSpec, analytic_kernel, simulate,
                     validate_spec)
from .observables import (BinnedSeries, ObservableSet, PricePath, bin_events,
                          build_observables, estimate_omega, estimate_sigma,
                          omega_aggregates, tapered_lags)
from .polymat import WhittleFactor, spectrum_on_grid, whittle_factor
from .kernels import (AdmissibilityReport, ImpactKernel, build_K1,
                      compute_K0, compute_Lambda, kyle_matrix, nsa_check,
                      regularize_K2)
from .arbitrage import (CostBreakdown, Strategy, buy_hold_sell, cost,
                        min_roundtrip_cost, pair_trading_strategy,
                        predict_prices)

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport", "BinnedSeries", "CostBreakdown", "EventStream",
    "HawkesSpec", "ImpactKernel", "ObservableSet", "PricePath",
    "Strategy", "WhittleFactor",
    "analytic_kernel", "bin_events", "build_K1", "build_observables",
    "buy_hold_sell", "compute_K0", "compute_Lambda", "cost",
    "estimate_omega", "estimate_sigma", "kyle_matrix", "min_roundtrip_cost",
    "nsa_check", "omega_aggregates", "pair_trading_strategy",
    "predict_prices", "regularize_K2", "simulate", "spectrum_on_grid",
    "tapered_lags", "validate_spec", "whittle_factor",
]
