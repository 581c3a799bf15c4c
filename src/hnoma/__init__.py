"""Hybrid-NOMA uplink simulator and rate-shortfall probability analysis."""

from .asymptotic import asymptotic_pt_terms, p_t_asymptotic
from .channel import (OrderPairDensity, mass_lower_interval,
                      mass_upper_interval, sample_gain_matrix)
from .config import InvalidConfigError, SystemConfig, db_to_linear, linear_to_db
from .estimates import ProbEstimate
from .exact import (RegimeConstants, compute_constants, eta_thresholds,
                    exact_pt_terms, p_t_exact, regime_label)
from .mc import (estimate_coupled, estimate_decomposition, integrate_event,
                 integrate_events, integrate_underperformance, mc_summary)
from .numerics import IntegrationFailureError, adaptive_integrate, stream
from .regions import (EventRegion, region_contended_loss,
                      region_uncontended_loss, region_underperformance,
                      region_zero_cap_loss)
from .schemes import Scheme
from .sweep import SweepSpec, run_sweep, write_rows
from .validate import run_validation

__version__ = "0.1.0"
