"""Planar devil-stick juggling under impulsive inputs.

Hybrid plant simulation, discrete constraint-enforcing control, constrained
passive dynamics and orbit design, and return-map orbital stabilization.
"""

from .dvhc import (dvhc_control, on_constraint_state, phi, psi, residuals,
                   steady_inputs)
from .dynamics import (flight, impulsive_update, mechanical_energy,
                       sample_flight, time_of_flight)
from .dzd import (DzdState, OrbitSpec, design_orbit, dzd_step, growth_factor,
                  symmetric_omega_star)
from .errors import (AsymmetricSpec, Degenerate, FDInconsistent, Infeasible,
                     JugglingError, NonFinite, NoPositiveRoot, NotOnSection,
                     NotStabilizing, OffSchedule, RiccatiDiverged, RodExceeded,
                     ScenarioError, SingularOrientation, WrongRotationSign,
                     WrongSign)
from .harness import (EpisodeConfig, EpisodeLog, EpisodeMetrics, metrics,
                      run_episode)
from .model import FullState, ImpulseCmd, JuggleSpec, StickParams, validate
from .stabilizer import (FeedbackGain, LinearizedMap, controllability,
                         dare_residual, dlqr, feedback, fixed_point, linearize,
                         poincare_map, riccati_solution)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
