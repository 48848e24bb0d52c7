"""Discrete X-ray transform on the integer lattice: exact forward and
inverse transforms, a continuous-model bridge for unit-cell fields, and
brute-force verification of the counting estimates behind them.
"""

from .errors import (BudgetError, FileFormatError, LxrayError,
                     MissingDataError, PlanError, PreconditionError,
                     ZeroWeightError)
from .lattice import (ShellDecomposition, as_fraction, ball_count,
                      build_shells, enumerate_ball, farey_count,
                      is_canonical_direction, norm2, primitive, totient_sieve,
                      totient_sum)
from .rays import (Plane, Ray, RayKey, coordinate_plane, effectively_irrational,
                   perp_family, perp_ray, perp_ray_in_plane, points_on_ray,
                   ray_key)
from .transform import (FamilyMeta, GridFunction, Sinogram, constant_weight,
                        forward, forward_family, forward_weighted,
                        project_and_bin)
from .recon import (ReconPlan, make_plan, one_point_directions, one_point_family,
                    recon_annulus, recon_one_point, recon_shells,
                    recon_shells_weighted)
from .continuum import (BallField, cell_chord, chord_weight,
                        correction_identity_check, data_residual, forward_balls,
                        forward_continuous, forward_continuous_family,
                        hits_centers_only, iterate_recon, layer_recon)
from .counting import (CountReport, canonical_primitives, count_connecting_lines,
                       farey_asymptotic_report, separation_margin,
                       verify_count_bounds)

__version__ = "0.1.0"
