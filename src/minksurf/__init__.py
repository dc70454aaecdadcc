"""Differential invariants and lightlike-H certificates for spacelike
surfaces in Minkowski 4-space, built around meridian surfaces of
rotational hypersurfaces with lightlike axis."""

import os

# Every matrix here has at most 4 rows, too small for BLAS worker threads
# to pay: a pool started at numpy import only spins and preempts the
# main thread.  Set before numpy loads; an explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (AdmissibilityError, CurvatureMismatch, DegenerateFrame,
                     DomainError, Error, ExprError, NotSpacelike, ParamError,
                     SingularProjection, UsageError)
from .minkowski import (E1, E2, E3, E4, XI1, XI2, CausalCharacter,
                        NullFrameCoords, Vec4M, causal_character,
                        from_null_frame, inner, to_null_frame)
from .jets import Jet2, Jet2Vec4, vec_from_null_jets
from .surface import (GridSpec, Interval, PointData, Rect, SurfacePatch,
                      is_marginally_trapped, jet_eval_surface, normal_frame,
                      point_data, point_data_from_derivatives)
from .meridian import (ClosedForms, MTFamilyParams, PlaneSection,
                       ProfileCurvePhi, ProfilePair, RootBranch, SignBranch,
                       build_parabolic, kappa_bar, kappa_m, meridian_plane,
                       mt_cone_patch, mt_general_gprime,
                       mt_general_profile, parabolic_closed_forms,
                       parabolic_normal_frame, paraboloid_point,
                       plane_section_curvature, plane_section_phi,
                       profile_u, profile_v)
from .verify import (VerificationReport, claim_suite,
                     render_reports, verify_case1_hyperplane,
                     verify_closed_form_invariants,
                     verify_cone_lightlike_hyperplane,
                     verify_constant_section_curvature,
                     verify_flat_normal_connection,
                     verify_marginally_trapped, verify_meridian_planarity,
                     verify_ode_chain, verify_second_fundamental_form)

__version__ = "0.1.0"
