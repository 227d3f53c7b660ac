"""Clifford-algebra Hilbert transforms, Hardy decompositions, and the
dilation-spin-translation group representations that commute with them.

Periodic spectral discretization on [-L/2, L/2)^n for n = 2, 3 with
multivector values in Cl(0,2), Cl(0,3), or the quaternion view of the
even subalgebra.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .algebra import (
    ALGEBRAS,
    Algebra,
    IdealId,
    clifford_conjugate,
    coeff_inner,
    coeff_norm,
    geometric_product,
    get_algebra,
    ideal_generators,
    ideal_project,
    pair_basis,
    pair_projector,
    phi_even_to_h,
    vector_embed,
    vector_part,
)
from .spin import (
    GroupElement,
    SpinElement,
    act_vector,
    compose,
    identity_element,
    identity_spin,
    inverse,
    random_spin,
    rotation_matrix,
    section_s_omega,
    spin2_from_angle,
    spin3_from_axis_angle,
)
from .fields import (
    CliffordField,
    FieldFormatError,
    GridSpec,
    SpectralField,
    inner_product,
    make_band_limited_random,
    norm,
    read_field,
    rel_error,
    resample_action,
    spectral_forward,
    spectral_inverse,
    spectral_upsample,
    write_field,
    zero_field,
)
from .transforms import (
    cauchy_extend,
    chi_multiplier_array,
    hardy_project,
    hilbert,
    hilbert_multiplier_at,
    poisson_extend,
    pv_quadrature_riesz,
    riesz,
)
from .representations import (
    SubspaceId,
    SubspaceMembershipError,
    commutant_dimension_experiment,
    commutation_residual,
    hilbert_eigen_check,
    induced_rep,
    intertwiner_left_w,
    intertwiner_right_e1,
    multiplier_equivariance_residual,
    natural_rep,
    natural_rep_spectral,
    random_subspace_member,
    rho_conjugation_n2,
    riesz_covariance_residual,
    subspace_membership_residual,
    subspace_project,
)
from .suites import SuiteConfig, run_suite

# the public names imported above, in import order; not the submodules the imports bind
__all__ = ["__version__"] + [k for k, v in globals().items() if k[0] != "_" and not isinstance(v, _ModuleType)]
