"""Exact q-series and ray class theta machinery for imaginary quadratic
fields, with verification suites for the identities they satisfy."""

from .qseries import (
    ExactDivisionError,
    QSeries,
    divide_by_unit,
    equals_to_order,
    eta,
    theta_gen,
    theta_lincomb,
    v_func,
    virasoro_char,
)
from .quadfield import (
    Field,
    QIdeal,
    QuadInt,
    SplitRecord,
    class_group_reps,
    class_number,
    enumerate_ideals,
    factor_ideal,
    field,
    ideal_from_gens,
    is_principal,
    principal_ideal,
    split_prime,
    valuation,
)
from .rayclass import (
    CharacterPsi,
    ClassCombo,
    ClosureError,
    Conductor,
    NotCoprimeError,
    RayClassRef,
    admissible,
    compute_skew_sets,
    conductor_of,
    crt_class,
    lift_classes,
    psi_conductor,
    ray_class,
    ray_theta,
    reduce_class,
    same_ray_class,
    SkewOverlapError,
    units_mod_conductor,
)
from .bridge import (
    CosetSpec,
    RayThetaSpec,
    check_cross_field,
    check_descent,
    coset_theta_direct,
    coset_to_rayclass,
    decompose_coset,
    product_to_coset,
    split_coset,
    theta_coset_raw,
)
from .report import VerificationReport
from .identities import (
    FamilyParams,
    PellSolution,
    SearchConfig,
    consolidate,
    negative_control,
    pell_levels,
    run_suite,
    search_relations,
    thm51_check,
    verify_id1,
    verify_id2,
    verify_relations55,
    verify_sec54,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
