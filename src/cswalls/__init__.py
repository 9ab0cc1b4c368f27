"""Exact wall-and-chamber computations for rank-3 coherent-system classes
on a curve: lattice pairings, envelope models, central charges, wall
enumeration, region classification, and a deterministic CLI."""

__version__ = "0.1.0"

from .charges import (  # noqa: F401
    DEFAULT_TOL,
    ChargeData,
    ComplexRational,
    GLElement,
    PlanePoint,
    central_charge,
    gl_act,
    gluing_presentation,
    heart_phase,
    identity_element,
    mu_alpha,
    normalize_type_b,
    nu,
    type_b_triple,
)
from .classify import (  # noqa: F401
    ClassificationResult,
    GluingBranch,
    Membership,
    classify_regions,
    full_classification,
    in_ua,
    second_gluing_branch,
)
from .envelopes import (  # noqa: F401
    BNModel,
    PLFunction,
    RegionVerdict,
    general_upper,
    lower_envelope,
    make_model,
    mercat_upper,
    model_from_json,
    region_uc,
    region_uf,
)
from .errors import CswallsError  # noqa: F401
from .lattice import (  # noqa: F401
    PAIR_CLASS,
    POINT_CLASS,
    SECTION_CLASS,
    SHEAF_CLASS,
    Genus,
    NumClass,
    dual_class,
    euler,
    mutate_left,
    project,
    serre_class,
    serre_matrix,
)
from .walls import (  # noqa: F401
    EVERYWHERE_EQUAL,
    NO_WALL,
    BogomolovVerdict,
    ChamberReport,
    Check,
    Wall,
    Window,
    bogomolov_verdict,
    chamber_decomposition,
    delta_certificate,
    enumerate_walls,
    find_delta,
    ray_line,
    support_form_value,
    wall_line,
)
