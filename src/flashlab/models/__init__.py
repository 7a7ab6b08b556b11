from .applications import (
    RBEREstimate,
    estimate_lifetime,
    estimate_rber,
    predict_vopt,
    sweep_vopt,
)
from .cdf import (
    StateModel,
    enforce_constraints,
    gcdf,
    kl_divergence,
    model_density,
    ncdf,
    pooled_kl,
    state_cdf,
    tcdf,
)
from .fitting import (
    FitResult,
    PowerLawParams,
    default_init,
    dynamic_to_dict,
    fit_dynamic,
    fit_power_law,
    fit_static,
    load_models_json,
    models_from_dict,
    models_to_dict,
    predict_static,
    save_models_json,
)
from .simplex import nelder_mead
from .tables import NU_GRID, LookupTables, default_tables
