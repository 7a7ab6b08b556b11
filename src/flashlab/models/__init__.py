from .cdf import model_density, pooled_kl
from .fitting import (
    dynamic_to_dict,
    fit_dynamic,
    fit_static,
    predict_static,
    save_models_json,
)
