"""Supervised event abstraction: learn a mapping from low-level events to
high-level activity labels on annotated traces, apply it to unannotated
traces, and collapse the result into a high-level start/complete log.
"""

from .errors import EventabsError, InputError
from .xes import (
    AttributeValue,
    Event,
    EventLog,
    Trace,
    parse_xes,
    serialize_xes,
    sensor_series_to_log,
)
from .petri import (
    HierarchicalProcess,
    LabeledPetriNet,
    Marking,
    generate_annotated_log,
    medicine_eating_process,
)
from .features import CatalogConfig, FeatureCatalog, build_catalog
from .crf import CrfModel
from .abstraction import (
    AbstractionConfig,
    annotate,
    collapse,
    fit,
    load_model,
    save_model,
    strip_labels,
)
from .evaluation import (
    AbstractionReport,
    EvalConfig,
    k_fold,
    leave_one_trace_out,
    levenshtein_similarity,
)

__version__ = "0.1.0"

__all__ = [
    "EventabsError",
    "InputError",
    "AttributeValue",
    "Event",
    "EventLog",
    "Trace",
    "parse_xes",
    "serialize_xes",
    "sensor_series_to_log",
    "HierarchicalProcess",
    "LabeledPetriNet",
    "Marking",
    "generate_annotated_log",
    "medicine_eating_process",
    "CatalogConfig",
    "FeatureCatalog",
    "build_catalog",
    "CrfModel",
    "AbstractionConfig",
    "annotate",
    "collapse",
    "fit",
    "load_model",
    "save_model",
    "strip_labels",
    "AbstractionReport",
    "EvalConfig",
    "k_fold",
    "leave_one_trace_out",
    "levenshtein_similarity",
    "__version__",
]
