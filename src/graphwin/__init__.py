"""Task-supervised windowing of time-stamped edge streams.

Segment a dynamic network's edge stream into windows, score candidate window
sizes by how well downstream tasks (link prediction, attribute prediction,
change-point detection) perform, and select sizes offline or online against
structural baselines.
"""
# each module's `__all__` is its public surface, re-exported here
from .attrpred import *  # noqa: F401,F403
from .changepoint import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .linkpred import *  # noqa: F401,F403
from .selectors import *  # noqa: F401,F403
from .temporal import *  # noqa: F401,F403
from .windows import *  # noqa: F401,F403

__version__ = "0.1.0"
