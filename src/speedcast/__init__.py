"""Speed-control action forecasting from egocentric driving detections."""

__version__ = "0.1.0"

from .types import Action, CategoryQuota, FrameDetections, SensorSample  # noqa: F401
