"""tqecsynth: synthesis of topologically error-corrected circuit geometries.

Pipeline stages: gate-list parsing, decomposition into the native
CNOT/T/P/V set, ICM conversion through gate teleportation, matrix encoding,
3D defect-geometry generation, distillation-box scheduling with failure
simulation, pin routing, and distance/volume/slicing analysis.
"""

__version__ = "0.1.0"

from .pipeline import PipelineConfig, SparePolicy, run_pipeline  # noqa: F401
from .document import build_document                            # noqa: F401
