"""Context-aware next-frame video prediction at desk scale.

Five-direction recurrent plane scans over the input cuboid, context
blending, directional weight sharing and a combined Lp +
gradient-difference training objective, all on top of a small float64
reverse-mode tape.
"""

from contextvp.tensor import Tensor, Tape, ShapeError

__all__ = ["Tensor", "Tape", "ShapeError"]
