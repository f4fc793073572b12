"""Entanglement estimation from Bell-violation statistics.

Core flow: build a state (`qstate`), expand an inequality orbit (`bell`),
sample the nonlocal fraction (`nlfrac`), convert to concurrence through the
closed forms or fit curves (`entanglement`, `fits`), or run the same
analysis on coincidence-count data (`expdata`).
"""

__version__ = "0.1.0"

from .bell import (BellInequality, InequalitySet, behavior_from_state,
                   chsh_horodecki, correlation_matrix, default_set, evaluate,
                   expand_relabelings, max_violation)
from .entanglement import (concurrence2, concurrence_pure,
                           gme_concurrence_pure, gme_concurrence_xstate,
                           xstate_decompose)
from .errors import (BellentError, DomainError, FitError, MissingDataError,
                     NotAnXStateError, ParameterError, ParseError)
from .nlfrac import (PvEstimate, ViolationSamples, estimate_pv, estimate_pvs,
                     pv_from_distribution, pv_werner2_closed,
                     pv_werner2_quadrature, sample_chsh_reduced,
                     violation_distribution)
from .qstate import (DensityMatrix, LocalUnitary, PureState, gghz, gsms2,
                     gsms3, mems, phn, werner_like)
