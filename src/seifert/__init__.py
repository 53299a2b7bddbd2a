"""Exact invariant calculus for compact Seifert fibered 3-manifolds.

Everything is pure-Python integer and rational arithmetic: symbol
parsing and normal forms, fundamental groups and their Fuchsian
quotients, first homology, abelianization by Smith normal form, coset
enumeration, lens-space recognition, topological predicates and cover
constructions. The console script `seifert` exposes each operation.
"""

from ._record import replace
from .arith import IntMatrix, ReducedFraction, reduce_mod1, smith_normal_form
from .covers import (EulerSum, FiberlessCover, euler_sum, fiberless_cover,
                     orientable_double_cover, suggest_cover_sheets)
from .errors import (AlreadyOrientable, BadDeterminant, CountTooLarge,
                     ExcludedSpace, IndexNotDivisible, InputError, InternalError,
                     InvalidIndex, InvalidSurface, LimitTooSmall, ModeError,
                     NotClosed, NotClosedOriented, NotCoprime, NotOriented,
                     OddEulerCharacteristic, OutputTooLong, ParseError,
                     PreconditionError, QuotientFinite, SeifertError,
                     ValidityError, WrongBase, ZeroDenominator)
from .fst import (BoundaryClass, CrossingPair, FiberedSolidTorus, HomeoMode,
                  crossing_invariants, fold_crossing, fst_equivalent,
                  fst_normalize, lift_curve, lift_fiber,
                  meridian_from_crossing)
from .groups import (AbelianGroup, EnumerationResult, FuchsianSignature,
                     Presentation, SizeClass, TriangleInfo, abelianization,
                     coset_enumerate, first_homology, fuchsian_euler,
                     fuchsian_quotient, fuchsian_size_class,
                     pi1_presentation, presentation_text,
                     presentation_texts, signature_of_symbol, triangle_info,
                     triangle_presentation)
from .lens import (GluingMatrix, LensParams, SmallResult, fibering_transform,
                   lens_equivalent, lens_normalize, recognize_S2_symbol,
                   sphere_h1_order)
from .symbol import (ClassInfo, ClassPart, EquivalenceMode, SeifertSymbol,
                     SurfaceSpec, classifying_classes, normalize_symbol,
                     parse_symbol, render_symbol, reverse_orientation,
                     symbols_equivalent, total_space_orientability)
from .topology import (PredicateReport, bounded_equivalent, classify_small,
                       is_flat, predicates)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
