"""Event-B to JML translation with an exhaustive finite-universe
refinement checker."""

from .ebast import (
    Ident, Machine, Event, Span, free_identifiers, mod_list, mod_set,
)
from .ebcheck import Diagnostic, resolve_types, well_formedness_check
from .parser import (
    OutOfSubsetError, ParseError, parse_machine, parse_predicate,
    render_machine,
)
from .jmlast import JmlClass, normalize_jml, render_class
from .translate import (
    TranslationError, TranslationUnit, jml_type_of, translate_machine,
)
from .semantics import (
    Budget, EvalError, ResourceLimitError, State, Universe,
    eb_event_rel, eb_init_states, eb_pred_holds, enumerate_states,
    jml_initially_states, jml_method_rel, jml_pred_holds,
)
from .checker import (
    Counterexample, MutationError, Report, Verdict, check_event,
    check_init, check_machine, mutate_translation,
)

__version__ = "0.1.0"
