"""Session-typed pi calculus: deterministic type checker, split-based
derivability oracle, and operational semantics."""

from .checker import (
    AuditRecord,
    AuditViolation,
    CheckError,
    CheckResult,
    ErrorKind,
    TraceStep,
    check,
    check_var,
    type_check,
)
from .contexts import (
    VOID,
    Context,
    ContextAlgebraError,
    DeclContext,
    Single,
    Void,
    closure,
    context_equal,
    context_file_text,
    decl_to_context,
    entry_of_type,
    is_safe_context,
    is_safe_entry,
    is_safe_type,
    is_un_context,
    is_un_entry,
    nabla,
    pretty,
    to_decl_context,
    type_of_entry,
    update_context,
    update_entry,
    used_map,
)
from .declarative import OracleResult, Split, Verdict, derivable, derivable_value, enumerate_splits
from .equality import dual, type_equal, unfold
from .parser import ParseError, parse_context, parse_entry, parse_process, parse_type
from .semantics import (
    RewriteStep,
    congruence_steps,
    reduce_step,
)
from .syntax import (
    ChanType,
    End,
    Input,
    New,
    Output,
    Par,
    Process,
    Qual,
    Qualified,
    Rec,
    Recv,
    Repl,
    Send,
    Type,
    TypeVar,
    UN_END,
    Zero,
    barendregt_rename,
    free_vars,
    substitute,
)


__all__ = [name for name in dir() if not name.startswith("_")]
