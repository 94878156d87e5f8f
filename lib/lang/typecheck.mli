(** Type checking for the kernel language.

    Types are [int] (64-bit signed), [float] (IEEE double) and typed
    pointers. Pointer arithmetic scales by element size as in C; indexing
    loads/stores through the pointed-to element type. *)

type env = (string * Ast.ty) list

val type_of_expr : env -> Ast.expr -> (Ast.ty, string) result

val check_kernel : Ast.kernel -> (unit, string) result
(** Checks declarations-before-use, type agreement of assignments,
    conditions of integer type, break/continue only inside loops, and
    consistent return types. *)
