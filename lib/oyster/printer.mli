(** Textual rendering of Oyster designs (s-expression operators, one
    declaration or statement per line, expressions wrapped at 80 columns).
    Round-trips through {!Parser}. *)

val design_to_string : Ast.design -> string
val expr_to_string : Ast.expr -> string

val loc : Ast.design -> int
(** Lines of Oyster code — the sketch-size measure of paper Table 1: the
    number of non-blank lines of the textual rendering. *)
