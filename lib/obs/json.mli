(** Minimal JSON: hand-rolled emission plus a small strict parser.

    The emission half is shared so the Chrome trace sink, the serve wire
    codec and the perfbench report agree byte-for-byte on escaping.  Each combinator returns
    a syntactically complete JSON fragment, so documents compose by plain
    concatenation.

    The parser exists for tests and smoke checks: it validates that the
    documents this library emits (trace files, flight dumps) really are
    JSON, and lets tests round-trip required fields without an external
    dependency. *)

val escape : string -> string
(** Backslash-escapes double quotes and backslashes and renders control
    bytes (< 0x20) as [\uXXXX].  Every other byte passes through
    unchanged, so UTF-8 encoded text stays intact. *)

val str : string -> string
(** [str s] is the JSON string literal for [s] (quotes plus {!escape}). *)

val int : int -> string

val bool : bool -> string

val num : float -> string
(** JSON number for a float.  Non-finite values render as [null] — JSON
    has no representation for them. *)

val obj : (string * string) list -> string
(** [obj fields] renders an object.  Keys are escaped; values must already
    be JSON fragments. *)

val arr : string list -> string
(** [arr items] renders an array of already-rendered fragments. *)

(** {1 Parsing} *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | String of string
  | Arr of value list
  | Obj of (string * value) list

exception Parse_error of string

val parse : string -> value
(** Strict parse of one complete JSON document (trailing garbage is an
    error).  [\uXXXX] escapes decode to UTF-8, surrogate pairs included.
    Raises {!Parse_error}. *)

val member : string -> value -> value option
(** Field lookup in an [Obj]; [None] on a missing field or a non-object. *)
