(** The structured synthesis failure.

    One exception shared by every [lib/synth] module ({!Engine} re-exports
    it as [Engine.Engine_error]) so the CLI can report any synthesis-layer
    failure uniformly instead of crashing on a bare [Failure] or
    [Invalid_argument]. *)

exception Engine_error of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Engine_error} with the formatted message. *)
